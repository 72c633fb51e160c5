"""`python -m tomoprop`: the `tomoprop` console command without an install.

Runs `tomoprop.cli.main` exactly as the console script declared in
pyproject.toml does.
"""

import sys

from tomoprop.cli import main

if __name__ == "__main__":
    sys.exit(main())
