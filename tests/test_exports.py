"""The package's lazy export table, and the README's use of it."""

import importlib
import os
import re

import pytest

import tomoprop


def test_every_export_resolves():
    for name, module in tomoprop._EXPORTS.items():
        source = importlib.import_module("tomoprop." + module)
        assert getattr(tomoprop, name) is getattr(source, name), name


@pytest.mark.parametrize("name", [
    "SymplecticTomogram", "symplectic_tomogram", "density_point_from_tomogram",
    "kernel_norm_defect", "position_expectation", "momentum_expectation",
    "MotionIntegrals", "motion_integrals", "wigner_from_density",
    "SingularityError",
])
def test_removed_names_are_gone(name):
    with pytest.raises(AttributeError):
        getattr(tomoprop, name)


def test_readme_quick_start_runs():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
