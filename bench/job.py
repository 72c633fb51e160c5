"""One benchmark job: a fresh interpreter that imports tomoprop and runs its CLI.

Usage: python3 bench/job.py RECORD JOB_ID TRACE -- TASK --config FILE ...

The process first imports `tomoprop.cli`, which exports the thread cap,
and then every other `tomoprop` submodule, which loads numpy and scipy.
The monotonic clock reading at that point ends the job's set-up time (the
parent read the same clock just before spawning it).  With TRACE=1 the
layer wrappers from tracer.py go in next.  Then `cli.main` runs once, and
the JSON record written to RECORD holds its exit code, its wall time, the
peak resident set size of the process and, when traced, the spans.
"""

import importlib
import json
import resource
import sys
import time

SUBMODULES = ("config", "errors", "grids", "oracles", "output", "pde_evolution",
              "quad_dynamics", "states", "transforms")


def main(argv):
    record_path, job_id, traced = argv[0], int(argv[1]), argv[2] == "1"
    if argv[3] != "--":
        raise SystemExit("usage: job.py RECORD JOB_ID TRACE -- CLI_ARGS...")
    cli_argv = argv[4:]

    import tomoprop.cli as cli

    for name in SUBMODULES:
        importlib.import_module("tomoprop." + name)
    ready = time.monotonic()

    tracer = None
    if traced:
        import tracer as tracing

        tracer = tracing.Tracer(job_id)
        tracing.install(tracer)

    c0, t0 = time.process_time(), time.perf_counter()
    rc = cli.main(cli_argv)
    t1, c1 = time.perf_counter(), time.process_time()

    record = {
        "job": job_id,
        "rc": rc,
        "ready_monotonic": ready,
        "t0": t0,
        "t1": t1,
        "job_s": t1 - t0,
        "cpu_s": c1 - c0,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "spans": tracer.spans if tracer else None,
    }
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
