"""Cold-process benchmark of the tomoprop command line.

Usage:
    python3 bench/run_bench.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (see workloads.py): evolve-driven, invert-cat, pipeline-osc.

Every job is the CLI task a user would run, `tomoprop <task> --config
job.json`, in a fresh interpreter started from this checkout's `src/`
with TOMOPROP_THREADS=1.  Jobs run as a closed loop with one client: the
next job starts when the previous one has ended, until --seconds have
passed (at least three jobs, and two of every config the workload cycles
through).  The seed picks only the physical parameters of the generated
config.

--trace 0 reports the end-to-end metrics:
    job_s        median wall time of cli.main in the job process, after imports
    setup_s      median time from spawning the job process until tomoprop.cli
                 and every tomoprop submodule (numpy, scipy) are imported
                 (both in seconds at the reference speed of hostspeed.py: each
                 job's wall time, scaled by the median time of the fixed kernel
                 that a sampler thread runs on the jobs' CPU during that
                 interval; the measured medians are printed beside them)
    peak_rss_mb  median peak resident set size of the job process
    result_err   deviation of the output from an independent reference,
                 averaged over the workload's configs (see workloads.py)
--trace 1 alternates untraced and traced jobs and reports the per-layer
metrics of tracer.py, medians over the traced jobs.

A job fails when it exits non-zero, when a referee check on its output
fails, when its data files and report.json differ from the bytes of the
first job run on the same config, or, when traced, when its spans do not
form a call tree.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the lines
before it give every metric with its unit and sample count, the referee
checks, the generated parameters and the environment.  The exit code is 1
when any job failed and 2 when the benchmark cannot run at all.

Job outputs live under .bench_work/ in the checkout and are removed once
they are hashed and refereed; the full record of the run, spans included,
is kept in .bench_work/results/.
"""

import argparse
import importlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import hostspeed
import tracer
from job import SUBMODULES
from workloads import (GRID, WORKLOADS, digest_outputs, generate, prepare_inputs,
                       referee)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# Environment variables the CLI sets from TOMOPROP_THREADS; any value
# inherited from the caller would take precedence, so they are cleared.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
THREAD_CAP = "1"

# Every run must end well inside 180 s; no job starts after this budget.
JOB_BUDGET_S = 150.0

END_TO_END = (
    ("job_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("result_err", "1"),
)
UNITS = dict(END_TO_END)


def _git_commit():
    """Commit of the checkout, or None outside a git clone."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed):
    import numpy
    import scipy

    try:
        openblas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (KeyError, TypeError, ValueError):
        openblas = None
    return {
        "nproc": os.cpu_count(),
        "job_cpu": max(os.sched_getaffinity(0)),
        "thread_cap": THREAD_CAP,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "git_commit": _git_commit(),
        "seed": seed,
        "grid": GRID,
    }


def job_env():
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["TOMOPROP_THREADS"] = THREAD_CAP
    env["PYTHONPATH"] = SRC
    return env


def run_job(job_id, task, config_path, outdir, traced, timeout, env):
    """Spawn one job; returns its record with setup_s added, or a failure record."""
    record_path = outdir + ".record.json"
    argv = [sys.executable, os.path.join(HERE, "job.py"), record_path, str(job_id),
            "1" if traced else "0", "--", task, "--config", config_path,
            "--output-dir", outdir]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"job": job_id, "rc": None, "error": f"timed out after {timeout:.0f} s"}
    wall = time.monotonic() - spawned
    try:
        with open(record_path, encoding="utf-8") as fh:
            rec = json.load(fh)
        os.unlink(record_path)
    except (OSError, ValueError):
        return {"job": job_id, "rc": proc.returncode, "wall_s": wall,
                "error": proc.stderr[-2000:]}
    rec["spawned"] = spawned
    rec["setup_s"] = rec["ready_monotonic"] - spawned
    rec["wall_s"] = wall
    if rec["rc"] != 0:
        rec["error"] = proc.stderr[-2000:]
    return rec


def measure(args, docs, config_paths, env):
    """The closed loop: jobs one after another until the time is up.

    A hostspeed.Sampler runs beside the jobs on their CPU; each job's
    times are also given at the reference speed (job_ref_s, setup_ref_s).
    """
    n_cfg = len(docs)
    min_jobs = max(4 if args.trace else 3, 2 * n_cfg)
    jobs, kept = [], {}
    sampler = hostspeed.Sampler()
    sampler.start()
    start = time.monotonic()
    try:
        while True:
            elapsed = time.monotonic() - start
            if len(jobs) >= min_jobs:
                if elapsed + statistics.median(j["cycle_s"] for j in jobs) > args.seconds:
                    break
            if elapsed >= JOB_BUDGET_S:
                break
            i = len(jobs)
            traced = bool(args.trace) and i % 2 == 1
            cfg = (i // 2 if args.trace else i) % n_cfg
            outdir = os.path.join(args.workdir, "job%03d" % i)
            rec = run_job(i, docs[cfg]["task"], config_paths[cfg], outdir, traced,
                          JOB_BUDGET_S + 20.0 - elapsed, env)
            rec.update(config=cfg, traced=traced)
            if rec.get("rc") == 0:
                rec["digest"] = digest_outputs(outdir)
                if traced:
                    rec["layers"] = tracer.derive(rec["spans"], rec["t0"], rec["t1"])
                    rec["span_errors"] = tracer.nesting_errors(rec["spans"], rec["t0"],
                                                               rec["t1"])
                job_k = sampler.median_s(rec["t0"], rec["t1"])
                setup_k = sampler.median_s(rec["spawned"], rec["ready_monotonic"])
                if job_k and setup_k:
                    rec["kernel_s"] = job_k
                    rec["job_ref_s"] = hostspeed.to_reference(rec["job_s"], job_k)
                    rec["setup_ref_s"] = hostspeed.to_reference(rec["setup_s"], setup_k)
            # The first sample of each config is refereed after the loop.
            if cfg not in kept and rec.get("rc") == 0:
                kept[cfg] = outdir
            else:
                shutil.rmtree(outdir, ignore_errors=True)
            rec["cycle_s"] = time.monotonic() - start - elapsed
            jobs.append(rec)
    finally:
        sampler.halt.set()
        sampler.join()
    return jobs, kept


def judge(workload, docs, jobs, kept):
    """Referee the kept outputs and mark every failed job; returns (checks, errs)."""
    checks, errs, first_digest = [], {}, {}
    for cfg, outdir in sorted(kept.items()):
        try:
            c, err = referee(workload, docs[cfg], outdir)
            errs[cfg] = err
        except (OSError, ValueError, KeyError) as e:
            c = [{"name": "readable_outputs", "measured": 1.0, "limit": 0.0, "pass": False,
                  "error": repr(e)}]
        for item in c:
            item["config"] = cfg
        checks.extend(c)
        shutil.rmtree(outdir, ignore_errors=True)
    refereed_ok = {cfg: all(c["pass"] for c in checks if c["config"] == cfg) for cfg in kept}
    for j in jobs:
        cfg = j["config"]
        if j.get("rc") != 0:
            j["failed"] = "exit code %s" % j.get("rc")
            continue
        first_digest.setdefault(cfg, j["digest"])
        if j["digest"] != first_digest[cfg]:
            j["failed"] = "outputs differ from the first sample of this config"
        elif "job_ref_s" not in j:
            j["failed"] = "no host-speed sample inside the job's set-up or run"
        elif j.get("span_errors"):
            j["failed"] = "spans do not form a call tree: " + "; ".join(j["span_errors"][:3])
        elif not refereed_ok.get(cfg, False):
            j["failed"] = "referee check failed"
    return checks, errs


def median_of(jobs, key):
    values = [j[key] for j in jobs if j.get("rc") == 0 and key in j]
    return (statistics.median(values), len(values)) if values else (float("nan"), 0)


def summarize(args, jobs, checks, errs):
    """(metrics for the result line, human-readable report lines)."""
    failed = sum(1 for j in jobs if "failed" in j)
    untraced = [j for j in jobs if not j["traced"]]
    traced = [j for j in jobs if j["traced"]]
    lines = ["workload %s  seed %d  trace %d  closed loop, 1 client, TOMOPROP_THREADS=%s"
             % (args.workload, args.seed, args.trace, THREAD_CAP)]
    metrics = {}
    if args.trace:
        layers = [j["layers"] for j in traced if "layers" in j]
        for name, unit in tracer.PER_LAYER:
            values = [m[name] for m in layers]
            metrics[name] = {"value": statistics.median(values) if values else float("nan"),
                             "unit": unit}
        overhead = median_of(traced, "job_s")[0] - median_of(untraced, "job_s")[0]
        metrics["trace.overhead_s"]["value"] = overhead
        for name, m in metrics.items():
            lines.append("  %-48s %14.6g %-6s median of N=%d traced jobs" % (
                name, m["value"], m["unit"], len(layers)))
    else:
        for key, source in (("job_s", "job_ref_s"), ("setup_s", "setup_ref_s"),
                            ("peak_rss_mb", "peak_rss_mb")):
            value, n = median_of(untraced, source)
            metrics[key] = {"value": value, "unit": UNITS[key]}
            lines.append("  %-12s %12.6g %-3s median of N=%d jobs" % (key, value, UNITS[key], n))
        for label, key in (("wall job_s", "job_s"), ("wall setup_s", "setup_s"),
                           ("host kernel", "kernel_s")):
            value, n = median_of(untraced, key)
            lines.append("  %-12s %12.6g s   median of N=%d jobs, measured seconds" % (
                label, value, n))
        err = statistics.fmean(errs.values()) if errs else float("nan")
        metrics["result_err"] = {"value": err, "unit": UNITS["result_err"]}
        lines.append("  %-12s %12.6g %-3s mean over %d config(s), one refereed job each"
                     % ("result_err", err, UNITS["result_err"], len(errs)))
    lines.append("  %-12s %8d/%-3d failed/attempted jobs" % ("fail_ratio", failed, len(jobs)))
    for c in checks:
        lines.append("  check %-28s config %d  %.4g <= %.4g  %s" % (
            c["name"], c["config"], c["measured"], c["limit"], "pass" if c["pass"] else "FAIL"))
    for j in jobs:
        if "failed" in j:
            lines.append("  job %d failed: %s %s" % (j["job"], j["failed"], j.get("error", "")))
    return metrics, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tomoprop", "cli.py")):
        sys.stderr.write(f"run_bench: no tomoprop sources under {SRC}\n")
        return 2

    # The harness's own numpy (inputs, referees) runs under the same cap.
    os.environ["TOMOPROP_THREADS"] = THREAD_CAP
    # The harness and every job it spawns share one CPU, so that the
    # host-speed kernel measures the CPU the jobs run on: the speed a CPU
    # of a shared host gives drifts on its own, unlike that of its peers.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for var in THREAD_VARS:
        os.environ[var] = THREAD_CAP
    sys.path.insert(0, SRC)
    # Importing every module here compiles the package, so that no job's
    # set-up time includes writing bytecode.
    for name in ("cli", *SUBMODULES):
        importlib.import_module("tomoprop." + name)

    os.makedirs(WORK, exist_ok=True)
    args.workdir = os.path.join(WORK, "%s-seed%d-trace%d-pid%d" % (
        args.workload, args.seed, args.trace, os.getpid()))
    shutil.rmtree(args.workdir, ignore_errors=True)
    os.makedirs(args.workdir)
    try:
        docs, params = generate(args.workload, args.seed)
        docs = [prepare_inputs(args.workload, d, args.workdir) for d in docs]
        config_paths = []
        for k, d in enumerate(docs):
            path = os.path.join(args.workdir, "config%d.json" % k)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(d, fh, indent=2)
            config_paths.append(path)
        jobs, kept = measure(args, docs, config_paths, job_env())
        checks, errs = judge(args.workload, docs, jobs, kept)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    metrics, lines = summarize(args, jobs, checks, errs)
    failed = sum(1 for j in jobs if "failed" in j)
    env = environment(args.seed)
    print("\n".join(lines))
    print("params " + json.dumps(params, sort_keys=True))
    print("env " + json.dumps(env, sort_keys=True))

    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w", encoding="utf-8") as fh:
        json.dump({"params": params, "env": env, "checks": checks, "result_err": errs,
                   "metrics": metrics, "jobs": jobs}, fh)

    print(json.dumps({"correct": failed == 0, "attempted": len(jobs), "failed": failed,
                      "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
