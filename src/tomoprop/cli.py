"""Batch front door: parse a job config, run it, emit deterministic files.

Usage: tomoprop <task> --config job.json [--output-dir DIR]
       [--override key=value ...]
   or: python -m tomoprop <task> ...   (the same command, no install needed)

Exit codes: 0 success, 2 config error, 3 numeric or validation failure,
4 I/O error.  Every run writes report.json (machine-readable results, no
timestamps, byte identical across reruns) next to the task's data files;
volatile metadata (timestamps, versions of the package, numpy and SciPy,
the TOMOPROP_THREADS cap that importing the package applied) is segregated
into run_meta.json.
On failure an error.json record is written when the output directory is
usable, and the same record always goes to stderr.
"""

import argparse
import contextlib
import datetime
import json
import os
import sys
import tempfile

import numpy as np

from . import _THREAD_CAP, __version__
from . import config as cfgmod
from . import oracles
from . import output as io
from . import pde_evolution as pde
from . import quad_dynamics as qd
from . import states
from . import transforms as tr
from .errors import ParseError, TomopropError, ValidationError


def _state_tomogram(cfg):
    """The job's pure state and its tomogram, built once by the pure-state
    (chirp-z) route.

    validate() refuses a tomogram whose X window cuts off more than
    transforms.ROW_NORM_TOL of a row's mass.
    """
    psi = cfg.state.build(cfg.coordinate_grid)
    w = tr.tomogram_from_wavefunction(psi, cfg.tomogram_grid)
    return psi, w.validate()


def run_job(cfg):
    """Execute one validated job; returns (report dict, list of files written).

    A run leaves all of its data files or none: each is written under a
    temporary name in the output directory and renamed into place only
    after the whole task, with every guard, has succeeded.  On any failure
    the staged files are removed.  report.json is written last.
    """
    outdir = cfg.output_dir
    os.makedirs(outdir, exist_ok=True)
    staged = []

    def emit(name, writer, *args):
        fd, tmp = tempfile.mkstemp(dir=outdir, prefix=".tomoprop-", suffix=".tmp")
        os.close(fd)
        staged.append((tmp, name))
        writer(tmp, *args)

    try:
        report = _run_task(cfg, emit)
        for tmp, name in staged:
            os.replace(tmp, os.path.join(outdir, name))
    finally:
        for tmp, _ in staged:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
    io.write_report(os.path.join(outdir, "report.json"), report)
    _remove_stale(outdir, "error.json")
    return report, [name for _, name in staged] + ["report.json"]


def _remove_stale(outdir, *names):
    """Drop the outcome records of a previous run that this run's outcome
    contradicts."""
    for name in names:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(os.path.join(outdir, name))


def _job_step(cfg):
    """(dt, error estimate at dt): the job's step, quad_dynamics.choose_step
    on [0, config.horizon(times)]."""
    return qd.choose_step(cfg.hamiltonian, cfgmod.horizon(cfg.times))


def _maps(H, times, dt):
    """The affine map to each time, read off one eps(t) solve with a node
    at every time."""
    traj = qd.solve_epsilon(H, max(times), dt, stops=times)
    return [qd.optical_map(traj, t) for t in times]


def _run_task(cfg, emit):
    """The task body: computes the report and hands each data file to
    emit(name, writer, *args)."""
    report = {"task": cfg.task}

    if cfg.task == "tomogram":
        _, w = _state_tomogram(cfg)
        emit("tomogram.csv", io.write_tomogram, w)
        report["row_norm_max_dev"] = float(np.abs(w.row_norms() - 1.0).max())
        report["min_value"] = float(w.values.min())

    elif cfg.task == "evolve":
        H = cfg.hamiltonian
        dt, estimate = _job_step(cfg)
        report["backend"] = cfg.backend
        report["dt"] = dt
        report["dt_error_estimate"] = estimate
        report["times"] = list(cfg.times)
        _, w0 = _state_tomogram(cfg)
        if cfg.backend in ("map", "both"):
            maps = _maps(H, cfg.times, dt)
        if cfg.backend in ("pde", "both"):
            pdes = pde.evolve_semilagrangian(w0, H, cfg.times[-1], dt, stops=cfg.times)
        gaps = []
        for i in range(len(cfg.times)):
            per_backend = {}
            if cfg.backend in ("map", "both"):
                per_backend["map"] = qd.evolve_tomogram(w0, maps[i])
                emit("tomogram_map_%03d.csv" % i, io.write_tomogram, per_backend["map"])
            if cfg.backend in ("pde", "both"):
                per_backend["pde"] = pdes[i]
                emit("tomogram_pde_%03d.csv" % i, io.write_tomogram, per_backend["pde"])
            if cfg.backend == "both":
                wx = w0.grid.x_trapezoid_weights
                gaps.append(float(np.mean(
                    np.abs(per_backend["map"].values - per_backend["pde"].values) @ wx
                )))
        if gaps:
            report["l1_backend_gap"] = gaps

    elif cfg.task == "invert":
        try:
            w = io.read_tomogram(cfg.input_path)
        except OSError as e:
            raise _IOFailure(f"cannot read input tomogram: {e}")
        w.validate()
        # One FBP onto the coordinate grid serves both files; validate()
        # refuses a Wigner function whose q window lost its mass.
        W = tr.inverse_radon(w, cfg.coordinate_grid).validate()
        emit("wigner.csv", io.write_wigner, W)
        rho = tr.density_from_wigner(W)
        emit("density.csv", io.write_density, rho)
        report["wigner_mass"] = float(W.mass())
        report["trace"] = float(rho.trace())
        report["purity"] = float(rho.purity())
        report["hermiticity_defect"] = float(rho.hermiticity_defect)

    elif cfg.task == "moments":
        _, w = _state_tomogram(cfg)
        m1, m2 = tr.moments(w, 1), tr.moments(w, 2)
        emit("moments.csv", io.write_moments, w.grid, m1, m2)
        report["m1_abs_max"] = float(np.abs(m1).max())
        report["m2_min"] = float(m2.min())
        report["m2_max"] = float(m2.max())

    elif cfg.task == "validate":
        report["checks"] = _invariant_suite(cfg)
        report["pass"] = all(c["pass"] for c in report["checks"])

    elif cfg.task == "pipeline-check":
        dt, estimate = _job_step(cfg)
        report["dt"] = dt
        report["dt_error_estimate"] = estimate
        maps = _maps(cfg.hamiltonian, cfg.times, dt)
        # The kernels need only the maps, so a focal time refuses the job
        # before the state is built; pipeline_discrepancy builds them
        # again, at a few scalar operations each.
        oracles.green_kernels(maps)
        psi, w0 = _state_tomogram(cfg)
        recs = oracles.pipeline_discrepancy(psi, w0, maps)
        report["records"] = [
            {"t": t, **{k: float(v) for k, v in rec.items()}} for t, rec in zip(cfg.times, recs)
        ]

    else:
        raise ValidationError([f"unhandled task {cfg.task!r}"])

    return report


def _invariant_suite(cfg):
    """Measured-defect checks behind the validate task.

    Both tomograms come from the pure-state (chirp-z) route the tasks run,
    without validate(): a clipped X window shows as failing checks.
    wronskian_drift, the one health figure of the eps(t) solve (det Lambda
    is half the Wronskian), is measured on cfg.hamiltonian solved to
    T = config.horizon(cfg.times) at the step the other tasks take on
    [0, T] (_job_step, the error-budget rule of quad_dynamics.choose_step).
    """
    checks = []

    def add(name, measured, threshold):
        checks.append({
            "name": name,
            "measured": float(measured),
            "threshold": float(threshold),
            "pass": bool(measured <= threshold),
        })

    tg, g = cfg.tomogram_grid, cfg.coordinate_grid

    w_vac = tr.tomogram_from_wavefunction(states.make_vacuum(g), tg)
    ref = np.exp(-tg.xs ** 2) / np.sqrt(np.pi)
    add("vacuum_tomogram_linf", np.abs(w_vac.values - ref).max(), 1e-5)
    add("row_norm_dev", np.abs(w_vac.row_norms() - 1.0).max(), tr.ROW_NORM_TOL)
    add("negativity", max(0.0, -float(w_vac.values.min())), tr.NEGATIVITY_TOL)

    psi = cfg.state.build(cfg.coordinate_grid)
    rho0 = states.density_from_wavefunction(psi)
    w0 = tr.tomogram_from_wavefunction(psi, tg)
    # One FBP onto the coordinate grid serves both round trips, as in invert.
    W = tr.inverse_radon(w0, g)
    rho_back = tr.density_from_wigner(W)
    add("density_round_trip_trace_distance", oracles.trace_distance(rho0, rho_back), 1e-2)

    w_rb = tr.radon(W, tg)
    add("tomogram_round_trip_linf", np.abs(w_rb.values - w0.values).max(), 2e-3)

    # The raw nodes, before EpsilonTrajectory's guard: a drift beyond it is
    # reported as a failing check, not raised.
    _, eps, eps_dot, _ = qd._integrate_epsilon(
        cfg.hamiltonian, cfgmod.horizon(cfg.times), _job_step(cfg)[0])
    add("wronskian_drift", qd._wronskian_drift(eps, eps_dot), qd.WRONSKIAN_TOL)

    return checks


class _IOFailure(Exception):
    """Internal: wraps an OSError from task I/O so main can exit 4."""


def _error_record(exc, code):
    return {"error": type(exc).__name__, "message": str(exc), "exit_code": code}


def _emit_error(record, outdir):
    sys.stderr.write(json.dumps(record) + "\n")
    if outdir:
        try:
            io.write_report(os.path.join(outdir, "error.json"), record)
            _remove_stale(outdir, "report.json", "run_meta.json")
        except OSError:
            pass


def _write_meta(outdir, record):
    """The volatile sidecar: the record, the package version and the
    numeric stack the data-file bytes depend on (numpy's FFTs and integer
    arithmetic; SciPy only when the run loaded it)."""
    scipy = sys.modules.get("scipy")
    try:
        io.write_report(os.path.join(outdir, "run_meta.json"), {
            **record,
            "version": __version__,
            "numpy_version": np.__version__,
            "scipy_version": getattr(scipy, "__version__", None),
            "thread_cap": _THREAD_CAP,
        })
    except OSError:
        pass


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="tomoprop",
        description="Optical tomogram transforms and propagators, batch style.",
    )
    parser.add_argument("task", choices=cfgmod.TASKS)
    parser.add_argument("--config", required=True, help="path to the JSON job config")
    parser.add_argument("--output-dir", default=None, help="overrides output_dir")
    parser.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                        help="dotted config override, repeatable")
    args = parser.parse_args(argv)

    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    outdir = None
    try:
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise ParseError(f"cannot read config {args.config!r}: {e}")

        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise ParseError(
                f"config is not valid JSON: line {e.lineno}, column {e.colno}: {e.msg}"
            )
        # parse_config refuses a document that is not an object; the
        # positional task wins over any override of it.
        if isinstance(doc, dict):
            if args.output_dir is not None:
                doc["output_dir"] = args.output_dir
            cfgmod.apply_overrides(doc, args.override)
            doc["task"] = args.task
        cfg = cfgmod.parse_config(doc)
        outdir = cfg.output_dir

        report, files = run_job(cfg)
    except (ParseError, ValidationError) as e:
        rec = _error_record(e, 2)
        if isinstance(e, ValidationError):
            rec["violations"] = e.violations
        _emit_error(rec, outdir)
        return 2
    except _IOFailure as e:
        _emit_error({"error": "IOError", "message": str(e), "exit_code": 4}, outdir)
        return 4
    except TomopropError as e:
        _emit_error(_error_record(e, 3), outdir)
        return 3
    except OSError as e:
        _emit_error(_error_record(e, 4), outdir)
        return 4

    finished = datetime.datetime.now(datetime.timezone.utc).isoformat()
    failed = cfg.task == "validate" and not report.get("pass", True)
    _write_meta(outdir, {
        "status": "invariants_failed" if failed else "ok",
        "task": cfg.task,
        "files": files,
        "started_utc": started,
        "finished_utc": finished,
    })
    if failed:
        sys.stderr.write("validate: one or more invariants failed, see report.json\n")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
