"""Command line front end: tasks, exit codes, reports, determinism."""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import tomoprop
from tomoprop import pde_evolution as pde
from tomoprop import quad_dynamics as qd
from tomoprop.cli import main

# Half-resolution grid keeps each CLI task around a second without
# degrading any of the report quantities checked below.
SMALL_GRID = {"x_max": 8.0, "n_x": 512, "n_theta": 90, "q_max": 8.0, "n_q": 256}
DEFAULT_GRID = {"x_max": 8.0, "n_x": 1024, "n_theta": 180, "q_max": 8.0, "n_q": 512}


def write_config(tmp_path, doc, name="job.json"):
    doc = dict(doc)
    doc.setdefault("grid", SMALL_GRID)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_json(tmp_path, name):
    with open(os.path.join(tmp_path, "out", name), encoding="utf-8") as fh:
        return json.load(fh)


def run(tmp_path, task, doc, extra=()):
    cfg = write_config(tmp_path, doc)
    argv = [task, "--config", cfg, "--output-dir", str(tmp_path / "out"), *extra]
    return main(argv)


# ---------------------------------------------------------------------------
# the six tasks


def test_tomogram_task(tmp_path):
    assert run(tmp_path, "tomogram", {}) == 0
    report = read_json(tmp_path, "report.json")
    assert report["task"] == "tomogram"
    assert report["row_norm_max_dev"] < 1e-8
    assert report["min_value"] > -1e-11
    assert (tmp_path / "out" / "tomogram.csv").exists()


def test_evolve_task_both_backends(tmp_path):
    assert run(tmp_path, "evolve", {"times": [0.5], "backend": "both"}) == 0
    report = read_json(tmp_path, "report.json")
    assert report["times"] == [0.5]
    assert report["dt"] == 1e-3
    assert report["l1_backend_gap"][0] < 1e-10
    # Every staged data file is in place and no temporary is left behind.
    assert sorted(os.listdir(tmp_path / "out")) == [
        "report.json", "run_meta.json", "tomogram_map_000.csv", "tomogram_pde_000.csv",
    ]


def test_evolve_task_map_only(tmp_path):
    assert run(tmp_path, "evolve", {"times": [0.5, 1.0]}) == 0
    report = read_json(tmp_path, "report.json")
    assert "l1_backend_gap" not in report
    assert (tmp_path / "out" / "tomogram_map_001.csv").exists()
    assert not (tmp_path / "out" / "tomogram_pde_000.csv").exists()


def test_evolve_report_names_its_backend(tmp_path):
    reports = {}
    for backend in ("map", "pde"):
        doc = {"times": [0.5], "backend": backend}
        cfg = write_config(tmp_path, doc, name=backend + ".json")
        assert main(["evolve", "--config", cfg, "--output-dir", str(tmp_path / backend)]) == 0
        with open(tmp_path / backend / "report.json", encoding="utf-8") as fh:
            reports[backend] = json.load(fh)
    assert reports["map"].pop("backend") == "map"
    assert reports["pde"].pop("backend") == "pde"
    assert reports["map"] == reports["pde"]


def test_both_backends_refuse_the_same_tomogram(tmp_path):
    # The vacuum under omega_sq = 1 + 0.9 cos 2t at t = 5.5 has a row norm
    # 1.218e-3 off 1 on the default grids, past the one row-norm tolerance
    # that holds for both backends: each must exit 3 with the same message
    # and leave no data file.
    for backend in ("map", "pde"):
        doc = {"grid": DEFAULT_GRID, "times": [5.5], "backend": backend,
               "hamiltonian": {"omega_sq": {"kind": "cosine", "a": 1.0, "b": 0.9,
                                            "freq": 2.0}}}
        cfg = write_config(tmp_path, doc, name=backend + ".json")
        assert main(["evolve", "--config", cfg, "--output-dir", str(tmp_path / backend)]) == 3
        with open(tmp_path / backend / "error.json", encoding="utf-8") as fh:
            record = json.load(fh)
        assert record["message"] == "row normalization deviates by 1.218e-03 > 1.0e-03"
        assert os.listdir(tmp_path / backend) == ["error.json"]


def test_integrators_default_to_the_evolve_step(tmp_path, vacuum_tomogram):
    # On a stiff H the step evolve reports lies below 1e-3.  Without a dt,
    # solve_epsilon (omega_sq = 20) and evolve_semilagrangian (omega_sq = 9)
    # each take that step.
    def stiff(omega_sq):
        doc = {"times": [0.05], "backend": "both",
               "hamiltonian": {"omega_sq": {"kind": "constant", "value": omega_sq}}}
        outdir = tmp_path / str(omega_sq)
        assert main(["evolve", "--config", write_config(tmp_path, doc),
                     "--output-dir", str(outdir)]) == 0
        with open(outdir / "report.json", encoding="utf-8") as fh:
            dt = json.load(fh)["dt"]
        H = qd.QuadraticHamiltonian(qd.ConstantSampler(omega_sq), qd.ConstantSampler(0.0))
        assert dt == qd.auto_dt(H) < 1e-3
        return H, dt

    H, dt = stiff(20.0)
    traj = qd.solve_epsilon(H, 0.2)
    assert len(traj.times) - 1 == math.ceil(0.2 / dt - 1e-9)
    np.testing.assert_array_equal(traj.eps, qd.solve_epsilon(H, 0.2, dt).eps)

    H, dt = stiff(9.0)
    w = pde.evolve_semilagrangian(vacuum_tomogram, H, 0.4)[-1]
    np.testing.assert_array_equal(
        w.values, pde.evolve_semilagrangian(vacuum_tomogram, H, 0.4, dt)[-1].values
    )


def test_invert_task(tmp_path):
    run(tmp_path, "tomogram", {})
    doc = {"input_path": str(tmp_path / "out" / "tomogram.csv")}
    cfg = write_config(tmp_path, doc, name="invert.json")
    rc = main(["invert", "--config", cfg,
               "--output-dir", str(tmp_path / "out2")])
    assert rc == 0
    with open(tmp_path / "out2" / "report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["wigner_mass"] == pytest.approx(1.0, abs=1e-3)
    assert report["trace"] == pytest.approx(1.0, abs=1e-3)
    assert 0.995 < report["purity"] < 1.0005
    assert report["hermiticity_defect"] < 1e-12
    assert (tmp_path / "out2" / "wigner.csv").exists()
    assert (tmp_path / "out2" / "density.csv").exists()


def test_invert_runs_one_fbp(tmp_path, monkeypatch):
    # One back-projection onto the coordinate grid serves wigner.csv and
    # density.csv, so the Wigner axes are the density's q grid (n_q 256
    # here, where the tomogram window alone would give 512 points).
    from tomoprop import transforms
    from tomoprop.grids import CoordinateGrid

    run(tmp_path, "tomogram", {})
    calls = []
    fbp = transforms.inverse_radon

    def counted(*args, **kwargs):
        calls.append(1)
        return fbp(*args, **kwargs)

    monkeypatch.setattr(transforms, "inverse_radon", counted)
    doc = {"input_path": str(tmp_path / "out" / "tomogram.csv")}
    cfg = write_config(tmp_path, doc, name="invert.json")
    out = tmp_path / "out2"
    assert main(["invert", "--config", cfg, "--output-dir", str(out)]) == 0
    assert len(calls) == 1

    def header(name):
        lines = (out / name).read_text().splitlines()
        return dict(line[2:].split("=", 1) for line in lines if line.startswith("# "))

    rho = header("density.csv")
    q = CoordinateGrid(q_max=float(rho["q_max"]), n_q=int(rho["n_q"])).points
    data = np.loadtxt(out / "wigner.csv", comments="#", delimiter=",")
    assert np.array_equal(np.unique(data[:, 0]), q)
    assert np.array_equal(np.unique(data[:, 1]), q)
    assert data.shape[0] == q.size ** 2


def test_fbp_outputs_match_reference_loop(tmp_path, monkeypatch):
    # The blocked back-projection and the Wigner inversion must leave every
    # invert output byte for byte as the reference loops write it.
    from conftest import reference_density_from_wigner, reference_inverse_radon
    from tomoprop import transforms

    cat = {"kind": "cat", "alpha_re": 1.2, "alpha_im": 0.0, "sign": 1}
    assert run(tmp_path, "tomogram", {"state": cat}) == 0
    cfg = write_config(tmp_path, {"input_path": str(tmp_path / "out" / "tomogram.csv")},
                       name="invert.json")
    assert main(["invert", "--config", cfg, "--output-dir", str(tmp_path / "shipped")]) == 0
    monkeypatch.setattr(transforms, "inverse_radon", reference_inverse_radon)
    monkeypatch.setattr(transforms, "density_from_wigner", reference_density_from_wigner)
    assert main(["invert", "--config", cfg, "--output-dir", str(tmp_path / "reference")]) == 0
    for name in ("wigner.csv", "density.csv", "report.json"):
        assert (tmp_path / "shipped" / name).read_bytes() == \
            (tmp_path / "reference" / name).read_bytes(), name


def test_moments_task(tmp_path):
    assert run(tmp_path, "moments", {}) == 0
    report = read_json(tmp_path, "report.json")
    assert report["m1_abs_max"] < 1e-8
    assert report["m2_min"] == pytest.approx(0.5, abs=1e-6)
    assert report["m2_max"] == pytest.approx(0.5, abs=1e-6)
    assert (tmp_path / "out" / "moments.csv").exists()


def test_validate_task(tmp_path):
    assert run(tmp_path, "validate", {}) == 0
    report = read_json(tmp_path, "report.json")
    assert report["pass"] is True
    assert len(report["checks"]) == 7
    names = {c["name"] for c in report["checks"]}
    assert "vacuum_tomogram_linf" in names
    assert "wronskian_drift" in names
    for check in report["checks"]:
        assert check["measured"] <= check["threshold"]


def test_pipeline_check_task(tmp_path):
    doc = {
        "times": [1.0],
        "state": {"kind": "coherent", "alpha_re": 1.0},
        "hamiltonian": {"omega_sq": {"kind": "constant", "value": 1.0}},
    }
    assert run(tmp_path, "pipeline-check", doc) == 0
    report = read_json(tmp_path, "report.json")
    rec = report["records"][0]
    assert rec["t"] == 1.0
    assert rec["trace_distance"] < 5e-3


def test_pipeline_check_on_a_driven_hamiltonian(tmp_path, capsys):
    # The Green function comes from the same map as the tomogram, so any
    # quadratic Hamiltonian can be checked; a table must cover max(times).
    doc = {
        "times": [0.5, 1.0, 2.0],
        "grid": {"x_max": 8.0, "n_x": 1024, "n_theta": 180, "q_max": 8.0, "n_q": 512},
        "state": {"kind": "coherent", "alpha_re": 1.0},
        "hamiltonian": {
            "omega_sq": {"kind": "cosine", "a": 1.0, "b": 0.2, "freq": 2.0},
            "force": {"kind": "constant", "value": 0.3},
        },
    }
    assert run(tmp_path, "pipeline-check", doc) == 0
    records = read_json(tmp_path, "report.json")["records"]
    assert [r["t"] for r in records] == doc["times"]
    assert all(r["trace_distance"] < 1e-3 for r in records)

    table = {"kind": "table", "times": [0.0, 1.0], "values": [1.0, 1.1]}
    short = {**doc, "hamiltonian": {"omega_sq": table}}
    (tmp_path / "short").mkdir()
    assert run(tmp_path / "short", "pipeline-check", short) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["violations"] == [
        "hamiltonian.omega_sq.times cover [0, 1], not the job's [0, 2]",
    ]
    assert not (tmp_path / "short" / "out").exists()


def test_pipeline_check_builds_the_initial_tomogram_once(tmp_path, monkeypatch):
    # One pure-state transform serves every requested time; the density
    # route (Wigner function plus radon) is never taken.
    from tomoprop import transforms

    calls = {}
    for name in ("tomogram_from_wavefunction", "tomogram_from_density", "radon"):
        def counted(*args, _fn=getattr(transforms, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(transforms, name, counted)
    doc = {"times": [0.5, 1.0], "state": {"kind": "coherent", "alpha_re": 1.0}}
    assert run(tmp_path, "pipeline-check", doc) == 0
    assert calls == {"tomogram_from_wavefunction": 1}
    assert len(read_json(tmp_path, "report.json")["records"]) == 2


def test_pipeline_check_back_projects_once(tmp_path, monkeypatch):
    # Every requested time's tomogram goes through one back-projection pass.
    from tomoprop import transforms

    calls = []
    back_project = transforms._back_project

    def counted(xs, rows, *args, **kwargs):
        calls.append(rows.shape[0])
        return back_project(xs, rows, *args, **kwargs)

    monkeypatch.setattr(transforms, "_back_project", counted)
    doc = {"times": [0.5, 1.0], "state": {"kind": "coherent", "alpha_re": 1.0}}
    assert run(tmp_path, "pipeline-check", doc) == 0
    assert calls == [2]
    assert len(read_json(tmp_path, "report.json")["records"]) == 2


def test_validate_measures_the_configured_hamiltonian(tmp_path):
    drifts = []
    for k, omega_sq in enumerate(({"kind": "constant", "value": 1.0},
                                  {"kind": "cosine", "a": 1.0, "b": 0.5, "freq": 2.0})):
        job = tmp_path / str(k)
        job.mkdir()
        doc = {"hamiltonian": {"omega_sq": omega_sq}, "times": [3.0]}
        assert run(job, "validate", doc) == 0
        checks = {c["name"]: c for c in read_json(job, "report.json")["checks"]}
        assert checks["wronskian_drift"]["pass"] and checks["det_lambda_defect"]["pass"]
        drifts.append(checks["wronskian_drift"]["measured"])
    assert drifts[0] != drifts[1]


def test_validate_reports_failing_health_figures(tmp_path):
    # The inverted oscillator's eps grows like e^t, so over T = 10 its
    # Wronskian drift and det Lambda defect pass both 1e-8 thresholds.
    # Those are also the solver guards' bounds; validate reports the failing
    # checks instead of stopping at the guard.
    doc = {"grid": {"x_max": 8.0, "n_x": 256, "n_theta": 45, "q_max": 8.0, "n_q": 128},
           "hamiltonian": {"omega_sq": {"kind": "constant", "value": -1.0}}}
    assert run(tmp_path, "validate", doc) == 3
    assert sorted(os.listdir(tmp_path / "out")) == ["report.json", "run_meta.json"]
    report = read_json(tmp_path, "report.json")
    assert report["pass"] is False
    failed = {c["name"] for c in report["checks"] if not c["pass"]}
    assert failed == {"wronskian_drift", "det_lambda_defect"}
    assert read_json(tmp_path, "run_meta.json")["status"] == "invariants_failed"


def test_validate_back_projects_once(tmp_path, monkeypatch):
    # One FBP of the state's tomogram serves the density and the tomogram
    # round trips.
    from tomoprop import transforms

    calls = []
    back_project = transforms._back_project

    def counted(xs, rows, *args, **kwargs):
        calls.append(rows.shape[0])
        return back_project(xs, rows, *args, **kwargs)

    monkeypatch.setattr(transforms, "_back_project", counted)
    assert run(tmp_path, "validate", {"state": {"kind": "coherent", "alpha_re": 1.0}}) == 0
    assert calls == [1]


def test_validate_runs_only_the_chirp_z_route(tmp_path, monkeypatch):
    # Vacuum and state tomograms come straight from their wavefunctions, as
    # in the tasks; the one radon is the tomogram round trip's.
    from tomoprop import transforms

    calls = {}
    for name in ("tomogram_from_wavefunction", "tomogram_from_density", "radon"):
        def counted(*args, _fn=getattr(transforms, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(transforms, name, counted)
    assert run(tmp_path, "validate", {"state": {"kind": "coherent", "alpha_re": 1.0}}) == 0
    assert calls == {"tomogram_from_wavefunction": 2, "radon": 1}


def test_evolve_solves_epsilon_once(tmp_path, monkeypatch):
    # One eps(t) trajectory to max(times) serves the map at every time.
    from tomoprop import quad_dynamics

    calls = []
    solve = quad_dynamics.solve_epsilon

    def counted(*args, **kwargs):
        calls.append(args[1])
        return solve(*args, **kwargs)

    monkeypatch.setattr(quad_dynamics, "solve_epsilon", counted)
    assert run(tmp_path, "evolve", {"times": [0.5, 1.0, 1.5, 2.0]}) == 0
    assert calls == [2.0]
    for i in range(4):
        assert (tmp_path / "out" / ("tomogram_map_%03d.csv" % i)).exists()


def test_evolve_sweeps_characteristics_once(tmp_path, monkeypatch):
    # One backward sweep from max(times) serves the PDE at every time.
    import inspect

    from tomoprop import pde_evolution

    calls = []
    sweep = pde_evolution.evolve_semilagrangian
    sig = inspect.signature(sweep)

    def counted(*args, **kwargs):
        calls.append(sig.bind(*args, **kwargs).arguments["T"])
        return sweep(*args, **kwargs)

    monkeypatch.setattr(pde_evolution, "evolve_semilagrangian", counted)
    doc = {"times": [0.5, 1.0, 1.5], "backend": "both"}
    assert run(tmp_path, "evolve", doc) == 0
    assert calls == [1.5]
    for i in range(3):
        assert (tmp_path / "out" / ("tomogram_pde_%03d.csv" % i)).exists()
    assert len(read_json(tmp_path, "report.json")["l1_backend_gap"]) == 3


def test_pipeline_check_solves_epsilon_once(tmp_path, monkeypatch):
    # One eps(t) trajectory to max(times), with a node at each time,
    # serves the map at every requested time.
    from tomoprop import quad_dynamics

    calls = []
    solve = quad_dynamics.solve_epsilon

    def counted(*args, **kwargs):
        calls.append((args[1], tuple(kwargs.get("stops", ()))))
        return solve(*args, **kwargs)

    monkeypatch.setattr(quad_dynamics, "solve_epsilon", counted)
    doc = {"times": [0.5, 1.0], "state": {"kind": "coherent", "alpha_re": 1.0}}
    assert run(tmp_path, "pipeline-check", doc) == 0
    assert calls == [(1.0, (0.5, 1.0))]
    assert len(read_json(tmp_path, "report.json")["records"]) == 2


def test_evolve_reads_every_time_at_a_node(tmp_path, monkeypatch):
    # Times off the step grid get nodes of their own in the one eps(t)
    # solve, so each map matches a solve to that time alone instead of an
    # interpolation between nodes (which was 2.4e-8 off in Lambda here).
    from tomoprop import quad_dynamics as qd

    solves, maps = [], []
    solve, evolve = qd.solve_epsilon, qd.evolve_tomogram

    def solve_recorded(H, T, dt, **kwargs):
        solves.append((H, dt))
        return solve(H, T, dt, **kwargs)

    def evolve_recorded(w0, m, **kwargs):
        maps.append(m)
        return evolve(w0, m, **kwargs)

    monkeypatch.setattr(qd, "solve_epsilon", solve_recorded)
    monkeypatch.setattr(qd, "evolve_tomogram", evolve_recorded)
    doc = {
        "times": [0.3333, 1.0], "backend": "both",
        "hamiltonian": {
            "omega_sq": {"kind": "cosine", "a": 1.0, "b": 0.2, "freq": 2.0, "phase": 0.0},
            "force": {"kind": "constant", "value": 0.25},
        },
    }
    assert run(tmp_path, "evolve", doc) == 0
    (H, dt), = solves
    for t, m in zip(doc["times"], maps):
        ref = qd.optical_map(solve(H, t, dt), t)
        np.testing.assert_allclose(m.lambda_mat, ref.lambda_mat, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(m.delta, ref.delta, rtol=0.0, atol=1e-14)
    assert max(read_json(tmp_path, "report.json")["l1_backend_gap"]) < 1e-10


def test_state_tomogram_keeps_every_needed_refusal():
    # Sweep coherent states over every momentum the state guards accept on
    # two coarse grids: each tomogram the CLI's route accepts matches the
    # closed form, so no refusal it lacks protected a result, and the
    # density's tomogram is the wavefunction's on every state.
    from conftest import coherent_tomogram_reference
    from tomoprop import config as cfgmod
    from tomoprop import transforms as tr
    from tomoprop.cli import _state_tomogram
    from tomoprop.errors import SupportError, TomopropError
    from tomoprop.states import density_from_wavefunction

    accepted = refused = 0
    for n in (64, 128):
        grid = {"x_max": 8.0, "n_x": n, "n_theta": 16, "q_max": 8.0, "n_q": n}
        for q_c in (0.0, 2.0):
            for p_c in np.arange(0.0, 13.0, 0.5):
                alpha = complex(q_c, p_c) / np.sqrt(2.0)
                try:
                    cfg = cfgmod.parse_config({
                        "task": "tomogram", "grid": grid,
                        "state": {"kind": "coherent", "alpha_re": alpha.real,
                                  "alpha_im": alpha.imag},
                    })
                    psi = cfg.state.build(cfg.coordinate_grid)
                except TomopropError:
                    continue
                tg = cfg.tomogram_grid
                w_psi = tr.tomogram_from_wavefunction(psi, tg)
                w_rho = tr.tomogram_from_density(density_from_wavefunction(psi), tg)
                assert np.abs(w_rho.values - w_psi.values).max() < 1e-12, (n, q_c, p_c)
                try:
                    _, w = _state_tomogram(cfg)
                except SupportError:
                    refused += 1
                    continue
                accepted += 1
                ref = coherent_tomogram_reference(w.grid, alpha)
                assert np.abs(w.values - ref).max() < 1e-8, (n, q_c, p_c)
    # The sweep reaches states the CLI accepts and states it refuses.
    assert accepted and refused


# ---------------------------------------------------------------------------
# metadata and overrides


def test_run_meta_sidecar(tmp_path):
    import tomoprop

    run(tmp_path, "tomogram", {})
    meta = read_json(tmp_path, "run_meta.json")
    assert meta["status"] == "ok"
    assert meta["task"] == "tomogram"
    assert meta["files"] == ["tomogram.csv", "report.json"]
    assert meta["version"] == tomoprop.__version__
    assert "started_utc" in meta and "finished_utc" in meta
    # volatile fields live only in the sidecar
    report = read_json(tmp_path, "report.json")
    assert "started_utc" not in report


def test_run_meta_records_the_numeric_stack(tmp_path):
    import tomoprop.cli as cli

    run(tmp_path, "tomogram", {})
    meta = read_json(tmp_path, "run_meta.json")
    assert meta["numpy_version"] == np.__version__
    scipy = sys.modules.get("scipy")
    assert meta["scipy_version"] == (scipy.__version__ if scipy else None)
    assert meta["thread_cap"] == cli._THREAD_CAP
    report = read_json(tmp_path, "report.json")
    assert not {"numpy_version", "scipy_version", "thread_cap"} & set(report)


def test_run_meta_thread_cap_is_the_resolved_cap(tmp_path):
    cfg = write_config(tmp_path, {"grid": {"x_max": 6.0, "n_x": 64, "n_theta": 8,
                                           "q_max": 6.0, "n_q": 32}})
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(tomoprop.__file__)))
    pythonpath = os.pathsep.join(filter(None, [pkg_root, os.environ.get("PYTHONPATH", "")]))
    for val, cap in (("2", "2"), ("0", None)):
        out = tmp_path / ("out" + val)
        env = {**os.environ, "TOMOPROP_THREADS": val, "PYTHONPATH": pythonpath}
        proc = subprocess.run([sys.executable, "-m", "tomoprop", "tomogram", "--config", cfg,
                               "--output-dir", str(out)], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        with open(out / "run_meta.json", encoding="utf-8") as fh:
            assert json.load(fh)["thread_cap"] == cap


def test_positional_task_wins_over_an_override(tmp_path):
    assert run(tmp_path, "tomogram", {}, extra=["--override", "task=moments"]) == 0
    assert read_json(tmp_path, "report.json")["task"] == "tomogram"
    assert sorted(os.listdir(tmp_path / "out")) == [
        "report.json", "run_meta.json", "tomogram.csv",
    ]


def test_config_is_decoded_once(tmp_path, monkeypatch):
    calls = []
    loads = json.loads

    def counted(*args, **kwargs):
        calls.append(1)
        return loads(*args, **kwargs)

    monkeypatch.setattr(json, "loads", counted)
    assert run(tmp_path, "tomogram", {}) == 0
    assert len(calls) == 1


def test_override_flag_reaches_job(tmp_path):
    rc = run(tmp_path, "moments", {},
             extra=["--override", "state.kind=coherent",
                    "--override", "state.alpha_re=1.0"])
    assert rc == 0
    report = read_json(tmp_path, "report.json")
    # displaced state: m1 peaks at the angle row closest to theta = 0
    peak = np.sqrt(2.0) * np.cos(np.pi / 180.0)
    assert report["m1_abs_max"] == pytest.approx(peak, abs=1e-6)


# ---------------------------------------------------------------------------
# failure paths


def test_bad_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"times": [0.5],}')
    rc = main(["evolve", "--config", str(path)])
    assert rc == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ParseError"
    assert record["exit_code"] == 2
    assert "line 1" in record["message"]


def test_non_object_config_exits_2(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert main(["tomogram", "--config", str(path)]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ParseError"
    assert "must be a JSON object" in record["message"]


def test_missing_config_exits_2(tmp_path, capsys):
    rc = main(["tomogram", "--config", str(tmp_path / "nope.json")])
    assert rc == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ParseError"


def test_validation_failure_exits_2_with_violations(tmp_path, capsys):
    cfg = write_config(tmp_path, {"times": [2.0, 1.0], "backend": "warp"})
    rc = main(["evolve", "--config", cfg])
    assert rc == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ValidationError"
    assert any("times not increasing" in v for v in record["violations"])
    assert any("backend" in v for v in record["violations"])


# An X window too narrow for the state: the config check passes it and the
# tomogram's row-norm guard refuses it at run time.
CLIPPED = {"grid": {**SMALL_GRID, "x_max": 3.0}, "state": {"kind": "coherent", "alpha_re": 1.4}}


def test_numeric_failure_exits_3_with_error_file(tmp_path, capsys):
    rc = run(tmp_path, "tomogram", CLIPPED)
    assert rc == 3
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "SupportError"
    assert "row normalization deviates" in record["message"]
    err = read_json(tmp_path, "error.json")
    assert err == record


def test_off_center_state_is_listed_with_the_other_violations(tmp_path, capsys):
    doc = {"state": {"kind": "coherent", "alpha_re": 2.5}, "backend": "warp"}
    assert run(tmp_path, "tomogram", doc) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ValidationError"
    assert record["violations"] == [
        "state.center q = 3.536 is within 6.0 of the grid edge +/-8.0",
        "backend must be one of ('map', 'pde', 'both'), got 'warp'",
    ]


def test_invert_ignores_the_center_of_its_unused_state(tmp_path, capsys):
    # invert never builds the state, so an off-center one does not stop it.
    assert run(tmp_path, "tomogram", {}) == 0
    path = tmp_path / "out" / "tomogram.csv"
    doc = {"state": {"kind": "coherent", "alpha_re": 2.5}, "input_path": str(path)}
    rc = main(["invert", "--config", write_config(tmp_path, doc),
               "--output-dir", str(tmp_path / "out2")])
    assert rc == 0, capsys.readouterr().err
    assert (tmp_path / "out2" / "density.csv").exists()


def test_invert_refuses_malformed_tomogram_files(tmp_path, capsys):
    # A cell or header that is not a number, a header grid the grid class
    # refuses, or bytes that are not UTF-8 are parse errors (exit 2) naming
    # the file, not a traceback.
    assert run(tmp_path, "tomogram", {}) == 0
    text = (tmp_path / "out" / "tomogram.csv").read_text()
    lines = text.splitlines()
    lines[100] = lines[100].rsplit(",", 1)[0] + ",abc"
    cases = {
        "cell": ("\n".join(lines) + "\n").encode(),
        "header": text.replace("# n_x=512", "# n_x=sixty").encode(),
        "grid": text.replace("# n_x=512", "# n_x=8").encode(),
        "bytes": text.encode()[:-40] + b"\xff\xfe\n",
    }
    for name, data in cases.items():
        path = tmp_path / (name + ".csv")
        path.write_bytes(data)
        out = tmp_path / ("out_" + name)
        rc = main(["invert", "--config", write_config(tmp_path, {"input_path": str(path)}),
                   "--output-dir", str(out)])
        assert rc == 2, name
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ParseError", name
        assert str(path) in record["message"], name
        assert sorted(os.listdir(out)) == ["error.json"], name


def test_each_outcome_record_removes_the_other(tmp_path, capsys):
    # error.json never sits beside report.json or run_meta.json; data files
    # from an earlier run are left as they are.
    accepted = {"state": {"kind": "coherent", "alpha_re": 0.5}}
    out = tmp_path / "out"
    assert run(tmp_path, "tomogram", CLIPPED) == 3
    assert run(tmp_path, "tomogram", accepted) == 0
    assert sorted(os.listdir(out)) == ["report.json", "run_meta.json", "tomogram.csv"]
    assert run(tmp_path, "tomogram", CLIPPED) == 3
    assert sorted(os.listdir(out)) == ["error.json", "tomogram.csv"]
    capsys.readouterr()


def test_invert_refuses_non_finite_tomogram(tmp_path, capsys):
    assert run(tmp_path, "tomogram", {}) == 0
    path = tmp_path / "out" / "tomogram.csv"
    lines = path.read_text().splitlines()
    lines[100] = lines[100].rsplit(",", 1)[0] + ",nan"
    path.write_text("\n".join(lines) + "\n")
    rc = main(["invert", "--config", write_config(tmp_path, {"input_path": str(path)}),
               "--output-dir", str(tmp_path / "out2")])
    assert rc == 3
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "SupportError"
    assert "non-finite" in record["message"]
    with open(tmp_path / "out2" / "error.json", encoding="utf-8") as fh:
        assert json.load(fh) == record
    assert not (tmp_path / "out2" / "report.json").exists()


def test_invert_refuses_a_wigner_function_that_lost_mass(tmp_path, capsys):
    # A q window of +/-4 cuts off a quarter of a coherent state at 2.5
    # (mass 0.744); the FBP's output is validated before anything is written.
    wide = {**SMALL_GRID, "q_max": 12.0}
    state = {"kind": "coherent", "alpha_re": 2.5}
    assert run(tmp_path, "tomogram", {"grid": wide, "state": state}) == 0
    narrow = {**SMALL_GRID, "q_max": 4.0, "n_q": 128}
    doc = {"grid": narrow, "input_path": str(tmp_path / "out" / "tomogram.csv")}
    out = tmp_path / "out2"
    rc = main(["invert", "--config", write_config(tmp_path, doc, name="invert.json"),
               "--output-dir", str(out)])
    assert rc == 3
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "SupportError"
    assert record["message"].startswith("Wigner mass 0.744")
    assert sorted(os.listdir(out)) == ["error.json"]


def test_grid_below_constructor_bounds_exits_2_listing_all(tmp_path, capsys):
    grid = {"x_max": 8.0, "n_x": 8, "n_theta": 4, "q_max": 8.0, "n_q": 6}
    assert run(tmp_path, "tomogram", {"grid": grid}) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ValidationError"
    assert record["violations"] == [
        "grid.n_q must be at least 8, got 6",
        "grid.n_x must be at least 16, got 8",
        "grid.n_theta must be at least 8, got 4",
    ]


def test_short_table_sampler_exits_2_before_any_data_file(tmp_path, capsys):
    table = {"kind": "table", "times": [0.0, 1.0], "values": [1.0, 1.1]}
    doc = {"times": [0.5, 2.0], "backend": "both",
           "hamiltonian": {"omega_sq": table, "force": {**table, "values": [0.0, 0.1]}}}
    assert run(tmp_path, "evolve", doc) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ValidationError"
    assert record["violations"] == [
        "hamiltonian.omega_sq.times cover [0, 1], not the job's [0, 2]",
        "hamiltonian.force.times cover [0, 1], not the job's [0, 2]",
    ]
    assert not (tmp_path / "out").exists()


def test_failed_evolve_leaves_no_data_file(tmp_path, capsys):
    # The free-particle pull-back on a 0.126 X step breaks the row-norm
    # guard at t = 0.5, after the t = 0 tomogram has been written: the run
    # must exit 3 and take that file (and every temporary) with it.
    grid = {**SMALL_GRID, "n_x": 128}
    doc = {"grid": grid, "times": [0.0, 0.5],
           "hamiltonian": {"omega_sq": {"kind": "constant", "value": 0.0}}}
    assert run(tmp_path, "evolve", doc) == 3
    record = json.loads(capsys.readouterr().err)
    assert "row normalization" in record["message"]
    assert sorted(os.listdir(tmp_path / "out")) == ["error.json"]


def test_validate_runs_on_odd_n_q(tmp_path):
    # No task needs an even n_q: validate's radon reads the Wigner function
    # that filtered back-projection returns, and reruns stay byte identical.
    cfg = write_config(tmp_path, {"grid": {**SMALL_GRID, "n_q": 511}})
    reports = []
    for d in ("a", "b"):
        assert main(["validate", "--config", cfg, "--output-dir", str(tmp_path / d)]) == 0
        reports.append((tmp_path / d / "report.json").read_bytes())
    assert json.loads(reports[0])["pass"] is True
    assert reports[0] == reports[1]
    assert main(["tomogram", "--config", cfg, "--output-dir", str(tmp_path / "c")]) == 0
    report = json.loads((tmp_path / "c" / "report.json").read_text())
    assert report["row_norm_max_dev"] < 1e-8


def test_missing_input_exits_4(tmp_path, capsys):
    doc = {"input_path": str(tmp_path / "absent.csv")}
    rc = run(tmp_path, "invert", doc)
    assert rc == 4
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "IOError"
    assert record["exit_code"] == 4
    err = read_json(tmp_path, "error.json")
    assert err["error"] == "IOError"


# ---------------------------------------------------------------------------
# process-level behavior


TASKS = ("tomogram", "evolve", "invert", "moments", "validate", "pipeline-check")
PYPROJECT = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")


def declared_scripts():
    """The [project.scripts] table of pyproject.toml, read line by line
    (tomllib is not in the standard library before Python 3.11)."""
    scripts, section = {}, None
    with open(PYPROJECT, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line.startswith("["):
                section = line
            elif section == "[project.scripts]" and "=" in line:
                key, value = (part.strip().strip("\"'") for part in line.split("=", 1))
                scripts[key] = value
    return scripts


def test_console_script_help(tmp_path):
    assert declared_scripts().get("tomoprop") == "tomoprop.cli:main"

    # `python -m tomoprop` is the declared command without an install step;
    # the package directory goes first on the path so this checkout runs.
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(tomoprop.__file__)))
    pythonpath = [pkg_root, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}
    commands = [[sys.executable, "-m", "tomoprop"]]
    script = shutil.which("tomoprop")
    if script is not None:
        commands.append([script])
    for command in commands:
        proc = subprocess.run([*command, "--help"], capture_output=True, text=True,
                              env=env, cwd=tmp_path)
        assert proc.returncode == 0, (command, proc.stderr)
        assert proc.stdout.startswith("usage: tomoprop "), command
        for task in TASKS:
            assert task in proc.stdout, (command, task)


def test_thread_cap_applies_before_numpy():
    code = "import tomoprop.cli, os; print(os.environ.get('OMP_NUM_THREADS'))"
    env = {**os.environ, "TOMOPROP_THREADS": "3"}
    env.pop("OMP_NUM_THREADS", None)
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.stdout.strip() == "3"

    for val in (None, "0"):
        env = {**os.environ}
        env.pop("TOMOPROP_THREADS", None)
        env.pop("OMP_NUM_THREADS", None)
        if val is not None:
            env["TOMOPROP_THREADS"] = val
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env)
        assert proc.stdout.strip() == "None"


def test_imports_leave_heavy_scipy_packages_unloaded():
    # Every job imports tomoprop.cli and then every submodule before it
    # runs; scipy.signal, scipy.integrate and what they pull in would add
    # half a second to each start.  solve_ivp loads on first use only.
    code = "\n".join([
        "import importlib, sys",
        "import tomoprop.cli",
        "for name in ('config', 'errors', 'grids', 'oracles', 'output',",
        "             'pde_evolution', 'quad_dynamics', 'states', 'transforms'):",
        "    importlib.import_module('tomoprop.' + name)",
        "heavy = ('scipy.signal', 'scipy.integrate', 'scipy.stats', 'scipy.optimize')",
        "print(sorted(set(heavy) & set(sys.modules)))",
        "from tomoprop.oracles import classical_trajectory",
        "from tomoprop.quad_dynamics import QuadraticHamiltonian",
        "traj = classical_trajectory(QuadraticHamiltonian.harmonic(), 1.0, 0.0, [1.0])",
        "print(round(float(traj.q_cl[0]), 6), 'scipy.integrate' in sys.modules)",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", f"{round(np.cos(1.0), 6)} True"]


def test_jobs_load_no_scipy(tmp_path):
    # numpy's FFT and a private bilinear kernel serve every job, so neither
    # the imports nor an evolve, invert or pipeline-check run loads any
    # SciPy module; scipy.ndimage loads on the first cubic sample only.
    state = {"kind": "coherent", "alpha_re": 1.0}
    evolve = write_config(tmp_path, {"times": [0.5], "backend": "both"}, name="evolve.json")
    tomogram = write_config(tmp_path, {"state": state}, name="tomogram.json")
    invert = write_config(tmp_path, {"input_path": str(tmp_path / "tomogram" / "tomogram.csv")},
                          name="invert.json")
    pipeline = write_config(tmp_path, {"times": [1.0], "state": state}, name="pipeline.json")
    code = "\n".join([
        "import importlib, sys",
        "import tomoprop.cli",
        "for name in ('config', 'errors', 'grids', 'oracles', 'output',",
        "             'pde_evolution', 'quad_dynamics', 'states', 'transforms'):",
        "    importlib.import_module('tomoprop.' + name)",
        "evolve, tomogram, invert, pipeline, out = sys.argv[1:]",
        "jobs = (('evolve', evolve), ('tomogram', tomogram), ('invert', invert),",
        "        ('pipeline-check', pipeline))",
        "codes = [tomoprop.cli.main([task, '--config', cfg, '--output-dir', out + '/' + task])",
        "         for task, cfg in jobs]",
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        "import numpy as np",
        "from tomoprop.grids import TomogramGrid",
        "from tomoprop.transforms import Tomogram",
        "w = Tomogram(TomogramGrid(x_max=4.0, n_x=16, n_theta=8), np.ones((8, 16)))",
        "w.sample_twisted(0.5, 0.3, interp='cubic')",
        "print('scipy.ndimage' in sys.modules)",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", code, evolve, tomogram, invert, pipeline, str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[0, 0, 0, 0] []", "True"]
