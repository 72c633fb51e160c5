"""The benchmark's tracer reads the PDE solver's step count from its
arguments: `bench/tracer.py` binds `T` and `dt` by name and calls float(T).
A traced `evolve` job through `bench/job.py` must therefore record one
`evolve_semilagrangian` span whose step count is ceil(T / dt), and one
`solve_epsilon` span whose step count is the sum over its segments.
Both take the step the job reports."""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_evolve_records_one_pde_sweep(tmp_path):
    doc = {
        "grid": {"x_max": 8.0, "n_x": 256, "n_theta": 45, "q_max": 8.0, "n_q": 128},
        "state": {"kind": "coherent", "alpha_re": 0.5, "alpha_im": 0.2},
        "hamiltonian": {
            "omega_sq": {"kind": "cosine", "a": 1.0, "b": 0.2, "freq": 2.0},
            "force": {"kind": "constant", "value": 0.3},
        },
        "times": [0.5, 1.0],
        "backend": "both",
    }
    config = tmp_path / "job.json"
    config.write_text(json.dumps(doc))
    record = tmp_path / "record.json"
    outdir = tmp_path / "out"
    env = dict(os.environ, TOMOPROP_THREADS="1", PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "job.py"), str(record), "0", "1", "--",
         "evolve", "--config", str(config), "--output-dir", str(outdir)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(record.read_text())
    assert rec["rc"] == 0
    spans = [s for s in rec["spans"] if s["name"] == "pde_evolution.evolve_semilagrangian"]
    assert len(spans) == 1
    report = json.loads((outdir / "report.json").read_text())
    T, dt = max(report["times"]), report["dt"]
    assert spans[0]["steps"] == math.ceil(T / dt - 1e-9)
    # One eps(t) solve whose steps are the per-segment counts summed
    # (to 0.5, then 0.5 more to 1.0); neither the private stepper nor the
    # step rule's private probes are a span.
    eps = [s for s in rec["spans"] if s["name"] == "quad_dynamics.solve_epsilon"]
    assert len(eps) == 1
    assert eps[0]["steps"] == 2 * math.ceil(0.5 / dt - 1e-9)
    assert not [s["name"] for s in rec["spans"] if "._" in s["name"]]
