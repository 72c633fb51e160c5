"""Self-tests of the benchmark harness.

Run with: python3 -m pytest bench/test_harness.py
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import hostspeed  # noqa: E402
import run_bench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tomoprop.config import parse_config  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generated_configs_parse(workload):
    seen = set()
    for seed in range(6):
        docs, params = workloads.generate(workload, seed)
        assert docs == workloads.generate(workload, seed)[0]
        for doc in docs:
            if doc["task"] == "invert":
                doc = {**doc, "input_path": "input.csv"}
            cfg = parse_config(json.dumps(doc))
            assert cfg.task == workloads.TASKS[workload]
            assert cfg.grid == workloads.GRID
        seen.add(json.dumps(params["configs"], sort_keys=True))
    assert len(seen) == 6


def _span(i, name, parent, start, end, **extra):
    return {"id": i, "name": name, "job": 0, "parent": parent, "start": start, "end": end,
            **extra}


def test_self_time_arithmetic():
    spans = [
        _span(0, "oracles.pipeline_discrepancy", None, 1.0, 11.0),
        _span(1, "transforms.tomogram_from_density", 0, 2.0, 5.0, input="a"),
        _span(2, "transforms.radon", 1, 3.0, 4.0),
        _span(3, "transforms.tomogram_from_density", 0, 6.0, 7.5, input="a"),
        _span(4, "quad_dynamics.solve_epsilon", 0, 8.0, 8.5, steps=500),
        _span(5, "quad_dynamics.solve_epsilon", 0, 9.0, 10.0, steps=1000),
        _span(6, "output.write_report", None, 12.0, 12.25, bytes=500_000),
    ]
    assert tracer.self_times(spans) == [4.0, 2.0, 1.0, 1.5, 0.5, 1.0, 0.25]

    m = tracer.derive(spans, 0.0, 13.0)
    assert m["oracles.self_s"] == 4.0
    assert m["transforms.self_s"] == 4.5
    assert m["quad_dynamics.self_s"] == 1.5
    assert m["output.self_s"] == 0.25
    assert m["cli.self_s"] == 13.0 - 10.0 - 0.25
    assert m["transforms.radon.self_s"] == 1.0
    assert m["transforms.radon.calls"] == 1
    assert m["transforms.tomogram_from_density.calls"] == 2
    assert m["transforms.tomogram_from_density.distinct_ratio"] == 0.5
    assert m["quad_dynamics.solve_epsilon.rk4_steps"] == 1500
    assert m["quad_dynamics.solve_epsilon.useful_ratio"] == pytest.approx(2 / 3)
    assert m["output.mb_per_s"] == 2.0
    assert m["trace.spans"] == 7
    layers = sum(m[f"{layer}.self_s"] for layer in (*tracer.LAYERS, "cli"))
    assert layers == pytest.approx(13.0)


def test_nesting_errors_catch_broken_trees():
    good = [
        _span(0, "oracles.pipeline_discrepancy", None, 1.0, 11.0),
        _span(1, "transforms.radon", 0, 2.0, 5.0),
        _span(2, "transforms.radon", 0, 5.0, 7.0),
        _span(3, "output.write_report", None, 12.0, 12.25),
    ]
    assert tracer.nesting_errors(good, 0.0, 13.0) == []
    assert len(tracer.nesting_errors(good, 0.0, 12.0)) == 1  # last span ends after cli.main

    unended = [dict(s) for s in good]
    unended[1]["end"] = None
    assert "no valid end" in tracer.nesting_errors(unended, 0.0, 13.0)[0]

    escaping = [dict(s) for s in good]
    escaping[2]["end"] = 11.5
    assert "outside its parent" in tracer.nesting_errors(escaping, 0.0, 13.0)[0]

    overlapping = [dict(s) for s in good]
    overlapping[2]["start"] = 4.0
    assert "overlaps" in tracer.nesting_errors(overlapping, 0.0, 13.0)[0]


def test_covered_merges_overlaps_and_clips():
    assert tracer.covered([(1.0, 3.0), (2.0, 4.0), (6.0, 9.0)], 0.0, 8.0) == 5.0
    assert tracer.covered([], 0.0, 1.0) == 0.0


def test_host_speed_uses_kernel_runs_inside_the_interval():
    sampler = hostspeed.Sampler()
    sampler.samples = [(0.5, 9.0), (1.0, 2e-3), (1.5, 4e-3), (2.0, 3e-3), (2.5, 9.0)]
    assert sampler.median_s(1.0, 2.0) == 3e-3
    assert sampler.median_s(3.0, 4.0) is None
    assert hostspeed.to_reference(5.0, hostspeed.REFERENCE_S) == 5.0
    slow = hostspeed.to_reference(5.0, 2.0 * hostspeed.REFERENCE_S)
    assert slow == pytest.approx(5.0 * 0.5 ** hostspeed.EXPONENT)


def test_metric_names_and_benchmark_file_agree():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert e2e == list(run_bench.END_TO_END)
    assert per_layer == list(tracer.PER_LAYER)
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)
    names = [n for n, _ in e2e + per_layer] + [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name), name


def test_traced_job_records_nested_spans(tmp_path):
    doc = {"grid": {"x_max": 8.0, "n_x": 512, "n_theta": 90, "q_max": 8.0, "n_q": 256},
           "state": {"kind": "coherent", "alpha_re": 0.5, "alpha_im": 0.0}}
    config = tmp_path / "job.json"
    config.write_text(json.dumps(doc))
    record = tmp_path / "record.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "job.py"), str(record), "7", "1", "--",
         "tomogram", "--config", str(config), "--output-dir", str(tmp_path / "out")],
        env=run_bench.job_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(record.read_text())
    assert rec["rc"] == 0
    spans = rec["spans"]
    names = {s["name"] for s in spans}
    assert {"config.parse_config", "states.make_coherent",
            "transforms.tomogram_from_density", "transforms.radon",
            "output.write_tomogram", "output.write_report"} <= names
    assert all(s["job"] == 7 for s in spans)
    by_id = {s["id"]: s for s in spans}
    radon = next(s for s in spans if s["name"] == "transforms.radon")
    assert by_id[radon["parent"]]["name"] == "transforms.tomogram_from_density"
    assert tracer.nesting_errors(spans, rec["t0"], rec["t1"]) == []
    m = tracer.derive(spans, rec["t0"], rec["t1"])
    layers = sum(m[f"{layer}.self_s"] for layer in (*tracer.LAYERS, "cli"))
    assert layers == pytest.approx(rec["job_s"], abs=1e-6)
    assert m["output.write_tomogram.mb"] == os.path.getsize(tmp_path / "out" / "tomogram.csv") / 1e6
