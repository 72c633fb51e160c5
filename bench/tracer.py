"""Span tracing of the package's layers, installed from outside the package.

install() wraps every public function of the traced modules, and every
public method of their public classes, so that each call records a span
(name, start, end, parent span, job id) in memory.  The package itself is
not changed: the wrappers are put in place in the job process after import,
wherever a module holds a reference to an original function.

derive() turns the spans of one job into the per-layer metrics.  A span's
self time is its duration minus the part of it that its child spans cover;
time in no span at all is charged to `cli`, so the layer self times plus
`cli.self_s` add up to the job's wall time by construction.
nesting_errors() is the check that can fail: it tests that the spans form
a proper call tree inside the run of cli.main.
"""

import functools
import hashlib
import inspect
import math
import os
import sys
import time

LAYERS = ("states", "transforms", "quad_dynamics", "pde_evolution", "oracles", "output", "config")

# Every per-layer metric as (name, unit), in report order.  Layers and
# functions a job never calls report 0.
PER_LAYER = (
    [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [
        ("cli.self_s", "s"),
        ("transforms.radon.self_s", "s"),
        ("transforms.radon.calls", "count"),
        ("transforms.tomogram_from_density.calls", "count"),
        ("transforms.tomogram_from_density.distinct_ratio", "ratio"),
        ("transforms.wigner_from_density.self_s", "s"),
        ("transforms.inverse_radon.self_s", "s"),
        ("transforms.inverse_radon.calls", "count"),
        ("transforms.density_from_wigner.self_s", "s"),
        ("transforms.Tomogram.sample_twisted.self_s", "s"),
        ("transforms.Tomogram.sample_twisted.calls", "count"),
        ("quad_dynamics.solve_epsilon.self_s", "s"),
        ("quad_dynamics.solve_epsilon.rk4_steps", "count"),
        ("quad_dynamics.solve_epsilon.useful_ratio", "ratio"),
        ("quad_dynamics.evolve_tomogram.self_s", "s"),
        ("quad_dynamics.evolve_tomogram.calls", "count"),
        ("pde_evolution.evolve_semilagrangian.self_s", "s"),
        ("pde_evolution.evolve_semilagrangian.rk4_steps", "count"),
        ("oracles.evolve_density.self_s", "s"),
        ("oracles.trace_distance.self_s", "s"),
        ("oracles.pipeline_discrepancy.self_s", "s"),
        ("output.write_tomogram.self_s", "s"),
        ("output.write_tomogram.mb", "MB"),
        ("output.read_tomogram.self_s", "s"),
        ("output.read_tomogram.mb", "MB"),
        ("output.write_density.self_s", "s"),
        ("output.write_density.mb", "MB"),
        ("output.write_wigner.self_s", "s"),
        ("output.write_wigner.mb", "MB"),
        ("output.mb_per_s", "MB/s"),
        ("trace.overhead_s", "s"),
        ("trace.spans", "count"),
    ]
)


def _file_bytes(bound, result):
    return {"bytes": os.path.getsize(bound.arguments["path"])}


def _density_digest(bound, result):
    values = bound.arguments["rho"].values
    return {"input": hashlib.blake2b(values.tobytes(), digest_size=16).hexdigest()}


def _trajectory_steps(bound, result):
    return {"steps": len(result.times) - 1}


def _pde_steps(bound, result):
    # Computed from the arguments with the solver's own step rule.
    T, dt = float(bound.arguments["T"]), float(bound.arguments["dt"])
    return {"steps": math.ceil(T / dt - 1e-9) if T > 0.0 else 0}


# Per-call counts, taken after the span closes: name -> probe(bound, result).
PROBES = {
    "transforms.tomogram_from_density": _density_digest,
    "quad_dynamics.solve_epsilon": _trajectory_steps,
    "pde_evolution.evolve_semilagrangian": _pde_steps,
    **{f"output.{fn}": _file_bytes for fn in (
        "write_report", "write_tomogram", "read_tomogram", "write_density", "write_wigner",
    )},
}


class Tracer:
    """In-memory span log of one job."""

    def __init__(self, job):
        self.job = job
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        probe = PROBES.get(name)
        sig = inspect.signature(fn) if probe else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(spans), "name": name, "job": self.job,
                    "parent": stack[-1] if stack else None, "start": clock(), "end": None}
            spans.append(span)
            stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = clock()
                stack.pop()
            if probe:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.update(probe(bound, result))
            return result

        return traced


def install(tracer):
    """Wrap the public functions and methods of every traced layer."""
    wrapped = {}
    for layer in LAYERS:
        mod = sys.modules[f"tomoprop.{layer}"]
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped[obj] = tracer.wrap(f"{layer}.{name}", obj)
            elif inspect.isclass(obj):
                for mname, meth in list(vars(obj).items()):
                    if not mname.startswith("_") and inspect.isfunction(meth):
                        setattr(obj, mname, tracer.wrap(f"{layer}.{name}.{mname}", meth))
    # Rebind every module-level reference, including `from .x import f` copies.
    for modname, mod in list(sys.modules.items()):
        if modname == "tomoprop" or modname.startswith("tomoprop."):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])


def nesting_errors(spans, t0, t1):
    """Ways in which the spans of one job fail to form a proper call tree.

    Every span must have ended, lie inside its parent (top-level spans
    inside [t0, t1], the run of cli.main) and not overlap the siblings
    that start before it.  Returns one message per violation.
    """
    errors, last_end = [], {}
    for s in spans:
        if s["end"] is None or s["end"] < s["start"]:
            errors.append(f"span {s['id']} ({s['name']}) has no valid end")
            continue
        parent = spans[s["parent"]] if s["parent"] is not None else None
        lo, hi = (parent["start"], parent["end"]) if parent else (t0, t1)
        if hi is None or s["start"] < lo or s["end"] > hi:
            errors.append(f"span {s['id']} ({s['name']}) lies outside its parent")
        if s["start"] < last_end.get(s["parent"], -math.inf):
            errors.append(f"span {s['id']} ({s['name']}) overlaps an earlier sibling")
        last_end[s["parent"]] = s["end"]
    return errors


def covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans):
    """Self time of every span: duration minus what its children cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return [s["end"] - s["start"] - covered(children[i], s["start"], s["end"])
            for i, s in enumerate(spans)]


def derive(spans, t0, t1):
    """Per-layer metrics of one job whose cli.main ran from t0 to t1.

    trace.overhead_s needs the untraced jobs and is left at 0 here.
    """
    m = {name: 0.0 for name, _ in PER_LAYER}
    top = [(s["start"], s["end"]) for s in spans if s["parent"] is None]
    m["cli.self_s"] = (t1 - t0) - covered(top, t0, t1)
    m["trace.spans"] = len(spans)
    inputs, steps, out_bytes = {}, {}, 0
    for s, own in zip(spans, self_times(spans)):
        name = s["name"]
        m[name.split(".")[0] + ".self_s"] += own
        for suffix, value in ((".self_s", own), (".calls", 1)):
            if name + suffix in m:
                m[name + suffix] += value
        if "bytes" in s:
            out_bytes += s["bytes"]
            if name + ".mb" in m:
                m[name + ".mb"] += s["bytes"] / 1e6
        if "steps" in s:
            steps.setdefault(name, []).append(s["steps"])
        if "input" in s:
            inputs.setdefault(name, set()).add(s["input"])
    for name, seen in inputs.items():
        m[name + ".distinct_ratio"] = len(seen) / m[name + ".calls"]
    for name, per_call in steps.items():
        m[name + ".rk4_steps"] = sum(per_call)
    eps_steps = steps.get("quad_dynamics.solve_epsilon")
    if eps_steps and sum(eps_steps):
        # One solve to the latest time would give every earlier one too.
        m["quad_dynamics.solve_epsilon.useful_ratio"] = max(eps_steps) / sum(eps_steps)
    if m["output.self_s"] > 0.0:
        m["output.mb_per_s"] = out_bytes / 1e6 / m["output.self_s"]
    return m
