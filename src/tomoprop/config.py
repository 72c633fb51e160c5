"""Job configuration: parsing, validation, and object construction.

A job is one JSON document.  Everything except the task has a default, and
validation collects every violated invariant before raising, so a broken
config reports all of its problems in one pass instead of one per rerun.

Sampler specs describe the time-dependent Hamiltonian coefficients:
{"kind": "constant", "value": v}, {"kind": "cosine", "a": a, "b": b,
"freq": f, "phase": 0} meaning a + b cos(f t + phase), or {"kind":
"table", "times": [...], "values": [...]}.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ValidationError
from .grids import CoordinateGrid, TomogramGrid
from .quad_dynamics import (
    ConstantSampler,
    CosineSampler,
    QuadraticHamiltonian,
    TableSampler,
)
from .states import make_cat, make_coherent, make_vacuum

TASKS = ("tomogram", "evolve", "invert", "moments", "validate", "pipeline-check")
STATE_KINDS = ("vacuum", "coherent", "cat")
BACKENDS = ("map", "pde", "both")
SAMPLER_KINDS = ("constant", "cosine", "table")

_DEFAULT_STATE = {"kind": "vacuum", "alpha_re": 0.0, "alpha_im": 0.0, "sign": 1}
_DEFAULT_GRID = {"x_max": 8.0, "n_x": 1024, "n_theta": 180, "q_max": 8.0, "n_q": 512}
_DEFAULT_HAMILTONIAN = {
    "omega_sq": {"kind": "constant", "value": 1.0},
    "force": {"kind": "constant", "value": 0.0},
}


@dataclass(frozen=True)
class JobConfig:
    """Validated job description with defaults applied."""

    task: str
    state: dict
    grid: dict
    hamiltonian: dict
    backend: str
    times: tuple
    output_dir: str
    input_path: str | None


def apply_overrides(doc, overrides):
    """Apply dotted key=value overrides to a raw config document in place.

    Values parse as JSON where possible ("grid.n_x=512", "times=[0.5,1]"),
    otherwise as bare strings ("state.kind=coherent").
    """
    for item in overrides:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ParseError(f"override {item!r} is not of the form key=value")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        parts = key.split(".")
        node = doc
        for part in parts[:-1]:
            nxt = node.setdefault(part, {})
            if not isinstance(nxt, dict):
                raise ParseError(
                    f"override {key!r} descends through non-object field {part!r}"
                )
            node = nxt
        node[parts[-1]] = value
    return doc


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _check_sampler(name, spec, bad, t_end=None):
    if not isinstance(spec, dict):
        bad.append(f"{name} must be a sampler object, got {type(spec).__name__}")
        return
    kind = spec.get("kind")
    if kind not in SAMPLER_KINDS:
        bad.append(f"{name}.kind must be one of {SAMPLER_KINDS}, got {kind!r}")
        return
    if kind == "constant":
        fields, extra = ("value",), ()
    elif kind == "cosine":
        fields, extra = ("a", "b", "freq"), ("phase",)
    else:
        fields, extra = (), ()
    for f in fields:
        if not _is_number(spec.get(f)):
            bad.append(f"{name}.{f} must be a finite number")
    for f in extra:
        if f in spec and not _is_number(spec[f]):
            bad.append(f"{name}.{f} must be a finite number")
    known = {"kind", *fields, *extra}
    if kind == "table":
        known |= {"times", "values"}
        ts, vs = spec.get("times"), spec.get("values")
        for label, arr in (("times", ts), ("values", vs)):
            if not isinstance(arr, list) or not all(_is_number(x) for x in arr):
                bad.append(f"{name}.{label} must be a list of finite numbers")
                return
        bad.extend(f"{name}." + v for v in TableSampler.violations(ts, vs, t_end))
    for k in spec:
        if k not in known:
            bad.append(f"{name} has unknown field {k!r}")


def parse_config(text):
    """Parse and validate a JSON job document into a JobConfig."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"config is not valid JSON: line {e.lineno}, column {e.colno}: {e.msg}")
    if not isinstance(doc, dict):
        raise ParseError(f"config must be a JSON object, got {type(doc).__name__}")

    bad = []
    known_top = {"task", "state", "grid", "hamiltonian", "backend", "times",
                 "output_dir", "input_path"}
    for k in doc:
        if k not in known_top:
            bad.append(f"unknown config field {k!r}")

    task = doc.get("task")
    if task not in TASKS:
        bad.append(f"task must be one of {TASKS}, got {task!r}")

    state = {**_DEFAULT_STATE, **(doc.get("state") if isinstance(doc.get("state"), dict) else {})}
    if not isinstance(doc.get("state", {}), dict):
        bad.append("state must be an object")
    if state["kind"] not in STATE_KINDS:
        bad.append(f"state.kind must be one of {STATE_KINDS}, got {state['kind']!r}")
    for f in ("alpha_re", "alpha_im"):
        if not _is_number(state[f]):
            bad.append(f"state.{f} must be a finite number")
    if state["sign"] not in (1, -1):
        bad.append(f"state.sign must be 1 or -1, got {state['sign']!r}")
    for k in state:
        if k not in _DEFAULT_STATE:
            bad.append(f"state has unknown field {k!r}")

    grid = {**_DEFAULT_GRID, **(doc.get("grid") if isinstance(doc.get("grid"), dict) else {})}
    if not isinstance(doc.get("grid", {}), dict):
        bad.append("grid must be an object")
    for f in ("x_max", "q_max"):
        if not _is_number(grid[f]):
            bad.append(f"grid.{f} must be a finite number")
    for f in ("n_x", "n_theta", "n_q"):
        if not _is_int(grid[f]):
            bad.append(f"grid.{f} must be an integer")
    # The grid classes own their bounds; asking them here turns a bad size
    # into a config error instead of a GridError at run time.
    for cls, fields in ((CoordinateGrid, ("q_max", "n_q")),
                        (TomogramGrid, ("x_max", "n_x", "n_theta"))):
        args = [grid[f] for f in fields]
        if all(_is_number(a) for a in args):
            bad.extend("grid." + v for v in cls.violations(*args))
    for k in grid:
        if k not in _DEFAULT_GRID:
            bad.append(f"grid has unknown field {k!r}")

    times = doc.get("times", [])
    if not isinstance(times, list) or not all(_is_number(t) for t in times):
        bad.append("times must be a list of finite numbers")
        times = []
    else:
        if any(t < 0 for t in times):
            bad.append("times must be nonnegative")
        if any(b <= a for a, b in zip(times, times[1:])):
            bad.append("times not increasing")

    ham_doc = doc.get("hamiltonian", {})
    if not isinstance(ham_doc, dict):
        bad.append("hamiltonian must be an object")
        ham_doc = {}
    ham = {
        "omega_sq": ham_doc.get("omega_sq", _DEFAULT_HAMILTONIAN["omega_sq"]),
        "force": ham_doc.get("force", _DEFAULT_HAMILTONIAN["force"]),
    }
    for k in ham_doc:
        if k not in ham:
            bad.append(f"hamiltonian has unknown field {k!r}")
    # evolve reads the Hamiltonian over [0, max(times)], so a table sampler
    # has to cover that span (pipeline-check admits constant samplers only).
    t_end = max(times) if task == "evolve" and times else None
    _check_sampler("hamiltonian.omega_sq", ham["omega_sq"], bad, t_end)
    _check_sampler("hamiltonian.force", ham["force"], bad, t_end)

    backend = doc.get("backend", "map")
    if backend not in BACKENDS:
        bad.append(f"backend must be one of {BACKENDS}, got {backend!r}")

    output_dir = doc.get("output_dir", "tomoprop_out")
    if not isinstance(output_dir, str) or not output_dir:
        bad.append("output_dir must be a nonempty string")

    input_path = doc.get("input_path")
    if input_path is not None and not isinstance(input_path, str):
        bad.append("input_path must be a string path")

    if task in ("evolve", "pipeline-check") and not times:
        bad.append(f"task {task!r} requires a nonempty times array")
    if task == "invert" and not input_path:
        bad.append("task 'invert' requires input_path")
    if task == "pipeline-check":
        w2, f = ham["omega_sq"], ham["force"]
        analytic = (
            isinstance(w2, dict) and w2.get("kind") == "constant"
            and w2.get("value") in (0, 0.0, 1, 1.0)
            and isinstance(f, dict) and f.get("kind") == "constant"
            and f.get("value") in (0, 0.0)
        )
        if not analytic:
            bad.append(
                "task 'pipeline-check' needs an analytic kernel: constant "
                "omega_sq of 0 (free) or 1 (oscillator) and zero force"
            )

    if bad:
        raise ValidationError(bad)

    return JobConfig(
        task=task,
        state=state,
        grid=grid,
        hamiltonian=ham,
        backend=backend,
        times=tuple(float(t) for t in times),
        output_dir=output_dir,
        input_path=input_path,
    )


def build_sampler(spec):
    """Sampler object from a validated sampler spec."""
    kind = spec["kind"]
    if kind == "constant":
        return ConstantSampler(float(spec["value"]))
    if kind == "cosine":
        return CosineSampler(
            float(spec["a"]), float(spec["b"]), float(spec["freq"]),
            float(spec.get("phase", 0.0)),
        )
    return TableSampler(
        np.asarray(spec["times"], dtype=float),
        np.asarray(spec["values"], dtype=float),
    )


def build_hamiltonian(cfg):
    return QuadraticHamiltonian(
        omega_sq=build_sampler(cfg.hamiltonian["omega_sq"]),
        force=build_sampler(cfg.hamiltonian["force"]),
    )


def coordinate_grid(cfg):
    return CoordinateGrid(q_max=float(cfg.grid["q_max"]), n_q=int(cfg.grid["n_q"]))


def tomogram_grid(cfg):
    return TomogramGrid(
        x_max=float(cfg.grid["x_max"]),
        n_x=int(cfg.grid["n_x"]),
        n_theta=int(cfg.grid["n_theta"]),
    )


def build_state(cfg):
    """Reference wavefunction described by the config's state block."""
    g = coordinate_grid(cfg)
    s = cfg.state
    if s["kind"] == "vacuum":
        return make_vacuum(g)
    alpha = complex(s["alpha_re"], s["alpha_im"])
    if s["kind"] == "coherent":
        return make_coherent(alpha, g)
    return make_cat(alpha, sign=int(s["sign"]), grid=g)
