"""Job configuration: validation of the decoded JSON job document.

A job is one JSON document; the CLI decodes it and parse_config checks it.
Everything except the task has a default, and validation collects every
violated invariant before raising, so a broken config reports all of its
problems in one pass instead of one per rerun.  The JobConfig it returns
carries the grids and the Hamiltonian it checked; the state stays a dict
for build_state, whose guards are run-time (exit 3) failures.

Sampler specs describe the time-dependent Hamiltonian coefficients:
{"kind": "constant", "value": v}, {"kind": "cosine", "a": a, "b": b,
"freq": f, "phase": 0} meaning a + b cos(f t + phase), or {"kind":
"table", "times": [...], "values": [...]}.  The fields are those of the
sampler class SAMPLERS names; a field without a default is required.
"""

import json
import math
from dataclasses import MISSING, dataclass, fields

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
SAMPLERS = {"constant": ConstantSampler, "cosine": CosineSampler, "table": TableSampler}

# validate solves the job's Hamiltonian to max(times), or to this time when
# the job gives none.
VALIDATE_HORIZON = 10.0

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
    coordinate_grid: CoordinateGrid
    tomogram_grid: TomogramGrid
    hamiltonian: QuadraticHamiltonian
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
    """The sampler a spec describes, or None after listing its violations."""
    if not isinstance(spec, dict):
        bad.append(f"{name} must be a sampler object, got {type(spec).__name__}")
        return None
    kind = spec.get("kind")
    cls = SAMPLERS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        bad.append(f"{name}.kind must be one of {tuple(SAMPLERS)}, got {kind!r}")
        return None
    n_bad, args = len(bad), {}
    for f in fields(cls):
        if f.name not in spec and f.default is not MISSING:
            continue
        value = spec.get(f.name)
        if f.type is float:
            if _is_number(value):
                args[f.name] = float(value)
            else:
                bad.append(f"{name}.{f.name} must be a finite number")
        elif isinstance(value, list) and all(_is_number(x) for x in value):
            args[f.name] = value
        else:
            bad.append(f"{name}.{f.name} must be a list of finite numbers")
    if cls is TableSampler:
        if len(bad) > n_bad:
            return None
        bad.extend(f"{name}." + v for v in TableSampler.violations(t_end=t_end, **args))
    known = {"kind", *(f.name for f in fields(cls))}
    for k in spec:
        if k not in known:
            bad.append(f"{name} has unknown field {k!r}")
    return cls(**args) if len(bad) == n_bad else None


def parse_config(doc):
    """Validate a decoded JSON job document into a JobConfig."""
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
    if not (_is_int(state["sign"]) and state["sign"] in (1, -1)):
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
    for k in ham_doc:
        if k not in _DEFAULT_HAMILTONIAN:
            bad.append(f"hamiltonian has unknown field {k!r}")
    # The tasks that evolve read the Hamiltonian over [0, max(times)], and
    # validate over [0, VALIDATE_HORIZON] when there are no times, so a
    # table sampler has to cover that span.
    t_end = None
    if task == "validate":
        t_end = max(times, default=VALIDATE_HORIZON)
    elif task in ("evolve", "pipeline-check") and times:
        t_end = max(times)
    omega_sq, force = (
        _check_sampler(f"hamiltonian.{f}", ham_doc.get(f, default), bad, t_end)
        for f, default in _DEFAULT_HAMILTONIAN.items()
    )

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

    if bad:
        raise ValidationError(bad)

    return JobConfig(
        task=task,
        state=state,
        coordinate_grid=CoordinateGrid(q_max=float(grid["q_max"]), n_q=int(grid["n_q"])),
        tomogram_grid=TomogramGrid(x_max=float(grid["x_max"]), n_x=int(grid["n_x"]),
                                   n_theta=int(grid["n_theta"])),
        hamiltonian=QuadraticHamiltonian(omega_sq=omega_sq, force=force),
        backend=backend,
        times=tuple(float(t) for t in times),
        output_dir=output_dir,
        input_path=input_path,
    )


def build_state(cfg):
    """Reference wavefunction described by the config's state block."""
    g = cfg.coordinate_grid
    s = cfg.state
    if s["kind"] == "vacuum":
        return make_vacuum(g)
    alpha = complex(s["alpha_re"], s["alpha_im"])
    if s["kind"] == "coherent":
        return make_coherent(alpha, g)
    return make_cat(alpha, sign=int(s["sign"]), grid=g)
