"""Job configuration: validation of the decoded JSON job document.

A job is one JSON document; the CLI decodes it and parse_config checks it.
Everything except the task has a default, and validation collects every
violated invariant before raising, so a broken config reports all of its
problems in one pass instead of one per rerun.

Each section is read through the classes it builds: the state through
StateSpec, the grid through CoordinateGrid and TomogramGrid, each
Hamiltonian coefficient through the sampler class SAMPLERS names.  Their
dataclass fields name the keys and give the defaults (a field without a
default is required), and their violations(...) give the bounds, so the
config checks and the constructors' guards are one rule.  The grid is
checked first, so the state's center rule sees the coordinate grid; every
task but invert, which never builds the state, gets that rule.  The
JobConfig it returns carries the built objects; only a cat that cancels
to zero and WaveFunction.validate() stay run-time (exit 3) failures of
StateSpec.build.

Sampler specs describe the time-dependent Hamiltonian coefficients:
{"kind": "constant", "value": v}, {"kind": "cosine", "a": a, "b": b,
"freq": f, "phase": 0} meaning a + b cos(f t + phase), or {"kind":
"table", "times": [...], "values": [...]}.  A coefficient the job leaves
out is QuadraticHamiltonian.harmonic()'s.
"""

import json
import math
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .errors import ParseError, ValidationError
from .grids import CoordinateGrid, TomogramGrid
from .quad_dynamics import (
    ConstantSampler,
    CosineSampler,
    QuadraticHamiltonian,
    TableSampler,
)
from .states import StateSpec

TASKS = ("tomogram", "evolve", "invert", "moments", "validate", "pipeline-check")
BACKENDS = ("map", "pde", "both")
SAMPLERS = {"constant": ConstantSampler, "cosine": CosineSampler, "table": TableSampler}

# validate solves the job's Hamiltonian to max(times), or to this time when
# the job gives none.
VALIDATE_HORIZON = 10.0


def horizon(times):
    """T of the span [0, T] a job evolves or validates over: the last of
    its times, or VALIDATE_HORIZON without times."""
    return max(times, default=VALIDATE_HORIZON)


@dataclass(frozen=True)
class JobConfig:
    """Validated job description with defaults applied."""

    task: str
    state: StateSpec
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


def _is_number_list(x):
    return isinstance(x, list) and all(_is_number(v) for v in x)


# The check a field's annotation picks: the test a value must pass, what
# the value becomes, and what a failing value is told it must be.  Other
# annotations (str, Literal) leave the whole rule to violations(...).
_FIELD_CHECKS = {
    float: (_is_number, float, "a finite number"),
    int: (_is_int, int, "an integer"),
    np.ndarray: (_is_number_list, list, "a list of finite numbers"),
}


def _section(doc, key, bad):
    """doc[key] as an object, {} when it is absent or listed as no object."""
    value = doc.get(key, {})
    if isinstance(value, dict):
        return value
    bad.append(f"{key} must be an object")
    return {}


def _check_fields(name, spec, classes, bad, **context):
    """One instance of each class, built from spec's keys; Nones after
    listing every violation.

    The classes' dataclass fields name the keys, and a missing key takes
    its field's default.  A value that fails its annotation's check is
    listed and stands in as the default, so each class's violations(...,
    **context) still runs, unless a required field failed.  Keys that no
    class declares are listed as unknown.
    """
    n_bad, built = len(bad), []
    for cls in classes:
        args = {}
        for f in fields(cls):
            value = spec.get(f.name, f.default)
            check = _FIELD_CHECKS.get(f.type)
            if check is None:
                args[f.name] = value
            elif check[0](value):
                args[f.name] = check[1](value)
            else:
                bad.append(f"{name}.{f.name} must be {check[2]}")
                args[f.name] = f.default
        if hasattr(cls, "violations") and MISSING not in args.values():
            bad.extend(f"{name}." + v for v in cls.violations(**args, **context))
        built.append(args)
    known = {f.name for cls in classes for f in fields(cls)}
    bad.extend(f"{name} has unknown field {k!r}" for k in spec if k not in known)
    if len(bad) > n_bad:
        return [None] * len(classes)
    return [cls(**args) for cls, args in zip(classes, built)]


def _check_sampler(name, spec, bad, t_end):
    """The sampler a spec describes, or None after listing its violations."""
    if not isinstance(spec, dict):
        bad.append(f"{name} must be a sampler object, got {type(spec).__name__}")
        return None
    kind = spec.get("kind")
    cls = SAMPLERS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        bad.append(f"{name}.kind must be one of {tuple(SAMPLERS)}, got {kind!r}")
        return None
    rest = {k: v for k, v in spec.items() if k != "kind"}
    return _check_fields(name, rest, (cls,), bad, t_end=t_end)[0]


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

    coordinate_grid, tomogram_grid = _check_fields(
        "grid", _section(doc, "grid", bad), (CoordinateGrid, TomogramGrid), bad)
    # Every task but invert builds the state on the coordinate grid.
    (state,) = _check_fields("state", _section(doc, "state", bad), (StateSpec,), bad,
                             grid=None if task == "invert" else coordinate_grid)

    times = doc.get("times", [])
    if not isinstance(times, list) or not all(_is_number(t) for t in times):
        bad.append("times must be a list of finite numbers")
        times = []
    else:
        if any(t < 0 for t in times):
            bad.append("times must be nonnegative")
        if any(b <= a for a, b in zip(times, times[1:])):
            bad.append("times not increasing")

    ham_doc = _section(doc, "hamiltonian", bad)
    coefficients = [f.name for f in fields(QuadraticHamiltonian)]
    bad.extend(f"hamiltonian has unknown field {k!r}" for k in ham_doc if k not in coefficients)
    # validate and the tasks that evolve read the Hamiltonian over the
    # job's horizon, so a table sampler has to cover it.  An evolving task
    # without times is refused below.
    t_end = None
    if task == "validate" or (task in ("evolve", "pipeline-check") and times):
        t_end = horizon(times)
    harmonic = QuadraticHamiltonian.harmonic()
    omega_sq, force = (
        _check_sampler(f"hamiltonian.{c}", ham_doc[c], bad, t_end) if c in ham_doc
        else getattr(harmonic, c)
        for c in coefficients
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
        coordinate_grid=coordinate_grid,
        tomogram_grid=tomogram_grid,
        hamiltonian=QuadraticHamiltonian(omega_sq=omega_sq, force=force),
        backend=backend,
        times=tuple(float(t) for t in times),
        output_dir=output_dir,
        input_path=input_path,
    )

