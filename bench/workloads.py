"""Seeded workload generator and referee checks for the CLI benchmark.

Each workload is one `tomoprop` task on the default grids (1024 X, 180
theta, 512 q).  The seed picks only the physical input parameters, inside
the ranges the state guards and the X-window edge guard accept; the
program receives nothing but the generated JSON config (and, for
`invert-cat`, a tomogram file written here before timing starts).

Referee checks read the job's output files and compare them with a
reference computed outside the job: the classical trajectory for the
driven oscillator, the exact cat-state density built here with plain
numpy, and the analytic-kernel discrepancy the pipeline task reports,
held against the entrywise gap it reports alongside.
Every check runs after the timed window.
"""

import hashlib
import json
import math
import os
import random

# Grid sizes of the default config; recorded with every result.
GRID = {"x_max": 8.0, "n_x": 1024, "n_theta": 180, "q_max": 8.0, "n_q": 512}

WORKLOADS = {
    "evolve-driven": (
        "evolve, both backends, driven Mathieu oscillator: forward transform, "
        "eps(t) solves, map and PDE pull-backs, tomogram writer; no FBP, reads or oracles"
    ),
    "invert-cat": (
        "invert of a cat-state tomogram file: reader, two FBPs, Wigner-to-density, "
        "density and Wigner writers; no forward transform, evolution or oracles"
    ),
    "pipeline-osc": (
        "pipeline-check on the unit oscillator: forward transform, map pull-back, FBP, "
        "Green-kernel density evolution, trace distance; only report.json is written"
    ),
}

TASKS = {"evolve-driven": "evolve", "invert-cat": "invert", "pipeline-osc": "pipeline-check"}

# Referee limits: acceptance checks 9 (Ehrenfest), 7 (backend gap), the
# validate round-trip threshold, and acceptance check 8 (pipeline).
EHRENFEST_LIMIT = 1e-3
BACKEND_GAP_LIMIT = 1e-2
CAT_TRACE_DISTANCE_LIMIT = 1e-2
MASS_LIMIT = 1e-3
PIPELINE_LIMIT = 1e-2
# Relative gap allowed between oracles.trace_distance and the exact trace
# distance of two nearby coherent states.
TRACE_DISTANCE_REL_LIMIT = 1e-3

# Files left out of the byte-identity comparison: they carry timestamps.
VOLATILE_FILES = ("run_meta.json",)


def _alpha(rng, r):
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return round(r * math.cos(phi), 6), round(r * math.sin(phi), 6)


# The referee errors grow with the displacement |alpha| (measured: the
# pipeline trace distance runs from 0.9e-4 at |alpha| = 0.5 to 1.8e-4 at
# 1.1), so |alpha| is held fixed on the coherent workloads and kept in a
# narrow band for the cat.  The seed varies what leaves those errors nearly
# unchanged, which keeps result_err comparable across seeds.  The cat lies
# on the q axis, its worst orientation for the reconstruction (3.5e-4
# against 2.4e-4 on the diagonal), and every run inverts both parities.
def generate(workload, seed):
    """(config documents, parameter record) for one workload and seed.

    Jobs cycle through the documents.  The documents carry no output_dir;
    each job passes its own through --output-dir.  invert-cat's
    input_path is filled in by prepare_inputs.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    base = {"task": TASKS[workload], "grid": dict(GRID)}
    if workload == "evolve-driven":
        a_re, a_im = _alpha(rng, 1.0)
        b = round(rng.uniform(0.1, 0.3), 6)
        f = round(rng.uniform(0.1, 0.4), 6)
        docs = [{
            **base,
            "state": {"kind": "coherent", "alpha_re": a_re, "alpha_im": a_im},
            "hamiltonian": {
                "omega_sq": {"kind": "cosine", "a": 1.0, "b": b, "freq": 2.0, "phase": 0.0},
                "force": {"kind": "constant", "value": f},
            },
            "backend": "both",
            "times": [0.5, 1.0, 1.5, 2.0],
        }]
    elif workload == "invert-cat":
        r = round(rng.uniform(1.15, 1.25), 6)
        docs = [
            {**base, "state": {"kind": "cat", "alpha_re": r, "alpha_im": 0.0, "sign": sign}}
            for sign in (1, -1)
        ]
    else:
        a_re, a_im = _alpha(rng, 1.0)
        docs = [{
            **base,
            "state": {"kind": "coherent", "alpha_re": a_re, "alpha_im": a_im},
            "hamiltonian": {
                "omega_sq": {"kind": "constant", "value": 1.0},
                "force": {"kind": "constant", "value": 0.0},
            },
            "times": [0.5, 1.0],
        }]
    params = {"workload": workload, "seed": seed,
              "configs": [{k: v for k, v in d.items() if k != "grid"} for d in docs]}
    return docs, params


def prepare_inputs(workload, doc, workdir):
    """Write the files a job reads; returns the config document to run.

    invert-cat gets the tomogram of its cat state, computed with the pure
    state route and written with the package's own writer, standing in
    for measured homodyne data.
    """
    if workload != "invert-cat":
        return doc
    from tomoprop import output, transforms
    from tomoprop.grids import CoordinateGrid, TomogramGrid
    from tomoprop.states import make_cat

    s = doc["state"]
    psi = make_cat(complex(s["alpha_re"], s["alpha_im"]), sign=s["sign"],
                   grid=CoordinateGrid(q_max=GRID["q_max"], n_q=GRID["n_q"]))
    tg = TomogramGrid(x_max=GRID["x_max"], n_x=GRID["n_x"], n_theta=GRID["n_theta"])
    path = os.path.join(workdir, "input_tomogram_%+d.csv" % s["sign"])
    output.write_tomogram(path, transforms.tomogram_from_wavefunction(psi, tg))
    return {**doc, "input_path": path}


def digest_outputs(outdir):
    """sha256 of every output file except the volatile metadata."""
    out = {}
    for name in sorted(os.listdir(outdir)):
        if name in VOLATILE_FILES:
            continue
        h = hashlib.sha256()
        with open(os.path.join(outdir, name), "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        out[name] = h.hexdigest()
    return out


def _check(checks, name, measured, limit):
    checks.append({"name": name, "measured": measured, "limit": limit,
                   "pass": bool(measured <= limit)})


def _read_csv(path):
    import numpy as np

    return np.loadtxt(path, comments="#", delimiter=",", ndmin=2)


def _trapezoid(n, h):
    import numpy as np

    w = np.full(n, h)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def cat_density(alpha, sign, q_max, n_q):
    """Exact even/odd cat density rho(q, q') on the symmetric q grid.

    sign = 0 gives the coherent state of alpha itself.
    """
    import numpy as np

    q = np.linspace(-q_max, q_max, n_q)

    def coherent(a):
        return np.pi ** -0.25 * np.exp(
            -0.5 * (q - math.sqrt(2.0) * a.real) ** 2
            + 1j * math.sqrt(2.0) * a.imag * q - 1j * a.real * a.imag
        )

    psi = coherent(alpha) + sign * coherent(-alpha) if sign else coherent(alpha)
    psi /= math.sqrt(float(np.sum(np.abs(psi) ** 2 * _trapezoid(n_q, q[1] - q[0]))))
    return np.outer(psi, psi.conj())


def trace_distance(a, b, dq):
    """(1/2) Tr |a - b| of the discretized operators."""
    import numpy as np

    return 0.5 * float(np.abs(np.linalg.eigvalsh((a - b) * dq)).sum())


def _referee_evolve(doc, outdir, report):
    import numpy as np
    from tomoprop import oracles
    from tomoprop.quad_dynamics import ConstantSampler, CosineSampler, QuadraticHamiltonian

    checks = []
    w2, f = doc["hamiltonian"]["omega_sq"], doc["hamiltonian"]["force"]
    H = QuadraticHamiltonian(
        CosineSampler(w2["a"], w2["b"], w2["freq"], w2["phase"]), ConstantSampler(f["value"])
    )
    times = doc["times"]
    s = doc["state"]
    cl = oracles.classical_trajectory(
        H, math.sqrt(2.0) * s["alpha_re"], math.sqrt(2.0) * s["alpha_im"], times
    )
    xs = np.linspace(-GRID["x_max"], GRID["x_max"], GRID["n_x"])
    thetas = (np.arange(GRID["n_theta"]) + 0.5) * math.pi / GRID["n_theta"]
    wx = _trapezoid(GRID["n_x"], xs[1] - xs[0])
    dev = []
    for i in range(len(times)):
        ref = cl.q_cl[i] * np.cos(thetas) + cl.p_cl[i] * np.sin(thetas)
        for backend in ("map", "pde"):
            data = _read_csv(os.path.join(outdir, "tomogram_%s_%03d.csv" % (backend, i)))
            w = data[:, 3].reshape(GRID["n_theta"], GRID["n_x"])
            dev.append((w * xs) @ wx - ref)
    dev = np.concatenate(dev)
    _check(checks, "ehrenfest_first_moment_max", float(np.abs(dev).max()), EHRENFEST_LIMIT)
    _check(checks, "l1_backend_gap", max(report["l1_backend_gap"]), BACKEND_GAP_LIMIT)
    # The maximum over the 1440 rows is set by where the interpolation error
    # of a single row peaks: over 30 parameter sets it ranged from 4.5e-5 to
    # 8.3e-5, the root mean square over the same rows from 2.5e-5 to 3.0e-5.
    # The maximum gates the job; the root mean square is result_err.
    return checks, float(np.sqrt(np.mean(dev * dev)))


def _referee_invert(doc, outdir, report):
    import numpy as np

    checks = []
    n, q_max = GRID["n_q"], GRID["q_max"]
    dq = 2.0 * q_max / (n - 1)
    d = _read_csv(os.path.join(outdir, "density.csv"))
    rho = np.zeros((n, n), dtype=complex)
    rho[d[:, 0].astype(int), d[:, 1].astype(int)] = d[:, 2] + 1j * d[:, 3]
    s = doc["state"]
    exact = cat_density(complex(s["alpha_re"], s["alpha_im"]), s["sign"], q_max, n)
    err = trace_distance(rho, exact, dq)
    _check(checks, "cat_trace_distance", err, CAT_TRACE_DISTANCE_LIMIT)
    trace = float(np.sum(np.real(np.diag(rho)) * _trapezoid(n, dq)))
    _check(checks, "trace_dev", abs(trace - 1.0), MASS_LIMIT)

    wd = _read_csv(os.path.join(outdir, "wigner.csv"))
    qs, ps = np.unique(wd[:, 0]), np.unique(wd[:, 1])
    W = wd[:, 2].reshape(qs.size, ps.size)
    mass = float(_trapezoid(qs.size, qs[1] - qs[0]) @ W @ _trapezoid(ps.size, ps[1] - ps[0]))
    _check(checks, "wigner_mass_dev", abs(mass / (2.0 * math.pi) - 1.0), MASS_LIMIT)
    return checks, err


def _referee_pipeline(doc, outdir, report):
    checks = []
    records = report["records"]
    err = max(r["trace_distance"] for r in records)
    _check(checks, "pipeline_trace_distance", err, PIPELINE_LIMIT)
    # The report's trace distance comes from the program's own
    # oracles.trace_distance, so it is held against the entrywise maximum
    # l_inf = max |D_ij| of the same Hermitian difference D, which the
    # program computes separately.  With dq the q spacing and n the grid
    # size, ||D||_1 >= ||D||_op >= l_inf and ||D||_1 <= sqrt(n) ||D||_F
    # <= n^1.5 l_inf, so 0.5 dq l_inf <= trace distance <= 0.5 dq n^1.5 l_inf.
    # The lower bound catches a trace distance that under-reports.
    n = GRID["n_q"]
    dq = 2.0 * GRID["q_max"] / (n - 1)
    low = max(_ratio(0.5 * dq * r["l_inf"], r["trace_distance"]) for r in records)
    high = max(_ratio(r["trace_distance"], 0.5 * dq * n ** 1.5 * r["l_inf"]) for r in records)
    _check(checks, "l_inf_lower_bound_ratio", low, 1.0)
    _check(checks, "l_inf_upper_bound_ratio", high, 1.0)
    # The function itself against an exact value: two pure states are
    # 1 - |<a|b>|^2 = 1 - exp(-|a - b|^2) apart in squared trace distance
    # when they are coherent states.
    from tomoprop.grids import CoordinateGrid
    from tomoprop.oracles import trace_distance as program_trace_distance
    from tomoprop.states import DensityMatrix

    s = doc["state"]
    a, delta = complex(s["alpha_re"], s["alpha_im"]), complex(0.006, 0.008)
    grid = CoordinateGrid(GRID["q_max"], n)
    got = program_trace_distance(
        DensityMatrix(grid, cat_density(a, 0, GRID["q_max"], n)),
        DensityMatrix(grid, cat_density(a + delta, 0, GRID["q_max"], n)),
    )
    exact = math.sqrt(1.0 - math.exp(-abs(delta) ** 2))
    _check(checks, "trace_distance_rel_gap", abs(got - exact) / exact, TRACE_DISTANCE_REL_LIMIT)
    return checks, err


def _ratio(a, b):
    """a / b, where 0 / 0 is 0 and a / 0 is infinite."""
    return a / b if b else (math.inf if a else 0.0)


_REFEREES = {
    "evolve-driven": _referee_evolve,
    "invert-cat": _referee_invert,
    "pipeline-osc": _referee_pipeline,
}


def referee(workload, doc, outdir):
    """(checks, result_err) for the output directory of one job run on doc."""
    with open(os.path.join(outdir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    return _REFEREES[workload](doc, outdir, report)
