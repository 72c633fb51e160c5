"""Deterministic text output and parsing of package objects.

Data files are UTF-8 text: '#' header lines carry grid metadata, one
key=value per line, followed by plain CSV rows.  Floats print with 17
significant digits, so write/read cycles are bit exact for doubles and
identical inputs always produce byte-identical files.  Every file is
written to a temporary name in the target directory and renamed into
place, so readers never observe a half-written file.

Column layouts: tomograms are theta-major "theta_index,theta,X,w";
density matrices "qi,qj,re,im" (grid in the header); Wigner functions
"q,p,w".
"""

import json
import os
import tempfile

import numpy as np

from .errors import ParseError
from .grids import TomogramGrid
from .transforms import Tomogram

FLOAT_FMT = "%.17g"


def _atomic_write(path, text):
    d = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tomoprop-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_report(path, record):
    """Structured (JSON) report; key order fixed for determinism."""
    _atomic_write(path, json.dumps(record, indent=2, sort_keys=True) + "\n")


def write_tomogram(path, w):
    tg = w.grid
    lines = [
        "# x_max=" + (FLOAT_FMT % tg.x_max),
        "# n_x=%d" % tg.n_x,
        "# n_theta=%d" % tg.n_theta,
        "# columns=theta_index,theta,X,w",
    ]
    xs = [FLOAT_FMT % x for x in tg.xs]
    for j in range(tg.n_theta):
        prefix = "%d," % j + (FLOAT_FMT % tg.thetas[j]) + ","
        row = w.values[j]
        lines.extend(prefix + xs[i] + "," + (FLOAT_FMT % row[i]) for i in range(tg.n_x))
    _atomic_write(path, "\n".join(lines) + "\n")


def _read_headers(path):
    meta = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            key, sep, val = line[1:].strip().partition("=")
            if sep:
                meta[key.strip()] = val.strip()
    return meta


def read_tomogram(path):
    """Parse a tomogram data file back into a validated Tomogram."""
    meta = _read_headers(path)
    try:
        tg = TomogramGrid(
            x_max=float(meta["x_max"]),
            n_x=int(meta["n_x"]),
            n_theta=int(meta["n_theta"]),
        )
    except KeyError as e:
        raise ParseError(f"{path}: missing tomogram header {e.args[0]!r}")
    data = np.loadtxt(path, comments="#", delimiter=",", ndmin=2)
    if data.shape != (tg.n_theta * tg.n_x, 4):
        raise ParseError(
            f"{path}: expected {tg.n_theta * tg.n_x} rows of 4 columns, "
            f"got shape {data.shape}"
        )
    idx = data[:, 0].astype(int)
    if idx[0] != 0 or idx[-1] != tg.n_theta - 1 or np.any(np.diff(idx) < 0):
        raise ParseError(f"{path}: theta_index column is not theta-major ordered")
    tol = 1e-12 * max(tg.x_max, np.pi)
    for col, name, expected in ((1, "theta", np.repeat(tg.thetas, tg.n_x)),
                                (2, "X", np.tile(tg.xs, tg.n_theta))):
        dev = float(np.abs(data[:, col] - expected).max())
        if not dev <= tol:
            raise ParseError(
                f"{path}: {name} column deviates from the header grid by {dev:.3e}"
            )
    return Tomogram(tg, data[:, 3].reshape(tg.n_theta, tg.n_x))


def write_density(path, rho):
    g = rho.grid
    lines = [
        "# q_max=" + (FLOAT_FMT % g.q_max),
        "# n_q=%d" % g.n_q,
        "# columns=qi,qj,re,im",
    ]
    re, im = np.real(rho.values), np.imag(rho.values)
    for i in range(g.n_q):
        re_i, im_i = re[i], im[i]
        lines.extend(
            "%d,%d," % (i, j) + (FLOAT_FMT % re_i[j]) + "," + (FLOAT_FMT % im_i[j])
            for j in range(g.n_q)
        )
    _atomic_write(path, "\n".join(lines) + "\n")


def write_wigner(path, W):
    lines = [
        "# q_min=" + (FLOAT_FMT % W.q_axis[0]),
        "# q_max=" + (FLOAT_FMT % W.q_axis[-1]),
        "# n_q=%d" % W.q_axis.size,
        "# p_min=" + (FLOAT_FMT % W.p_axis[0]),
        "# p_max=" + (FLOAT_FMT % W.p_axis[-1]),
        "# n_p=%d" % W.p_axis.size,
        "# columns=q,p,w",
    ]
    ps = [FLOAT_FMT % p for p in W.p_axis]
    for i, q in enumerate(W.q_axis):
        qs = FLOAT_FMT % q
        row = W.values[i]
        lines.extend(qs + "," + ps[j] + "," + (FLOAT_FMT % row[j]) for j in range(len(ps)))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_moments(path, tg, m1, m2):
    lines = [
        "# x_max=" + (FLOAT_FMT % tg.x_max),
        "# n_theta=%d" % tg.n_theta,
        "# columns=theta_index,theta,m1,m2",
    ]
    lines.extend(
        "%d," % j + (FLOAT_FMT % tg.thetas[j]) + ","
        + (FLOAT_FMT % m1[j]) + "," + (FLOAT_FMT % m2[j])
        for j in range(tg.n_theta)
    )
    _atomic_write(path, "\n".join(lines) + "\n")
