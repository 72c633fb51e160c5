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

Each data file body is formatted in one `%` call: a row template holds
every fixed column (indices and grid coordinates, already printed) and one
FLOAT_FMT slot per value, and the values fill it in row-major order.  This
prints every value with the same conversion as formatting it alone.
"""

import json
import os
import tempfile
from functools import lru_cache

import numpy as np

from .errors import GridError, ParseError
from .grids import TomogramGrid
from .transforms import Tomogram

FLOAT_FMT = "%.17g"


def _atomic_write(path, *chunks):
    d = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tomoprop-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
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


def _rows(prefixes, cells):
    """Row template: each prefix followed by each cell, one row per line."""
    return "\n".join(p + ("\n" + p).join(cells) for p in prefixes)


def _fill(template, columns, shape):
    """The template filled row by row from the value columns, each of the
    grid's shape, after checking that shape."""
    for name, values in columns.items():
        if np.shape(values) != shape:
            raise GridError(f"{name} shape {np.shape(values)} does not match grid {shape}")
    values = np.stack(list(columns.values()), axis=-1)
    return template % tuple(values.ravel().tolist())


def _write_table(path, headers, body):
    _atomic_write(path, "\n".join(headers) + "\n", body, "\n")


# evolve writes every tomogram of a job on one grid.
@lru_cache(maxsize=2)
def _tomogram_rows(tg):
    return _rows(
        ["%d," % j + (FLOAT_FMT % theta) + "," for j, theta in enumerate(tg.thetas)],
        [(FLOAT_FMT % x) + "," + FLOAT_FMT for x in tg.xs],
    )


def write_tomogram(path, w):
    tg = w.grid
    headers = [
        "# x_max=" + (FLOAT_FMT % tg.x_max),
        "# n_x=%d" % tg.n_x,
        "# n_theta=%d" % tg.n_theta,
        "# columns=theta_index,theta,X,w",
    ]
    body = _fill(_tomogram_rows(tg), {"tomogram": w.values}, (tg.n_theta, tg.n_x))
    _write_table(path, headers, body)


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
    """Parse a tomogram data file back into a validated Tomogram.

    A file that is not UTF-8, holds a header or cell that does not parse
    as a number, or whose header grid TomogramGrid refuses, raises
    ParseError naming the file.
    """
    try:
        meta = _read_headers(path)
        tg = TomogramGrid(
            x_max=float(meta["x_max"]),
            n_x=int(meta["n_x"]),
            n_theta=int(meta["n_theta"]),
        )
        data = np.loadtxt(path, comments="#", delimiter=",", ndmin=2)
    except KeyError as e:
        raise ParseError(f"{path}: missing tomogram header {e.args[0]!r}")
    except (ValueError, GridError) as e:  # UnicodeDecodeError is a ValueError too
        raise ParseError(f"{path}: {e}")
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
    headers = [
        "# q_max=" + (FLOAT_FMT % g.q_max),
        "# n_q=%d" % g.n_q,
        "# columns=qi,qj,re,im",
    ]
    rows = _rows(
        ["%d," % i for i in range(g.n_q)],
        ["%d," % j + FLOAT_FMT + "," + FLOAT_FMT for j in range(g.n_q)],
    )
    columns = {"density re": np.real(rho.values), "density im": np.imag(rho.values)}
    _write_table(path, headers, _fill(rows, columns, (g.n_q, g.n_q)))


def write_wigner(path, W):
    headers = [
        "# q_min=" + (FLOAT_FMT % W.q_axis[0]),
        "# q_max=" + (FLOAT_FMT % W.q_axis[-1]),
        "# n_q=%d" % W.q_axis.size,
        "# p_min=" + (FLOAT_FMT % W.p_axis[0]),
        "# p_max=" + (FLOAT_FMT % W.p_axis[-1]),
        "# n_p=%d" % W.p_axis.size,
        "# columns=q,p,w",
    ]
    rows = _rows(
        [(FLOAT_FMT % q) + "," for q in W.q_axis],
        [(FLOAT_FMT % p) + "," + FLOAT_FMT for p in W.p_axis],
    )
    shape = (W.q_axis.size, W.p_axis.size)
    _write_table(path, headers, _fill(rows, {"Wigner array": W.values}, shape))


def write_moments(path, tg, m1, m2):
    headers = [
        "# x_max=" + (FLOAT_FMT % tg.x_max),
        "# n_theta=%d" % tg.n_theta,
        "# columns=theta_index,theta,m1,m2",
    ]
    rows = _rows(
        ["%d," % j + (FLOAT_FMT % theta) + "," for j, theta in enumerate(tg.thetas)],
        [FLOAT_FMT + "," + FLOAT_FMT],
    )
    _write_table(path, headers, _fill(rows, {"m1": m1, "m2": m2}, (tg.n_theta,)))
