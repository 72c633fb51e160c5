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

Headers and the fixed cells (indices and grid coordinates) print with
Python's '%.17g'.  The values of a file body print with a numpy twin of
it, byte for byte the same text:

- For 0 and finite 1e-280 <= |x| <= 1e280 the decimal exponent k and the
  17-digit integer D = round(|x| 10**(16 - k)) come from an exact
  (Veltkamp) product of x with a double-double table of powers of ten,
  accurate to about 1e-14 in the last digit.  Each value's text is then
  cut from one fixed byte template (sign, "0.000", the 17 digits with a
  decimal point after each, exponent) by a byte mask chosen by its layout
  (%g's fixed notation for -4 <= k <= 16, 2- or 3-digit exponents, zero)
  and its count of significant digits: the mask zeroes the bytes the
  value does not print.
- The rest fall back to '%.17g' one value at a time: NaN, +-Inf, values
  outside that range (subnormals among them), values whose scaled
  fraction lies within 1e-9 of one half, where the table's error could
  flip the rounding, and values whose 17 digits round up to a power of
  ten.  None of the values in the data files of the benchmark workloads'
  configs needs it.

A body streams to the file in blocks of whole rows of the grid's leading
axis (theta for tomograms and moments, q for densities and Wigner
functions).  Each block is one buffer of fixed-width lines: the fixed
cells, padded with zero bytes, are broadcast into it beside the value
templates, and deleting its zero bytes leaves the block's text.  A
block's buffer holds about BLOCK_BYTES, so no writer holds a whole body's
text at once.
"""

import json
import os
import tempfile
from functools import cache
from itertools import chain

import numpy as np

from .errors import GridError, ParseError
from .grids import TomogramGrid
from .transforms import Tomogram

FLOAT_FMT = "%.17g"

# Bytes of line buffer per block; a block holds at least one row.
BLOCK_BYTES = 1 << 19

# |x| range of the vectorised conversion: there the splits of x and of
# 10**(16 - k) cannot overflow and the table's low parts stay normal.
_RANGE = (1e-280, 1e280)
# Distance of the scaled fraction from 1/2 below which a value falls back.
_TIE = 1e-9
# Veltkamp splitting constant 2**27 + 1.
_SPLIT = 134217729.0
# Exponents s of the table's powers 10**s: s = 16 - k for every k in
# [-283, 282], the range's decimal exponents with their +-1 corrections.
_POWERS = range(-266, 300)

# Byte template of every value: sign, "0.000" (the "0." and leading zeros
# of 1e-4 <= |x| < 1), the 17 digits each followed by a decimal point, "e"
# and the exponent's sign and three digits.  Digit i sits at 6 + 2 i.
_TEMPLATE = b"-0.000" + b"0." * 17 + b"e+000"
# Layouts, each a block of 18 mask rows (significant digits 0 to 17):
# k + 4 for fixed notation, then exponents of two and of three digits,
# then zero.
_EXP2, _EXP3, _ZERO = 21, 22, 23
# Decimal exponents k of the per-exponent tables.
_EXPONENTS = range(-300, 301)


def _mask(layout, sig):
    """Which template bytes print (1) for a layout and a count of
    significant digits; the sign is set per value."""
    m = np.zeros(len(_TEMPLATE), np.uint8)
    digits = m[6:40:2]
    if layout == _ZERO:
        m[1] = 1
    elif layout >= _EXP2:
        digits[:sig] = 1
        m[7] = sig > 1
        m[40:42] = 1
        m[43 if layout == _EXP2 else 42:] = 1
    elif layout < 4:
        m[1:6 - layout] = 1
        digits[:sig] = 1
    else:
        k = layout - 4
        digits[:max(k + 1, sig)] = 1
        m[7 + 2 * k] = sig > k + 1
    return m


@cache
def _tables():
    """Lookup tables, built on first use and read-only: the double-double
    powers of ten (hi, its Veltkamp halves, lo), each 4-digit group as the
    8 template bytes "d.d.d.d." in one uint64, its count of trailing zeros,
    and by exponent k in _EXPONENTS its bytes "+ddd" in one uint32 and its
    layout; then the byte masks (0 or 0xFF) by (layout, significant
    digits)."""
    hi, lo = [], []
    for s in _POWERS:
        # 10**s = p / q exactly; int true division rounds correctly.
        p, q = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
        hi.append(p / q)
        num, den = hi[-1].as_integer_ratio()
        lo.append((p * den - num * q) / (q * den))
    hi = np.array(hi)
    c = _SPLIT * hi
    hh = c - (c - hi)
    group = np.arange(10000)[:, None]
    ascii8 = np.full((10000, 4, 2), ord("."), np.uint8)
    ascii8[:, :, 0] = group // [1000, 100, 10, 1] % 10 + ord("0")
    tables = (
        (hi, hh, hi - hh, np.array(lo)),
        ascii8.reshape(10000, 8).view(np.uint64).ravel(),
        np.sum(group % [10, 100, 1000, 10000] == 0, axis=1, dtype=np.uint8),
        np.array([b"%+04d" % k for k in _EXPONENTS]).view(np.uint32),
        np.array([k + 4 if -4 <= k <= 16 else _EXP2 if abs(k) < 100 else _EXP3
                  for k in _EXPONENTS]),
        np.array([_mask(layout, sig) for layout in range(24) for sig in range(18)]) * 0xFF,
    )
    for t in (*tables[0], *tables[1:]):
        t.flags.writeable = False
    return tables


def _scaled(a, k, powers):
    """a 10**(16 - k) as an integer part and a fraction in [0, 1)."""
    i = 16 - _POWERS.start - k
    hi, hh, hl, lo = (t.take(i) for t in powers)
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    p = a * hi
    r = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo
    ip = np.floor(p)
    f = (p - ip) + r
    fl = np.floor(f)
    return ip.astype(np.int64) + fl.astype(np.int64), f - fl


def _decimal(a, powers):
    """k = floor(log10 a), D = round(a 10**(16 - k)) and whether D is
    certain and in [10**16, 10**17), for a > 0.

    k is corrected from the unrounded integer part.  A D that rounds up to
    10**17 is left to the fallback, as are near-ties."""
    k = np.floor(np.log10(a)).astype(np.int64)
    n, frac = _scaled(a, k, powers)
    off = (n >= 10 ** 17).astype(np.int64) - (n < 10 ** 16)
    redo = np.flatnonzero(off)
    if redo.size:
        k[redo] += off[redo]
        n[redo], frac[redo] = _scaled(a[redo], k[redo], powers)
    d = n + (frac > 0.5)
    certain = (np.abs(frac - 0.5) >= _TIE) & (d >= 10 ** 16) & (d < 10 ** 17)
    return k, d, certain


def _format(x, out):
    """Write FLOAT_FMT % v for each value v of the 1-d x into a row of out,
    a (x.size, len(_TEMPLATE)) uint8 array, padded with zero bytes."""
    powers, digit8, zeros4, exp4, layouts, masks = _tables()
    a = np.abs(x)
    zero = a == 0
    fast = (a >= _RANGE[0]) & (a <= _RANGE[1])
    k, d, certain = _decimal(np.where(fast, a, 1.0), powers)
    lead = d // 10 ** 16
    d -= lead * 10 ** 16
    # The 16 digits after the lead as four groups of four: divide by
    # 10**8, then both halves by 10**4.
    groups = np.empty((4, x.size), np.int64)
    groups[0] = d // 10 ** 8
    groups[2] = d - groups[0] * 10 ** 8
    halves = groups[0::2] // 10 ** 4
    groups[1::2] = groups[0::2] - halves * 10 ** 4
    groups[0::2] = halves
    # Trailing zeros of D, from the last group back.
    tz = zeros4.take(groups)
    trailing = tz[0]
    for j in (1, 2, 3):
        trailing = tz[j] + (groups[j] == 0) * trailing
    row = layouts.take(k - _EXPONENTS.start) * 18 + 17 - trailing
    row[zero] = _ZERO * 18
    out[:] = np.frombuffer(_TEMPLATE, np.uint8)
    out[:, 6] = lead + ord("0")
    out[:, 8:40] = digit8.take(groups.T).view(np.uint8)
    out[:, 41:] = exp4.take(k - _EXPONENTS.start).view(np.uint8).reshape(-1, 4)
    out &= masks.take(row, axis=0)
    out[:, 0] = np.signbit(x) * ord("-")
    for i in np.flatnonzero(~zero & ~(fast & certain)):
        text = (FLOAT_FMT % x[i]).encode()
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, np.uint8)


def _cells(strings):
    """Fixed cells as rows of bytes padded with zero bytes."""
    return np.array([s.encode() for s in strings]).view(np.uint8).reshape(len(strings), -1)


def _body(row_cells, col_cells, columns, shape):
    """The lines row_cell + col_cell + the values joined by ',', one per
    grid point in row-major order, as a lazy sequence of byte blocks.

    columns maps a name to the values, each of the grid's shape (rows, or
    rows x columns); the shapes are checked at once.
    """
    for name, values in columns.items():
        if np.shape(values) != shape:
            raise GridError(f"{name} shape {np.shape(values)} does not match grid {shape}")
    values = [np.reshape(np.asarray(v, np.float64), (len(row_cells), len(col_cells)))
              for v in columns.values()]
    return _blocks(_cells(row_cells), _cells(col_cells), values)


def _blocks(rows, cols, values):
    """Each block: a buffer of fixed-width lines holding the cells and the
    value templates, its zero bytes deleted."""
    n_rows, n_cols = values[0].shape
    p = rows.shape[1]
    head = p + cols.shape[1]
    slot = len(_TEMPLATE) + 1
    width = head + len(values) * slot
    step = max(1, BLOCK_BYTES // (n_cols * width))
    for r0 in range(0, n_rows, step):
        r1 = min(r0 + step, n_rows)
        buf = np.empty(((r1 - r0) * n_cols, width), np.uint8)
        grid = buf.reshape(r1 - r0, n_cols, width)
        grid[:, :, :p] = rows[r0:r1, None]
        grid[:, :, p:head] = cols
        for j, v in enumerate(values):
            o = head + j * slot
            _format(v[r0:r1].ravel(), buf[:, o:o + slot - 1])
            buf[:, o + slot - 1] = ord("," if j < len(values) - 1 else "\n")
        yield buf.tobytes().translate(None, b"\0")


def _atomic_write(path, chunks):
    """Write the byte strings of the iterable chunks, consumed one at a time."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tomoprop-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
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
    _atomic_write(path, [(json.dumps(record, indent=2, sort_keys=True) + "\n").encode()])


def _write_table(path, headers, body):
    _atomic_write(path, chain([("\n".join(headers) + "\n").encode()], body))


def write_tomogram(path, w):
    tg = w.grid
    headers = [
        "# x_max=" + (FLOAT_FMT % tg.x_max),
        "# n_x=%d" % tg.n_x,
        "# n_theta=%d" % tg.n_theta,
        "# columns=theta_index,theta,X,w",
    ]
    body = _body(
        ["%d," % j + (FLOAT_FMT % theta) + "," for j, theta in enumerate(tg.thetas)],
        [(FLOAT_FMT % x) + "," for x in tg.xs],
        {"tomogram": w.values}, (tg.n_theta, tg.n_x),
    )
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
    """Parse a tomogram data file back into a Tomogram.

    Only the layout is checked: a file that is not UTF-8, holds a header or
    cell that does not parse as a number, whose header grid TomogramGrid
    refuses, or whose rows or columns do not match that grid, raises
    ParseError naming the file.  The values are not validated; callers run
    Tomogram.validate() (the invert task does).
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
    body = _body(
        ["%d," % i for i in range(g.n_q)],
        ["%d," % j for j in range(g.n_q)],
        {"density re": np.real(rho.values), "density im": np.imag(rho.values)},
        (g.n_q, g.n_q),
    )
    _write_table(path, headers, body)


def write_wigner(path, W):
    """The p headers and rows repeat the q grid: W has one axis for both."""
    g = W.grid
    lo, hi = FLOAT_FMT % g.q_min, FLOAT_FMT % g.q_max
    headers = [
        "# q_min=" + lo, "# q_max=" + hi, "# n_q=%d" % g.n_q,
        "# p_min=" + lo, "# p_max=" + hi, "# n_p=%d" % g.n_q,
        "# columns=q,p,w",
    ]
    cells = [(FLOAT_FMT % q) + "," for q in g.points]
    _write_table(path, headers, _body(cells, cells, {"Wigner array": W.values}, (g.n_q, g.n_q)))


def write_moments(path, tg, m1, m2):
    headers = [
        "# x_max=" + (FLOAT_FMT % tg.x_max),
        "# n_theta=%d" % tg.n_theta,
        "# columns=theta_index,theta,m1,m2",
    ]
    body = _body(
        ["%d," % j + (FLOAT_FMT % theta) + "," for j, theta in enumerate(tg.thetas)],
        [""],
        {"m1": m1, "m2": m2}, (tg.n_theta,),
    )
    _write_table(path, headers, body)
