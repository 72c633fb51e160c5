"""Data file writers and readers: round trips, headers, atomicity."""

import os

import numpy as np
import pytest

from tomoprop import output, states, transforms
from tomoprop.errors import GridError, ParseError
from tomoprop.grids import CoordinateGrid, TomogramGrid

from conftest import vacuum_wigner_reference


@pytest.fixture(scope="module")
def small_tomogram():
    tg = TomogramGrid(x_max=6.0, n_x=64, n_theta=12)
    rng = np.random.default_rng(7)
    vals = rng.uniform(0.01, 1.0, size=(12, 64))
    return transforms.Tomogram(tg, vals)


def test_tomogram_round_trip_is_bit_exact(tmp_path, small_tomogram):
    path = tmp_path / "w.csv"
    output.write_tomogram(path, small_tomogram)
    back = output.read_tomogram(path)
    assert back.grid.x_max == small_tomogram.grid.x_max
    assert back.grid.n_x == small_tomogram.grid.n_x
    assert back.grid.n_theta == small_tomogram.grid.n_theta
    assert np.array_equal(back.values, small_tomogram.values)


def test_tomogram_headers(tmp_path, small_tomogram):
    path = tmp_path / "w.csv"
    output.write_tomogram(path, small_tomogram)
    head = path.read_text().splitlines()[:4]
    assert head[0] == "# x_max=6"
    assert head[1] == "# n_x=64"
    assert head[2] == "# n_theta=12"
    assert head[3] == "# columns=theta_index,theta,X,w"


def test_read_tomogram_rejects_missing_header(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("# n_x=64\n# n_theta=12\n0,0.1,0.0,0.5\n")
    with pytest.raises(ParseError, match="missing tomogram header 'x_max'"):
        output.read_tomogram(path)


def test_read_tomogram_rejects_wrong_shape(tmp_path, small_tomogram):
    path = tmp_path / "w.csv"
    output.write_tomogram(path, small_tomogram)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ParseError, match="expected 768 rows"):
        output.read_tomogram(path)


def test_read_tomogram_rejects_scrambled_order(tmp_path, small_tomogram):
    path = tmp_path / "w.csv"
    output.write_tomogram(path, small_tomogram)
    lines = path.read_text().splitlines()
    body = lines[4:]
    body[0], body[-1] = body[-1], body[0]
    path.write_text("\n".join(lines[:4] + body) + "\n")
    with pytest.raises(ParseError, match="not theta-major ordered"):
        output.read_tomogram(path)


def test_read_tomogram_rejects_shifted_grid_columns(tmp_path, small_tomogram):
    path = tmp_path / "w.csv"
    output.write_tomogram(path, small_tomogram)
    lines = path.read_text().splitlines()
    for col, name in ((2, "X"), (1, "theta")):
        body = []
        for line in lines[4:]:
            fields = line.split(",")
            fields[col] = output.FLOAT_FMT % (float(fields[col]) + 1e-9)
            body.append(",".join(fields))
        path.write_text("\n".join(lines[:4] + body) + "\n")
        with pytest.raises(ParseError, match=f"{name} column deviates"):
            output.read_tomogram(path)


def test_repeated_writes_are_byte_identical(tmp_path, small_tomogram):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    output.write_tomogram(a, small_tomogram)
    output.write_tomogram(b, small_tomogram)
    assert a.read_bytes() == b.read_bytes()


def test_atomic_write_leaves_no_temp_files(tmp_path, small_tomogram):
    output.write_tomogram(tmp_path / "w.csv", small_tomogram)
    assert sorted(os.listdir(tmp_path)) == ["w.csv"]


def test_write_density_layout(tmp_path):
    from tomoprop.grids import CoordinateGrid
    g = CoordinateGrid(q_max=8.0, n_q=48)
    rho = states.density_from_wavefunction(states.make_vacuum(g))
    path = tmp_path / "rho.csv"
    output.write_density(path, rho)
    lines = path.read_text().splitlines()
    assert lines[0] == "# q_max=8"
    assert lines[1] == "# n_q=48"
    assert lines[2] == "# columns=qi,qj,re,im"
    assert len(lines) == 3 + 48 * 48
    data = np.loadtxt(path, comments="#", delimiter=",")
    vals = (data[:, 2] + 1j * data[:, 3]).reshape(48, 48)
    assert np.array_equal(vals, rho.values)


def test_write_wigner_layout(tmp_path):
    W = vacuum_wigner_reference(CoordinateGrid(q_max=8.0, n_q=48))
    path = tmp_path / "wig.csv"
    output.write_wigner(path, W)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# q_min=")
    assert lines[6] == "# columns=q,p,w"
    assert len(lines) == 7 + W.grid.n_q ** 2
    data = np.loadtxt(path, comments="#", delimiter=",")
    assert np.array_equal(data[:, 2].reshape(W.values.shape), W.values)


def test_write_moments_layout(tmp_path, small_tomogram):
    tg = small_tomogram.grid
    m1, m2 = transforms.moments(small_tomogram, 1), transforms.moments(small_tomogram, 2)
    path = tmp_path / "m.csv"
    output.write_moments(path, tg, m1, m2)
    lines = path.read_text().splitlines()
    assert lines[0] == "# x_max=6"
    assert lines[1] == "# n_theta=12"
    assert lines[2] == "# columns=theta_index,theta,m1,m2"
    data = np.loadtxt(path, comments="#", delimiter=",")
    assert data.shape == (12, 4)
    assert np.array_equal(data[:, 2], m1)
    assert np.array_equal(data[:, 3], m2)


def test_write_report_sorts_keys(tmp_path):
    path = tmp_path / "report.json"
    output.write_report(path, {"zeta": 1, "alpha": 2})
    text = path.read_text()
    assert text.index('"alpha"') < text.index('"zeta"')
    assert text.endswith("\n")


# ---------------------------------------------------------------------------
# byte identity with the per-value writers
#
# The reference writers below format one value at a time with `%.17g`;
# the package formats whole blocks of values with numpy.

F = output.FLOAT_FMT


def reference_tomogram(w):
    tg = w.grid
    lines = [
        "# x_max=" + (F % tg.x_max),
        "# n_x=%d" % tg.n_x,
        "# n_theta=%d" % tg.n_theta,
        "# columns=theta_index,theta,X,w",
    ]
    xs = [F % x for x in tg.xs]
    for j in range(tg.n_theta):
        prefix = "%d," % j + (F % tg.thetas[j]) + ","
        row = w.values[j]
        lines.extend(prefix + xs[i] + "," + (F % row[i]) for i in range(tg.n_x))
    return "\n".join(lines) + "\n"


def reference_density(rho):
    g = rho.grid
    lines = [
        "# q_max=" + (F % g.q_max),
        "# n_q=%d" % g.n_q,
        "# columns=qi,qj,re,im",
    ]
    re, im = np.real(rho.values), np.imag(rho.values)
    for i in range(g.n_q):
        re_i, im_i = re[i], im[i]
        lines.extend(
            "%d,%d," % (i, j) + (F % re_i[j]) + "," + (F % im_i[j])
            for j in range(g.n_q)
        )
    return "\n".join(lines) + "\n"


def reference_wigner(W):
    axis = W.grid.points
    lines = [
        "# q_min=" + (F % axis[0]),
        "# q_max=" + (F % axis[-1]),
        "# n_q=%d" % axis.size,
        "# p_min=" + (F % axis[0]),
        "# p_max=" + (F % axis[-1]),
        "# n_p=%d" % axis.size,
        "# columns=q,p,w",
    ]
    ps = [F % p for p in axis]
    for i, q in enumerate(axis):
        qs = F % q
        row = W.values[i]
        lines.extend(qs + "," + ps[j] + "," + (F % row[j]) for j in range(len(ps)))
    return "\n".join(lines) + "\n"


def reference_moments(tg, m1, m2):
    lines = [
        "# x_max=" + (F % tg.x_max),
        "# n_theta=%d" % tg.n_theta,
        "# columns=theta_index,theta,m1,m2",
    ]
    lines.extend(
        "%d," % j + (F % tg.thetas[j]) + ","
        + (F % m1[j]) + "," + (F % m2[j])
        for j in range(tg.n_theta)
    )
    return "\n".join(lines) + "\n"


# Signed zeros, the smallest subnormal, the switches of %g to exponent form
# (below 1e-4, at 1e17 for 17 digits) and a value with no short decimal form.
EDGE_VALUES = [-0.0, 0.0, 1.0, 5e-324, 1e-300, 1e-4, 1e-5, 1e16, 1e17, 0.1,
               -0.1, -1e-5, -1e17, 1.0 / 3.0, np.inf, -np.inf, np.nan]


def values_with_edges(shape, seed):
    v = np.random.default_rng(seed).normal(size=shape) * np.logspace(-8, 8, shape[-1])
    flat = v.reshape(-1)
    flat[: len(EDGE_VALUES)] = EDGE_VALUES
    flat[-len(EDGE_VALUES):] = EDGE_VALUES[::-1]
    return v


def assert_bytes(path, text):
    assert path.read_bytes() == text.encode("utf-8")


def test_write_tomogram_bytes_match_reference(tmp_path):
    tg = TomogramGrid(x_max=0.1 * 37, n_x=16, n_theta=9)
    w = transforms.Tomogram(tg, values_with_edges((9, 16), 1))
    output.write_tomogram(tmp_path / "w.csv", w)
    assert_bytes(tmp_path / "w.csv", reference_tomogram(w))


def test_write_density_bytes_match_reference(tmp_path):
    g = CoordinateGrid(q_max=0.1 * 29, n_q=11)
    vals = np.empty((11, 11), complex)
    vals.real, vals.imag = values_with_edges((11, 11), 2), values_with_edges((11, 11), 3)[::-1]
    rho = states.DensityMatrix(g, vals)
    output.write_density(tmp_path / "rho.csv", rho)
    assert_bytes(tmp_path / "rho.csv", reference_density(rho))


def test_write_wigner_bytes_match_reference(tmp_path):
    # Values that are not symmetric, so a transposed layout cannot pass.
    g = CoordinateGrid(q_max=0.1 * 13, n_q=9)
    W = transforms.WignerFunction(g, values_with_edges((9, 9), 4))
    assert not np.array_equal(W.values, W.values.T, equal_nan=True)
    output.write_wigner(tmp_path / "wig.csv", W)
    assert_bytes(tmp_path / "wig.csv", reference_wigner(W))


def test_write_moments_bytes_match_reference(tmp_path):
    tg = TomogramGrid(x_max=0.1 * 37, n_x=16, n_theta=len(EDGE_VALUES) + 2)
    m1 = values_with_edges((tg.n_theta,), 5)
    m2 = m1[::-1].copy()
    output.write_moments(tmp_path / "m.csv", tg, m1, m2)
    assert_bytes(tmp_path / "m.csv", reference_moments(tg, m1, m2))


def test_writers_refuse_values_off_the_grid(tmp_path):
    tg = TomogramGrid(x_max=4.0, n_x=16, n_theta=8)
    g = CoordinateGrid(q_max=4.0, n_q=8)
    W = transforms.WignerFunction(g, np.zeros((8, 8)))
    W.values = np.zeros((8, 9))
    cases = [
        (output.write_tomogram, (transforms.Tomogram(tg, np.zeros((8, 15))),)),
        (output.write_tomogram, (transforms.Tomogram(tg, np.zeros((16, 8))),)),
        (output.write_density, (states.DensityMatrix(g, np.zeros((8, 9), complex)),)),
        (output.write_wigner, (W,)),
        (output.write_moments, (tg, np.zeros(8), np.zeros(7))),
    ]
    for writer, args in cases:
        with pytest.raises(GridError, match="does not match grid"):
            writer(tmp_path / "bad.csv", *args)
    assert os.listdir(tmp_path) == []


def test_tomogram_template_cache_keeps_grids_apart(tmp_path):
    # Two grids of the same shape, so another grid's X and theta cells
    # would fill without error and only those columns would be wrong.
    a = TomogramGrid(x_max=3.0, n_x=16, n_theta=8)
    b = TomogramGrid(x_max=3.5, n_x=16, n_theta=8)
    for k, tg in enumerate((a, b, a)):
        w = transforms.Tomogram(tg, values_with_edges((8, 16), 10 + k))
        path = tmp_path / ("w%d.csv" % k)
        output.write_tomogram(path, w)
        assert_bytes(path, reference_tomogram(w))


# ---------------------------------------------------------------------------
# the numpy formatter
#
# Every value of a body goes through output._format; it must print the same
# bytes as `'%.17g' % x`, including the values it hands back to `%`.


def formatted(x):
    """FLOAT_FMT of each value of x through the writers' body routine."""
    x = np.asarray(x, np.float64)
    body = b"".join(output._body([""] * x.size, [""], {"x": x}, (x.size,)))
    return body.decode("ascii").split("\n")[:-1]


def assert_formats_like_percent(x):
    got, want = formatted(x), [F % v for v in np.asarray(x, np.float64).tolist()]
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert len(got) == len(want) and not bad, bad[:5]


def test_formatter_matches_percent_on_random_values():
    rng = np.random.default_rng(2024)
    n = 20000
    assert_formats_like_percent(np.concatenate([
        rng.normal(size=n) * 10.0 ** rng.uniform(-30, 30, n),
        rng.normal(size=n) * 10.0 ** rng.uniform(-250, 250, n),
        np.exp(-rng.uniform(0, 640, n)),
        rng.uniform(-10, 10, n),
        np.round(rng.uniform(-1000, 1000, n), 3),
    ]))


def test_formatter_matches_percent_on_random_bit_patterns():
    # NaNs, infinities, subnormals and every exponent, mostly outside the
    # vectorised range.
    bits = np.random.default_rng(2025).integers(0, 2 ** 64, 20000, dtype=np.uint64)
    assert_formats_like_percent(bits.view(np.float64))


def test_formatter_matches_percent_at_powers_of_ten():
    # The exponent comes from the unrounded scaled value: a draft that took
    # it from the rounded one printed 1e-280 for 9.9999999999999996e-281.
    p = np.array([float("1e%d" % e) for e in range(-300, 301)])
    near = [np.nextafter(p, 0.0), np.nextafter(p, np.inf)]
    x = np.concatenate([p, *near, -p, *(-q for q in near)])
    assert 9.9999999999999996e-281 in x
    assert_formats_like_percent(x)
    assert formatted([9.9999999999999996e-281]) == ["9.9999999999999996e-281"]


def test_formatter_matches_percent_on_special_values():
    tiny = np.finfo(np.float64).tiny
    assert_formats_like_percent([
        0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-310,
        tiny, np.nextafter(tiny, 0.0), 1e-280, np.nextafter(1e-280, 0.0),
        1e280, np.nextafter(1e280, np.inf), np.finfo(np.float64).max,
    ])


def test_formatter_matches_percent_on_exact_ties():
    # Doubles of |x| >= 1e14 have so few fraction bits that x 10**(16 - k)
    # can be an exact half: %.17g rounds those to even.
    from fractions import Fraction

    rng = np.random.default_rng(2026)
    x = rng.integers(10 ** 14, 2 ** 51, 4000) + rng.integers(1, 8, 4000) / 8.0
    x = np.concatenate([x, -x])
    ties = sum(
        (Fraction(v) * Fraction(10) ** (16 - len(str(int(abs(v)))) + 1)).denominator == 2
        for v in x.tolist()
    )
    assert ties > 1000
    assert_formats_like_percent(x)


def test_formatter_takes_the_numpy_path_for_tomogram_values():
    rng = np.random.default_rng(2027)
    a = np.abs(rng.normal(size=5000)) * 10.0 ** rng.uniform(-12, 1, 5000)
    _, _, certain = output._decimal(a, output._tables()[0])
    assert certain.all()


# ---------------------------------------------------------------------------
# blocks
#
# Each body is formatted one block of whole leading-axis rows at a time,
# sized by BLOCK_BYTES.  These tests shrink the blocks so that the bodies
# span several and end mid-block; the reference fills one template for the
# whole body in a single `%` call.


def single_percent(headers, prefixes, cells, columns):
    template = "\n".join(p + ("\n" + p).join(cells) for p in prefixes)
    body = template % tuple(np.stack(columns, axis=-1).ravel().tolist())
    return "\n".join(headers) + "\n" + body + "\n"


def small_blocks(monkeypatch, block_bytes):
    """Shrink the blocks; returns the list that gets the number of values
    of every _format call, one call per block and value column."""
    sizes = []
    real = output._format

    def spy(x, out):
        sizes.append(x.size)
        return real(x, out)

    monkeypatch.setattr(output, "BLOCK_BYTES", block_bytes)
    monkeypatch.setattr(output, "_format", spy)
    return sizes


def assert_ends_mid_block(sizes, n_values):
    # Several full blocks, then a shorter last one.
    assert sum(sizes) == n_values
    assert len(sizes) > 2 and len(set(sizes[:-1])) == 1 and sizes[-1] < sizes[0]


def test_write_tomogram_row_blocks_match_single_percent(tmp_path, monkeypatch):
    tg = TomogramGrid(x_max=0.1 * 37, n_x=16, n_theta=45)
    sizes = small_blocks(monkeypatch, 4096)
    w = transforms.Tomogram(tg, values_with_edges((45, 16), 20))
    output.write_tomogram(tmp_path / "w.csv", w)
    assert_ends_mid_block(sizes, 45 * 16)
    text = single_percent(
        ["# x_max=" + (F % tg.x_max), "# n_x=16", "# n_theta=45",
         "# columns=theta_index,theta,X,w"],
        ["%d," % j + (F % theta) + "," for j, theta in enumerate(tg.thetas)],
        [(F % x) + "," + F for x in tg.xs],
        [w.values],
    )
    assert_bytes(tmp_path / "w.csv", text)


def test_write_density_row_blocks_match_single_percent(tmp_path, monkeypatch):
    g = CoordinateGrid(q_max=0.1 * 29, n_q=37)
    sizes = small_blocks(monkeypatch, 16384)
    vals = np.empty((37, 37), complex)
    vals.real, vals.imag = values_with_edges((37, 37), 21), values_with_edges((37, 37), 22)
    rho = states.DensityMatrix(g, vals)
    output.write_density(tmp_path / "rho.csv", rho)
    # Two value columns: each block formats re, then im.
    assert_ends_mid_block(sizes[0::2], 37 * 37)
    assert sizes[0::2] == sizes[1::2]
    text = single_percent(
        ["# q_max=" + (F % g.q_max), "# n_q=37", "# columns=qi,qj,re,im"],
        ["%d," % i for i in range(37)],
        ["%d," % j + F + "," + F for j in range(37)],
        [vals.real, vals.imag],
    )
    assert_bytes(tmp_path / "rho.csv", text)
