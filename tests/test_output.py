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
    assert len(lines) == 7 + W.q_axis.size * W.p_axis.size
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
# The reference writers below format one value at a time, as the package
# did before each file body became one `%` call over a row template.

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
    lines = [
        "# q_min=" + (F % W.q_axis[0]),
        "# q_max=" + (F % W.q_axis[-1]),
        "# n_q=%d" % W.q_axis.size,
        "# p_min=" + (F % W.p_axis[0]),
        "# p_max=" + (F % W.p_axis[-1]),
        "# n_p=%d" % W.p_axis.size,
        "# columns=q,p,w",
    ]
    ps = [F % p for p in W.p_axis]
    for i, q in enumerate(W.q_axis):
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
    # Non-square axes, so a transposed layout cannot pass.
    q, p = np.linspace(-1.3, 1.3, 9), np.linspace(-2.1, 2.1, 12)
    W = transforms.WignerFunction(q, p, values_with_edges((9, 12), 4))
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
    W = transforms.WignerFunction(g.points, g.points, np.zeros((8, 8)))
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
    # Two grids of the same shape, so another grid's template would fill
    # without error and only its X and theta columns would be wrong.
    a = TomogramGrid(x_max=3.0, n_x=16, n_theta=8)
    b = TomogramGrid(x_max=3.5, n_x=16, n_theta=8)
    output._tomogram_rows.cache_clear()
    for k, tg in enumerate((a, b, a)):
        w = transforms.Tomogram(tg, values_with_edges((8, 16), 10 + k))
        path = tmp_path / ("w%d.csv" % k)
        output.write_tomogram(path, w)
        assert_bytes(path, reference_tomogram(w))
    info = output._tomogram_rows.cache_info()
    assert (info.hits, info.misses) == (1, 2)
