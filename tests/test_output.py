"""Data file writers and readers: round trips, headers, atomicity."""

import os

import numpy as np
import pytest

from tomoprop import output, states, transforms
from tomoprop.errors import ParseError
from tomoprop.grids import TomogramGrid


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
    from tomoprop.grids import CoordinateGrid
    g = CoordinateGrid(q_max=8.0, n_q=48)
    W = transforms.wigner_from_density(
        states.density_from_wavefunction(states.make_vacuum(g)))
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
