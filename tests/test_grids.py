import numpy as np
import pytest

from tomoprop.errors import GridError
from tomoprop.grids import CoordinateGrid, TomogramGrid


def test_coordinate_grid_axis_and_spacing():
    g = CoordinateGrid(q_max=4.0, n_q=9)
    assert g.points[0] == -4.0
    assert g.points[-1] == 4.0
    assert g.spacing == pytest.approx(1.0)
    assert g.q_min == -4.0
    np.testing.assert_allclose(np.diff(g.points), g.spacing, rtol=1e-14)


def test_coordinate_trapezoid_weights_integrate_exactly():
    g = CoordinateGrid(q_max=3.0, n_q=61)
    # Trapezoid quadrature is exact on affine integrands.
    assert np.sum(g.trapezoid_weights) == pytest.approx(6.0, rel=1e-14)
    assert np.sum(g.points * g.trapezoid_weights) == pytest.approx(0.0, abs=1e-13)


def test_nyquist_momentum():
    g = CoordinateGrid(q_max=8.0, n_q=512)
    assert g.nyquist_momentum == pytest.approx(np.pi / g.spacing)


@pytest.mark.parametrize("kwargs", [{"q_max": 0.0}, {"q_max": -1.0}, {"n_q": 4}])
def test_coordinate_grid_rejects_bad_parameters(kwargs):
    with pytest.raises(GridError):
        CoordinateGrid(**kwargs)


def test_tomogram_grid_theta_offset():
    tg = TomogramGrid(n_theta=180)
    assert tg.thetas[0] == pytest.approx(np.pi / 360.0)
    assert tg.thetas[-1] == pytest.approx(np.pi - np.pi / 360.0)
    # Half-offset rows never touch theta = 0 or pi.
    assert np.sin(tg.thetas).min() > 0.0
    np.testing.assert_allclose(np.diff(tg.thetas), tg.theta_spacing, rtol=1e-13)


def test_even_theta_count_has_no_midline_row():
    tg = TomogramGrid(n_theta=180)
    assert np.abs(tg.thetas - np.pi / 2).min() > 1e-3


def test_odd_theta_count_hits_midline():
    tg = TomogramGrid(n_theta=181)
    j = (tg.n_theta - 1) // 2
    assert abs(tg.thetas[j] - np.pi / 2) < 1e-12


@pytest.mark.parametrize(
    "kwargs", [{"x_max": 0.0}, {"n_x": 8}, {"n_theta": 4}]
)
def test_tomogram_grid_rejects_bad_parameters(kwargs):
    with pytest.raises(GridError):
        TomogramGrid(**kwargs)


def test_grid_errors_list_every_violation():
    with pytest.raises(GridError, match="x_max must be a positive number, got 0.0; "
                                        "n_x must be at least 16, got 8; "
                                        "n_theta must be at least 8, got 4"):
        TomogramGrid(x_max=0.0, n_x=8, n_theta=4)
    assert TomogramGrid.violations(8.0, 16, 8) == []
    assert CoordinateGrid.violations(-1.0, 4) == [
        "q_max must be a positive number, got -1.0", "n_q must be at least 8, got 4"]


def test_tomogram_grid_x_weights():
    tg = TomogramGrid(x_max=8.0, n_x=1024)
    assert np.sum(tg.x_trapezoid_weights) == pytest.approx(16.0, rel=1e-13)
    assert tg.x_spacing == pytest.approx(16.0 / 1023.0)
