import numpy as np
import pytest

from tomoprop.errors import GridError, SupportError
from tomoprop.grids import CoordinateGrid, TomogramGrid
from tomoprop.states import DensityMatrix, density_from_wavefunction, make_coherent
from tomoprop import transforms as tr

from conftest import (
    coherent_tomogram_reference,
    reference_density_from_wigner,
    reference_inverse_radon,
    vacuum_tomogram_reference,
    vacuum_wigner_reference,
)


# ---------------------------------------------------------------- tomograms

def test_vacuum_tomogram_all_routes(vacuum_psi, vacuum_rho, tgrid):
    ref = vacuum_tomogram_reference(tgrid)
    w_rho = tr.tomogram_from_density(vacuum_rho, tgrid)
    w_psi = tr.tomogram_from_wavefunction(vacuum_psi, tgrid)
    assert np.abs(w_rho.values - ref).max() < 1e-9
    assert np.abs(w_psi.values - ref).max() < 1e-9


def test_coherent_tomogram_matches_moving_gaussian(coherent_complex_rho, tgrid):
    ref = coherent_tomogram_reference(tgrid, 1.0 + 0.5j)
    w = tr.tomogram_from_density(coherent_complex_rho, tgrid)
    assert np.abs(w.values - ref).max() < 1e-9


def test_mixed_state_tomogram_is_the_weighted_sum(grid, tgrid):
    # The tomogram is linear in rho: a mixture of two coherent states has
    # the mixture of their moving Gaussians as its tomogram.
    a, b = make_coherent(1.0 + 0.5j, grid).values, make_coherent(-1.0, grid).values
    rho = DensityMatrix(grid, 0.3 * np.outer(a, a.conj()) + 0.7 * np.outer(b, b.conj()))
    w = tr.tomogram_from_density(rho.validate(), tgrid)
    ref = (0.3 * coherent_tomogram_reference(tgrid, 1.0 + 0.5j)
           + 0.7 * coherent_tomogram_reference(tgrid, -1.0))
    assert np.abs(w.values - ref).max() < 1e-9


def test_density_tomogram_refuses_non_finite_density(vacuum_rho, tgrid):
    for bad in (np.nan, np.inf):
        vals = vacuum_rho.values.copy()
        vals[3, 5] = bad
        with pytest.raises(SupportError, match="non-finite"):
            tr.tomogram_from_density(DensityMatrix(vacuum_rho.grid, vals), tgrid)


def test_wavefunction_route_agrees_with_density_route(cat_psi, cat_rho, tgrid9):
    w_psi = tr.tomogram_from_wavefunction(cat_psi, tgrid9)
    w_rho = tr.tomogram_from_density(cat_rho, tgrid9)
    assert np.abs(w_psi.values - w_rho.values).max() < 1e-12


def test_wavefunction_route_on_x_window_wider_than_the_q_grid():
    # Both row transforms repeat with a period set by the sampling; an X
    # window several times q_max needs the refined q samples and the longer
    # momentum FFT, or repeats of the state fold into the rows.
    g = CoordinateGrid(q_max=8.0, n_q=256)
    for x_max in (24.0, 40.0, 100.0):
        tg = TomogramGrid(x_max=x_max, n_x=1024, n_theta=16)
        for alpha in (0.0, 1.0 + 1.0j, 7.0j):
            w = tr.tomogram_from_wavefunction(make_coherent(alpha, g), tg)
            ref = coherent_tomogram_reference(tg, alpha)
            assert np.abs(w.values - ref).max() < 1e-9, (x_max, alpha)


def test_wavefunction_route_is_nonnegative(cat_psi, tgrid9):
    w = tr.tomogram_from_wavefunction(cat_psi, tgrid9)
    assert w.values.min() >= 0.0


def test_tomogram_row_norms(vacuum_tomogram):
    assert np.abs(vacuum_tomogram.row_norms() - 1.0).max() < 1e-9
    vacuum_tomogram.validate()


def test_cat_tomogram_shows_interference(cat_tomogram, tgrid9):
    # Along theta ~ pi/2 the quadrature distribution is |psi_tilde|^2:
    # a fringe pattern whose center peak doubles the single-lobe envelope.
    j = np.argmin(np.abs(tgrid9.thetas - np.pi / 2))
    row = cat_tomogram.values[j]
    i0 = np.argmin(np.abs(tgrid9.xs))
    assert row[i0] > 1.0
    band = np.abs(tgrid9.xs) < 4.0
    r = row[band]
    peaks = np.sum((r[1:-1] > r[:-2]) & (r[1:-1] > r[2:]) & (r[1:-1] > 0.05))
    assert peaks >= 3


def test_tomogram_validate_rejects_negative_and_unnormalized(tgrid):
    bad = tr.Tomogram(tgrid, np.full((tgrid.n_theta, tgrid.n_x), -1e-3))
    with pytest.raises(SupportError):
        bad.validate()
    flat = tr.Tomogram(tgrid, np.ones((tgrid.n_theta, tgrid.n_x)))
    with pytest.raises(SupportError):
        flat.validate()
    misshapen = tr.Tomogram(tgrid, np.zeros((3, 3)))
    with pytest.raises(GridError):
        misshapen.validate()


def test_tomogram_validate_rejects_non_finite(vacuum_tomogram):
    for bad in (np.nan, np.inf, -np.inf):
        vals = vacuum_tomogram.values.copy()
        vals[3, 5] = bad
        with pytest.raises(SupportError, match="1 non-finite"):
            tr.Tomogram(vacuum_tomogram.grid, vals).validate()


def test_wigner_validate_rejects_non_finite():
    axis = np.linspace(-6.0, 6.0, 64)
    vals = 2.0 * np.exp(-axis[:, None] ** 2 - axis[None, :] ** 2)
    tr.WignerFunction(axis, axis, vals).validate()
    for bad in (np.nan, np.inf):
        broken = vals.copy()
        broken[10, 20] = bad
        with pytest.raises(SupportError, match="non-finite"):
            tr.WignerFunction(axis, axis, broken).validate()


# ---------------------------------------------------------- twisted sampling

def test_sample_twisted_period_and_parity(coherent_tomogram):
    rng = np.random.default_rng(11)
    X = rng.uniform(-6.0, 6.0, 64)
    theta = rng.uniform(0.0, np.pi, 64)
    w = coherent_tomogram
    np.testing.assert_allclose(
        w.sample_twisted(X, theta + np.pi), w.sample_twisted(-X, theta), atol=1e-13
    )
    np.testing.assert_allclose(
        w.sample_twisted(X, theta + 2.0 * np.pi), w.sample_twisted(X, theta), atol=1e-13
    )
    np.testing.assert_allclose(
        w.sample_twisted(X, theta - np.pi), w.sample_twisted(-X, theta), atol=1e-13
    )


def test_sample_twisted_on_nodes_is_exact(coherent_tomogram, tgrid):
    vals = coherent_tomogram.sample_twisted(
        tgrid.xs[None, :], tgrid.thetas[:, None]
    )
    np.testing.assert_allclose(vals, coherent_tomogram.values, atol=1e-13)


def test_sample_twisted_outside_window_is_zero(coherent_tomogram):
    out = coherent_tomogram.sample_twisted(np.array([9.5, -12.0]), np.array([0.3, 1.0]))
    np.testing.assert_array_equal(out, 0.0)


def test_sample_twisted_cubic_tracks_linear(coherent_tomogram):
    rng = np.random.default_rng(5)
    X = rng.uniform(-4.0, 4.0, 200)
    theta = rng.uniform(0.0, np.pi, 200)
    a = coherent_tomogram.sample_twisted(X, theta, interp="linear")
    b = coherent_tomogram.sample_twisted(X, theta, interp="cubic")
    assert np.abs(a - b).max() < 5e-4


def test_sample_twisted_unknown_interp(coherent_tomogram):
    with pytest.raises(ValueError):
        coherent_tomogram.sample_twisted(0.0, 0.5, interp="quintic")


# ------------------------------------------------------------------- Wigner

@pytest.mark.parametrize("p", [20.0, 29.0, 30.0, 31.0])
def test_density_tomogram_is_exact_beyond_half_the_momentum_band(p):
    # Half the wavefunction's band is pi / (2 dq) = 25.0 on this grid;
    # p = 29-31 lie beyond it but pass the state guards, and p = 20 is well
    # inside.  The density's tomogram reads only the eigenstates' own
    # spectra, so it is exact at every p.
    g = CoordinateGrid(q_max=8.0, n_q=256)
    tg = TomogramGrid(x_max=8.0, n_x=256, n_theta=32)
    alpha = 1j * p / np.sqrt(2.0)
    rho = density_from_wavefunction(make_coherent(alpha, g))
    w = tr.tomogram_from_density(rho, tg)
    assert np.abs(w.values - coherent_tomogram_reference(tg, alpha)).max() < 1e-10


def test_density_wigner_round_trip_is_exact(vacuum_rho, grid):
    W = vacuum_wigner_reference(grid)
    back = tr.density_from_wigner(W, grid)
    assert np.abs(back.values - vacuum_rho.values).max() < 1e-12
    assert back.hermiticity_defect < 1e-12


def test_density_from_wigner_grid_mismatch(grid):
    W = vacuum_wigner_reference(grid)
    with pytest.raises(GridError):
        tr.density_from_wigner(W, CoordinateGrid(q_max=8.0, n_q=256))


def test_radon_rejects_truncated_support():
    ax = np.linspace(-4.0, 4.0, 64)
    W = tr.WignerFunction(ax, ax, np.ones((64, 64)))
    with pytest.raises(SupportError):
        tr.radon(W)


# ------------------------------------------------- filtered back-projection

def test_inverse_radon_reconstructs_vacuum(vacuum_tomogram):
    W = tr.inverse_radon(vacuum_tomogram)
    qq, pp = np.meshgrid(W.q_axis, W.p_axis, indexing="ij")
    ref = 2.0 * np.exp(-(qq**2) - pp**2)
    assert np.abs(W.values - ref).max() < 5e-4
    assert W.mass() == pytest.approx(1.0, abs=1e-4)


def test_inverse_radon_rejects_edge_mass(tgrid):
    flat = tr.Tomogram(tgrid, np.full((tgrid.n_theta, tgrid.n_x), 1.0 / 16.0))
    with pytest.raises(SupportError):
        tr.inverse_radon(flat)


def test_inverse_radon_keeps_cat_negativity(cat_tomogram):
    # The reconstruction must preserve the deep interference trough
    # (true minimum about -1.49 for the alpha = 2 even cat).
    W = tr.inverse_radon(cat_tomogram)
    assert -2.0 < W.values.min() < -1.0


def test_inverse_radon_refuses_non_finite_tomogram(vacuum_tomogram):
    vals = vacuum_tomogram.values.copy()
    vals[3, 500] = np.nan
    with pytest.raises(SupportError, match="non-finite"):
        tr.inverse_radon(tr.Tomogram(vacuum_tomogram.grid, vals))


def _assert_matches_reference_loop(w, q_axis=None, p_axis=None):
    got = tr.inverse_radon(w, q_axis, p_axis)
    ref = reference_inverse_radon(w, q_axis, p_axis)
    assert np.array_equal(got.q_axis, ref.q_axis)
    assert np.array_equal(got.p_axis, ref.p_axis)
    assert np.array_equal(got.values, ref.values)
    # Also the sign of every zero, which the data files print.
    assert got.values.tobytes() == ref.values.tobytes()
    return got


def test_inverse_radon_matches_reference_loop_on_default_grids(coherent_tomogram, grid,
                                                                cat_tomogram):
    _assert_matches_reference_loop(coherent_tomogram, grid.points, grid.points)
    _assert_matches_reference_loop(cat_tomogram)


def test_inverse_radon_matches_reference_loop_on_odd_grids(coherent_psi):
    tg = TomogramGrid(x_max=8.0, n_x=301, n_theta=45)
    w = tr.tomogram_from_wavefunction(coherent_psi, tg)
    _assert_matches_reference_loop(w, np.linspace(-8.0, 8.0, 129), np.linspace(-8.0, 8.0, 129))


def test_inverse_radon_matches_reference_loop_beyond_the_disc(coherent_psi):
    tg = TomogramGrid(x_max=8.0, n_x=300, n_theta=37)
    w = tr.tomogram_from_wavefunction(coherent_psi, tg)
    q, p = np.linspace(-10.0, 10.0, 101), np.linspace(-9.0, 9.0, 77)
    W = _assert_matches_reference_loop(w, q, p)
    outside = np.hypot(q[:, None], p[None, :]) >= tg.x_max
    assert outside.any() and not outside.all()
    assert not np.any(W.values[outside])


def test_inverse_radon_matches_reference_loop_on_asymmetric_axes(coherent_psi):
    tg = TomogramGrid(x_max=8.0, n_x=300, n_theta=37)
    w = tr.tomogram_from_wavefunction(coherent_psi, tg)
    _assert_matches_reference_loop(w, np.linspace(-3.0, 10.0, 64), np.linspace(-10.0, 2.5, 51))
    # No point inside the disc at all.
    W = _assert_matches_reference_loop(w, np.linspace(9.0, 12.0, 16), np.linspace(-2.0, 2.0, 9))
    assert not np.any(W.values)


def test_back_project_brackets_equal_np_interp(monkeypatch):
    # s = q at theta = 0.  Points on every X node and one ulp to either
    # side, on and past both window ends, far outside and NaN: the
    # arithmetic bracket is off or undefined for many of them, so the
    # residual guard has to send them to np.interp itself.
    xs = np.linspace(-2.0, 2.0, 17)
    f = np.random.default_rng(3).normal(size=xs.size)
    q = np.concatenate([
        xs, np.nextafter(xs, np.inf), np.nextafter(xs, -np.inf),
        [-100.0, 100.0, 1e300, -1e300, np.nan, 0.3, -1.7],
    ])
    expected = 0.0 + np.interp(q, xs, f, left=0.0, right=0.0)

    interp, redone = np.interp, []

    def counted(x, *args, **kwargs):
        redone.append(np.size(x))
        return interp(x, *args, **kwargs)

    monkeypatch.setattr(np, "interp", counted)
    got = tr._back_project(xs, f[None, :], [0.0], q, np.zeros_like(q))
    monkeypatch.undo()
    assert sum(redone) > 0
    assert np.array_equal(got, expected, equal_nan=True)
    finite = np.isfinite(expected)
    assert got[finite].tobytes() == expected[finite].tobytes()


@pytest.mark.parametrize("n", [64, 65, 256, 257])
def test_density_from_wigner_matches_full_offset_table(coherent_tomogram, n):
    g = CoordinateGrid(q_max=8.0, n_q=n)
    W = tr.inverse_radon(coherent_tomogram, g.points, g.points)
    for W_ in (W, tr.WignerFunction(W.q_axis, W.p_axis[::3], W.values[:, ::3])):
        got = tr.density_from_wigner(W_, g)
        ref = reference_density_from_wigner(W_, g)
        assert got.values.tobytes() == ref.values.tobytes()
        assert got.hermiticity_defect == ref.hermiticity_defect


def test_density_from_wigner_matches_full_offset_table_on_conjugate_axes(grid):
    W = vacuum_wigner_reference(grid)
    got = tr.density_from_wigner(W, grid)
    ref = reference_density_from_wigner(W, grid)
    assert got.values.tobytes() == ref.values.tobytes()
    assert got.hermiticity_defect == ref.hermiticity_defect


def test_tomogram_round_trip(vacuum_tomogram, cat_tomogram, tgrid, tgrid9):
    for w, tg, tol in ((vacuum_tomogram, tgrid, 1e-4), (cat_tomogram, tgrid9, 2e-3)):
        back = tr.radon(tr.inverse_radon(w), tg)
        assert np.abs(back.values - w.values).max() < tol


# ------------------------------------------------------------ full inverses

def test_density_from_tomogram(vacuum_tomogram, vacuum_rho, grid):
    from tomoprop.oracles import trace_distance

    back = tr.density_from_tomogram(vacuum_tomogram, grid)
    assert back.trace() == pytest.approx(1.0, abs=1e-3)
    assert 0.999 < back.purity() < 1.0005
    assert trace_distance(back, vacuum_rho) < 3e-4
    assert back.hermiticity_defect < 1e-8


# ------------------------------------------------------------------ moments

def test_coherent_moments(coherent_tomogram, tgrid):
    m1 = tr.moments(coherent_tomogram, 1)
    m2 = tr.moments(coherent_tomogram, 2)
    xbar = np.sqrt(2.0) * np.cos(tgrid.thetas)
    assert np.abs(m1 - xbar).max() < 1e-8
    assert np.abs(m2 - (0.5 + xbar**2)).max() < 1e-8
    m0 = tr.moments(coherent_tomogram, 0)
    np.testing.assert_allclose(m0, 1.0, atol=1e-9)


def test_moments_rejects_negative_order(coherent_tomogram):
    with pytest.raises(ValueError):
        tr.moments(coherent_tomogram, -1)
