from functools import partial

import numpy as np
import pytest

from tomoprop.errors import GridError, SupportError
from tomoprop.grids import CoordinateGrid, TomogramGrid
from tomoprop.states import DensityMatrix, density_from_wavefunction, make_coherent, make_vacuum
from tomoprop import transforms as tr

from conftest import (
    coherent_tomogram_reference,
    reference_density_from_wigner,
    reference_inverse_radon,
    reference_radon,
    reference_ramp_filter,
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


def test_czt_is_bit_identical_to_scipy(monkeypatch):
    # The private kernel replays scipy.signal.czt's arithmetic; every call
    # tomogram_from_wavefunction makes must give SciPy's bits exactly, so
    # this fails as soon as an installed SciPy changes its arithmetic.
    from scipy.signal import czt

    calls = []

    def recording(x, m, w, a):
        out = kernel(x, m, w, a)
        assert np.array_equal(out, czt(x, m, w, a)), (x.size, m)
        calls.append((x.size, m))
        return out

    kernel = tr._czt
    monkeypatch.setattr(tr, "_czt", recording)
    # 512 q samples feed the q rows as they are (n_fft = 2048 momentum
    # samples); 64 samples are refined twofold (127, n_fft = 256).  So both
    # branches run with m < n and with m > n: q rows 1024 > 512 and
    # 100 < 127, momentum rows 1024 < 2048 and 300 > 256.  The last case is
    # the full default grid: every angle hands the kernel other bases w, a.
    for n_q, n_x, n_theta, q_lengths, n_fft in ((512, 1024, 8, {512}, 2048),
                                                (64, 100, 8, {127}, 256),
                                                (64, 300, 8, {127}, 256),
                                                (512, 1024, 180, {512}, 2048)):
        g = CoordinateGrid(q_max=8.0, n_q=n_q)
        tg = TomogramGrid(x_max=8.0, n_x=n_x, n_theta=n_theta)
        calls.clear()
        tr.tomogram_from_wavefunction(make_coherent(0.7 - 0.4j, g), tg)
        assert len(calls) == tg.n_theta
        assert {n for n, _ in calls} == q_lengths | {n_fft}
        assert {m for _, m in calls} == {n_x}


def test_cpow_is_bit_identical_to_numpy_power():
    # _czt's power arrays come from _cpow (a scalar log and a vectorised
    # exp, with ** kept for the integer exponents |e| < 100 that numpy
    # multiplies out); each element must carry the bits of base ** e.
    exps = [np.array([0, 1, -1, 2, -2, 3, -3, 98, -98, 99, -99, 100, -100,
                      0.5, 14.5, 1e6])]
    for n in (128, 1024, 2048, 3072):
        k = np.arange(n, dtype=np.min_scalar_type(-n**2))
        exps += [k**2 / 2.0, -k]
    tg = TomogramGrid()
    du = CoordinateGrid().spacing
    bases = [0.9 * np.exp(0.3j)]
    for theta in tg.thetas[::30]:
        s = np.sin(theta)
        bases += [np.exp(-1j * tg.x_spacing * du / s), np.exp(1j * tg.xs[0] * du / s)]
    for base in bases:
        for e in exps:
            got, want = tr._cpow(base, e), base ** e
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (base, e.size)


def test_next_fast_len_matches_scipy():
    # The FFT lengths of _czt, tomogram_from_wavefunction and inverse_radon
    # are the 11-smooth sizes scipy.fft picks for complex input.
    from scipy.fft import next_fast_len

    assert [tr._next_fast_len(t) for t in range(1, 20001)] == [
        next_fast_len(t) for t in range(1, 20001)
    ]


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
    g = CoordinateGrid(q_max=6.0, n_q=64)
    vals = 2.0 * np.exp(-g.points[:, None] ** 2 - g.points[None, :] ** 2)
    tr.WignerFunction(g, vals).validate()
    for bad in (np.nan, np.inf):
        broken = vals.copy()
        broken[10, 20] = bad
        with pytest.raises(SupportError, match="non-finite"):
            tr.WignerFunction(g, broken).validate()


def test_wigner_rejects_values_off_its_grid():
    with pytest.raises(GridError, match="does not match grid"):
        tr.WignerFunction(CoordinateGrid(q_max=4.0, n_q=8), np.zeros((8, 9)))


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


def _edge_coordinates(n):
    """Index coordinates at and around both ends of an axis of n nodes."""
    ulp_in = [np.nextafter(0.0, 1.0), np.nextafter(n - 1.0, 0.0)]
    ulp_out = [np.nextafter(0.0, -1.0), np.nextafter(n - 1.0, n)]
    return np.array(
        [0.0, -0.0, n - 1.0, 1.0, n - 2.0, 0.5, n - 1.5, *ulp_in, *ulp_out,
         -1e-300, -0.5, -1.0 + 1e-12, -1.0, -2.5, n - 0.5, n - 1e-12, n, n + 3.0,
         np.nan, np.inf, -np.inf]
    )


def _same_bits(a, b):
    """Equal values, NaN where NaN and the same sign on every zero."""
    return (np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def test_bilinear_is_bit_identical_to_ndimage():
    # _bilinear replays map_coordinates(order=1, prefilter=False,
    # mode="constant", cval=0) operation for operation; any change in the
    # weights, the order of the sum or the edge rule shows in the bits.
    from scipy.ndimage import map_coordinates

    def ndimage(data, row, col):
        row, col = np.broadcast_arrays(row, col)
        out = map_coordinates(
            data, np.array([row.ravel(), col.ravel()]),
            order=1, prefilter=False, mode="constant", cval=0.0,
        )
        return out.reshape(row.shape)

    rng = np.random.default_rng(2011)
    for n_r, n_c in ((182, 1024), (3, 2), (7, 1)):
        data = rng.standard_normal((n_r, n_c))
        # Negative zeros beside negative values: only ndimage's leading
        # 0.0 + turns a node's -0.0 into +0.0.
        data[::2, ::2] = -0.0
        data[1::2] = -np.abs(data[1::2])
        # Every pair of edge coordinates, nodes and mid-cells included.
        er, ec = _edge_coordinates(n_r), _edge_coordinates(n_c)
        nodes_r = np.arange(n_r, dtype=float)
        nodes_c = np.arange(n_c, dtype=float)
        for rows, cols in ((er, ec), (nodes_r, nodes_c), (nodes_r + 0.25, nodes_c + 0.75)):
            got = tr._bilinear(data, rows[:, None], cols[None, :])
            assert _same_bits(got, ndimage(data, rows[:, None], cols[None, :])), (n_r, n_c)
        # Random points, per point and with one row coordinate per row.
        for _ in range(3):
            row = rng.uniform(-1.5, n_r + 0.5, (n_r, 1))
            col = rng.uniform(-1.5, n_c + 0.5, (n_r, n_c))
            assert _same_bits(tr._bilinear(data, row, col), ndimage(data, row, col))
            row = np.broadcast_to(row, col.shape)
            assert _same_bits(tr._bilinear(data, row, col), ndimage(data, row, col))
    # Non-finite data: the zero-weight node at the upper edge is ndimage's
    # mirrored one, so NaN and Inf spread to the same points.
    data = rng.standard_normal((5, 6))
    data[3, :] = np.nan
    data[:, 4] = np.inf
    e5, e6 = _edge_coordinates(5), _edge_coordinates(6)
    with np.errstate(invalid="ignore"):
        got = tr._bilinear(data, e5[:, None], e6[None, :])
    assert _same_bits(got, ndimage(data, e5[:, None], e6[None, :]))


def _ndimage_sample(w, X, theta, interp="linear"):
    """Both samplers as they were written with scipy.ndimage, in one pass
    over the whole broadcast arrays: fold theta, add g twisted rows at each
    end of the tomogram (one for linear, four for cubic, whose data is then
    spline-filtered), interpolate with map_coordinates."""
    from scipy.ndimage import map_coordinates, spline_filter

    tg = w.grid
    g, order = (1, 1) if interp == "linear" else (4, 3)
    X, theta = np.broadcast_arrays(np.asarray(X, float), np.asarray(theta, float))
    k = np.floor(theta / np.pi)
    Xe = np.where(np.mod(k, 2.0) == 0.0, 1.0, -1.0) * X
    row = (theta - k * np.pi) / tg.theta_spacing - 0.5 + g
    col = (Xe + tg.x_max) / tg.x_spacing
    ext = np.concatenate([w.values[-g:, ::-1], w.values, w.values[:g, ::-1]])
    if order == 3:
        ext = spline_filter(ext, order=3)
    out = map_coordinates(
        ext, np.array([row.ravel(), col.ravel()]),
        order=order, prefilter=False, mode="constant", cval=0.0,
    )
    return out.reshape(X.shape)


def test_sample_twisted_linear_is_bit_identical_to_ndimage(coherent_tomogram):
    w = coherent_tomogram
    tg = w.grid
    ndimage = partial(_ndimage_sample, w)

    rng = np.random.default_rng(7)
    base = rng.uniform(0.0, np.pi, 24)
    thetas = np.concatenate([
        base, base + np.pi, base - np.pi, base + 2.0 * np.pi, -base,
        tg.thetas, tg.thetas + np.pi, tg.thetas - np.pi, tg.thetas + 2.0 * np.pi,
        [0.0, -0.0, np.pi, -np.pi, 2.0 * np.pi, np.nextafter(np.pi, 0.0),
         np.nextafter(np.pi, 4.0), np.nan, np.inf, -np.inf],
    ])
    x_max = tg.x_max
    Xs = np.concatenate([
        rng.uniform(-x_max - 0.1, x_max + 0.1, 64), tg.xs,
        [x_max, -x_max, np.nextafter(x_max, 0.0), np.nextafter(x_max, 99.0),
         np.nextafter(-x_max, 0.0), np.nextafter(-x_max, -99.0), 0.0, -0.0,
         x_max + 0.5 * tg.x_spacing, -x_max - 0.5 * tg.x_spacing, np.nan, np.inf, -np.inf],
    ])
    X = rng.uniform(-x_max - 0.1, x_max + 0.1, 5000)
    theta = rng.uniform(-3.0 * np.pi, 3.0 * np.pi, 5000)
    for interp in ("linear", "cubic"):
        with np.errstate(invalid="ignore"):
            # Pull-back layout: one theta per row, a full X row each.
            got = w.sample_twisted(Xs[None, :], thetas[:, None], interp=interp)
            assert _same_bits(got, ndimage(Xs[None, :], thetas[:, None], interp)), interp
            assert _same_bits(w.sample_twisted(Xs[:, None], thetas[None, :], interp=interp),
                              ndimage(Xs[:, None], thetas[None, :], interp)), interp
        # Per point, and scalars.
        assert _same_bits(w.sample_twisted(X, theta, interp=interp), ndimage(X, theta, interp))
        assert _same_bits(w.sample_twisted(1.3, 0.4, interp=interp), ndimage(1.3, 0.4, interp))
        assert w.sample_twisted(1.3, 0.4, interp=interp).shape == ()


def test_sample_twisted_unknown_interp(coherent_tomogram):
    with pytest.raises(ValueError):
        coherent_tomogram.sample_twisted(0.0, 0.5, interp="quintic")


@pytest.mark.parametrize("interp", ["linear", "cubic"])
@pytest.mark.parametrize("block", [1, 4 * 1024 + 5, None, 10**9])
def test_blocked_sampling_is_bit_identical_to_one_pass(coherent_psi, monkeypatch, interp, block):
    # Blocks of one row, of four rows, the default 16 rows and one block
    # for everything.  45 rows are no multiple of 4 or 16, so the last
    # block is short.
    tg = TomogramGrid(n_theta=45)
    w = tr.tomogram_from_wavefunction(coherent_psi, tg)
    if block is not None:
        monkeypatch.setattr(tr, "SAMPLE_BLOCK", block)

    # Frames with theta0 from about -9 to 9 (every fold parity) and X-scales
    # a below and above 1.
    j = np.arange(tg.n_theta)
    theta0 = 1.7 * tg.thetas - 2.5 + np.pi * (j % 5 - 2)
    a = np.where(j % 2 == 0, 0.93, 1.4) + 0.01 * np.cos(j)
    b = 0.2 * np.sin(j)
    assert theta0.min() < -np.pi and theta0.max() > 2.0 * np.pi
    got = w.pull_back(theta0, a, b, interp=interp)
    X0 = a[:, None] * tg.xs + b[:, None]
    assert _same_bits(got.values, a[:, None] * _ndimage_sample(w, X0, theta0[:, None], interp))

    rng = np.random.default_rng(45)
    X = rng.uniform(-tg.x_max - 0.5, tg.x_max + 0.5, 700)
    theta = rng.uniform(-3.0 * np.pi, 3.0 * np.pi, 700)
    for Xq, thq in ((X[:, None], theta0[None, :]), (X[None, :], theta0[:, None]),
                    (X, theta0[:, None]), (X, theta), (1.3, 0.4), (X[:3], -2.0)):
        got = w.sample_twisted(Xq, thq, interp=interp)
        assert got.shape == np.broadcast_shapes(np.shape(Xq), np.shape(thq))
        assert _same_bits(got, _ndimage_sample(w, Xq, thq, interp))


def test_pull_back_guards_run_before_sampling(monkeypatch):
    tg = TomogramGrid(x_max=4.0, n_x=128, n_theta=45)
    w0 = tr.tomogram_from_wavefunction(make_vacuum(), tg)

    def refuse(*args):
        raise AssertionError("sampled before the guards")

    monkeypatch.setattr(tr, "_bilinear", refuse)
    monkeypatch.setattr(tr, "_cubic", refuse)
    ones, zeros = np.ones(tg.n_theta), np.zeros(tg.n_theta)
    # a = 2 sends the row ends to +-8, outside the 4-unit window, while the
    # vacuum still carries 6e-8 at its edge.
    with pytest.raises(SupportError, match="leave the X window"):
        w0.pull_back(tg.thetas, 2.0 * ones, zeros)
    with pytest.raises(ValueError, match="unknown interpolation"):
        w0.pull_back(tg.thetas, ones, zeros, interp="quintic")


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
    back = tr.density_from_wigner(W)
    assert np.abs(back.values - vacuum_rho.values).max() < 1e-12
    assert back.hermiticity_defect < 1e-12


def test_radon_matches_reference_quadrature_on_a_refined_grid():
    # A 64-point grid (step 0.25) is refined 7-fold before the spline; a
    # displaced Gaussian keeps the rows apart.
    grid = CoordinateGrid(q_max=8.0, n_q=64)
    q = grid.points
    W = tr.WignerFunction(grid, 2.0 * np.exp(-(q[:, None] - 1.0) ** 2 - (q[None, :] + 0.5) ** 2))
    tg = TomogramGrid(x_max=8.0, n_x=256, n_theta=30)
    assert np.array_equal(tr.radon(W, tg).values, reference_radon(W, tg).values)


def test_radon_matches_reference_quadrature_on_the_default_grid(coherent_tomogram, tgrid):
    # The validate round trip: the FBP of a tomogram on the default grids.
    W = tr.inverse_radon(coherent_tomogram)
    assert np.array_equal(tr.radon(W, tgrid).values, reference_radon(W, tgrid).values)


def test_radon_rejects_truncated_support():
    W = tr.WignerFunction(CoordinateGrid(q_max=4.0, n_q=64), np.ones((64, 64)))
    with pytest.raises(SupportError):
        tr.radon(W)


# ------------------------------------------------- filtered back-projection

def test_inverse_radon_reconstructs_vacuum(vacuum_tomogram):
    W = tr.inverse_radon(vacuum_tomogram)
    # The default grid: min(n_x, 512) points across the X window.
    assert np.array_equal(W.grid.points, np.linspace(-8.0, 8.0, 512))
    qq, pp = np.meshgrid(W.grid.points, W.grid.points, indexing="ij")
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


def _assert_matches_reference_loop(w, grid=None):
    got = tr.inverse_radon(w, grid)
    ref = reference_inverse_radon(w, grid)
    assert got.grid == ref.grid
    assert np.array_equal(got.values, ref.values)
    # Also the sign of every zero, which the data files print.
    assert got.values.tobytes() == ref.values.tobytes()
    return got


def test_inverse_radon_matches_reference_loop_on_default_grids(coherent_tomogram, grid,
                                                                cat_tomogram):
    _assert_matches_reference_loop(coherent_tomogram, grid)
    _assert_matches_reference_loop(cat_tomogram)


def test_inverse_radon_matches_reference_loop_on_odd_grids(coherent_psi):
    tg = TomogramGrid(x_max=8.0, n_x=301, n_theta=45)
    w = tr.tomogram_from_wavefunction(coherent_psi, tg)
    _assert_matches_reference_loop(w, CoordinateGrid(q_max=8.0, n_q=129))


def test_inverse_radon_matches_reference_loop_beyond_the_disc(coherent_psi):
    tg = TomogramGrid(x_max=8.0, n_x=300, n_theta=37)
    w = tr.tomogram_from_wavefunction(coherent_psi, tg)
    g = CoordinateGrid(q_max=10.0, n_q=101)
    W = _assert_matches_reference_loop(w, g)
    outside = np.hypot(g.points[:, None], g.points[None, :]) >= tg.x_max
    assert outside.any() and not outside.all()
    assert not np.any(W.values[outside])
    # No point inside the disc at all: the nearest coordinate is 8.57.
    W = _assert_matches_reference_loop(w, CoordinateGrid(q_max=60.0, n_q=8))
    assert not np.any(W.values)


@pytest.mark.parametrize("n_x, n_theta", [(1024, 180), (301, 45)])
def test_real_fft_ramp_filter_equals_the_complex_one(coherent_psi, n_x, n_theta):
    # The FBP filters through the real-input FFT pair at the linear-
    # convolution length, the inverse cut back to n_x (odd here on the
    # second grid).  The complex pair at 8 n_x it replaced agrees with it to
    # rounding on every row.
    w = tr.tomogram_from_wavefunction(coherent_psi, TomogramGrid(n_x=n_x, n_theta=n_theta))
    real = reference_ramp_filter(w)
    cplx = reference_ramp_filter(w, real=False)
    assert real.shape == cplx.shape == (n_theta, n_x)
    gap = np.abs(real - cplx).max(axis=1)
    assert np.all(gap <= 1e-13 * np.abs(cplx).max(axis=1))


def ramp_toeplitz(tg):
    """The FBP's filter as a dense n_x x n_x matrix, no FFT: dx times the
    Nyquist-band-limited Ram-Lak kernel h[i - j], with h[0] = pi / (2 dx^2),
    h[n] = -2 / (pi n^2 dx^2) for odd n and 0 for even n != 0."""
    dx = tg.x_spacing
    n = np.subtract.outer(np.arange(tg.n_x), np.arange(tg.n_x))
    h = np.zeros(n.shape)
    h[n == 0] = np.pi / (2.0 * dx * dx)
    odd = (n % 2) != 0
    h[odd] = -2.0 / (np.pi * (n[odd] * dx) ** 2)
    return h * dx


@pytest.mark.parametrize("n_x, n_theta", [(1024, 180), (301, 45)])
def test_ramp_filter_is_the_linear_convolution(coherent_psi, monkeypatch, n_x, n_theta):
    # The rows the back-projection receives are the dense Toeplitz product
    # of the band-limited kernel: an FFT shorter than 2 n_x - 1 would wrap
    # the kernel's tail onto the kept samples and fail this.
    w = tr.tomogram_from_wavefunction(coherent_psi, TomogramGrid(n_x=n_x, n_theta=n_theta))
    seen = []
    back_project = tr._back_project

    def capture(xs, filtered, *args):
        seen.append(filtered.copy())
        return back_project(xs, filtered, *args)

    monkeypatch.setattr(tr, "_back_project", capture)
    tr.inverse_radon(w)
    [[filtered]] = seen
    ref = w.values @ ramp_toeplitz(w.grid).T
    gap = np.abs(filtered - ref).max(axis=1)
    assert np.all(gap <= 1e-13 * np.abs(ref).max(axis=1))


# tracemalloc peaks (numpy reports its buffers to it) on the default grids,
# each bound 1.25 times the measure taken with numpy 2.4.6: the FBP at
# 8.9 MB, the Wigner inversion at 12.6 MB, one linear evolve_tomogram
# at 5.6 MB and a two-map pipeline_discrepancy at 16.8 MB.  An inversion
# over the full offset table (18.9 MB), a pull-back sampled in one
# whole-array pass (16.5 MB) and a route A that evolves the density matrix
# as U rho0 U^dagger (23.2 MB) break them.  FFT and matmul temporaries
# differ between numpy builds, so other versions may need the measures
# taken again.
FBP_PEAK_MB = 1.25 * 8.9
WIGNER_INVERSION_PEAK_MB = 1.25 * 12.6
PULL_BACK_PEAK_MB = 1.25 * 5.6
PIPELINE_PEAK_MB = 1.25 * 16.8


@pytest.fixture
def peak_mb():
    """tracemalloc on for one test; gives peak_mb(fn, *args), which returns
    fn(*args) and its peak in MB above the memory traced before the call."""
    import tracemalloc

    def measure(fn, *args):
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, (tracemalloc.get_traced_memory()[1] - held) / 1e6

    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        yield measure
    finally:
        if not tracing:
            tracemalloc.stop()


def test_fbp_and_wigner_inversion_peak_memory(coherent_pure_tomogram, peak_mb):
    (W,), fbp = peak_mb(tr.inverse_radon_many, [coherent_pure_tomogram])
    _, inversion = peak_mb(tr.density_from_wigner, W)
    assert W.grid == CoordinateGrid()
    assert fbp <= FBP_PEAK_MB
    assert inversion <= WIGNER_INVERSION_PEAK_MB


def test_pipeline_discrepancy_peak_memory(coherent_psi, coherent_pure_tomogram, peak_mb):
    from tomoprop import oracles
    from tomoprop import quad_dynamics as qd

    traj = qd.solve_epsilon(qd.QuadraticHamiltonian.harmonic(), 1.0, stops=[0.5, 1.0])
    maps = [qd.optical_map(traj, t) for t in (0.5, 1.0)]
    recs, pipeline = peak_mb(oracles.pipeline_discrepancy, coherent_psi,
                             coherent_pure_tomogram, maps)
    assert len(recs) == 2
    assert pipeline <= PIPELINE_PEAK_MB


def test_pull_back_peak_memory(coherent_pure_tomogram, peak_mb):
    from tomoprop import quad_dynamics as qd

    H = qd.QuadraticHamiltonian(qd.CosineSampler(1.0, 0.2, 2.0), qd.ConstantSampler(0.3))
    m = qd.optical_map(qd.solve_epsilon(H, 1.0), 1.0)
    w, pull_back = peak_mb(qd.evolve_tomogram, coherent_pure_tomogram, m)
    assert w.grid == TomogramGrid()
    assert pull_back <= PULL_BACK_PEAK_MB


def test_back_project_brackets_equal_np_interp(monkeypatch):
    # s = q at theta = 0 and -q at theta = pi.  Points on every X node and
    # one ulp to either side, on and past both window ends, far outside and
    # NaN: the arithmetic bracket is off or undefined for many of them, so
    # the residual guard has to send them to np.interp itself.  Three row
    # sets share that geometry, and each sums its own rows.
    xs = np.linspace(-2.0, 2.0, 17)
    thetas = [0.0, np.pi]
    rows = np.random.default_rng(3).normal(size=(3, len(thetas), xs.size))
    q = np.concatenate([
        xs, np.nextafter(xs, np.inf), np.nextafter(xs, -np.inf),
        [-100.0, 100.0, 1e300, -1e300, np.nan, 0.3, -1.7],
    ])
    p = np.zeros_like(q)
    expected = np.zeros((rows.shape[0], q.size))
    for e, f in zip(expected, rows):
        for theta, row in zip(thetas, f):
            s = q * np.cos(theta) + p * np.sin(theta)
            e += np.interp(s, xs, row, left=0.0, right=0.0)

    interp, redone = np.interp, []

    def counted(x, *args, **kwargs):
        redone.append(np.size(x))
        return interp(x, *args, **kwargs)

    monkeypatch.setattr(np, "interp", counted)
    got = tr._back_project(xs, rows, thetas, q, p)
    monkeypatch.undo()
    assert sum(redone) > 0
    assert got.shape == expected.shape
    finite = np.isfinite(expected)
    for g, e, ok in zip(got, expected, finite):
        assert np.array_equal(g, e, equal_nan=True)
        assert g[ok].tobytes() == e[ok].tobytes()


def test_inverse_radon_many_equals_one_call_per_tomogram(coherent_psi, vacuum_psi):
    tg = TomogramGrid(x_max=8.0, n_x=300, n_theta=37)
    g = CoordinateGrid(q_max=8.0, n_q=101)
    ws = [tr.tomogram_from_wavefunction(psi, tg) for psi in (coherent_psi, vacuum_psi)]
    many = tr.inverse_radon_many(ws, g)
    assert len(many) == 2
    for got, w in zip(many, ws):
        one = tr.inverse_radon(w, g)
        assert got.grid == one.grid == g
        assert got.values.tobytes() == one.values.tobytes()

    other = tr.tomogram_from_wavefunction(vacuum_psi, TomogramGrid(x_max=8.0, n_x=300, n_theta=36))
    with pytest.raises(GridError, match="different grids"):
        tr.inverse_radon_many([ws[0], other], g)


@pytest.mark.parametrize("n", [64, 65, 256, 257])
def test_density_from_wigner_matches_full_offset_table(coherent_tomogram, n):
    g = CoordinateGrid(q_max=8.0, n_q=n)
    W = tr.inverse_radon(coherent_tomogram, g)
    got = tr.density_from_wigner(W)
    ref = reference_density_from_wigner(W)
    assert got.values.tobytes() == ref.values.tobytes()
    assert got.hermiticity_defect == ref.hermiticity_defect


def test_density_from_wigner_matches_full_offset_table_on_the_vacuum(grid):
    W = vacuum_wigner_reference(grid)
    got = tr.density_from_wigner(W)
    ref = reference_density_from_wigner(W)
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


def test_density_from_tomogram_defaults_to_the_fbp_grid(vacuum_rho):
    # On a 256-point X window the default FBP grid has 256 points, and the
    # density comes out on that same grid.
    w = tr.tomogram_from_density(vacuum_rho, TomogramGrid(x_max=8.0, n_x=256, n_theta=32))
    assert tr.density_from_tomogram(w).grid == tr.inverse_radon(w).grid


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
