"""Shared fixtures: reference grids, states and their tomograms.

Everything heavy is session-scoped; the transforms are deterministic, so
sharing them across test modules only saves time.  The cat state needs a
wider window than the default grid (its lobes sit at q = +/- 2 sqrt(2) and
the Gaussian-margin precondition is binding), hence the 9-unit variants.
"""

import numpy as np
import pytest
from scipy.fft import next_fast_len

from tomoprop.grids import CoordinateGrid, TomogramGrid, trapezoid_weights
from tomoprop.states import (
    DensityMatrix,
    density_from_wavefunction,
    make_cat,
    make_coherent,
    make_vacuum,
)
from tomoprop import transforms as tr


@pytest.fixture(scope="session")
def grid():
    return CoordinateGrid()


@pytest.fixture(scope="session")
def grid9():
    return CoordinateGrid(q_max=9.0, n_q=512)


@pytest.fixture(scope="session")
def tgrid():
    return TomogramGrid()


@pytest.fixture(scope="session")
def tgrid9():
    return TomogramGrid(x_max=9.0, n_x=1024, n_theta=180)


@pytest.fixture(scope="session")
def vacuum_psi(grid):
    return make_vacuum(grid)


@pytest.fixture(scope="session")
def vacuum_rho(vacuum_psi):
    return density_from_wavefunction(vacuum_psi)


@pytest.fixture(scope="session")
def coherent_psi(grid):
    return make_coherent(1.0, grid)


@pytest.fixture(scope="session")
def coherent_rho(coherent_psi):
    return density_from_wavefunction(coherent_psi)


@pytest.fixture(scope="session")
def coherent_complex_rho(grid):
    return density_from_wavefunction(make_coherent(1.0 + 0.5j, grid))


@pytest.fixture(scope="session")
def cat_psi(grid9):
    return make_cat(2.0, grid=grid9)


@pytest.fixture(scope="session")
def cat_rho(cat_psi):
    return density_from_wavefunction(cat_psi)


@pytest.fixture(scope="session")
def vacuum_tomogram(vacuum_rho, tgrid):
    return tr.tomogram_from_density(vacuum_rho, tgrid)


@pytest.fixture(scope="session")
def coherent_tomogram(coherent_rho, tgrid):
    return tr.tomogram_from_density(coherent_rho, tgrid)


@pytest.fixture(scope="session")
def coherent_pure_tomogram(coherent_psi, tgrid):
    # Wavefunction route: nonnegative by construction, used by the
    # conservation checks that track sign floors.
    return tr.tomogram_from_wavefunction(coherent_psi, tgrid)


@pytest.fixture(scope="session")
def cat_tomogram(cat_rho, tgrid9):
    return tr.tomogram_from_density(cat_rho, tgrid9)


def vacuum_tomogram_reference(tg):
    """Closed-form vacuum tomogram on a TomogramGrid, every row identical."""
    row = np.exp(-tg.xs**2) / np.sqrt(np.pi)
    return np.tile(row, (tg.n_theta, 1))


def coherent_tomogram_reference(tg, alpha):
    """Closed-form coherent tomogram: unit-width Gaussian on a moving center."""
    alpha = complex(alpha)
    xbar = np.sqrt(2.0) * (
        alpha.real * np.cos(tg.thetas) + alpha.imag * np.sin(tg.thetas)
    )
    return np.exp(-((tg.xs[None, :] - xbar[:, None]) ** 2)) / np.sqrt(np.pi)


def vacuum_wigner_reference(grid):
    """Closed-form vacuum Wigner function 2 exp(-q^2 - p^2) on the square
    grid of grid.points."""
    q = grid.points
    return tr.WignerFunction(grid, 2.0 * np.exp(-q[:, None] ** 2 - q[None, :] ** 2))


def reference_ramp_filter(w, real=True):
    """The FBP's ramp filter of every row of the tomogram w, as one
    whole-array FFT: the real-input FFT pair zero-padded to
    next_fast_len(2 n_x - 1) by default, or with real=False the complex pair
    (the real part of its inverse) zero-padded to next_fast_len(8 n_x), the
    filter the FBP once ran.  The FFT length comes from scipy.fft,
    independent of the code under test."""
    tg = w.grid
    n_fft = next_fast_len(2 * tg.n_x - 1 if real else 8 * tg.n_x)
    dx = tg.x_spacing
    n = np.fft.fftfreq(n_fft, d=1.0 / n_fft).astype(int)
    kern = np.zeros(n_fft)
    kern[0] = np.pi / (2.0 * dx * dx)
    odd = (n % 2) != 0
    kern[odd] = -2.0 / (np.pi * (n[odd] * dx) ** 2)
    if real:
        ramp = np.real(np.fft.rfft(kern)) * dx
        spec = np.fft.rfft(w.values, n=n_fft, axis=1) * ramp
        return np.fft.irfft(spec, n=n_fft, axis=1)[:, : tg.n_x]
    ramp = np.real(np.fft.fft(kern)) * dx
    spec = np.fft.fft(w.values, n=n_fft, axis=1) * ramp
    return np.real(np.fft.ifft(spec, axis=1))[:, : tg.n_x]


def reference_inverse_radon(w, grid=None):
    """Filtered back-projection as one np.interp per theta over the whole
    (q, p) square, masked to the reconstruction disc afterwards: the loop
    transforms.inverse_radon must reproduce bit for bit.  The rows are
    filtered by reference_ramp_filter."""
    tg = w.grid
    if grid is None:
        grid = CoordinateGrid(q_max=tg.x_max, n_q=min(tg.n_x, 512))
    filtered = reference_ramp_filter(w)

    out = np.zeros((grid.n_q, grid.n_q))
    qq = grid.points[:, None]
    pp = grid.points[None, :]
    for j, theta in enumerate(tg.thetas):
        s = qq * np.cos(theta) + pp * np.sin(theta)
        out += np.interp(s.ravel(), tg.xs, filtered[j], left=0.0, right=0.0).reshape(out.shape)
    out *= tg.theta_spacing
    out[np.hypot(qq, pp) >= tg.x_max] = 0.0
    return tr.WignerFunction(grid, out)


def reference_radon(W, tg):
    """Rotated line integrals as a per-angle sampler object computed them:
    W refined by trigonometric interpolation until its step is at most
    SAMPLING_STEP, spline-filtered once, and each line integrated by the
    trapezoid rule at LINE_STEP over map_coordinates samples of the
    coefficients.  transforms.radon must reproduce it bit for bit (the
    boundary check is not part of it)."""
    from scipy.ndimage import map_coordinates, spline_filter

    q0 = float(W.grid.points[0])
    k = max(1, int(np.ceil(W.spacing / tr.SAMPLING_STEP)))
    vals = np.ascontiguousarray(W.values, dtype=float)
    vals = tr._fourier_refine(tr._fourier_refine(vals, 0, k), 1, k)
    dq = W.spacing / k
    reach = max(abs(q0), abs(q0 + (vals.shape[0] - 1) * dq))
    filt = spline_filter(vals, order=3)
    n_half = int(np.ceil(np.hypot(reach, reach) / tr.LINE_STEP))
    ys = np.arange(-n_half, n_half + 1) * tr.LINE_STEP
    yw = trapezoid_weights(ys.size, tr.LINE_STEP)

    rows = np.empty((tg.n_theta, tg.n_x))
    for j, theta in enumerate(tg.thetas):
        s, c = np.sin(theta), np.cos(theta)
        qs = tg.xs[:, None] * c - ys[None, :] * s
        ps = tg.xs[:, None] * s + ys[None, :] * c
        iq, ip = (qs - q0) / dq, (ps - q0) / dq
        out = map_coordinates(
            filt, np.array([iq.ravel(), ip.ravel()]),
            order=3, prefilter=False, mode="constant", cval=0.0,
        )
        rows[j] = out.reshape(qs.shape) @ yw / (2.0 * np.pi)
    return tr.Tomogram(tg, rows)


def reference_density_from_wigner(W):
    """Wigner inversion through the full (2n - 1) x (2n - 1) offset table P,
    of which transforms.density_from_wigner computes only the entries read."""
    grid = W.grid
    n = grid.n_q
    dq = W.spacing
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=dq)
    shifted = np.real(
        np.fft.ifft(np.fft.fft(W.values, axis=0) * np.exp(1j * k * dq / 2.0)[:, None], axis=0)
    )
    rows_half = np.empty((2 * n - 1, n))
    rows_half[0::2] = W.values
    rows_half[1::2] = shifted[: n - 1]
    d = np.arange(-(n - 1), n)
    phase = np.exp(1j * np.outer(grid.points, d * dq)) * (dq / (2.0 * np.pi))
    P = rows_half.astype(complex) @ phase
    ii = np.arange(n)
    vals = P[ii[:, None] + ii[None, :], ii[:, None] - ii[None, :] + (n - 1)]
    defect = float(np.abs(vals - vals.conj().T).max())
    return DensityMatrix(grid, 0.5 * (vals + vals.conj().T), hermiticity_defect=defect)
