"""Shared fixtures: reference grids, states and their tomograms.

Everything heavy is session-scoped; the transforms are deterministic, so
sharing them across test modules only saves time.  The cat state needs a
wider window than the default grid (its lobes sit at q = +/- 2 sqrt(2) and
the Gaussian-margin precondition is binding), hence the 9-unit variants.
"""

import numpy as np
import pytest

from tomoprop.grids import CoordinateGrid, TomogramGrid
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
    """Closed-form vacuum Wigner function 2 exp(-q^2 - p^2) on the q grid
    and the momentum axis FFT-conjugate to it (spacing pi / (n_q dq))."""
    q = grid.points.copy()
    p = np.fft.fftshift(2.0 * np.pi * np.fft.fftfreq(grid.n_q, d=2.0 * grid.spacing))
    return tr.WignerFunction(q, p, 2.0 * np.exp(-q[:, None] ** 2 - p[None, :] ** 2))


def reference_inverse_radon(w, q_axis=None, p_axis=None):
    """Filtered back-projection as one np.interp per theta over the whole
    (q, p) square, masked to the reconstruction disc afterwards: the loop
    transforms.inverse_radon must reproduce bit for bit."""
    tg = w.grid
    if q_axis is None:
        q_axis = np.linspace(-tg.x_max, tg.x_max, min(tg.n_x, 512))
    if p_axis is None:
        p_axis = np.linspace(-tg.x_max, tg.x_max, min(tg.n_x, 512))
    n_fft = tr.next_fast_len(8 * tg.n_x)
    dx = tg.x_spacing
    n = np.fft.fftfreq(n_fft, d=1.0 / n_fft).astype(int)
    kern = np.zeros(n_fft)
    kern[0] = np.pi / (2.0 * dx * dx)
    odd = (n % 2) != 0
    kern[odd] = -2.0 / (np.pi * (n[odd] * dx) ** 2)
    ramp = np.real(np.fft.fft(kern)) * dx
    spec = np.fft.fft(w.values, n=n_fft, axis=1) * ramp
    filtered = np.real(np.fft.ifft(spec, axis=1))[:, : tg.n_x]

    out = np.zeros((q_axis.size, p_axis.size))
    qq = np.asarray(q_axis)[:, None]
    pp = np.asarray(p_axis)[None, :]
    for j, theta in enumerate(tg.thetas):
        s = qq * np.cos(theta) + pp * np.sin(theta)
        out += np.interp(s.ravel(), tg.xs, filtered[j], left=0.0, right=0.0).reshape(out.shape)
    out *= tg.theta_spacing
    out[np.hypot(qq, pp) >= tg.x_max] = 0.0
    return tr.WignerFunction(np.asarray(q_axis, dtype=float), np.asarray(p_axis, dtype=float), out)


def reference_density_from_wigner(W, grid):
    """Wigner inversion through the full (2n - 1) x (2n - 1) offset table P,
    of which transforms.density_from_wigner computes only the entries read."""
    n = W.q_axis.size
    dq = W.q_spacing
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=dq)
    shifted = np.real(
        np.fft.ifft(np.fft.fft(W.values, axis=0) * np.exp(1j * k * dq / 2.0)[:, None], axis=0)
    )
    rows_half = np.empty((2 * n - 1, W.p_axis.size))
    rows_half[0::2] = W.values
    rows_half[1::2] = shifted[: n - 1]
    d = np.arange(-(n - 1), n)
    phase = np.exp(1j * np.outer(W.p_axis, d * dq)) * (W.p_spacing / (2.0 * np.pi))
    P = rows_half.astype(complex) @ phase
    ii = np.arange(n)
    vals = P[ii[:, None] + ii[None, :], ii[:, None] - ii[None, :] + (n - 1)]
    defect = float(np.abs(vals - vals.conj().T).max())
    return DensityMatrix(grid, 0.5 * (vals + vals.conj().T), hermiticity_defect=defect)
