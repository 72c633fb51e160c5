"""Reference quantum states on the coordinate grid.

Units are dimensionless throughout (hbar = 1, unit mass and frequency), so a
coherent state |alpha> has <q> = sqrt(2) Re alpha and <p> = sqrt(2) Im alpha,
and the vacuum wavefunction is pi^(-1/4) exp(-q^2/2).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateError, GridError, SupportError
from .grids import CoordinateGrid

# Half-width of the region a unit-variance Gaussian needs around its center
# before truncation effects drop below the validation tolerances.
GAUSSIAN_MARGIN = 6.0

# Relative spectral weight allowed in the top Nyquist band of a wavefunction.
BANDLIMIT_TOL = 1e-8

# validate() bounds: a wavefunction's norm deviation from 1, a density
# matrix's largest |rho - rho^H| entry and its most negative diagonal entry.
NORM_TOL = 1e-8
HERMITICITY_TOL = 1e-10
DIAGONAL_TOL = 1e-12


def _require_finite(values, what):
    """Refuse NaN or Inf, which every tolerance comparison would let pass."""
    bad = values.size - int(np.count_nonzero(np.isfinite(values)))
    if bad:
        raise SupportError(f"{what} holds {bad} non-finite values")


def _hermitian_defect(values):
    """max |v - v^H| over the square array values, from the real and the
    imaginary part of v - v^H, so no complex temporary is made."""
    d = values.real - values.real.T
    return float(np.hypot(d, values.imag + values.imag.T, out=d).max())


@dataclass
class WaveFunction:
    """Pure state psi(q) sampled on a CoordinateGrid, L2-normalized."""

    grid: CoordinateGrid
    values: np.ndarray

    def norm(self):
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2 * self.grid.trapezoid_weights)))

    def validate(self):
        if self.values.shape != (self.grid.n_q,):
            raise GridError(
                f"wavefunction has shape {self.values.shape}, grid expects ({self.grid.n_q},)"
            )
        _require_finite(self.values, "wavefunction")
        n = self.norm()
        if abs(n - 1.0) > NORM_TOL:
            raise SupportError(f"wavefunction norm {n} deviates from 1 by more than {NORM_TOL}")
        # Spectral tail check: the grid must resolve the state's momentum
        # content, otherwise every FFT-based transform downstream aliases.
        spec = np.abs(np.fft.fft(self.values))
        n_q = self.grid.n_q
        band = n_q // 8
        tail = spec[n_q // 2 - band : n_q // 2 + band].max()
        if tail > BANDLIMIT_TOL * spec.max():
            raise GridError(
                f"relative spectral weight {tail / spec.max():.3e} near the Nyquist "
                f"momentum exceeds {BANDLIMIT_TOL:.1e}; refine the grid"
            )
        return self


@dataclass
class DensityMatrix:
    """Mixed state rho(q, q') on the tensor square of a CoordinateGrid.

    hermiticity_defect records the Hermiticity defect of a reconstruction
    (0.0 for the density_from_wigner and density_from_wavefunction routes,
    Hermitian by construction); it is None for directly constructed states.
    """

    grid: CoordinateGrid
    values: np.ndarray
    hermiticity_defect: float | None = field(default=None, compare=False)

    def trace(self):
        return float(np.sum(np.real(np.diag(self.values)) * self.grid.trapezoid_weights))

    def purity(self):
        w = self.grid.trapezoid_weights
        return float(np.real(np.sum((self.values * w) * (self.values.T * w[:, None]))))

    def validate(self, trace_tol=1e-6):
        if self.values.shape != (self.grid.n_q, self.grid.n_q):
            raise GridError(
                f"density matrix shape {self.values.shape} does not match grid size {self.grid.n_q}"
            )
        _require_finite(self.values, "density matrix")
        herm = _hermitian_defect(self.values)
        if herm > HERMITICITY_TOL:
            raise SupportError(f"hermiticity defect {herm:.3e} exceeds {HERMITICITY_TOL:.1e}")
        tr = self.trace()
        if abs(tr - 1.0) > trace_tol:
            raise SupportError(f"trace {tr} deviates from 1 by more than {trace_tol:.1e}")
        diag_min = float(np.real(np.diag(self.values)).min())
        if diag_min < -DIAGONAL_TOL:
            raise SupportError(f"diagonal attains {diag_min:.3e}, below -{DIAGONAL_TOL:.1e}")
        return self


def _check_center(center_q, center_p, grid):
    if abs(center_q) > grid.q_max - GAUSSIAN_MARGIN:
        raise SupportError(
            f"state center q = {center_q:.3f} is within {GAUSSIAN_MARGIN} of the grid "
            f"edge +/-{grid.q_max}"
        )
    if abs(center_p) + GAUSSIAN_MARGIN > grid.nyquist_momentum:
        raise SupportError(
            f"state center p = {center_p:.3f} too close to the Nyquist momentum "
            f"{grid.nyquist_momentum:.1f} for spacing {grid.spacing:.4f}"
        )


def _coherent_values(alpha, q):
    """Unnormalized coherent-state samples with the phase convention fixed so
    that the q-representation is real for real alpha."""
    re, im = alpha.real, alpha.imag
    return np.pi ** -0.25 * np.exp(
        -0.5 * (q - np.sqrt(2.0) * re) ** 2 + 1j * np.sqrt(2.0) * im * q - 1j * re * im
    )


def make_coherent(alpha, grid=None):
    """Coherent state |alpha> on the grid."""
    grid = grid or CoordinateGrid()
    alpha = complex(alpha)
    _check_center(np.sqrt(2.0) * alpha.real, np.sqrt(2.0) * alpha.imag, grid)
    vals = _coherent_values(alpha, grid.points)
    n = np.sqrt(np.sum(np.abs(vals) ** 2 * grid.trapezoid_weights))
    psi = WaveFunction(grid, vals / n)
    return psi.validate()


def make_cat(alpha, sign=+1, grid=None):
    """Even (sign=+1) or odd (sign=-1) superposition of |alpha> and |-alpha>."""
    grid = grid or CoordinateGrid()
    if sign not in (+1, -1):
        raise DegenerateError(f"cat sign must be +1 or -1, got {sign}")
    alpha = complex(alpha)
    _check_center(np.sqrt(2.0) * abs(alpha.real), np.sqrt(2.0) * abs(alpha.imag), grid)
    vals = _coherent_values(alpha, grid.points) + sign * _coherent_values(-alpha, grid.points)
    norm_sq = np.sum(np.abs(vals) ** 2 * grid.trapezoid_weights)
    if norm_sq < 1e-12:
        raise DegenerateError(
            f"cat state with alpha = {alpha} and sign = {sign:+d} is numerically zero"
        )
    psi = WaveFunction(grid, vals / np.sqrt(norm_sq))
    return psi.validate()


def make_vacuum(grid=None):
    """Ground state of the unit oscillator (coherent state with alpha = 0)."""
    return make_coherent(0.0, grid)


def density_from_wavefunction(psi):
    """rho(q, q') = psi(q) psi*(q') as a rank-one density matrix."""
    vals = np.outer(psi.values, psi.values.conj())
    rho = DensityMatrix(psi.grid, vals, hermiticity_defect=0.0)
    return rho.validate()

