"""Reference quantum states on the coordinate grid.

Units are dimensionless throughout (hbar = 1, unit mass and frequency), so a
coherent state |alpha> has <q> = sqrt(2) Re alpha and <p> = sqrt(2) Im alpha,
and the vacuum wavefunction is pi^(-1/4) exp(-q^2/2).
"""

from dataclasses import dataclass, field
from typing import Literal

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


def _coherent_values(alpha, q):
    """Unnormalized coherent-state samples with the phase convention fixed so
    that the q-representation is real for real alpha."""
    re, im = alpha.real, alpha.imag
    return np.pi ** -0.25 * np.exp(
        -0.5 * (q - np.sqrt(2.0) * re) ** 2 + 1j * np.sqrt(2.0) * im * q - 1j * re * im
    )


def make_coherent(alpha, grid=None):
    """Coherent state |alpha> on the grid."""
    alpha = complex(alpha)
    return StateSpec("coherent", alpha.real, alpha.imag).build(grid)


def make_cat(alpha, sign=+1, grid=None):
    """Even (sign=+1) or odd (sign=-1) superposition of |alpha> and |-alpha>."""
    alpha = complex(alpha)
    return StateSpec("cat", alpha.real, alpha.imag, sign).build(grid)


def make_vacuum(grid=None):
    """Ground state of the unit oscillator (coherent state with alpha = 0)."""
    return StateSpec().build(grid)


@dataclass(frozen=True)
class StateSpec:
    """A reference state by name: the vacuum, the coherent state |alpha>, or
    the even (sign = 1) or odd (sign = -1) cat state, alpha = alpha_re +
    i alpha_im.  build(grid) samples it; make_vacuum, make_coherent and
    make_cat are this class's shorthands."""

    KINDS = ("vacuum", "coherent", "cat")

    kind: str = "vacuum"
    alpha_re: float = 0.0
    alpha_im: float = 0.0
    # Literal, not int, so the config's integer check leaves the sign to
    # violations: it must be exactly the int 1 or -1, and JSON true == 1.
    sign: Literal[1, -1] = 1

    def __post_init__(self):
        bad = self.violations(self.kind, self.alpha_re, self.alpha_im, self.sign)
        if bad:
            raise DegenerateError("; ".join(bad))

    @staticmethod
    def violations(kind, alpha_re, alpha_im, sign, grid=None):
        """Messages for every rule the arguments break; empty when valid.

        With grid given, the state's center (the vacuum's is 0) must also lie
        GAUSSIAN_MARGIN inside the q window and below the Nyquist momentum.
        """
        bad = []
        if kind not in StateSpec.KINDS:
            bad.append(f"kind must be one of {StateSpec.KINDS}, got {kind!r}")
        if type(sign) is not int or sign not in (1, -1):
            bad.append(f"sign must be 1 or -1, got {sign!r}")
        if grid is None:
            return bad
        if kind == "vacuum":
            alpha_re = alpha_im = 0.0
        q, p = np.sqrt(2.0) * alpha_re, np.sqrt(2.0) * alpha_im
        if abs(q) > grid.q_max - GAUSSIAN_MARGIN:
            bad.append(f"center q = {q:.3f} is within {GAUSSIAN_MARGIN} of the grid "
                       f"edge +/-{grid.q_max}")
        if abs(p) + GAUSSIAN_MARGIN > grid.nyquist_momentum:
            bad.append(f"center p = {p:.3f} too close to the Nyquist momentum "
                       f"{grid.nyquist_momentum:.1f} for spacing {grid.spacing:.4f}")
        return bad

    def build(self, grid=None):
        """The state's normalized, validated wavefunction on grid (the default
        CoordinateGrid).  SupportError when the grid breaks the center rule,
        DegenerateError when a cat cancels to zero."""
        grid = grid or CoordinateGrid()
        bad = self.violations(self.kind, self.alpha_re, self.alpha_im, self.sign, grid)
        if bad:
            raise SupportError("; ".join("state " + b for b in bad))
        alpha = 0j if self.kind == "vacuum" else complex(self.alpha_re, self.alpha_im)
        vals = _coherent_values(alpha, grid.points)
        if self.kind == "cat":
            vals = vals + self.sign * _coherent_values(-alpha, grid.points)
        norm_sq = np.sum(np.abs(vals) ** 2 * grid.trapezoid_weights)
        if norm_sq < 1e-12:
            raise DegenerateError(
                f"cat state with alpha = {alpha} and sign = {self.sign:+d} is numerically zero"
            )
        return WaveFunction(grid, vals / np.sqrt(norm_sq)).validate()


def density_from_wavefunction(psi):
    """rho(q, q') = psi(q) psi*(q') as a rank-one density matrix."""
    vals = np.outer(psi.values, psi.values.conj())
    rho = DensityMatrix(psi.grid, vals, hermiticity_defect=0.0)
    return rho.validate()

