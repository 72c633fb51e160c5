"""The Schroedinger propagator of a quadratic flow, and classical
trajectories, as ground truth.

green_kernel builds the Green function of every quadratic Hamiltonian from
the same Malkin-Man'ko-Trifonov integrals of motion (Lambda, Delta) as the
optical map.  The density-matrix propagator factorizes through it as
K(q, q'; qt, qt') = G(q, qt) G*(q', qt'), so it is never materialized as a
rank-4 array.  The same map is applied once to amplitudes (the quantum
propagator) and once to tomograms (the optical propagator), and the final
states are compared; classical_trajectory integrates the motion without
eps(t), so it referees the map itself.
"""

import numpy as np
from dataclasses import dataclass

from scipy.integrate import solve_ivp

from .errors import CausticError, GridError, SupportError, TimeError
from .states import DensityMatrix, WaveFunction
from . import quad_dynamics
from . import transforms

# Probability density allowed at the grid boundary before kernel evolution
# refuses to run (matches the tomogram edge-mass rule).
EDGE_DENSITY_TOL = 1e-8


@dataclass(frozen=True)
class GreenKernel:
    """Schroedinger Green function G(x, y) of the flow
    q_t = a q + b p + c, p_t = d q + e p + g:

        G(x, y) = (2 pi i b)^(-1/2) exp(i [(e x^2 - 2 x y + a y^2) / (2 b)
                                          + (g - e c / b) x + (c / b) y]),

    up to a global phase (d is fixed by a e - b d = 1).  The principal
    branch of the root gives the prefactor its t -> 0+ delta limit.  Build
    through green_kernel, which refuses focal maps (|b| <= 1e-6).
    """

    a: float
    b: float
    c: float
    e: float
    g: float

    def __call__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        a, b, c, e, g = self.a, self.b, self.c, self.e, self.g
        pref = 1.0 / np.sqrt(2j * np.pi * b)
        return pref * np.exp(1j * (
            (e * x * x - 2.0 * x * y + a * y * y) / (2.0 * b)
            + (g - e * c / b) * x + (c / b) * y
        ))

    def matrix(self, grid):
        """G(q_i, q_tilde_j); G times the grid spacing is the evolution matrix."""
        return self(grid.points[:, None], grid.points[None, :])


def green_kernel(m):
    """Green function of the flow whose optical map is m.

    Lambda (p, q)_t + Delta = (p, q)_0 inverts to q_t = a q + b p + c,
    p_t = d q + e p + g with a = Lambda_00, b = -Lambda_10, d = -Lambda_01,
    e = Lambda_11, c = -(b Delta_0 + a Delta_1), g = -(e Delta_0 + d Delta_1).
    """
    lam, delta = m.lambda_mat, m.delta
    a, b, d, e = lam[0, 0], -lam[1, 0], -lam[0, 1], lam[1, 1]
    if abs(b) <= 1e-6:
        raise CausticError(
            f"kernel is focal over [{m.t_from:g}, {m.t_to:g}] "
            f"(q-p entry of the flow {b:.2e})"
        )
    c = -(b * delta[0] + a * delta[1])
    g = -(e * delta[0] + d * delta[1])
    return GreenKernel(float(a), float(b), float(c), float(e), float(g))


def _check_edge_density(density, spacing, what):
    edge = max(float(density[0]), float(density[-1]))
    if edge > EDGE_DENSITY_TOL:
        raise SupportError(
            f"{what} carries probability density {edge:.3e} at the grid "
            f"boundary; enlarge q_max"
        )


def evolve_wavefunction(psi, kernel):
    """psi_t = (G dq) psi with the plain-spacing quadrature of the kernel contract."""
    _check_edge_density(np.abs(psi.values) ** 2, psi.grid.spacing, "input wavefunction")
    out = (kernel.matrix(psi.grid) * psi.grid.spacing) @ psi.values
    _check_edge_density(np.abs(out) ** 2, psi.grid.spacing, "evolved wavefunction")
    return WaveFunction(psi.grid, out)


def evolve_density(rho0, kernel):
    """rho_t = (G dq) rho0 (G dq)^dagger, Hermitian by construction."""
    diag0 = np.real(np.diag(rho0.values))
    _check_edge_density(diag0, rho0.grid.spacing, "input density")
    U = kernel.matrix(rho0.grid) * rho0.grid.spacing
    vals = U @ rho0.values @ U.conj().T
    vals = 0.5 * (vals + vals.conj().T)
    _check_edge_density(np.real(np.diag(vals)), rho0.grid.spacing, "evolved density")
    rho = DensityMatrix(rho0.grid, vals)
    return rho.validate(trace_tol=1e-3)


@dataclass(frozen=True)
class ClassicalTrajectory:
    """Classical phase-space path q_cl(t), p_cl(t) at the requested times."""

    times: np.ndarray
    q_cl: np.ndarray
    p_cl: np.ndarray


def classical_trajectory(hamiltonian, q0, p0, times, rtol=1e-11, atol=1e-12):
    """Integrate qdot = p, pdot = -omega^2(t) q + f(t) from (q0, p0).

    Deliberately independent of the RK4 machinery in quad_dynamics: scipy's
    adaptive integrator with tight tolerances referees when the package's
    own integrators are checked against Ehrenfest's theorem.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.size == 0:
        raise TimeError("classical trajectory needs at least one time")
    if float(times.min()) < 0.0:
        raise TimeError(f"trajectory times must be nonnegative, got {times.min():g}")
    t_end = float(times.max())
    y0 = [float(q0), float(p0)]
    if t_end == 0.0:
        qs = np.full(times.shape, y0[0])
        ps = np.full(times.shape, y0[1])
        return ClassicalTrajectory(times, qs, ps)

    def rhs(t, y):
        return [y[1], -float(hamiltonian.omega_sq(t)) * y[0] + float(hamiltonian.force(t))]

    sol = solve_ivp(rhs, (0.0, t_end), y0, rtol=rtol, atol=atol, dense_output=True)
    if not sol.success:
        raise TimeError(f"classical trajectory integration failed: {sol.message}")
    ys = sol.sol(times)
    return ClassicalTrajectory(times, ys[0], ys[1])


def trace_distance(rho_a, rho_b):
    """(1/2) Tr |rho_a - rho_b| of the discretized operators."""
    if rho_a.grid != rho_b.grid:
        raise GridError("density matrices live on different grids")
    diff = (rho_a.values - rho_b.values) * rho_a.grid.spacing
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())


def pipeline_discrepancy(rho0, w0, m):
    """Gap between the quantum and the optical propagator of one map.

    Route A evolves rho0 with green_kernel(m).  Route B evolves w0, the
    caller's optical tomogram of rho0 (its grid sets the tomogram grid),
    with evolve_tomogram(w0, m) and reconstructs the density matrix by
    filtered back-projection.  Returns {"trace_distance", "l_inf"} between
    the two final densities.  For the identity map route A is rho0 itself
    and route B a round trip through the caller's transform and the
    back-projection, so the record isolates the transform error.
    """
    rho_a = rho0 if m.is_identity else evolve_density(rho0, green_kernel(m))
    w_t = quad_dynamics.evolve_tomogram(w0, m)
    rho_b = transforms.density_from_tomogram(w_t, rho0.grid)

    return {
        "trace_distance": trace_distance(rho_a, rho_b),
        "l_inf": float(np.abs(rho_a.values - rho_b.values).max()),
    }
