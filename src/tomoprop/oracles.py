"""Analytic propagator kernels and classical trajectories as ground truth.

The free-particle and unit-oscillator Schroedinger Green functions have
closed forms, and the density-matrix propagator factorizes through them as
K(q, q'; qt, qt') = G(q, qt) G*(q', qt'), so it is never materialized as a
rank-4 array.  Together with an independently integrated classical
trajectory these pin down the evolution backends from outside the package's
own numerics: the same physics is computed once through densities and once
through tomograms, and the final states are compared.
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
    """Schroedinger Green function G(q, q_tilde) over elapsed time t.

    kind is "free" or "oscillator".  Build through green_kernel, which
    refuses caustic times where the prefactor diverges.
    """

    kind: str
    t: float

    def __call__(self, q, q_tilde):
        q = np.asarray(q, dtype=float)
        q_tilde = np.asarray(q_tilde, dtype=float)
        if self.kind == "free":
            # Principal branch of the square root gives the amplitude with
            # positive real part, fixed by the t -> 0+ delta limit.
            pref = 1.0 / np.sqrt(2j * np.pi * self.t)
            return pref * np.exp(0.5j * (q - q_tilde) ** 2 / self.t)
        s = np.sin(self.t)
        c = np.cos(self.t)
        pref = 1.0 / np.sqrt(2j * np.pi * s)
        return pref * np.exp(
            0.5j * ((q * q + q_tilde * q_tilde) * c - 2.0 * q * q_tilde) / s
        )

    def matrix(self, grid):
        """G(q_i, q_tilde_j); G times the grid spacing is the evolution matrix."""
        return self(grid.points[:, None], grid.points[None, :])


def green_kernel(kind, t):
    """Closed-form Green function for the free particle or unit oscillator."""
    t = float(t)
    if kind == "free":
        if abs(t) <= 1e-9:
            raise CausticError(f"free kernel degenerates to a delta at t = {t:g}")
    elif kind == "oscillator":
        if abs(np.sin(t)) <= 1e-6:
            raise CausticError(
                f"oscillator kernel is focal at t = {t:g} (sin t = {np.sin(t):.2e})"
            )
    else:
        raise ValueError(f"unknown kernel kind {kind!r}")
    return GreenKernel(kind, t)


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


def kernel_hamiltonian(kind):
    """The quadratic Hamiltonian whose Green function green_kernel(kind, t) is."""
    if kind == "free":
        return quad_dynamics.QuadraticHamiltonian.free()
    if kind == "oscillator":
        return quad_dynamics.QuadraticHamiltonian.harmonic()
    raise ValueError(f"unknown Hamiltonian kind {kind!r}")


def pipeline_discrepancy(rho0, w0, kind, t, traj=None):
    """Gap between kernel evolution and the tomogram-route evolution.

    Route A evolves rho0 with the analytic Green kernel.  Route B evolves
    w0, the caller's optical tomogram of rho0 (its grid sets the tomogram
    grid), with the affine map built from the classical epsilon trajectory,
    and reconstructs the density matrix by filtered back-projection.
    Returns {"trace_distance", "l_inf"} between the two final densities.
    At t = 0 route A is the identity and route B a round trip through the
    caller's transform and the back-projection, so the record isolates the
    transform error.

    traj is an eps(t) trajectory of kernel_hamiltonian(kind) that reaches t,
    so that one solve_epsilon(..., stops=times) serves every time; by
    default one is solved to t with dt = 1e-3.
    """
    t = float(t)
    H = kernel_hamiltonian(kind)
    if traj is not None and traj.hamiltonian != H:
        raise ValueError(f"trajectory was not solved for the {kind} Hamiltonian")

    rho_a = rho0 if t == 0.0 else evolve_density(rho0, green_kernel(kind, t))

    if t == 0.0:
        w_t = w0
    else:
        if traj is None:
            traj = quad_dynamics.solve_epsilon(H, t, 1e-3)
        m = quad_dynamics.optical_map(quad_dynamics.motion_integrals(traj, t))
        w_t = quad_dynamics.evolve_tomogram(w0, m)
    rho_b = transforms.density_from_tomogram(w_t, rho0.grid)

    return {
        "trace_distance": trace_distance(rho_a, rho_b),
        "l_inf": float(np.abs(rho_a.values - rho_b.values).max()),
    }
