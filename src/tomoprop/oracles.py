"""The Schroedinger propagator of a quadratic flow, and classical
trajectories, as ground truth.

green_kernel builds the Green function of every quadratic Hamiltonian from
the same Malkin-Man'ko-Trifonov integrals of motion (Lambda, Delta) as the
optical map.  The density-matrix propagator factorizes through it as
K(q, q'; qt, qt') = G(q, qt) G*(q', qt'), so on a pure state it is never
applied as such: rho_t = |G psi><G psi| needs one matrix-vector product.
The same map is applied once to amplitudes (the quantum propagator) and
once to tomograms (the optical propagator), and the final states are
compared; classical_trajectory integrates the motion without eps(t), so it
referees the map itself.
"""

import numpy as np
from dataclasses import dataclass

from .errors import CausticError, GridError, SupportError, TimeError
from .states import DensityMatrix, WaveFunction, density_from_wavefunction
from . import quad_dynamics
from . import transforms


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


def green_kernels(maps):
    """green_kernel of each map, None for an identity map, in the order of
    maps.  The first focal map raises CausticError."""
    return [None if m.is_identity else green_kernel(m) for m in maps]


def _check_edge_density(density, what):
    edge = max(float(density[0]), float(density[-1]))
    if edge > transforms.EDGE_MASS_TOL:
        raise SupportError(
            f"{what} carries probability density {edge:.3e} at the grid "
            f"boundary; enlarge q_max"
        )


def evolve_wavefunction(psi, kernel):
    """psi_t = (G dq) psi with the plain-spacing quadrature of the kernel contract."""
    _check_edge_density(np.abs(psi.values) ** 2, "input wavefunction")
    U = kernel.matrix(psi.grid)
    U *= psi.grid.spacing
    out = U @ psi.values
    _check_edge_density(np.abs(out) ** 2, "evolved wavefunction")
    return WaveFunction(psi.grid, out)


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
    own integrators are checked against Ehrenfest's theorem.  solve_ivp is
    imported here, not at module level, because no CLI task calls this and
    scipy.integrate would add to every job's start-up.
    """
    from scipy.integrate import solve_ivp

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


def pipeline_discrepancy(psi0, w0, maps):
    """Gap between the quantum and the optical propagator of each map.

    Route A evolves the pure state psi0 with green_kernel(m) and takes
    rho_a = |psi_t><psi_t|, which is (G dq) rho0 (G dq)^dagger for
    rho0 = |psi0><psi0| at the cost of one matrix-vector product; the edge
    guards of evolve_wavefunction and a trace within 1e-3 of 1 hold it.
    Route B evolves w0, the caller's optical tomogram of psi0 (its grid
    sets the tomogram grid), with evolve_tomogram(w0, m) and reconstructs
    the density matrix by filtered back-projection.  Returns one
    {"trace_distance", "l_inf"} between the two final densities per map,
    in the order of maps.  For the identity map route A is |psi0><psi0|
    itself and route B a round trip through the caller's transform and
    the back-projection, so the record isolates the transform error.

    Every kernel is built first, so a focal map raises CausticError before
    any back-projection runs; all the evolved tomograms then share one
    inverse_radon_many, whose temporaries are freed before route A runs.
    Each map's Wigner function and densities are freed before the next
    map's are built.
    """
    kernels = green_kernels(maps)
    w_ts = [quad_dynamics.evolve_tomogram(w0, m) for m in maps]
    wigners = transforms.inverse_radon_many(w_ts, psi0.grid)
    del w_ts
    records = []
    for i, kernel in enumerate(kernels):
        rho_b = transforms.density_from_wigner(wigners[i])
        wigners[i] = None
        if kernel is None:
            rho_a = density_from_wavefunction(psi0)
        else:
            psi_t = evolve_wavefunction(psi0, kernel).values
            rho_a = DensityMatrix(
                psi0.grid, np.outer(psi_t, psi_t.conj()), hermiticity_defect=0.0
            ).validate(trace_tol=1e-3)
        records.append({
            "trace_distance": trace_distance(rho_a, rho_b),
            "l_inf": float(np.abs(rho_a.values - rho_b.values).max()),
        })
        del rho_a, rho_b
    return records
