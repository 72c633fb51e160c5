import numpy as np
import pytest

from tomoprop.errors import CausticError, GridError, SupportError, TimeError
from tomoprop.grids import CoordinateGrid, TomogramGrid
from tomoprop.states import (
    WaveFunction,
    density_from_wavefunction,
    make_coherent,
    make_vacuum,
)
from tomoprop import oracles
from tomoprop import quad_dynamics as qd
from tomoprop import transforms as tr


FREE = qd.QuadraticHamiltonian.free()
OSCILLATOR = qd.QuadraticHamiltonian.harmonic()
FORCED_MATHIEU = qd.QuadraticHamiltonian(qd.CosineSampler(1.0, 0.2, 2.0),
                                         qd.ConstantSampler(0.3))


def map_of(H, t, dt=1e-3):
    """The optical map of H over [0, t]."""
    return qd.optical_map(qd.solve_epsilon(H, t, dt), t)


def kernel_of(H, t):
    return oracles.green_kernel(map_of(H, t))


def free_reference(x, y, t):
    """Closed-form free-particle Green function."""
    return np.exp(0.5j * (x - y) ** 2 / t) / np.sqrt(2j * np.pi * t)


def oscillator_reference(x, y, t):
    """Closed-form unit-oscillator (Mehler) Green function."""
    s, c = np.sin(t), np.cos(t)
    return np.exp(0.5j * ((x * x + y * y) * c - 2.0 * x * y) / s) / np.sqrt(2j * np.pi * s)


def kernel_norm_defect(kernel, psi):
    """Norm change of psi under G dq, the usable discretized-unitarity measure.

    The full matrix (G dq) can never be unitary on a finite non-periodic
    grid (it is a band-limited projector off the resolved subspace), so
    unitarity is checked where it matters: on states the grid resolves.
    """
    return abs(oracles.evolve_wavefunction(psi, kernel).norm() - psi.norm())


# -------------------------------------------------------------- kernel form

@pytest.mark.parametrize("H, reference, t", [
    *((FREE, free_reference, t) for t in (0.2, 0.5, 1.0, 2.0, 4.0)),
    *((OSCILLATOR, oscillator_reference, t) for t in (0.5, 1.0, 2.0, 4.0)),
])
def test_kernel_from_the_map_matches_closed_forms(grid, H, reference, t):
    # The kernel read off the integrals of motion is the closed form,
    # branch of the prefactor root included (sin t < 0 at t = 4).
    x, y = grid.points[:, None], grid.points[None, :]
    ref = reference(x, y, t)
    rel = np.abs(kernel_of(H, t).matrix(grid) - ref).max() / np.abs(ref).max()
    assert rel <= 1e-10


def test_free_kernel_closed_form(grid, vacuum_psi):
    # Free evolution of the vacuum Gaussian has the exact form
    # (pi)^(-1/4) (1 + it)^(-1/2) exp(-q^2 / (2 (1 + it))).
    t = 0.2
    out = oracles.evolve_wavefunction(vacuum_psi, kernel_of(FREE, t))
    ref = (
        np.pi**-0.25
        / np.sqrt(1.0 + 1j * t)
        * np.exp(-grid.points**2 / (2.0 * (1.0 + 1j * t)))
    )
    assert np.abs(out.values - ref).max() < 1e-12


def test_kernel_symmetry_and_magnitude(grid):
    k = kernel_of(OSCILLATOR, 1.0)
    M = k.matrix(grid)
    np.testing.assert_allclose(M, M.T, atol=1e-15)
    np.testing.assert_allclose(
        np.abs(M), 1.0 / np.sqrt(2.0 * np.pi * np.sin(1.0)), atol=1e-13
    )
    kf = kernel_of(FREE, 0.7)
    assert kf(0.3, 1.1) == pytest.approx(kf(1.1, 0.3))


def test_delta_limit_fixes_the_branch():
    # As t -> 0+ the free kernel approaches a delta: a wide Gaussian should
    # return to itself with overlap -> +1 (real), which is exactly the
    # property that picks the principal branch of the prefactor root.
    g = CoordinateGrid()
    sigma = 1.6
    vals = (sigma * np.sqrt(np.pi)) ** -0.5 * np.exp(-g.points**2 / (2.0 * sigma**2))
    psi = WaveFunction(g, vals).validate()
    defects = []
    for t in (0.4, 0.2, 0.1):
        out = oracles.evolve_wavefunction(psi, kernel_of(FREE, t))
        defects.append(np.abs(out.values - psi.values).max())
        overlap = np.sum(np.conj(psi.values) * out.values * g.trapezoid_weights)
        assert overlap.real > 0.9
        assert abs(overlap.imag) < 0.2
    assert defects[0] > defects[1] > defects[2]


def test_caustic_guards():
    for H, t in ((FREE, 0.0), (FREE, 1e-10), (OSCILLATOR, np.pi)):
        with pytest.raises(CausticError):
            kernel_of(H, t)


def test_unresolvable_small_time_is_refused(vacuum_psi):
    # At t = 1e-3 the Fresnel chirp oscillates far beyond the grid's
    # resolution and the evolved state aliases across the window; the edge
    # guard must catch it rather than return garbage.
    with pytest.raises(SupportError):
        oracles.evolve_wavefunction(vacuum_psi, kernel_of(FREE, 1e-3))


def test_norm_preserved_on_reference_states(grid, vacuum_psi):
    psi_c = make_coherent(0.5 + 0.3j, grid)
    for H in (FREE, OSCILLATOR):
        for t in (0.3, 0.5, 1.0, np.pi / 3):
            k = kernel_of(H, t)
            assert kernel_norm_defect(k, vacuum_psi) < 1e-3
            assert kernel_norm_defect(k, vacuum_psi) < 1e-10
            assert kernel_norm_defect(k, psi_c) < 1e-10


# -------------------------------------------------------- density evolution

def evolve_pure_density(psi, kernel):
    """|G psi><G psi|: the density propagator on a pure state."""
    return density_from_wavefunction(oracles.evolve_wavefunction(psi, kernel))


def test_vacuum_is_stationary_under_oscillator(vacuum_psi, vacuum_rho):
    rho_t = evolve_pure_density(vacuum_psi, kernel_of(OSCILLATOR, 1.0))
    assert np.abs(rho_t.values - vacuum_rho.values).max() < 1e-10
    assert rho_t.trace() == pytest.approx(1.0, abs=1e-6)


def test_coherent_center_rotates(grid, coherent_psi):
    for t in (0.5, 1.0):
        rho_t = evolve_pure_density(coherent_psi, kernel_of(OSCILLATOR, t))
        q_mean = float(
            np.sum(np.real(np.diag(rho_t.values)) * grid.points * grid.trapezoid_weights)
        )
        assert q_mean == pytest.approx(np.sqrt(2.0) * np.cos(t), abs=1e-8)


def test_free_variance_grows(grid, vacuum_psi):
    t = 1.0
    rho_t = evolve_pure_density(vacuum_psi, kernel_of(FREE, t))
    diag = np.real(np.diag(rho_t.values))
    var = float(np.sum(diag * grid.points**2 * grid.trapezoid_weights))
    assert var == pytest.approx((1.0 + t * t) / 2.0, abs=1e-8)


def test_evolve_wavefunction_is_the_scaled_kernel_product(grid, coherent_psi):
    # The kernel is scaled in place; the product is the same operation on
    # the same operands, bit for bit.
    k = kernel_of(FORCED_MATHIEU, 1.0)
    out = oracles.evolve_wavefunction(coherent_psi, k)
    ref = (k.matrix(grid) * grid.spacing) @ coherent_psi.values
    assert out.values.tobytes() == ref.tobytes()


# ----------------------------------------------------- classical trajectory

def test_classical_trajectory_forced_closed_form():
    H = qd.QuadraticHamiltonian(qd.ConstantSampler(1.0), qd.ConstantSampler(0.3))
    q0, p0, f = 1.2, -0.4, 0.3
    times = np.linspace(0.0, 3.0, 7)
    cl = oracles.classical_trajectory(H, q0, p0, times)
    q_ref = (q0 - f) * np.cos(times) + p0 * np.sin(times) + f
    p_ref = -(q0 - f) * np.sin(times) + p0 * np.cos(times)
    assert np.abs(cl.q_cl - q_ref).max() < 1e-9
    assert np.abs(cl.p_cl - p_ref).max() < 1e-9


def test_classical_trajectory_tolerance_invariance():
    H = qd.QuadraticHamiltonian(qd.CosineSampler(1.0, 0.2, 2.0), qd.ConstantSampler(0.3))
    times = np.array([0.5, 1.5, 3.0])
    tight = oracles.classical_trajectory(H, 1.0, 0.0, times)
    loose = oracles.classical_trajectory(H, 1.0, 0.0, times, rtol=1e-8, atol=1e-9)
    assert np.abs(tight.q_cl - loose.q_cl).max() < 1e-6


def test_classical_trajectory_guards():
    H = qd.QuadraticHamiltonian.free()
    with pytest.raises(TimeError):
        oracles.classical_trajectory(H, 0.0, 0.0, np.array([]))
    with pytest.raises(TimeError):
        oracles.classical_trajectory(H, 0.0, 0.0, np.array([-1.0, 1.0]))
    cl = oracles.classical_trajectory(H, 1.5, -2.0, np.array([0.0]))
    assert cl.q_cl[0] == 1.5 and cl.p_cl[0] == -2.0


# ------------------------------------------------------------ trace distance

def test_trace_distance_basic(vacuum_rho, coherent_rho, grid9):
    assert oracles.trace_distance(vacuum_rho, vacuum_rho) == pytest.approx(0.0, abs=1e-12)
    d_ab = oracles.trace_distance(vacuum_rho, coherent_rho)
    d_ba = oracles.trace_distance(coherent_rho, vacuum_rho)
    assert d_ab == pytest.approx(d_ba, abs=1e-12)
    # Distinct pure states on the default grid: strictly between 0 and 1.
    assert 0.3 < d_ab < 1.0


def test_trace_distance_grid_mismatch(vacuum_rho, grid9):
    other = density_from_wavefunction(make_vacuum(grid9))
    with pytest.raises(GridError):
        oracles.trace_distance(vacuum_rho, other)


# ------------------------------------------------------------ full pipeline

def test_quantum_and_optical_propagators_agree_without_fbp(grid, tgrid, coherent_psi):
    # The paper's relation on a forced Mathieu oscillator: the tomogram of
    # the kernel-evolved wavefunction is the map-evolved tomogram, and the
    # kernel moves the centre along the classical trajectory.
    w0 = tr.tomogram_from_wavefunction(coherent_psi, tgrid)
    times = (0.5, 1.0, 2.0)
    cl = oracles.classical_trajectory(FORCED_MATHIEU, np.sqrt(2.0), 0.0, times)
    for i, t in enumerate(times):
        m = map_of(FORCED_MATHIEU, t)
        psi_t = oracles.evolve_wavefunction(coherent_psi, oracles.green_kernel(m))
        w_kernel = tr.tomogram_from_wavefunction(psi_t, tgrid)
        w_map = qd.evolve_tomogram(w0, m, interp="cubic")
        gap = np.mean(np.abs(w_kernel.values - w_map.values) @ tgrid.x_trapezoid_weights)
        assert gap < 1e-6
        q_mean = np.sum(np.abs(psi_t.values) ** 2 * grid.points * grid.trapezoid_weights)
        assert abs(q_mean - cl.q_cl[i]) < 1e-8


def test_pipeline_discrepancy_at_zero_time_is_transform_error(vacuum_psi,
                                                             vacuum_tomogram):
    m = map_of(OSCILLATOR, 0.0)
    assert m.is_identity
    [rec] = oracles.pipeline_discrepancy(vacuum_psi, vacuum_tomogram, [m])
    assert rec["trace_distance"] < 1e-3
    assert rec["l_inf"] < 1e-3


def test_pipeline_discrepancy_shrinks_under_refinement(vacuum_psi, vacuum_rho):
    [coarse], [fine] = (
        oracles.pipeline_discrepancy(
            vacuum_psi, tr.tomogram_from_density(vacuum_rho, tg), [map_of(OSCILLATOR, 1.0)]
        )
        for tg in (TomogramGrid(x_max=8.0, n_x=512, n_theta=90),
                   TomogramGrid(x_max=8.0, n_x=1024, n_theta=180))
    )
    assert fine["trace_distance"] < coarse["trace_distance"]
    assert fine["trace_distance"] < 1e-3


SMALL_GRID = CoordinateGrid(q_max=8.0, n_q=128)
SMALL_TGRID = TomogramGrid(x_max=8.0, n_x=256, n_theta=32)


def small_pipeline_input():
    """A coherent state on SMALL_GRID and its density-route tomogram."""
    psi0 = make_coherent(1.0, SMALL_GRID)
    return psi0, tr.tomogram_from_density(density_from_wavefunction(psi0), SMALL_TGRID)


def test_pure_state_route_equals_the_density_propagator():
    # |G psi><G psi| is (G dq) rho0 (G dq)^dagger for rho0 = |psi><psi|.
    psi0, _ = small_pipeline_input()
    rho0 = density_from_wavefunction(psi0).values
    traj = qd.solve_epsilon(FORCED_MATHIEU, 1.0, stops=[0.5, 1.0])
    for t in (0.5, 1.0):
        k = oracles.green_kernel(qd.optical_map(traj, t))
        U = k.matrix(SMALL_GRID) * SMALL_GRID.spacing
        rho_t = U @ rho0 @ U.conj().T
        got = evolve_pure_density(psi0, k).values
        assert np.abs(got - rho_t).max() <= 1e-14


def test_pipeline_discrepancy_equals_the_per_map_composition():
    # One back-projection pass for every map gives each record bit for bit
    # as the two routes composed map by map.
    psi0, w0 = small_pipeline_input()
    traj = qd.solve_epsilon(FORCED_MATHIEU, 1.0, stops=[0.5, 1.0])
    maps = [qd.optical_map(traj, t) for t in (0.5, 1.0)]
    got = oracles.pipeline_discrepancy(psi0, w0, maps)
    assert len(got) == 2
    for rec, m in zip(got, maps):
        rho_a = evolve_pure_density(psi0, oracles.green_kernel(m))
        rho_b = tr.density_from_tomogram(qd.evolve_tomogram(w0, m), SMALL_GRID)
        assert rec == {
            "trace_distance": oracles.trace_distance(rho_a, rho_b),
            "l_inf": float(np.abs(rho_a.values - rho_b.values).max()),
        }


def test_pipeline_discrepancy_refuses_a_focal_map_before_any_fbp(monkeypatch):
    psi0, w0 = small_pipeline_input()
    maps = [map_of(OSCILLATOR, 1.0), map_of(OSCILLATOR, np.pi)]
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        raise AssertionError("back-projection ran")

    monkeypatch.setattr(tr, "_back_project", counted)
    with pytest.raises(CausticError):
        oracles.pipeline_discrepancy(psi0, w0, maps)
    assert calls == []
