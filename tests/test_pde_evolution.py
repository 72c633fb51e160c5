from dataclasses import dataclass

import numpy as np
import pytest

from tomoprop.errors import StepError, SupportError, TimeError
from tomoprop.grids import TomogramGrid
from tomoprop.states import make_vacuum
from tomoprop import pde_evolution as pde
from tomoprop import quad_dynamics as qd
from tomoprop import transforms as tr

from conftest import vacuum_tomogram_reference


def mathieu(force=0.0):
    return qd.QuadraticHamiltonian(
        qd.CosineSampler(1.0, 0.2, 2.0), qd.ConstantSampler(force)
    )


# ----------------------------------------------------------- characteristics
#
# A per-node referee for the solver's row-factored RK4: one characteristic
# at a time, through the field written out term by term.


@dataclass(frozen=True)
class CharacteristicState:
    """State carried along one backward characteristic.

    X and theta locate the point on the twisted extension; amp is the
    accumulated multiplicative factor (starts at 1 at the final time).
    """

    X: float
    theta: float
    amp: float = 1.0

    def __post_init__(self):
        if not np.all(np.asarray(self.amp) > 0.0):
            raise ValueError(f"amp must stay positive, got {self.amp}")


def characteristic_rhs(state, t, hamiltonian):
    """Advection field of the tomogram evolution equation.

    Returns the derivative triple (dX/dt, dtheta/dt, dlog_amp/dt) at time t.
    The field is smooth everywhere, including theta = 0 and pi/2 where only
    the force term survives in dX/dt.
    """
    w2 = hamiltonian.omega_sq(t)
    f = hamiltonian.force(t)
    s = np.sin(state.theta)
    c = np.cos(state.theta)
    sc = s * c
    dX = (1.0 - w2) * sc * state.X + f * s
    dtheta = -(c * c + w2 * s * s)
    dlog_amp = -(1.0 - w2) * sc
    return dX, dtheta, dlog_amp


def test_rhs_harmonic_is_pure_angle_advection():
    H = qd.QuadraticHamiltonian.harmonic()
    state = CharacteristicState(X=1.3, theta=0.8)
    dX, dtheta, dlog = characteristic_rhs(state, 0.0, H)
    assert dX == pytest.approx(0.0, abs=1e-15)
    assert dtheta == pytest.approx(-1.0)
    assert dlog == pytest.approx(0.0, abs=1e-15)


def test_rhs_free_advects_tangent_uniformly():
    # For omega^2 = 0 the angle obeys d(tan theta)/dt = -1:
    # dtheta/dt = -cos^2(theta).
    H = qd.QuadraticHamiltonian.free()
    for theta in (0.3, 1.0, 2.2):
        state = CharacteristicState(X=0.7, theta=theta)
        _, dtheta, _ = characteristic_rhs(state, 0.0, H)
        assert dtheta == pytest.approx(-np.cos(theta) ** 2, abs=1e-14)


def test_rhs_force_term_vanishes_at_theta_zero():
    H = qd.QuadraticHamiltonian(qd.ConstantSampler(1.0), qd.ConstantSampler(0.5))
    state = CharacteristicState(X=2.0, theta=0.0)
    dX, dtheta, dlog = characteristic_rhs(state, 0.0, H)
    assert dX == pytest.approx(0.0, abs=1e-15)
    assert dtheta == pytest.approx(-1.0)
    assert dlog == pytest.approx(0.0, abs=1e-15)


def test_characteristic_state_requires_positive_amp():
    with pytest.raises(ValueError):
        CharacteristicState(X=0.0, theta=0.0, amp=0.0)
    with pytest.raises(ValueError):
        CharacteristicState(X=0.0, theta=0.0, amp=-1.0)


# ------------------------------------------------------------------ solver

def test_guards():
    H = qd.QuadraticHamiltonian.harmonic()
    w = tr.Tomogram(TomogramGrid(n_x=32, n_theta=8), np.zeros((8, 32)))
    with pytest.raises(TimeError):
        pde.evolve_semilagrangian(w, H, -0.5)
    with pytest.raises(StepError):
        pde.evolve_semilagrangian(w, H, 1.0, dt=0.0)
    with pytest.raises(StepError):
        pde.evolve_semilagrangian(w, H, 1.0, dt=6e-3)
    # The cap shrinks with sup omega^2.
    with pytest.raises(StepError):
        pde.evolve_semilagrangian(w, mathieu(), 1.0, dt=5e-3)


def test_zero_time_is_copy(coherent_tomogram):
    out = pde.evolve_semilagrangian(coherent_tomogram, mathieu(), 0.0)
    np.testing.assert_array_equal(out.values, coherent_tomogram.values)
    assert out.values is not coherent_tomogram.values


def test_harmonic_evolution_is_twisted_shift(coherent_tomogram):
    t = np.pi / 3
    out = pde.evolve_semilagrangian(coherent_tomogram, qd.QuadraticHamiltonian.harmonic(), t)
    v = coherent_tomogram.values
    ref = np.vstack([v[60:], v[:60, ::-1]])
    assert np.abs(out.values - ref).max() < 1e-12


def test_free_spreading_matches_closed_form(vacuum_tomogram, tgrid):
    # Free motion rescales each row by r(theta, t); at t = 1 the vacuum
    # tomogram stays Gaussian with width r.
    out = pde.evolve_semilagrangian(vacuum_tomogram, qd.QuadraticHamiltonian.free(), 1.0)
    th = tgrid.thetas[:, None]
    r = np.hypot(np.sin(th) + np.cos(th), np.cos(th))
    ref = np.exp(-((tgrid.xs[None, :] / r) ** 2)) / (r * np.sqrt(np.pi))
    assert np.abs(out.values - ref).max() < 5e-3
    assert np.abs(out.values - ref).max() < 2e-4


def test_backends_agree_on_forced_mathieu(coherent_tomogram):
    H = mathieu(force=0.3)
    T = 1.0
    w_pde = pde.evolve_semilagrangian(coherent_tomogram, H, T, dt=1e-3)
    traj = qd.solve_epsilon(H, T, 1e-3)
    w_map = qd.evolve_tomogram(
        coherent_tomogram, qd.optical_map(traj, T)
    )
    wx = coherent_tomogram.grid.x_trapezoid_weights
    l1 = float(np.mean(np.abs(w_pde.values - w_map.values) @ wx))
    assert l1 < 1e-2
    assert l1 < 1e-10


def test_factored_advection_matches_per_node_integration(coherent_tomogram, tgrid):
    # The row-affine factorization X(0) = mu X + nu must agree with running
    # an independent RK4 for individual nodes through characteristic_rhs.
    H = mathieu(force=0.3)
    T = 0.5
    n = 500
    h = T / n
    out = pde.evolve_semilagrangian(coherent_tomogram, H, T, dt=1e-3)

    rng = np.random.default_rng(3)
    for j, i in zip(rng.integers(0, tgrid.n_theta, 6), rng.integers(0, tgrid.n_x, 6)):
        X, th, la = float(tgrid.xs[i]), float(tgrid.thetas[j]), 0.0
        t = T
        for _ in range(n):
            s1 = characteristic_rhs(CharacteristicState(X, th), t, H)
            s2 = characteristic_rhs(
                CharacteristicState(X - 0.5 * h * s1[0], th - 0.5 * h * s1[1]),
                t - 0.5 * h, H,
            )
            s3 = characteristic_rhs(
                CharacteristicState(X - 0.5 * h * s2[0], th - 0.5 * h * s2[1]),
                t - 0.5 * h, H,
            )
            s4 = characteristic_rhs(
                CharacteristicState(X - h * s3[0], th - h * s3[1]), t - h, H
            )
            X -= (h / 6.0) * (s1[0] + 2.0 * s2[0] + 2.0 * s3[0] + s4[0])
            th -= (h / 6.0) * (s1[1] + 2.0 * s2[1] + 2.0 * s3[1] + s4[1])
            la -= (h / 6.0) * (s1[2] + 2.0 * s2[2] + 2.0 * s3[2] + s4[2])
            t -= h
        manual = np.exp(-la) * coherent_tomogram.sample_twisted(X, th)
        assert abs(manual - out.values[j, i]) < 1e-12


def test_row_norms_and_positivity(coherent_pure_tomogram):
    out = pde.evolve_semilagrangian(coherent_pure_tomogram, mathieu(force=0.3), 1.0)
    assert np.abs(out.row_norms() - 1.0).max() < 2e-3
    assert out.values.min() >= -1e-12


def test_support_guard():
    tg = TomogramGrid(x_max=4.0, n_x=128, n_theta=45)
    w0 = tr.tomogram_from_wavefunction(make_vacuum(), tg)
    with pytest.raises(SupportError):
        pde.evolve_semilagrangian(w0, qd.QuadraticHamiltonian.free(), 3.0)


def _free_closed_form_error(w0, tg, dt):
    out = pde.evolve_semilagrangian(w0, qd.QuadraticHamiltonian.free(), 1.0, dt=dt)
    th = tg.thetas[:, None]
    r = np.hypot(np.sin(th) + np.cos(th), np.cos(th))
    ref = np.exp(-((tg.xs[None, :] / r) ** 2)) / (r * np.sqrt(np.pi))
    return np.abs(out.values - ref).max()


def test_refinement_improves_free_vacuum():
    # Halving dt together with both grid spacings must shrink the error
    # against the closed form (the dual-backend criterion measures the
    # order; this is the cheap monotone version on a single backend).
    psi = make_vacuum()
    errs = []
    for n_x, n_theta, dt in ((512, 90, 2e-3), (1024, 180, 1e-3)):
        tg = TomogramGrid(x_max=8.0, n_x=n_x, n_theta=n_theta)
        w0 = tr.tomogram_from_wavefunction(psi, tg)
        errs.append(_free_closed_form_error(w0, tg, dt))
    assert errs[1] < 0.5 * errs[0]
