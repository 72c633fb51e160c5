import json

import numpy as np
import pytest

from tomoprop.cli import main
from tomoprop.errors import RangeError, StepError, SupportError, TimeError
from tomoprop.grids import TomogramGrid
from tomoprop.states import make_vacuum
from tomoprop import quad_dynamics as qd
from tomoprop import transforms as tr


def mathieu(force=0.0):
    return qd.QuadraticHamiltonian(
        qd.CosineSampler(1.0, 0.2, 2.0), qd.ConstantSampler(force)
    )


def det(lam):
    return lam[0, 0] * lam[1, 1] - lam[0, 1] * lam[1, 0]


# ----------------------------------------------------------------- samplers

def test_constant_sampler():
    s = qd.ConstantSampler(2.0)
    assert s(0.3) == 2.0
    np.testing.assert_array_equal(s(np.array([0.0, 1.0])), [2.0, 2.0])
    assert s.upper_bound() == 2.0
    assert s.shifted(5.0)(0.0) == 2.0


def test_cosine_sampler():
    s = qd.CosineSampler(1.0, 0.2, 2.0)
    assert s(0.0) == pytest.approx(1.2)
    assert s(np.pi / 2) == pytest.approx(0.8)
    assert s.upper_bound() == pytest.approx(1.2)
    sh = s.shifted(0.7)
    for t in (0.0, 0.4, 1.1):
        assert sh(t) == pytest.approx(s(t + 0.7), abs=1e-14)


def test_table_sampler_interpolates():
    s = qd.TableSampler(np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0, 0.0]))
    assert s(0.5) == pytest.approx(1.0)
    assert s(1.5) == pytest.approx(1.0)
    assert s.upper_bound() == 2.0
    assert s.shifted(1.0)(0.0) == pytest.approx(2.0)
    with pytest.raises(RangeError):
        s(2.5)
    with pytest.raises(RangeError):
        s(-0.1)


def test_table_sampler_rejects_bad_tables():
    with pytest.raises(ValueError):
        qd.TableSampler(np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        qd.TableSampler(np.array([0.0, 0.0]), np.array([1.0, 2.0]))


def test_samplers_refuse_non_finite_coefficients():
    # A NaN coefficient would read as step_scale 1 (max(1.0, nan)) and run
    # a whole solve before a guard refused it with the wrong advice.
    nan = float("nan")
    with pytest.raises(ValueError, match="constant sampler: value must be finite, got nan"):
        qd.ConstantSampler(nan)
    with pytest.raises(ValueError, match="cosine sampler: b must be finite, got nan"):
        qd.CosineSampler(1.0, nan, 2.0)
    with pytest.raises(ValueError, match="cosine sampler: phase must be finite, got inf"):
        qd.CosineSampler(1.0, 0.5, 2.0, float("inf"))
    with pytest.raises(ValueError, match="table sampler: times and values must be finite"):
        qd.TableSampler([0.0, 1.0, 2.0], [1.0, nan, 1.0])
    assert qd.ConstantSampler.violations(1.0, t_end=5.0) == []
    assert qd.CosineSampler.violations(1.0, 0.2, 2.0, t_end=5.0) == []


# ----------------------------------------------------------- epsilon solver

def test_free_epsilon_is_linear():
    traj = qd.solve_epsilon(qd.QuadraticHamiltonian.free(), 2.0)
    ref = 1.0 + 1j * traj.times
    assert np.abs(traj.eps - ref).max() < 1e-12
    assert np.abs(traj.eps_dot - 1j).max() < 1e-12
    assert np.abs(traj.beta).max() == 0.0


def test_harmonic_epsilon_is_phase():
    traj = qd.solve_epsilon(qd.QuadraticHamiltonian.harmonic(), np.pi, dt=1e-3)
    ref = np.exp(1j * traj.times)
    assert np.abs(traj.eps - ref).max() < 1e-11
    assert np.abs(traj.eps_dot - 1j * ref).max() < 1e-11


def test_forced_oscillator_beta_closed_form():
    # omega^2 = 1, constant f: beta(t) = -(f / sqrt(2)) (e^{it} - 1).
    f = 0.3
    H = qd.QuadraticHamiltonian(qd.ConstantSampler(1.0), qd.ConstantSampler(f))
    traj = qd.solve_epsilon(H, 2.0)
    ref = -(f / np.sqrt(2.0)) * (np.exp(1j * traj.times) - 1.0)
    assert np.abs(traj.beta - ref).max() < 1e-11


def test_wronskian_conserved_over_long_run():
    traj = qd.solve_epsilon(mathieu(), 10.0, dt=1e-3)
    wr = 2.0 * np.imag(traj.eps_dot * np.conj(traj.eps))
    assert np.abs(wr - 2.0).max() < 1e-12


def test_health_figures_have_one_source(tmp_path):
    # The trajectory and the map carry the only copies of the two formulas;
    # the solver guards and validate's report read them.
    traj = qd.solve_epsilon(mathieu(0.3), 10.0)
    wr = 2.0 * np.imag(traj.eps_dot * np.conj(traj.eps))
    assert traj.wronskian_drift == np.abs(wr - 2.0).max()
    for t in np.linspace(0.0, 10.0, 21):
        m = qd.optical_map(traj, t)
        assert m.det == det(m.lambda_mat)

    # validate measures the job's Hamiltonian, to T = 10 without times.
    grid = {"x_max": 8.0, "n_x": 256, "n_theta": 45, "q_max": 8.0, "n_q": 128}
    hamiltonian = {"omega_sq": {"kind": "cosine", "a": 1.0, "b": 0.2, "freq": 2.0},
                   "force": {"kind": "constant", "value": 0.3}}
    config = tmp_path / "job.json"
    config.write_text(json.dumps({"grid": grid, "hamiltonian": hamiltonian}))
    assert main(["validate", "--config", str(config), "--output-dir", str(tmp_path)]) == 0
    checks = {c["name"]: c["measured"]
              for c in json.loads((tmp_path / "report.json").read_text())["checks"]}
    nodes = np.linspace(0.0, 10.0, 21)
    traj = qd.solve_epsilon(mathieu(0.3), 10.0, qd.auto_dt(mathieu(0.3), 10.0), stops=nodes)
    assert checks["wronskian_drift"] == traj.wronskian_drift
    assert checks["det_lambda_defect"] == max(
        abs(qd.optical_map(traj, t).det - 1.0) for t in nodes
    )


def test_epsilon_step_consistency():
    a = qd.solve_epsilon(mathieu(), 1.0, dt=1e-3)
    b = qd.solve_epsilon(mathieu(), 1.0, dt=5e-4)
    assert abs(a.eps[-1] - b.eps[-1]) < 1e-11


def test_solver_guards():
    with pytest.raises(TimeError):
        qd.solve_epsilon(qd.QuadraticHamiltonian.free(), -1.0)
    with pytest.raises(StepError):
        qd.solve_epsilon(qd.QuadraticHamiltonian.harmonic(), 1.0, dt=0.0)
    # The ceiling scales with the stiffness: sup omega_sq = 1.2 lowers it.
    qd.solve_epsilon(qd.QuadraticHamiltonian.harmonic(), 1.0, dt=2e-2)
    with pytest.raises(StepError):
        qd.solve_epsilon(mathieu(), 1.0, dt=2e-2)
    qd.solve_epsilon(mathieu(), 1.0, dt=2e-2 / 1.2)
    # Every stop must lie in [0, T].
    with pytest.raises(TimeError):
        qd.solve_epsilon(mathieu(), 1.0, stops=[-0.5])
    with pytest.raises(TimeError):
        qd.solve_epsilon(mathieu(), 1.0, stops=[1.5])


def test_zero_time_trajectory():
    traj = qd.solve_epsilon(mathieu(), 0.0)
    assert traj.times.size == 1
    assert traj.eps[0] == 1.0 + 0.0j
    assert traj.final_time == 0.0


def test_stops_become_nodes():
    # The first segment is the solve to the first stop alone; later stops
    # are nodes too, read without interpolation, and no step exceeds dt.
    H = mathieu()
    traj = qd.solve_epsilon(H, 1.0, 1e-3, stops=[0.0, 0.3333, 0.7071, 1.0])
    alone = qd.solve_epsilon(H, 0.3333, 1e-3)
    k = alone.times.size
    for name in ("times", "eps", "eps_dot", "beta"):
        np.testing.assert_array_equal(getattr(traj, name)[:k], getattr(alone, name))
    assert 0.7071 in traj.times and traj.final_time == 1.0
    assert 0.0 < np.diff(traj.times).min() and np.diff(traj.times).max() <= 1e-3
    m = qd.optical_map(traj, 0.7071)
    ref = qd.optical_map(qd.solve_epsilon(H, 0.7071, 1e-3), 0.7071)
    assert abs(det(m.lambda_mat) - 1.0) < 1e-13
    np.testing.assert_allclose(m.lambda_mat, ref.lambda_mat, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(m.delta, ref.delta, rtol=0.0, atol=1e-13)


# ---------------------------------------------------------------- step rule
#
# The panel the rule was sized on: constant omega_sq (f = 0.3) against the
# closed form, time-dependent drives against an RK4 solve at a sixteenth
# of the step.  The stiff constants run to T = 1 to keep the suite fast;
# the ceiling, not T, sets their probe step.


def _constant(omega_sq):
    return qd.QuadraticHamiltonian(qd.ConstantSampler(omega_sq), qd.ConstantSampler(0.3))


_TABLE_TIMES = np.linspace(0.0, 10.0, 401)
STEP_PANEL = {
    "free": (_constant(0.0), 10.0),
    "harmonic": (_constant(1.0), 10.0),
    "inverted": (_constant(-1.0), 10.0),
    "omega_sq=9": (_constant(9.0), 1.0),
    "omega_sq=20": (_constant(20.0), 1.0),
    "omega_sq=25": (_constant(25.0), 1.0),
    "parametric": (qd.QuadraticHamiltonian(qd.CosineSampler(1.0, 0.9, 2.0),
                                           qd.ConstantSampler(0.0)), 5.5),
    "table": (qd.QuadraticHamiltonian(
        qd.TableSampler(_TABLE_TIMES, 1.0 + 0.3 * np.sin(1.3 * _TABLE_TIMES)),
        qd.TableSampler(_TABLE_TIMES, 0.2 * np.cos(_TABLE_TIMES))), 10.0),
    "forced Mathieu": (mathieu(0.3), 10.0),
}


def _closed_form(omega_sq, T, thetas):
    """The exact probe of a constant omega_sq with f = 0.3: the entries of
    Lambda and Delta at T, and the map's frames (theta0 in (-pi, pi])."""
    if omega_sq == 0.0:
        e, ed, integral = 1.0 + 1j * T, 1j, T + 0.5j * T * T
    else:
        w = np.sqrt(complex(omega_sq))
        e = np.cos(w * T) + 1j * np.sin(w * T) / w
        ed = -w * np.sin(w * T) + 1j * np.cos(w * T)
        # eps'' = -omega_sq eps, so the integral of eps is (eps'(0) - eps'(T)) / omega_sq.
        integral = (1j - ed) / omega_sq
    beta = -(1j / np.sqrt(2.0)) * 0.3 * integral
    m = qd._map_of(e, ed, beta, 0.0, T)
    return np.append(m.lambda_mat, m.delta), np.array(m.frames(thetas))


@pytest.mark.parametrize("name", STEP_PANEL)
def test_step_rule_meets_its_budget(name):
    H, T = STEP_PANEL[name]
    dt, estimate = qd.choose_step(H, T)
    assert qd.auto_dt(H, T) == dt
    assert 0.0 < dt <= qd.STEP_LIMIT / H.step_scale
    assert 0.0 <= estimate < qd.STEP_TARGET
    n = qd._n_steps(0.0, T, dt)
    entries, frames = qd._probe(H, T, n)
    if isinstance(H.omega_sq, qd.ConstantSampler):
        ref_entries, ref_frames = _closed_form(H.omega_sq.value, T, qd._PROBE_THETAS)
        # The sweep's angles are unfolded; the map's are folded into (-pi, pi].
        turns = np.round((frames[0] - ref_frames[0]) / (2.0 * np.pi))
        ref_frames[0] += 2.0 * np.pi * turns
    else:
        ref_entries, ref_frames = qd._probe(H, T, 16 * n)
    # Every Lambda / Delta entry and every frame row, each relative to
    # max(1, |reference|).
    assert qd._relative_gap(entries, ref_entries) < qd.STEP_TARGET
    for row, ref_row in zip(frames.T, ref_frames.T):
        assert qd._relative_gap(row, ref_row) < qd.STEP_TARGET


def _guards_pass(H, T, dt):
    try:
        qd.optical_map(qd.solve_epsilon(H, T, dt), T)
    except StepError:
        return False
    return True


@pytest.mark.parametrize("name", STEP_PANEL)
def test_step_rule_keeps_the_solver_guards(name):
    # The Wronskian and det Lambda guards pass at the chosen step wherever
    # they passed at the fixed step the rule replaced.
    H, T = STEP_PANEL[name]
    fixed = min(1e-3, 2.5e-3 / H.step_scale)
    if _guards_pass(H, T, fixed):
        assert _guards_pass(H, T, qd.auto_dt(H, T))


def test_inverted_oscillator_drift_falls_with_the_step():
    # Under omega_sq = -1 eps grows like e^t, and the drift to T = 10 is
    # rounding, not truncation: past the guard at either step (1.5e-6 at
    # 1e-3), and lower at the rule's larger step (5.4e-7 at 5e-3).
    H, T = STEP_PANEL["inverted"]
    dt = qd.auto_dt(H, T)
    assert dt > 1e-3
    chosen = qd._integrate_epsilon(H, T, dt).wronskian_drift
    fixed = qd._integrate_epsilon(H, T, 1e-3).wronskian_drift
    assert qd.WRONSKIAN_TOL < chosen < fixed


@pytest.mark.parametrize("h, step", [
    (1e-2, 1e-2), (9.99e-3, 5e-3), (5e-3, 5e-3), (4.9e-3, 2e-3), (1.99e-3, 1e-3),
    (1.2e-4, 1e-4), (3e-7, 2e-7),
])
def test_step_ladder(h, step):
    # The rule rounds down onto 1, 2, 5 times a power of ten.
    assert qd._ladder_floor(h) == step


# --------------------------------------------------------- motion integrals

def test_motion_integrals_free():
    traj = qd.solve_epsilon(qd.QuadraticHamiltonian.free(), 1.0)
    m = qd.optical_map(traj, 1.0)
    # eps = 1 + it: the map subtracts p t from q and leaves p alone.
    np.testing.assert_allclose(m.lambda_mat, [[1.0, 0.0], [-1.0, 1.0]], atol=1e-12)
    np.testing.assert_allclose(m.delta, 0.0, atol=1e-14)


def test_motion_integrals_harmonic_rotation():
    traj = qd.solve_epsilon(qd.QuadraticHamiltonian.harmonic(), 2.0, dt=1e-3)
    t = 0.773
    m = qd.optical_map(traj, t)
    c, s = np.cos(t), np.sin(t)
    np.testing.assert_allclose(m.lambda_mat, [[c, s], [-s, c]], atol=1e-6)


def test_motion_integrals_annihilate_classical_trajectory():
    # Lambda (p, q)(t) + Delta = (p, q)(0) pins the Delta sign: launch from
    # the origin, where the whole motion is force-driven.
    from tomoprop.oracles import classical_trajectory

    H = qd.QuadraticHamiltonian(qd.ConstantSampler(1.0), qd.ConstantSampler(0.3))
    traj = qd.solve_epsilon(H, 2.0)
    cl = classical_trajectory(H, 0.0, 0.0, np.array([0.5, 1.0, 2.0]))
    for i, t in enumerate(cl.times):
        m = qd.optical_map(traj, float(t))
        back = m.lambda_mat @ np.array([cl.p_cl[i], cl.q_cl[i]]) + m.delta
        np.testing.assert_allclose(back, 0.0, atol=1e-9)


def test_optical_map_reads_only_nodes():
    # A time between nodes is refused, not interpolated; a stop there makes
    # it a node whose raw det Lambda holds 1 to round-off.
    t = 0.5 + 3.3e-4
    with pytest.raises(RangeError, match="stops"):
        qd.optical_map(qd.solve_epsilon(mathieu(), 1.0), t)
    m = qd.optical_map(qd.solve_epsilon(mathieu(), 1.0, stops=[t]), t)
    assert abs(det(m.lambda_mat) - 1.0) < 1e-13
    assert m.t_to == t


def test_motion_integrals_range_guard():
    traj = qd.solve_epsilon(mathieu(), 1.0)
    with pytest.raises(RangeError):
        qd.optical_map(traj, 1.5)
    with pytest.raises(RangeError):
        qd.optical_map(traj, -0.5)


# ------------------------------------------------------------- optical maps

def test_optical_map_rejects_nonsymplectic():
    # A hand-built trajectory whose second node has det Lambda = 1.1.
    traj = qd.EpsilonTrajectory(
        np.array([0.0, 1.0]), np.array([1.0, 1.1]), np.array([1.0j, 1.0j]), np.zeros(2)
    )
    qd.optical_map(traj, 0.0)
    with pytest.raises(StepError):
        qd.optical_map(traj, 1.0)


class _NanAfterOne:
    """A stub omega_sq that turns NaN at t > 1; every sampler class now
    refuses a NaN coefficient at construction."""

    def __call__(self, t):
        return np.where(np.asarray(t) > 1.0, np.nan, 1.0)

    def upper_bound(self):
        return 1.0


def test_guards_refuse_nan_figures():
    # A NaN omega_sq gives a Wronskian drift and a det Lambda of NaN; both
    # compare False with their tolerance, so the guards test for the pass,
    # not the failure.
    H = qd.QuadraticHamiltonian(_NanAfterOne(), qd.ConstantSampler(0.0))
    with pytest.raises(StepError, match="Wronskian drift nan"):
        qd.solve_epsilon(H, 2.0)
    traj = qd._integrate_epsilon(H, 2.0)
    with pytest.raises(StepError, match="det Lambda = nan"):
        qd.optical_map(traj, 2.0)


def test_map_backward_interval_rejected():
    with pytest.raises(TimeError):
        qd.OpticalAffineMap(np.eye(2), np.zeros(2), t_from=1.0, t_to=0.5)


def test_harmonic_map_is_pure_rotation(tgrid):
    t = np.pi / 5
    traj = qd.solve_epsilon(qd.QuadraticHamiltonian.harmonic(), t)
    m = qd.optical_map(traj, t)
    theta0, a, b = m.frames(tgrid.thetas[:, None])
    X0 = a * tgrid.xs + b
    # a is both the X-scale and the pull-back's prefactor.
    np.testing.assert_allclose(a, 1.0, atol=1e-10)
    # Rotation shifts theta by t, wrapped into (-pi, pi] and left unfolded,
    # so X is untouched.
    shifted = tgrid.thetas[:, None] + t
    expect_theta = np.where(shifted > np.pi, shifted - 2.0 * np.pi, shifted)
    np.testing.assert_allclose(theta0, np.broadcast_to(expect_theta, theta0.shape), atol=1e-9)
    np.testing.assert_allclose(X0, np.broadcast_to(tgrid.xs, X0.shape), atol=1e-9)


def test_free_map_scales_rows(tgrid):
    traj = qd.solve_epsilon(qd.QuadraticHamiltonian.free(), 1.0)
    m = qd.optical_map(traj, 1.0)
    theta = tgrid.thetas
    _, a, b = m.frames(theta)
    X0 = a * 1.0 + b
    s, c = np.sin(theta), np.cos(theta)
    r = np.hypot(s + c, c)
    np.testing.assert_allclose(a, 1.0 / r, atol=1e-9)
    np.testing.assert_allclose(np.abs(X0) * r, 1.0, atol=1e-9)


def test_compose_matches_one_step():
    H = mathieu(force=0.3)
    traj02 = qd.solve_epsilon(H, 2.0)
    m20 = qd.optical_map(traj02, 2.0)
    split = 0.75
    m10 = qd.optical_map(qd.solve_epsilon(H, split), split)
    tail = qd.solve_epsilon(H.shifted(split), 2.0 - split)
    m21 = qd.optical_map(tail, 2.0 - split, t_from=split)
    comp = qd.compose(m21, m10)
    assert comp.t_from == 0.0
    assert comp.t_to == pytest.approx(2.0)
    np.testing.assert_allclose(comp.lambda_mat, m20.lambda_mat, atol=1e-8)
    np.testing.assert_allclose(comp.delta, m20.delta, atol=1e-8)


def test_compose_rejects_gap():
    Ha = qd.QuadraticHamiltonian.harmonic()
    m1 = qd.optical_map(qd.solve_epsilon(Ha, 1.0), 1.0)
    m2 = qd.optical_map(qd.solve_epsilon(Ha, 1.0), 1.0, t_from=1.5)
    with pytest.raises(TimeError):
        qd.compose(m2, m1)


# --------------------------------------------------------- tomogram pushing

def test_harmonic_evolution_is_twisted_shift(coherent_tomogram, tgrid):
    # pi/3 is exactly 60 theta rows on the default grid, so the evolved
    # tomogram is a pure row shift through the twisted extension.
    t = np.pi / 3
    traj = qd.solve_epsilon(qd.QuadraticHamiltonian.harmonic(), t, dt=1e-3)
    m = qd.optical_map(traj, t)
    wt = qd.evolve_tomogram(coherent_tomogram, m)
    v = coherent_tomogram.values
    ref = np.vstack([v[60:], v[:60, ::-1]])
    assert np.abs(wt.values - ref).max() < 1e-12


def test_evolution_conserves_row_norms(coherent_pure_tomogram):
    traj = qd.solve_epsilon(mathieu(), 1.0)
    m = qd.optical_map(traj, 1.0)
    wt = qd.evolve_tomogram(coherent_pure_tomogram, m)
    assert np.abs(wt.row_norms() - 1.0).max() < 1e-4
    assert wt.values.min() >= 0.0


def test_evolution_support_guard():
    tg = TomogramGrid(x_max=4.0, n_x=128, n_theta=45)
    w0 = tr.tomogram_from_wavefunction(make_vacuum(), tg)
    traj = qd.solve_epsilon(qd.QuadraticHamiltonian.free(), 3.0)
    m = qd.optical_map(traj, 3.0)
    with pytest.raises(SupportError):
        qd.evolve_tomogram(w0, m)


def test_evolve_cubic_allows_small_undershoot(coherent_tomogram):
    traj = qd.solve_epsilon(qd.QuadraticHamiltonian.free(), 0.5)
    m = qd.optical_map(traj, 0.5)
    wt = qd.evolve_tomogram(coherent_tomogram, m, interp="cubic")
    assert wt.values.min() > -1e-6


def test_evolve_identity_map_is_copy(coherent_tomogram):
    m = qd.optical_map(qd.solve_epsilon(mathieu(), 0.0), 0.0)
    wt = qd.evolve_tomogram(coherent_tomogram, m)
    np.testing.assert_array_equal(wt.values, coherent_tomogram.values)
    assert wt.values is not coherent_tomogram.values


def test_evolve_samples_all_rows_in_one_call(coherent_tomogram, monkeypatch):
    # One twisted extension (and one cubic prefilter) per evolve, not one
    # per theta row.
    calls = []
    sample = tr.Tomogram.sample_twisted

    def counted(self, *args, **kwargs):
        calls.append(1)
        return sample(self, *args, **kwargs)

    monkeypatch.setattr(tr.Tomogram, "sample_twisted", counted)
    m = qd.optical_map(qd.solve_epsilon(mathieu(0.3), 1.0), 1.0)
    qd.evolve_tomogram(coherent_tomogram, m, interp="cubic")
    assert len(calls) == 1


def _per_row_reference(w0, m, interp):
    """Row-by-row pull-back with the frames written out from Lambda, Delta:
    N' = N Lambda^-1, r = |N'|, X0 = (X + N' . Delta) / r, folded into
    [0, pi) with the twisted parity flip."""
    lam, delta = m.lambda_mat, m.delta
    inv = np.array([[lam[1, 1], -lam[0, 1]], [-lam[1, 0], lam[0, 0]]])
    tg = w0.grid
    rows = np.empty_like(w0.values)
    for j, theta in enumerate(tg.thetas):
        n1, n2 = np.array([np.sin(theta), np.cos(theta)]) @ inv
        r = np.hypot(n1, n2)
        X0 = (tg.xs + n1 * delta[0] + n2 * delta[1]) / r
        theta0 = np.arctan2(n1, n2)
        if theta0 < 0.0:
            theta0, X0 = theta0 + np.pi, -X0
        rows[j] = w0.sample_twisted(X0, theta0, interp=interp) / r
    return rows


@pytest.mark.parametrize("interp", ["linear", "cubic"])
def test_evolve_matches_per_row_reference(coherent_tomogram, interp):
    m = qd.optical_map(qd.solve_epsilon(mathieu(0.3), 1.3), 1.3)
    wt = qd.evolve_tomogram(coherent_tomogram, m, interp=interp)
    ref = _per_row_reference(coherent_tomogram, m, interp)
    assert np.abs(wt.values - ref).max() < 1e-14


def test_table_sampler_violations():
    assert qd.TableSampler.violations([0.0, 1.0], [1.0, 2.0]) == []
    assert qd.TableSampler.violations([0.0, 2.0], [1.0, 2.0], t_end=2.0) == []
    (short,) = qd.TableSampler.violations([0.0, 1.0], [1.0, 2.0], t_end=2.0)
    assert "cover [0, 1]" in short
    (late,) = qd.TableSampler.violations([0.5, 3.0], [1.0, 2.0], t_end=2.0)
    assert "cover [0.5, 3]" in late
    assert len(qd.TableSampler.violations([0.0, 0.0, 0.5], [1.0, 2.0, 3.0], t_end=1.0)) == 2
    assert qd.TableSampler.violations([0.0], [1.0]) == [
        "times and values must be matching 1-d tables of at least 2 rows"
    ]
    assert qd.TableSampler.violations([0.0, 1.0, np.inf], [1.0, 2.0, 1.0]) == [
        "times and values must be finite"
    ]
