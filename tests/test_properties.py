"""Property tests over random quadratic Hamiltonians, times and states.

Both evolution backends run on a small grid (256 X by 45 theta) from
coherent states that stay well inside the X window; the affine maps are
checked for associative composition.  Each property runs on the corners
of its domain plus 20 cases from a seeded numpy generator, all passed to
Hypothesis as explicit examples: Hypothesis itself draws nothing, because
its float draws are seeded with the numeric literals of every loaded local
module, so a literal edited anywhere in the package would move its cases.
Tier-1 run time stays flat and reruns repeat.

256 X points is the coarsest X axis on this window that the backends'
shared row-norm check (transforms.ROW_NORM_TOL = 1e-3) accepts: at 128
the bilinear pull-back moves row norms by 1.1-1.3e-3 under any
Hamiltonian that is not a pure rotation, while 256 keeps them at 1-3e-4.
"""

import numpy as np
from hypothesis import Phase, example, given, settings, strategies as st

from tomoprop import pde_evolution as pde
from tomoprop import quad_dynamics as qd
from tomoprop import transforms as tr
from tomoprop.grids import CoordinateGrid, TomogramGrid
from tomoprop.states import make_coherent

GRID = CoordinateGrid(q_max=8.0, n_q=128)
TGRID = TomogramGrid(x_max=8.0, n_x=256, n_theta=45)

N_DRAWN = 20


def mathieu(b, freq, f):
    return qd.QuadraticHamiltonian(qd.CosineSampler(1.0, b, freq), qd.ConstantSampler(f))


def forced(w2, f):
    return qd.QuadraticHamiltonian(qd.ConstantSampler(w2), qd.ConstantSampler(f))


def draw_hamiltonian(rng):
    """Mathieu with b in [-0.3, 0.3], freq in [0.5, 3], f in [-0.5, 0.5], or
    a constant omega^2 in [0, 1.5] with the same force, at even odds."""
    if rng.random() < 0.5:
        return mathieu(rng.uniform(-0.3, 0.3), rng.uniform(0.5, 3.0), rng.uniform(-0.5, 0.5))
    return forced(rng.uniform(0.0, 1.5), rng.uniform(-0.5, 0.5))


# Corners first: the free particle at rest, each family at its extremes.
CORNER_HAMILTONIANS = [forced(0.0, 0.0), forced(0.0, 0.5), forced(1.5, -0.5),
                       mathieu(0.3, 3.0, 0.5), mathieu(-0.3, 0.5, -0.5)]


def explicit_cases(cases):
    """Run a property on exactly these cases; Hypothesis still reports the
    failing case, but its generate phase is off, so the placeholder
    strategies are never drawn."""
    def wrap(test):
        for case in reversed(cases):
            test = example(**case)(test)
        settle = settings(phases=[Phase.explicit], deadline=None, database=None)
        return settle(given(**{name: st.none() for name in cases[0]})(test))
    return wrap


# With |Re alpha|, |Im alpha| <= 0.5 and |f| <= 0.5 the centre stays within
# |X| < 2.8 up to t = 1.5 and rows widen at most 2x, so the mass an evolved
# row loses past |X| = 8 stays near 1e-4.
_rng = np.random.default_rng(2011)
BACKEND_CASES = [
    dict(H=H, T=T, alpha=alpha)
    for H, T, alpha in zip(CORNER_HAMILTONIANS, (0.05, 1.5, 1.5, 1.5, 1.5),
                           (0.0, 0.5 + 0.5j, -0.5 - 0.5j, 0.5 - 0.5j, -0.5 + 0.5j))
] + [
    dict(H=draw_hamiltonian(_rng), T=_rng.uniform(0.05, 1.5),
         alpha=complex(*_rng.uniform(-0.5, 0.5, 2)))
    for _ in range(N_DRAWN)
]
COMPOSE_CASES = [
    dict(H=H, steps=steps)
    for H, steps in zip(CORNER_HAMILTONIANS, ([0.05] * 3, [0.6] * 3, [0.6] * 3,
                                             [0.6] * 3, [0.05, 0.6, 0.05]))
] + [
    dict(H=draw_hamiltonian(_rng), steps=list(_rng.uniform(0.05, 0.6, 3)))
    for _ in range(N_DRAWN)
]


@explicit_cases(BACKEND_CASES)
def test_backends_conserve_rows_and_agree(H, T, alpha):
    w0 = tr.tomogram_from_wavefunction(make_coherent(alpha, GRID), TGRID)
    dt = qd.choose_step(H, T)[0]
    m = qd.optical_map(qd.solve_epsilon(H, T, dt), T)
    w_map = qd.evolve_tomogram(w0, m)
    w_pde = pde.evolve_semilagrangian(w0, H, T, dt)[-1]
    for w in (w_map, w_pde):
        assert np.abs(w.row_norms() - 1.0).max() < tr.ROW_NORM_TOL
        assert w.values.min() >= 0.0
    gap = float(np.mean(np.abs(w_map.values - w_pde.values) @ TGRID.x_trapezoid_weights))
    assert gap < 1e-10


def _segment(H, t_from, t_to):
    span = t_to - t_from
    traj = qd.solve_epsilon(H.shifted(t_from), span)
    return qd.optical_map(traj, span, t_from=t_from)


@explicit_cases(COMPOSE_CASES)
def test_compose_is_associative(H, steps):
    t1, t2, t3 = np.cumsum(steps)
    m1, m2, m3 = _segment(H, 0.0, t1), _segment(H, t1, t2), _segment(H, t2, t3)
    left = qd.compose(qd.compose(m3, m2), m1)
    right = qd.compose(m3, qd.compose(m2, m1))
    assert (left.t_from, left.t_to) == (right.t_from, right.t_to)
    np.testing.assert_allclose(left.lambda_mat, right.lambda_mat, rtol=0.0, atol=1e-8)
    np.testing.assert_allclose(left.delta, right.delta, rtol=0.0, atol=1e-8)
