"""Property tests over random quadratic Hamiltonians, times and states.

Both evolution backends run on a small grid (256 X by 45 theta) from
coherent states that stay well inside the X window; the affine maps are
checked for associative composition.  Examples are bounded and drawn
deterministically, so the tier-1 run time stays flat and reruns repeat.

256 X points is the coarsest X axis on this window that the map backend's
own check accepts: at 128 the bilinear pull-back moves row norms by
1.1-1.3e-3 under any Hamiltonian that is not a pure rotation, past its
1e-3 tolerance, while 256 keeps them at 1-3e-4.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from tomoprop import pde_evolution as pde
from tomoprop import quad_dynamics as qd
from tomoprop import transforms as tr
from tomoprop.cli import _auto_dt
from tomoprop.grids import CoordinateGrid, TomogramGrid
from tomoprop.states import make_coherent

GRID = CoordinateGrid(q_max=8.0, n_q=128)
TGRID = TomogramGrid(x_max=8.0, n_x=256, n_theta=45)

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)

mathieu = st.builds(
    lambda b, freq, f: qd.QuadraticHamiltonian(
        qd.CosineSampler(1.0, b, freq), qd.ConstantSampler(f)
    ),
    st.floats(-0.3, 0.3), st.floats(0.5, 3.0), st.floats(-0.5, 0.5),
)
forced = st.builds(
    lambda w2, f: qd.QuadraticHamiltonian(qd.ConstantSampler(w2), qd.ConstantSampler(f)),
    st.floats(0.0, 1.5), st.floats(-0.5, 0.5),
)
hamiltonians = st.one_of(mathieu, forced)
# With |Re alpha|, |Im alpha| <= 0.5 and |f| <= 0.5 the centre stays within
# |X| < 2.8 up to t = 1.5 and rows widen at most 2x, so the mass an evolved
# row loses past |X| = 8 stays near 1e-4.
alphas = st.builds(complex, st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))


@PROPERTY_SETTINGS
@given(H=hamiltonians, T=st.floats(0.05, 1.5), alpha=alphas)
def test_backends_conserve_rows_and_agree(H, T, alpha):
    w0 = tr.tomogram_from_wavefunction(make_coherent(alpha, GRID), TGRID)
    dt = _auto_dt(H)
    m = qd.optical_map(qd.solve_epsilon(H, T, dt), T)
    w_map = qd.evolve_tomogram(w0, m)
    w_pde = pde.evolve_semilagrangian(w0, H, T, dt)
    for w, norm_tol in ((w_map, 1e-3), (w_pde, 2e-3)):
        assert np.abs(w.row_norms() - 1.0).max() < norm_tol
        assert w.values.min() >= 0.0
    gap = float(np.mean(np.abs(w_map.values - w_pde.values) @ TGRID.x_trapezoid_weights))
    assert gap < 1e-10


def _segment(H, t_from, t_to):
    span = t_to - t_from
    traj = qd.solve_epsilon(H.shifted(t_from), span)
    return qd.optical_map(traj, span, t_from=t_from)


@PROPERTY_SETTINGS
@given(H=hamiltonians, steps=st.lists(st.floats(0.05, 0.6), min_size=3, max_size=3))
def test_compose_is_associative(H, steps):
    t1, t2, t3 = np.cumsum(steps)
    m1, m2, m3 = _segment(H, 0.0, t1), _segment(H, t1, t2), _segment(H, t2, t3)
    left = qd.compose(qd.compose(m3, m2), m1)
    right = qd.compose(m3, qd.compose(m2, m1))
    assert (left.t_from, left.t_to) == (right.t_from, right.t_to)
    np.testing.assert_allclose(left.lambda_mat, right.lambda_mat, rtol=0.0, atol=1e-8)
    np.testing.assert_allclose(left.delta, right.delta, rtol=0.0, atol=1e-8)
