"""Semi-Lagrangian evolution of optical tomograms for quadratic Hamiltonians.

For H = p^2/2 + omega^2(t) q^2/2 - f(t) q the tomogram obeys a first-order
advection equation in (X, theta) with a multiplicative dilation source.  Its
characteristics satisfy

    dtheta/dt    = -(cos^2 theta + omega^2(t) sin^2 theta)
    dX/dt        = (1 - omega^2(t)) sin(theta) cos(theta) X + f(t) sin(theta)
    d(ln amp)/dt = -(1 - omega^2(t)) sin(theta) cos(theta)

and the solution is constant-times-amp along them.  The solver traces every
grid node of every requested time backward to t = 0 with classic RK4 steps,
samples the initial tomogram at the feet through the twisted extension, and
multiplies by the accumulated amplitude.  All requested times share one
backward sweep from the last of them: each time is a node of the sweep, and
its rows join the sweep when it reaches that node.  For omega^2 = 1, f = 0
the field collapses to dtheta/dt = -1 and the evolution is a pure rotation
of the theta axis.

Theta characteristics run on the whole real line; folding into [0, pi)
happens only inside the twisted sampler, so no step ever crosses the branch
seam of the extension.

The two backends share the time-stepping machinery of quad_dynamics (the
node rule and step guards of _time_nodes, the one stability ceiling
STEP_LIMIT, the default step auto_dt, sized from an error budget on both
fields, and the RK4 stepper _rk4) and the final pull-back of one affine
frame (theta0, a, b) per row (Tomogram.pull_back: X-window edge guard on the
row ends, twisted sampling of every row in cache-sized blocks, and one
validation, with transforms.ROW_NORM_TOL on every row).  Each
integrates its own field: this module the characteristics of the feet
(theta, a X + nu) and amplitudes, quad_dynamics eps(t) and beta(t).
Their agreement checks the two fields; the referees
that share none of this machinery are oracles.classical_trajectory
(scipy solve_ivp), the Wronskian check of solve_epsilon and the per-node
RK4 integration in the tests.
"""

import numpy as np

from .quad_dynamics import STEP_LIMIT, _n_steps, _rk4, _time_nodes
from .transforms import Tomogram


def _field(y, w2, f):
    """d(theta, nu, log_amp)/dt for the (3, rows) state at one time."""
    s = np.sin(y[0])
    c = np.cos(y[0])
    b = (1.0 - w2) * s * c
    k = np.empty_like(y)
    k[0] = -(c * c + w2 * s * s)
    k[1] = b * y[1] + f * s
    np.negative(b, out=k[2])
    return k


def evolve_semilagrangian(w0, hamiltonian, T, dt=None, stops=()):
    """Evolve a tomogram by backward characteristics to every time of
    sorted(set(stops) | {T}), returned in that order.

    One backward sweep from T serves every time.  As in solve_epsilon, each
    time is a node and each segment between consecutive nodes (and 0) is
    split into equal RK4 steps no longer than dt, by default
    quad_dynamics.auto_dt(hamiltonian, T); a time's rows join the sweep at
    its node.  Each final grid node is traced back to t = 0, w0 is
    sampled at the feet (bilinearly, which preserves positivity) and scaled
    by the accumulated amplitude.

    dX/dt is affine in X at fixed theta, so X(0) = a X + nu per theta row;
    the RK4 stages are themselves affine in the state, which makes the
    factored integration agree with tracing every node separately up to
    float rounding.  The sweep carries (theta, nu, log_amp) per row: a
    obeys da/dt = b a where d(log_amp)/dt = -b, so a = exp(-log_amp), and
    each time's rows are the pull-back frame (theta0, a, b) = (theta, a, nu),
    the affine map's (theta0, 1/r, b).  A time of 0 gives a copy of w0.

    Raises TimeError for T < 0 or a stop outside [0, T], StepError unless
    0 < dt <= STEP_LIMIT / max(1, sup omega^2), and SupportError when a foot
    leaves the X window while w0 still carries mass at its edge.
    """
    nodes, dt = _time_nodes(T, stops, dt, hamiltonian)
    wanted = {float(s) for s in stops} | {float(T)}
    tg = w0.grid

    # The sweep runs from T down to 0; block k of the state's rows belongs
    # to sweep[k].
    sweep = nodes[::-1]
    start = np.zeros((3, tg.n_theta))
    start[0] = tg.thetas
    y = np.empty((3, 0))
    for t_hi, t_lo in zip(sweep, sweep[1:]):
        y = np.concatenate((y, start), axis=1)
        _rk4(_field, y, t_hi, t_lo, _n_steps(t_hi, t_lo, dt), hamiltonian)

    # Backward accumulation flips the sign of the ln-amp integral.
    amp = np.exp(-y[2])
    out = {}
    for k, t in enumerate(sweep[:-1]):
        rows = slice(k * tg.n_theta, (k + 1) * tg.n_theta)
        out[t] = w0.pull_back(y[0, rows], amp[rows], y[1, rows])
    if 0.0 in wanted:
        out[0.0] = Tomogram(tg, w0.values.copy())
    return [out[t] for t in nodes if t in wanted]
