"""Semi-Lagrangian evolution of optical tomograms for quadratic Hamiltonians.

For H = p^2/2 + omega^2(t) q^2/2 - f(t) q the tomogram obeys a first-order
advection equation in (X, theta) with a multiplicative dilation source.  Its
characteristics satisfy

    dtheta/dt    = -(cos^2 theta + omega^2(t) sin^2 theta)
    dX/dt        = (1 - omega^2(t)) sin(theta) cos(theta) X + f(t) sin(theta)
    d(ln amp)/dt = -(1 - omega^2(t)) sin(theta) cos(theta)

and the solution is constant-times-amp along them.  The solver traces every
final grid node backward to t = 0 with classic RK4 steps, samples the initial
tomogram at the feet through the twisted extension, and multiplies by the
accumulated amplitude.  For omega^2 = 1, f = 0 the field collapses to
dtheta/dt = -1 and the evolution is a pure rotation of the theta axis.

Theta characteristics run on the whole real line; folding into [0, pi)
happens only inside the twisted sampler, so no step ever crosses the branch
seam of the extension.

The feet (theta, mu X + nu) and amplitudes are integrated here, independently
of the affine-map route in quad_dynamics; the two backends share only the
final row-affine pull-back (Tomogram.pull_back: twisted sampling, X-window
edge guard, validation), which is what makes their agreement a meaningful
cross-check of the integrators.
"""

import numpy as np

from .errors import StepError, TimeError
from .transforms import Tomogram

# Ceiling on the characteristic time step, tightened when omega^2 exceeds 1.
STEP_LIMIT = 5e-3


def evolve_semilagrangian(w0, hamiltonian, T, dt=1e-3, interp="linear"):
    """Evolve a tomogram to time T by backward characteristics.

    Each final grid node is traced back to t = 0 with RK4; w0 is sampled at
    the feet (bilinear by default, positivity preserving) and scaled by the
    accumulated amplitude.  dX/dt is affine in X at fixed theta, so one
    fundamental pair (mu, nu) per theta row carries all of its X nodes,
    X(0) = mu X + nu; the RK4 stages are themselves affine in the state,
    which makes the factored integration agree with tracing every node
    separately up to float rounding.

    Raises StepError when dt exceeds the advection accuracy budget and
    SupportError when a foot leaves the X window while w0 still carries
    mass at its edge.
    """
    T = float(T)
    dt = float(dt)
    if T < 0.0:
        raise TimeError(f"evolution time must be nonnegative, got {T:g}")
    sup = max(1.0, float(hamiltonian.omega_sq.upper_bound()))
    limit = STEP_LIMIT / sup
    if dt <= 0.0 or dt > limit * (1.0 + 1e-12):
        raise StepError(
            f"characteristic step {dt:g} outside (0, {limit:g}] "
            f"for sup omega^2 = {sup:g}"
        )
    tg = w0.grid
    if T == 0.0:
        return Tomogram(tg, w0.values.copy())

    n = int(np.ceil(T / dt - 1e-9))
    h = T / n

    theta = tg.thetas.astype(float).copy()
    mu = np.ones_like(theta)
    nu = np.zeros_like(theta)
    log_amp = np.zeros_like(theta)

    def stages(th, m, v, t):
        w2 = float(hamiltonian.omega_sq(t))
        f = float(hamiltonian.force(t))
        s = np.sin(th)
        c = np.cos(th)
        b = (1.0 - w2) * s * c
        return -(c * c + w2 * s * s), b * m, b * v + f * s, -b

    t_now = T
    for _ in range(n):
        k1t, k1m, k1v, k1a = stages(theta, mu, nu, t_now)
        k2t, k2m, k2v, k2a = stages(
            theta - 0.5 * h * k1t, mu - 0.5 * h * k1m, nu - 0.5 * h * k1v,
            t_now - 0.5 * h,
        )
        k3t, k3m, k3v, k3a = stages(
            theta - 0.5 * h * k2t, mu - 0.5 * h * k2m, nu - 0.5 * h * k2v,
            t_now - 0.5 * h,
        )
        k4t, k4m, k4v, k4a = stages(
            theta - h * k3t, mu - h * k3m, nu - h * k3v, t_now - h,
        )
        theta -= (h / 6.0) * (k1t + 2.0 * k2t + 2.0 * k3t + k4t)
        mu -= (h / 6.0) * (k1m + 2.0 * k2m + 2.0 * k3m + k4m)
        nu -= (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        log_amp -= (h / 6.0) * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        t_now -= h

    # Backward accumulation flips the sign of the ln-amp integral.
    return w0.pull_back(theta, mu, nu, np.exp(-log_amp), interp=interp, norm_tol=2e-3)
