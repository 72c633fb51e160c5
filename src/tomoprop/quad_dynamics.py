"""Affine tomogram propagation for forced parametric oscillators.

The Hamiltonian family is H = p^2/2 + omega_sq(t) q^2/2 - f(t) q.  Its
classical complex solution eps(t) (eps'' + omega_sq eps = 0, eps(0) = 1,
eps'(0) = i) and the forcing quadrature beta(t) assemble into linear
integrals of motion: a symplectic matrix Lambda(t) and a drift vector
Delta(t) satisfying Lambda(t) (p, q)(t) + Delta(t) = (p, q)(0) along every
classical trajectory.  The tomogram then evolves by a deterministic affine
reference-frame map w_t(X, theta) = a w_0(a X + b, theta0) with a = 1/r,
the delta form of the propagator.
optical_map reads Lambda and Delta straight off a node of the RK4 solve
of eps(t); solve_epsilon(..., stops=times) puts a node at every time
wanted.  The node rule, step guards, one stability ceiling (STEP_LIMIT),
default step (auto_dt) and RK4 stepper below also integrate the
characteristics of pde_evolution; each backend supplies its own field.
auto_dt(H, T) sizes the step from an error budget: the largest step of a
1-2-5 ladder, under the ceiling, whose step-doubling estimate of the
error over [0, T] stays under STEP_TARGET on both fields.
The two health figures live here and nowhere else:
EpsilonTrajectory.wronskian_drift and OpticalAffineMap.det.  The guards
of solve_epsilon and optical_map read them, and so does the CLI's
validate task, through the unguarded _integrate_epsilon and _map_at_node
so that a figure beyond its guard is reported, not raised.

Sign convention: Delta = (sqrt(2) Im beta, sqrt(2) Re beta).  The sign of
the first component is pinned by requiring the integrals of motion to
annihilate classical trajectories launched from the origin (equivalently,
by the Ehrenfest law q' = p, p' = -omega_sq q + f for first moments of
evolved tomograms); see the repository README for the derivation sketch.
"""

import math

import numpy as np
from dataclasses import dataclass

from .errors import RangeError, StepError, TimeError
from .transforms import Tomogram

# RK4 nodes hold det Lambda = 1 to ~1e-12; a trajectory built by hand may not.
DET_TOL = 1e-8
WRONSKIAN_TOL = 1e-8

# Stability ceiling on the step of both integrators, divided by
# max(1, sup omega_sq).
STEP_LIMIT = 2e-2
# The step rule's error budget: the step-doubling estimate of the error at
# T, each entry relative to max(1, |entry|), on the entries of Lambda and
# Delta and on the PDE frames (theta0, a, b) traced back from T.
STEP_TARGET = 1e-10
# Initial angles of the PDE frames the rule probes: the midpoints of
# [0, pi) at the default 180 rows.
_PROBE_THETAS = (np.arange(180) + 0.5) * (np.pi / 180)

# How far outside its table a TableSampler may be read (integrator rounding).
TABLE_SLACK = 1e-12


def _refuse(kind, bad):
    if bad:
        raise ValueError(f"{kind} sampler: " + "; ".join(bad))


def _non_finite(**coefficients):
    """Messages for the coefficients that are not finite numbers."""
    return [f"{k} must be finite, got {v}" for k, v in coefficients.items()
            if not math.isfinite(v)]


@dataclass(frozen=True)
class ConstantSampler:
    """Time-independent coefficient."""

    value: float

    def __post_init__(self):
        _refuse("constant", self.violations(self.value))

    @staticmethod
    def violations(value, t_end=None):
        """Messages for every bound the coefficient breaks; empty when
        valid.  A constant covers any span [0, t_end]."""
        return _non_finite(value=value)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.full(t.shape, float(self.value))
        return float(out) if out.shape == () else out

    def upper_bound(self):
        return float(self.value)

    def shifted(self, dt):
        return self


@dataclass(frozen=True)
class CosineSampler:
    """a + b * cos(freq * t + phase); phase supports time-origin shifts."""

    a: float
    b: float
    freq: float
    phase: float = 0.0

    def __post_init__(self):
        _refuse("cosine", self.violations(self.a, self.b, self.freq, self.phase))

    @staticmethod
    def violations(a, b, freq, phase=0.0, t_end=None):
        """Messages for every bound the coefficients break; empty when
        valid.  A cosine covers any span [0, t_end]."""
        return _non_finite(a=a, b=b, freq=freq, phase=phase)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = self.a + self.b * np.cos(self.freq * t + self.phase)
        return float(out) if out.shape == () else out

    def upper_bound(self):
        return float(self.a + abs(self.b))

    def shifted(self, dt):
        return CosineSampler(self.a, self.b, self.freq, self.phase + self.freq * dt)


@dataclass(frozen=True)
class TableSampler:
    """Linear interpolation of tabulated samples; defined only on the table range."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        _refuse("table", self.violations(self.times, self.values))
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))

    @staticmethod
    def violations(times, values, t_end=None):
        """Messages for every bound the table breaks; empty when valid.

        With t_end given, the table must also cover [0, t_end].
        """
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or times.size < 2 or values.shape != times.shape:
            return ["times and values must be matching 1-d tables of at least 2 rows"]
        bad = []
        if not (np.isfinite(times).all() and np.isfinite(values).all()):
            bad.append("times and values must be finite")
        if np.any(np.diff(times) <= 0):
            bad.append("times must be strictly increasing")
        lo, hi = float(times[0]), float(times[-1])
        if t_end is not None and (lo > TABLE_SLACK or hi < t_end - TABLE_SLACK):
            bad.append(f"times cover [{lo:g}, {hi:g}], not the job's [0, {t_end:g}]")
        return bad

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        lo, hi = self.times[0], self.times[-1]
        if np.any(t < lo - TABLE_SLACK) or np.any(t > hi + TABLE_SLACK):
            raise RangeError(
                f"sampler evaluated at t outside its table range [{lo:g}, {hi:g}]"
            )
        out = np.interp(t, self.times, self.values)
        return float(out) if out.shape == () else out

    def upper_bound(self):
        return float(self.values.max())

    def shifted(self, dt):
        return TableSampler(self.times - dt, self.values)


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """H = p^2/2 + omega_sq(t) q^2/2 - f(t) q."""

    omega_sq: object
    force: object

    @classmethod
    def free(cls):
        return cls(ConstantSampler(0.0), ConstantSampler(0.0))

    @classmethod
    def harmonic(cls):
        return cls(ConstantSampler(1.0), ConstantSampler(0.0))

    def shifted(self, dt):
        """Same physics with the time origin moved to dt."""
        return QuadraticHamiltonian(self.omega_sq.shifted(dt), self.force.shifted(dt))

    @property
    def step_scale(self):
        """max(1, sup omega_sq): the step ceiling of both integrators is
        STEP_LIMIT divided by this."""
        return max(1.0, float(self.omega_sq.upper_bound()))


@dataclass(frozen=True)
class EpsilonTrajectory:
    """Stored RK4 nodes of eps, eps', beta on [0, T]."""

    times: np.ndarray
    eps: np.ndarray
    eps_dot: np.ndarray
    beta: np.ndarray

    @property
    def final_time(self):
        return float(self.times[-1])

    @property
    def wronskian_drift(self):
        """max over nodes of |2 Im(eps' eps*) - 2|; 0 for exact dynamics."""
        return float(np.abs(2.0 * np.imag(self.eps_dot * np.conj(self.eps)) - 2.0).max())


def _ladder_floor(h):
    """The largest of 1, 2 and 5 times a power of ten that is <= h."""
    k = math.floor(math.log10(h))
    while float(f"1e{k + 1}") <= h:
        k += 1
    while float(f"1e{k}") > h:
        k -= 1
    return next(v for v in (float(f"{d}e{k}") for d in (5, 2, 1)) if v <= h)


def _relative_gap(y, ref):
    """max |y - ref| / max(1, |ref|) over the entries."""
    return float((np.abs(y - ref) / np.maximum(1.0, np.abs(ref))).max())


def _probe(H, T, n):
    """Both fields at n equal RK4 steps over [0, T]: the entries of Lambda
    and Delta at T, and the PDE frames (theta0, a, b) of _PROBE_THETAS
    traced back from T to 0."""
    # pde_evolution imports this module, so its field is read on call.
    from .pde_evolution import _field

    eps = np.array([1.0, 1.0j, 0.0])
    _rk4(_eps_field, eps, 0.0, T, n, H)
    m = _map_of(*eps, 0.0, T)
    y = np.zeros((3, _PROBE_THETAS.size))
    y[0] = _PROBE_THETAS
    _rk4(_field, y, T, 0.0, n, H)
    return np.append(m.lambda_mat, m.delta), np.array([y[0], np.exp(-y[2]), y[1]])


def choose_step(H, T):
    """(dt, error estimate at dt): the step rule of both integrators on
    [0, T], a function of (H, T) alone.

    Step doubling (Hairer, Norsett & Wanner, Solving ODEs I, II.4): both
    fields are solved in n equal steps of h no longer than the ceiling
    STEP_LIMIT / max(1, sup omega_sq), and in 2n; 16/15 of the larger
    relative gap between the two is the error of the h solve.  RK4's
    error goes as h^4, so 0.9 h (STEP_TARGET / err)^(1/4) is the step
    that meets STEP_TARGET; dt is that step, at most h, rounded down onto
    the 1-2-5 ladder, which keeps it a short decimal that a last-bit
    change in the probe rarely moves.  The estimate returned is err
    (dt / h)^4.  The probes call only private code.
    """
    ceiling = STEP_LIMIT / H.step_scale
    if T == 0.0:
        return _ladder_floor(ceiling), 0.0
    n = _n_steps(0.0, T, ceiling)
    h = T / n
    coarse, fine = _probe(H, T, n), _probe(H, T, 2 * n)
    err = 16.0 / 15.0 * max(_relative_gap(c, f) for c, f in zip(coarse, fine))
    # An exact probe (err 0) keeps h; so does a probe that overflowed
    # (err inf or NaN), and the solver guards then refuse the solve.
    scaled = 0.9 * h * (STEP_TARGET / err) ** 0.25 if 0.0 < err < math.inf else h
    dt = _ladder_floor(min(h, scaled))
    return dt, err * (dt / h) ** 4


def auto_dt(H, T):
    """The default step of solve_epsilon and evolve_semilagrangian, and
    the step of every task: choose_step(H, T)'s dt."""
    return choose_step(H, T)[0]


def _time_nodes(T, stops, dt, H):
    """(sorted({0, T} | stops), dt), after the guards both integrators
    share: TimeError for T < 0 or a stop outside [0, T], StepError unless
    0 < dt <= STEP_LIMIT / H.step_scale.  dt None is auto_dt(H, T)."""
    T = float(T)
    if T < 0.0:
        raise TimeError(f"evolution time must be nonnegative, got {T:g}")
    nodes = sorted({0.0, T} | {float(s) for s in stops})
    bad = [s for s in nodes if not 0.0 <= s <= T]
    if bad:
        raise TimeError(f"stop {bad[0]:g} outside [0, {T:g}]")
    if dt is None:
        dt = auto_dt(H, T)
    cap = STEP_LIMIT / H.step_scale
    if not 0.0 < dt <= cap * (1.0 + 1e-12):
        raise StepError(
            f"dt = {dt:g} outside (0, {STEP_LIMIT:g}/max(1, sup omega_sq)] = (0, {cap:g}]"
        )
    return nodes, dt


def _n_steps(t0, t1, dt):
    """Equal steps that split [t0, t1] with none longer than dt."""
    return max(1, int(np.ceil(abs(t1 - t0) / dt - 1e-9)))


def _rk4(field, y, t0, t1, n, H, trace=None):
    """Advance y in place from t0 to t1 (either direction) by n classic RK4
    steps of h = (t1 - t0) / n.  field(y, omega_sq, f) is the derivative;
    omega_sq and f are sampled once, at the 2n + 1 stage times
    linspace(t0, t1, 2n + 1), so a TableSampler sees exact segment ends.
    Step i's state is written to trace[i] when trace is given."""
    h = (t1 - t0) / n
    ts = np.linspace(t0, t1, 2 * n + 1)
    w2s = H.omega_sq(ts).tolist()
    fs = H.force(ts).tolist()
    for i in range(0, 2 * n, 2):
        k1 = field(y, w2s[i], fs[i])
        k2 = field(y + 0.5 * h * k1, w2s[i + 1], fs[i + 1])
        k3 = field(y + 0.5 * h * k2, w2s[i + 1], fs[i + 1])
        k4 = field(y + h * k3, w2s[i + 2], fs[i + 2])
        y += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if trace is not None:
            trace[i // 2] = y


def _eps_field(y, w2, f):
    """d(eps, eps', beta)/dt."""
    return np.array([y[1], -w2 * y[0], (-1j / np.sqrt(2.0)) * y[0] * f])


def _integrate_epsilon(H, T, dt=None, stops=()):
    """solve_epsilon without its Wronskian guard: the node and step guards
    of _time_nodes, then the RK4 solve.  The validate task reads the drift
    of this trajectory, so a drift beyond the guard shows as a failing
    check."""
    nodes, dt = _time_nodes(T, stops, dt, H)
    y = np.array([1.0, 1.0j, 0.0])
    times, states = [np.zeros(1)], [y[None].copy()]
    for t0, t1 in zip(nodes, nodes[1:]):
        n = _n_steps(t0, t1, dt)
        times.append(np.linspace(t0, t1, n + 1)[1:])
        states.append(np.empty((n, 3), dtype=complex))
        _rk4(_eps_field, y, t0, t1, n, H, trace=states[-1])
    return EpsilonTrajectory(np.concatenate(times), *np.concatenate(states).T.copy())


def solve_epsilon(H, T, dt=None, stops=()):
    """Integrate eps'' + omega_sq(t) eps = 0 with eps(0)=1, eps'(0)=i,
    accumulating beta' = -(i/sqrt(2)) eps f(t), by classic RK4.

    Every time in stops is made a node: each segment between consecutive
    nodes is split into equal steps no longer than dt, so the first segment
    is the trajectory solve_epsilon(H, stop) gives and optical_map can read
    the map to every stop.  Without dt the step is auto_dt(H, T), the one
    evolve_semilagrangian and the CLI tasks take.

    Raises TimeError for T < 0 or a stop outside [0, T] and StepError when
    dt exceeds STEP_LIMIT / max(1, sup omega_sq) or the Wronskian
    2 Im(eps' eps*) = 2 drifts beyond WRONSKIAN_TOL at any node.
    """
    traj = _integrate_epsilon(H, T, dt, stops)
    drift = traj.wronskian_drift
    # Written so that a NaN drift fails the guard too.
    if not drift <= WRONSKIAN_TOL:
        raise StepError(
            f"Wronskian drift {drift:.3e} exceeds {WRONSKIAN_TOL:g}; reduce dt"
        )
    return traj


@dataclass(frozen=True)
class OpticalAffineMap:
    """Reference-frame map (X, theta) -> (X0, theta0) over [t_from, t_to].

    With the row vector N = (sin theta, cos theta) and N' = N Lambda^-1:
    r = |N'|, theta0 = atan2(N'_1, N'_2) in (-pi, pi], X0 = (X + N' . Delta)/r.
    theta0 is left unfolded; Tomogram.sample_twisted reads it through the
    twisted extension.  X0 = a X + b is affine in X at fixed theta, and the
    propagated tomogram is a w0(X0, theta0): frames() gives (theta0, a, b).
    """

    lambda_mat: np.ndarray
    delta: np.ndarray
    t_from: float
    t_to: float

    def __post_init__(self):
        object.__setattr__(self, "lambda_mat", np.asarray(self.lambda_mat, dtype=float))
        object.__setattr__(self, "delta", np.asarray(self.delta, dtype=float))
        if self.t_to < self.t_from - 1e-12:
            raise TimeError(
                f"map runs backward: t_to = {self.t_to:g} < t_from = {self.t_from:g}"
            )

    @property
    def det(self):
        """det Lambda; 1 for a symplectic map."""
        lam = self.lambda_mat
        return float(lam[0, 0] * lam[1, 1] - lam[0, 1] * lam[1, 0])

    @property
    def is_identity(self):
        """Exactly the identity: no rotation, squeeze or drift."""
        return bool(np.array_equal(self.lambda_mat, np.eye(2)) and not np.any(self.delta))

    def frames(self, theta):
        """Per-angle frames (theta0, a, b) with X0 = a X + b:
        theta0 = atan2(N'_1, N'_2), a = 1/r, b = a (N' . Delta).  The X-scale
        a is also the prefactor of the pull-back."""
        theta = np.asarray(theta, dtype=float)
        lam = self.lambda_mat
        # det Lambda = 1, so the inverse is the adjugate.
        inv = np.array([[lam[1, 1], -lam[0, 1]], [-lam[1, 0], lam[0, 0]]])
        s, c = np.sin(theta), np.cos(theta)
        n1 = s * inv[0, 0] + c * inv[1, 0]
        n2 = s * inv[0, 1] + c * inv[1, 1]
        a = 1.0 / np.hypot(n1, n2)
        return np.arctan2(n1, n2), a, a * (n1 * self.delta[0] + n2 * self.delta[1])


def _map_at_node(traj, t, t_from=0.0):
    """optical_map without its det Lambda guard; the node check stays."""
    t = float(t)
    times = traj.times
    i = int(np.abs(times - t).argmin())
    if abs(t - times[i]) >= 1e-12:
        raise RangeError(
            f"t = {t:g} is not a node of the trajectory on [{times[0]:g}, {times[-1]:g}]; "
            "solve it with solve_epsilon(..., stops=[t])"
        )
    return _map_of(traj.eps[i], traj.eps_dot[i], traj.beta[i], t_from, t)


def _map_of(e, ed, b, t_from, t):
    """The affine map over [t_from, t_from + t] from eps, eps' and beta at t."""
    return OpticalAffineMap(
        lambda_mat=[[np.real(e), -np.real(ed)], [-np.imag(e), np.imag(ed)]],
        delta=[np.sqrt(2.0) * np.imag(b), np.sqrt(2.0) * np.real(b)],
        t_from=float(t_from),
        t_to=float(t_from) + t,
    )


def optical_map(traj, t, t_from=0.0):
    """Affine tomogram map over [t_from, t_from + t], read off the node of
    traj at t.

    Lambda = [[Re eps, -Re eps'], [-Im eps, Im eps']] acting on (p, q);
    Delta = (sqrt(2) Im beta, sqrt(2) Re beta).  Only a node (|t - node| <
    1e-12) is read: any other t raises RangeError, and
    solve_epsilon(..., stops=[t]) makes t a node.  StepError when det
    Lambda departs from 1 by more than DET_TOL.
    """
    m = _map_at_node(traj, t, t_from)
    # Written so that a NaN det fails the guard too.
    if not abs(m.det - 1.0) <= DET_TOL:
        raise StepError(f"det Lambda = {m.det:.10f} is not symplectic within {DET_TOL:g}")
    return m


def compose(outer, inner):
    """Map over [inner.t_from, outer.t_to] from maps meeting at inner.t_to.

    The integrals of motion substitute: Lambda_20 = Lambda_10 Lambda_21 and
    Delta_20 = Lambda_10 Delta_21 + Delta_10, where 1 labels the shared
    intermediate time.  This ordering is the one under which evolving by the
    composite equals evolving step by step.
    """
    if abs(inner.t_to - outer.t_from) > 1e-9:
        raise TimeError(
            f"maps do not chain: inner ends at t = {inner.t_to:g}, "
            f"outer starts at t = {outer.t_from:g}"
        )
    lam = inner.lambda_mat @ outer.lambda_mat
    delta = inner.lambda_mat @ outer.delta + inner.delta
    return OpticalAffineMap(
        lambda_mat=lam, delta=delta, t_from=inner.t_from, t_to=outer.t_to
    )


def evolve_tomogram(w0, m, interp="linear"):
    """Pull back a tomogram through an affine map: w(X,theta) = a * w0(a X + b, theta0).

    The identity map returns an exact copy.  Otherwise every row is one
    affine frame of Tomogram.pull_back: bilinear sampling preserves
    nonnegativity and per-row normalization within grid tolerances, cubic
    sampling is sharper but can undershoot.
    """
    if m.is_identity:
        return Tomogram(w0.grid, w0.values.copy())
    return w0.pull_back(*m.frames(w0.grid.thetas), interp=interp)
