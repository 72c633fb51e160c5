"""Affine tomogram propagation for forced parametric oscillators.

The Hamiltonian family is H = p^2/2 + omega_sq(t) q^2/2 - f(t) q.  Its
classical complex solution eps(t) (eps'' + omega_sq eps = 0, eps(0) = 1,
eps'(0) = i) and the forcing quadrature beta(t) assemble into linear
integrals of motion: a symplectic matrix Lambda(t) and a drift vector
Delta(t) satisfying Lambda(t) (p, q)(t) + Delta(t) = (p, q)(0) along every
classical trajectory.  The tomogram then evolves by a deterministic affine
reference-frame map with weight 1/r, the delta form of the propagator.
optical_map reads Lambda and Delta straight off a node of the RK4 solve
of eps(t); solve_epsilon(..., stops=times) puts a node at every time
wanted.

Sign convention: Delta = (sqrt(2) Im beta, sqrt(2) Re beta).  The sign of
the first component is pinned by requiring the integrals of motion to
annihilate classical trajectories launched from the origin (equivalently,
by the Ehrenfest law q' = p, p' = -omega_sq q + f for first moments of
evolved tomograms); see the repository README for the derivation sketch.
"""

import numpy as np
from dataclasses import dataclass

from .errors import RangeError, StepError, TimeError
from .transforms import Tomogram

# RK4 nodes hold det Lambda = 1 to ~1e-12; a trajectory built by hand may not.
DET_TOL = 1e-8
WRONSKIAN_TOL = 1e-8

# How far outside its table a TableSampler may be read (integrator rounding).
TABLE_SLACK = 1e-12


@dataclass(frozen=True)
class ConstantSampler:
    """Time-independent coefficient."""

    value: float

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
        bad = self.violations(self.times, self.values)
        if bad:
            raise ValueError("table sampler: " + "; ".join(bad))
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
        """max(1, sup omega_sq): each integrator's step limit is its own
        constant divided by this."""
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


def _rhs(t, eps, eps_dot, beta, H):
    om = H.omega_sq(t)
    f = H.force(t)
    return eps_dot, -om * eps, (-1j / np.sqrt(2.0)) * eps * f


def solve_epsilon(H, T, dt=1e-3, stops=()):
    """Integrate eps'' + omega_sq(t) eps = 0 with eps(0)=1, eps'(0)=i,
    accumulating beta' = -(i/sqrt(2)) eps f(t), by classic RK4.

    Every time in stops that lies in (0, T) is made a node: each segment
    between consecutive stops is split into equal steps no longer than dt,
    so the first segment is the trajectory solve_epsilon(H, stop) gives and
    optical_map can read the map to every stop.

    The Wronskian 2 Im(eps' eps*) = 2 is checked at every node; drift beyond
    1e-8 (or an oversized step) raises StepError.
    """
    T = float(T)
    if T < 0.0:
        raise TimeError("causal evolution requires T >= 0")
    dt = float(dt)
    if dt <= 0.0:
        raise StepError("dt must be positive")
    sup = H.step_scale
    if dt > 1e-2 / sup * (1.0 + 1e-12):
        raise StepError(
            f"dt = {dt:g} exceeds 1e-2/max(1, sup omega_sq) = {1e-2 / sup:g}"
        )

    if T == 0.0:
        return EpsilonTrajectory(
            np.array([0.0]), np.array([1.0 + 0.0j]), np.array([0.0 + 1.0j]),
            np.array([0.0 + 0.0j]),
        )

    ends = sorted({float(s) for s in stops if 0.0 < s < T} | {T})
    times, steps = [np.array([0.0])], []
    for start, end in zip([0.0] + ends, ends):
        n = max(1, int(np.ceil((end - start) / dt - 1e-9)))
        times.append(np.linspace(start, end, n + 1)[1:])
        steps.append(np.full(n, (end - start) / n))
    times, steps = np.concatenate(times), np.concatenate(steps)
    n = steps.size
    eps = np.empty(n + 1, dtype=complex)
    eps_dot = np.empty(n + 1, dtype=complex)
    beta = np.empty(n + 1, dtype=complex)
    eps[0], eps_dot[0], beta[0] = 1.0, 1.0j, 0.0

    e, ed, b = eps[0], eps_dot[0], beta[0]
    for i in range(n):
        t, h = times[i], steps[i]
        k1 = _rhs(t, e, ed, b, H)
        k2 = _rhs(t + 0.5 * h, e + 0.5 * h * k1[0], ed + 0.5 * h * k1[1], b + 0.5 * h * k1[2], H)
        k3 = _rhs(t + 0.5 * h, e + 0.5 * h * k2[0], ed + 0.5 * h * k2[1], b + 0.5 * h * k2[2], H)
        k4 = _rhs(t + h, e + h * k3[0], ed + h * k3[1], b + h * k3[2], H)
        e = e + (h / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        ed = ed + (h / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        b = b + (h / 6.0) * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
        eps[i + 1], eps_dot[i + 1], beta[i + 1] = e, ed, b

    drift = np.abs(2.0 * np.imag(eps_dot * np.conj(eps)) - 2.0).max()
    if drift > WRONSKIAN_TOL:
        raise StepError(
            f"Wronskian drift {drift:.3e} exceeds {WRONSKIAN_TOL:g}; reduce dt"
        )
    return EpsilonTrajectory(times, eps, eps_dot, beta)


@dataclass(frozen=True)
class OpticalAffineMap:
    """Reference-frame map (X, theta) -> (X0, theta0, weight) over [t_from, t_to].

    With the row vector N = (sin theta, cos theta) and N' = N Lambda^-1:
    r = |N'|, theta0 = atan2(N'_1, N'_2) in (-pi, pi], X0 = (X + N' . Delta)/r,
    weight = 1/r.  theta0 is left unfolded; Tomogram.sample_twisted reads it
    through the twisted extension.  X0 is affine in X at fixed theta;
    frames() gives its coefficients.
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
    def is_identity(self):
        """Exactly the identity: no rotation, squeeze or drift."""
        return bool(np.array_equal(self.lambda_mat, np.eye(2)) and not np.any(self.delta))

    def frames(self, theta):
        """Per-angle frames (theta0, a, b, weight) with X0 = a X + b:
        theta0 = atan2(N'_1, N'_2), a = weight = 1/r, b = a (N' . Delta)."""
        theta = np.asarray(theta, dtype=float)
        lam = self.lambda_mat
        # det Lambda = 1, so the inverse is the adjugate.
        inv = np.array([[lam[1, 1], -lam[0, 1]], [-lam[1, 0], lam[0, 0]]])
        s, c = np.sin(theta), np.cos(theta)
        n1 = s * inv[0, 0] + c * inv[1, 0]
        n2 = s * inv[0, 1] + c * inv[1, 1]
        a = 1.0 / np.hypot(n1, n2)
        return np.arctan2(n1, n2), a, a * (n1 * self.delta[0] + n2 * self.delta[1]), a


def optical_map(traj, t, t_from=0.0):
    """Affine tomogram map over [t_from, t_from + t], read off the node of
    traj at t.

    Lambda = [[Re eps, -Re eps'], [-Im eps, Im eps']] acting on (p, q);
    Delta = (sqrt(2) Im beta, sqrt(2) Re beta).  Only a node (|t - node| <
    1e-12) is read: any other t raises RangeError, and
    solve_epsilon(..., stops=[t]) makes t a node.
    """
    t = float(t)
    times = traj.times
    i = int(np.abs(times - t).argmin())
    if abs(t - times[i]) >= 1e-12:
        raise RangeError(
            f"t = {t:g} is not a node of the trajectory on [{times[0]:g}, {times[-1]:g}]; "
            "solve it with solve_epsilon(..., stops=[t])"
        )
    e, ed, b = traj.eps[i], traj.eps_dot[i], traj.beta[i]
    lam = np.array([[np.real(e), -np.real(ed)], [-np.imag(e), np.imag(ed)]])
    det = lam[0, 0] * lam[1, 1] - lam[0, 1] * lam[1, 0]
    if abs(det - 1.0) > DET_TOL:
        raise StepError(f"det Lambda = {det:.10f} is not symplectic within {DET_TOL:g}")
    return OpticalAffineMap(
        lambda_mat=lam,
        delta=np.array([np.sqrt(2.0) * np.imag(b), np.sqrt(2.0) * np.real(b)]),
        t_from=float(t_from),
        t_to=float(t_from) + t,
    )


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
    """Pull back a tomogram through an affine map: w(X,theta) = weight * w0(X0, theta0).

    The identity map returns an exact copy.  Otherwise every row is one
    affine frame of Tomogram.pull_back: bilinear sampling preserves
    nonnegativity and per-row normalization within grid tolerances, cubic
    sampling is sharper but can undershoot.
    """
    if m.is_identity:
        return Tomogram(w0.grid, w0.values.copy())
    theta0, a, b, weight = m.frames(w0.grid.thetas)
    return w0.pull_back(theta0, a, b, weight, interp=interp, norm_tol=1e-3)
