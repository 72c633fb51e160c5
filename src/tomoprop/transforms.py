"""Transforms between density matrices, Wigner functions and optical tomograms.

The optical tomogram w(X, theta) is the distribution of the rotated quadrature
X = q cos(theta) + p sin(theta).  Rows outside [0, pi) are reached through the
twisted extension w(X, theta + pi) = w(-X, theta), which every sampler here
applies automatically.

Conventions: hbar = 1, Wigner functions normalized to integrate to 2*pi over
phase space, tomogram rows normalized to 1 in X.
"""

import numpy as np
from dataclasses import dataclass
from scipy.fft import next_fast_len
from scipy.ndimage import map_coordinates, spline_filter
from scipy.signal import czt

from .errors import GridError, SingularityError, SupportError
from .grids import CoordinateGrid, TomogramGrid, trapezoid_weights
from .states import GAUSSIAN_MARGIN, DensityMatrix, WaveFunction, _require_finite

# Interpolation step (in either phase-space direction) that keeps cubic-spline
# sampling errors comfortably below the 1e-5 transform accuracy target.
SAMPLING_STEP = 0.04

# Step of the auxiliary quadrature along rotated lines.
LINE_STEP = 0.15

# Relative magnitude of W at the grid boundary above which a line-integral
# transform refuses to run (mass would be truncated).
BOUNDARY_REL_TOL = 1e-4

# Absolute tomogram magnitude at the X edge above which inversion refuses.
EDGE_MASS_TOL = 1e-8

# Relative eigenvalue magnitude below which tomogram_from_density drops an
# eigenpair of rho dq; the weight dropped is then at most n_q times this
# (times the largest eigenvalue), far below every transform tolerance.
EIG_REL_TOL = 1e-12


@dataclass
class Tomogram:
    """Optical tomogram sampled on a TomogramGrid, rows indexed by theta."""

    grid: TomogramGrid
    values: np.ndarray

    def row_norms(self):
        return self.values @ self.grid.x_trapezoid_weights

    def edge_mass(self):
        """Largest |w| on the two X-window edges, over all rows."""
        return max(np.abs(self.values[:, 0]).max(), np.abs(self.values[:, -1]).max())

    def validate(self, neg_tol=1e-6, norm_tol=1e-3):
        if self.values.shape != (self.grid.n_theta, self.grid.n_x):
            raise GridError(
                f"tomogram shape {self.values.shape} does not match grid "
                f"({self.grid.n_theta}, {self.grid.n_x})"
            )
        _require_finite(self.values, "tomogram")
        vmin = float(self.values.min())
        if vmin < -neg_tol:
            raise SupportError(f"tomogram attains {vmin:.3e}, below -{neg_tol:.1e}")
        norms = self.row_norms()
        worst = float(np.abs(norms - 1.0).max())
        if worst > norm_tol:
            raise SupportError(f"row normalization deviates by {worst:.3e} > {norm_tol:.1e}")
        return self

    def sample_twisted(self, X, theta, interp="linear"):
        """Evaluate the tomogram at arbitrary (X, theta) with theta on the
        whole real line, using the twisted periodic extension.

        X outside the grid evaluates to 0.  interp is "linear" (default,
        positivity preserving) or "cubic".
        """
        X = np.asarray(X, dtype=float)
        theta = np.asarray(theta, dtype=float)
        X, theta = np.broadcast_arrays(X, theta)

        k = np.floor(theta / np.pi)
        theta_loc = theta - k * np.pi
        sign = np.where(np.mod(k, 2.0) == 0.0, 1.0, -1.0)
        Xe = sign * X

        if interp == "linear":
            order, g = 1, 1
        elif interp == "cubic":
            order, g = 3, 4
        else:
            raise ValueError(f"unknown interpolation {interp!r}")

        n_t = self.grid.n_theta
        top = np.flip(self.values[n_t - g:], axis=1)
        bottom = np.flip(self.values[:g], axis=1)
        ext = np.concatenate([top, self.values, bottom], axis=0)
        if order == 3:
            ext = spline_filter(ext, order=3)

        row = theta_loc / self.grid.theta_spacing - 0.5 + g
        col = (Xe + self.grid.x_max) / self.grid.x_spacing
        out = map_coordinates(
            ext,
            np.array([row.ravel(), col.ravel()]),
            order=order,
            prefilter=False,
            mode="constant",
            cval=0.0,
        )
        return out.reshape(X.shape)

    def pull_back(self, theta0, a, b, weight, interp="linear", norm_tol=1e-3):
        """Row-affine pull-back w(X, theta_j) = weight_j * self(a_j X + b_j, theta0_j),
        the delta-kernel form of every quadratic propagator.

        The frames are float arrays of length n_theta (theta0 anywhere on the
        real line), sampled in one sample_twisted call.  SupportError when a
        source point leaves the X window while this tomogram has mass at its
        edge.
        The result must keep rows normalized within norm_tol and nonnegative
        (cubic may undershoot by 1e-6; a negative input floor may grow by the
        largest weight).
        """
        tg = self.grid
        X0 = a[:, None] * tg.xs + b[:, None]
        # X0 is affine in X on each row, so its extremes sit at the row ends.
        if np.any(np.abs(X0[:, [0, -1]]) > tg.x_max):
            edge = self.edge_mass()
            if edge > EDGE_MASS_TOL:
                raise SupportError(
                    "mapped source points leave the X window while the tomogram "
                    f"still carries {edge:.3e} at its edge; enlarge x_max"
                )
        w = Tomogram(tg, weight[:, None] * self.sample_twisted(X0, theta0[:, None], interp=interp))
        floor = min(0.0, float(self.values.min()))
        base_tol = 1e-12 if interp == "linear" else 1e-6
        w.validate(
            neg_tol=base_tol + 1.01 * abs(floor) * max(1.0, float(weight.max())),
            norm_tol=norm_tol,
        )
        return w


@dataclass
class WignerFunction:
    """Wigner function on a uniform (q, p) product grid.

    The axes need not be conjugate: inverse_radon fills caller-chosen axes.
    """

    q_axis: np.ndarray
    p_axis: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for name, ax in (("q_axis", self.q_axis), ("p_axis", self.p_axis)):
            ax = np.asarray(ax, dtype=float)
            if ax.ndim != 1 or ax.size < 8:
                raise GridError(f"{name} must be a 1-d axis with at least 8 points")
            d = np.diff(ax)
            if not np.allclose(d, d[0], rtol=1e-9, atol=0.0):
                raise GridError(f"{name} must be uniform")
        if self.values.shape != (self.q_axis.size, self.p_axis.size):
            raise GridError(
                f"Wigner array shape {self.values.shape} does not match axes "
                f"({self.q_axis.size}, {self.p_axis.size})"
            )

    @property
    def q_spacing(self):
        return float(self.q_axis[1] - self.q_axis[0])

    @property
    def p_spacing(self):
        return float(self.p_axis[1] - self.p_axis[0])

    def mass(self):
        """Phase-space integral divided by 2*pi (should be 1)."""
        wq = trapezoid_weights(self.q_axis.size, self.q_spacing)
        wp = trapezoid_weights(self.p_axis.size, self.p_spacing)
        return float(wq @ self.values @ wp) / (2.0 * np.pi)

    def validate(self, mass_tol=1e-3):
        _require_finite(self.values, "Wigner function")
        m = self.mass()
        if abs(m - 1.0) > mass_tol:
            raise SupportError(f"Wigner mass {m} deviates from 1 by more than {mass_tol:.1e}")
        return self


def _fourier_refine(values, axis, factor):
    """Trigonometric refinement of uniformly sampled data along one axis.

    The samples are treated as one period; for data that decays to zero at
    both ends this is spectrally accurate interpolation.  Returns the refined
    array restricted to the span of the original samples, i.e. length
    (n - 1) * factor + 1 along the refined axis.
    """
    if factor <= 1:
        return values
    x = np.moveaxis(values, axis, -1)
    n = x.shape[-1]
    m = n * factor
    spec = np.fft.fft(x, axis=-1)
    pad = np.zeros(x.shape[:-1] + (m,), dtype=complex)
    h = n // 2
    if n % 2 == 0:
        pad[..., :h] = spec[..., :h]
        pad[..., h] = 0.5 * spec[..., h]
        pad[..., m - h] = 0.5 * spec[..., h]
        pad[..., m - h + 1:] = spec[..., h + 1:]
    else:
        pad[..., :h + 1] = spec[..., :h + 1]
        pad[..., m - h:] = spec[..., h + 1:]
    fine = np.real(np.fft.ifft(pad, axis=-1)) * factor
    fine = fine[..., : (n - 1) * factor + 1]
    return np.moveaxis(fine, -1, axis)


class _SampledWigner:
    """Cubic-spline sampler over a (possibly refined) Wigner array.

    Coarse axes are first refined by exact trigonometric interpolation so the
    spline step stays below SAMPLING_STEP; the line quadrature spans the
    whole array.
    """

    def __init__(self, W):
        q0, p0 = float(W.q_axis[0]), float(W.p_axis[0])
        kq = max(1, int(np.ceil(W.q_spacing / SAMPLING_STEP)))
        kp = max(1, int(np.ceil(W.p_spacing / SAMPLING_STEP)))
        vals = np.ascontiguousarray(W.values, dtype=float)
        vals = _fourier_refine(_fourier_refine(vals, 0, kq), 1, kp)

        self.q0, self.dq = q0, W.q_spacing / kq
        self.p0, self.dp = p0, W.p_spacing / kp
        q1 = q0 + (vals.shape[0] - 1) * self.dq
        p1 = p0 + (vals.shape[1] - 1) * self.dp
        self._filt = spline_filter(vals, order=3)

        half = np.hypot(max(abs(q0), abs(q1)), max(abs(p0), abs(p1)))
        n_half = int(np.ceil(half / LINE_STEP))
        self._ys = np.arange(-n_half, n_half + 1) * LINE_STEP
        self._yw = trapezoid_weights(self._ys.size, LINE_STEP)

    def at(self, qs, ps):
        iq = (np.asarray(qs) - self.q0) / self.dq
        ip = (np.asarray(ps) - self.p0) / self.dp
        out = map_coordinates(
            self._filt,
            np.array([iq.ravel(), ip.ravel()]),
            order=3,
            prefilter=False,
            mode="constant",
            cval=0.0,
        )
        return out.reshape(np.shape(qs))

    def line_integral(self, theta, xs):
        """(1/2pi) * integral of W along the line q cos + p sin = X."""
        s, c = np.sin(theta), np.cos(theta)
        qs = xs[:, None] * c - self._ys[None, :] * s
        ps = xs[:, None] * s + self._ys[None, :] * c
        return self.at(qs, ps) @ self._yw / (2.0 * np.pi)


def density_from_wigner(W, grid=None):
    """Invert the Wigner transform: rho(q, q') from W((q + q')/2, p).

    Midpoints between coordinate grid points are reached by spectral
    half-step shifting of W in q, and the p-integral uses uniform weights.
    On a momentum axis FFT-conjugate to q (spacing pi / (n dq)) the
    inversion is exact to rounding; density_from_tomogram passes the
    coordinate axis as both q and p.
    """
    q_axis = W.q_axis
    n = q_axis.size
    dq = W.q_spacing
    if abs(q_axis[0] + q_axis[-1]) > 1e-9 * abs(q_axis[-1]):
        raise GridError("density_from_wigner expects a symmetric q-axis")
    if grid is None:
        grid = CoordinateGrid(q_max=float(q_axis[-1]), n_q=n)
    if grid.n_q != n or not np.allclose(grid.points, q_axis, rtol=0.0, atol=1e-9):
        raise GridError("target grid must coincide with the Wigner q-axis")

    k = 2.0 * np.pi * np.fft.fftfreq(n, d=dq)
    shifted = np.real(
        np.fft.ifft(np.fft.fft(W.values, axis=0) * np.exp(1j * k * dq / 2.0)[:, None], axis=0)
    )
    # rho(q_i, q_i') is P[m, d] = sum_p W_m(p) exp(i p d dq) dp / 2pi at
    # m = i + i' (even m: row m/2 of W, odd m: a half-step-shifted row) and
    # d = i - i', which has the parity of m.  Each parity class needs only
    # its own n offsets d = 2c - (n - 1) + ((n - 1 + parity) % 2), c < n,
    # so P is kept as C[m, c] with c = (d + n - 1) // 2.
    c = np.arange(n)
    C = np.empty((2 * n - 1, n), dtype=complex)
    for parity, rows in ((0, W.values), (1, shifted[: n - 1])):
        d = 2 * c - (n - 1) + (n - 1 + parity) % 2
        phase = np.exp(1j * np.outer(W.p_axis, d * dq)) * (W.p_spacing / (2.0 * np.pi))
        C[parity::2] = rows.astype(complex) @ phase

    ii = np.arange(n)
    vals = C[ii[:, None] + ii[None, :], (ii[:, None] - ii[None, :] + (n - 1)) // 2]
    defect = float(np.abs(vals - vals.conj().T).max())
    vals = 0.5 * (vals + vals.conj().T)
    return DensityMatrix(grid, vals, hermiticity_defect=defect)


def _check_wigner_boundary(W):
    vmax = np.abs(W.values).max()
    edge = max(
        np.abs(W.values[0]).max(),
        np.abs(W.values[-1]).max(),
        np.abs(W.values[:, 0]).max(),
        np.abs(W.values[:, -1]).max(),
    )
    if edge > BOUNDARY_REL_TOL * vmax:
        raise SupportError(
            f"Wigner boundary magnitude {edge:.3e} exceeds {BOUNDARY_REL_TOL:.0e} "
            "of the peak; enlarge the phase-space grid"
        )


def radon(W, tgrid=None):
    """Optical tomogram of a Wigner function by rotated line integrals.

    w(X, theta) = (1/2pi) * integral over the line q cos(theta) + p sin(theta) = X.
    """
    if tgrid is None:
        tgrid = TomogramGrid()
    _check_wigner_boundary(W)
    sw = _SampledWigner(W)
    xs = tgrid.xs
    rows = np.empty((tgrid.n_theta, tgrid.n_x))
    for j, theta in enumerate(tgrid.thetas):
        rows[j] = sw.line_integral(theta, xs)
    return Tomogram(tgrid, rows)


# Points per block of the back-projection: its work buffers of this length
# stay in the L2 cache while every angle passes over them.
BACKPROJECT_BLOCK = 16384


def _back_project(xs, rows, thetas, q, p):
    """Sum over j of np.interp(q cos(thetas[j]) + p sin(thetas[j]), xs,
    rows[j], left=0, right=0), accumulated in j order, bit for bit.

    q and p are flat point coordinates and xs is strictly increasing and
    uniform up to rounding.  Each point's bracket comes from arithmetic,
    j = int((s - xs[0]) / dx), instead of np.interp's binary search; the
    value replays np.interp's own steps, slopes[j] * (s - xs[j]) + rows[j],
    with slopes = diff(rows) / diff(xs) as np.interp precomputes them.  The
    residual s - xs[j] vouches for the bracket when it lies in [0, smallest
    step): then xs[j] <= s < xs[j + 1] exactly.  Every other point (a
    rounding miss, s on or beyond the last node, s outside the window, NaN)
    is redone with np.interp itself.
    """
    m = q.size
    acc = np.zeros(m)
    if m == 0:
        return acc
    x_lo, x_lower = xs[0], xs[:-1]
    inv_dx = (xs.size - 1) / (xs[-1] - xs[0])
    slopes = np.diff(rows, axis=1) / np.diff(xs)
    # Nonnegative doubles order like their bit patterns; negative ones (and
    # NaN) map above every positive step, so one unsigned compare finds both.
    step_bits = np.diff(xs).min().view(np.uint64)
    trig = [(np.cos(theta), np.sin(theta)) for theta in thetas]

    b = min(BACKPROJECT_BLOCK, m)
    s_buf, t_buf, r_buf, v_buf = (np.empty(b) for _ in range(4))
    j_buf, bad_buf = np.empty(b, dtype=np.intp), np.empty(b, dtype=bool)
    # An s far outside the window (or NaN) casts to an arbitrary index,
    # which the residual check then rejects.
    with np.errstate(invalid="ignore"):
        for lo in range(0, m, b):
            k = min(b, m - lo)
            qb, pb, ab = q[lo:lo + k], p[lo:lo + k], acc[lo:lo + k]
            s, t, r, v = s_buf[:k], t_buf[:k], r_buf[:k], v_buf[:k]
            j, bad = j_buf[:k], bad_buf[:k]
            for slope, f, (c, sn) in zip(slopes, rows, trig):
                np.multiply(qb, c, out=s)
                np.multiply(pb, sn, out=t)
                np.add(s, t, out=s)
                np.subtract(s, x_lo, out=t)
                np.multiply(t, inv_dx, out=t)
                np.copyto(j, t, casting="unsafe")
                # Clipping to the last bracket start leaves any point past it
                # to the residual check.
                np.take(x_lower, j, out=r, mode="clip")
                np.subtract(s, r, out=r)
                np.greater_equal(r.view(np.uint64), step_bits, out=bad)
                np.take(slope, j, out=v, mode="clip")
                np.multiply(v, r, out=v)
                np.take(f[:-1], j, out=t, mode="clip")
                np.add(v, t, out=v)
                if bad.any():
                    redo = np.flatnonzero(bad)
                    v[redo] = np.interp(s[redo], xs, f, left=0.0, right=0.0)
                np.add(ab, v, out=ab)
    return acc


def inverse_radon(w, q_axis=None, p_axis=None):
    """Filtered back-projection of a tomogram onto a phase-space grid.

    Per theta row: FFT in X, multiply by the |eta| ramp (band-limited at the
    X Nyquist frequency), inverse FFT, then back-project with linear
    interpolation at s = q cos(theta) + p sin(theta) and midpoint-rule theta
    sum.  The row FFT is zero-padded so the ramp acts as a linear (not
    circular) convolution; the filtered projections decay only like 1/X^2
    and would otherwise wrap their tails back into the window.  The result
    is confined to the reconstruction disc r < x_max: outside it the
    projections carry no information and the truncated tails leave
    percent-level junk, so only points strictly inside are back-projected
    and every other point is exactly 0.  The back-projection
    is bit-identical to one np.interp(s, X, row, left=0, right=0) per theta
    summed in theta order over the whole grid and masked afterwards.
    A tomogram holding NaN or Inf is refused (SupportError).
    """
    tg = w.grid
    if q_axis is None:
        q_axis = np.linspace(-tg.x_max, tg.x_max, min(tg.n_x, 512))
    if p_axis is None:
        p_axis = np.linspace(-tg.x_max, tg.x_max, min(tg.n_x, 512))
    _require_finite(w.values, "tomogram")
    edge = w.edge_mass()
    if edge > EDGE_MASS_TOL:
        raise SupportError(
            f"tomogram carries {edge:.3e} at |X| = x_max; support is truncated"
        )

    n_fft = next_fast_len(8 * tg.n_x)
    dx = tg.x_spacing
    # Discrete ramp built as the FFT of the real-space kernel of the
    # Nyquist-band-limited |eta| filter.  Sampling |eta| directly would zero
    # the DC bin and under-weight the lowest bins, which back-projects into
    # a flat negative basin (a constant ~0.6% mass deficit at this padding).
    n = np.fft.fftfreq(n_fft, d=1.0 / n_fft).astype(int)
    kern = np.zeros(n_fft)
    kern[0] = np.pi / (2.0 * dx * dx)
    odd = (n % 2) != 0
    kern[odd] = -2.0 / (np.pi * (n[odd] * dx) ** 2)
    ramp = np.real(np.fft.fft(kern)) * dx

    filtered = np.fft.ifft(np.fft.fft(w.values, n=n_fft, axis=1) * ramp, axis=1)
    # Keep only the window's real part: the padded complex rows (24 MB on
    # the default grids) are freed before the back-projection starts.
    filtered = filtered[:, : tg.n_x].real.copy()

    q_axis = np.asarray(q_axis, dtype=float)
    p_axis = np.asarray(p_axis, dtype=float)
    qq, pp = np.broadcast_arrays(q_axis[:, None], p_axis[None, :])
    inside = np.hypot(qq, pp) < tg.x_max
    out = np.zeros(inside.shape)
    acc = _back_project(tg.xs, filtered, tg.thetas, qq[inside], pp[inside])
    out[inside] = acc * tg.theta_spacing
    return WignerFunction(q_axis, p_axis, out)


def tomogram_from_density(rho, tgrid=None):
    """Tomogram of a density matrix as the weighted sum of its eigenstates'
    tomograms.

    The tomogram is linear in rho, so with the Hermitian part
    (rho + rho^H) / 2 = sum_k lam_k |psi_k><psi_k| it is
    sum_k lam_k tomogram_from_wavefunction(psi_k).  Eigenpairs with
    |lam_k| <= EIG_REL_TOL * max |lam| are dropped; negative weights are
    summed like the others.  The cost is one chirp-z tomogram per kept
    eigenpair: a pure state keeps one, while a density reconstructed by
    filtered back-projection keeps hundreds (299 for a coherent state on
    the default grids, each as costly as a pure state's tomogram).
    """
    if tgrid is None:
        tgrid = TomogramGrid()
    _require_finite(rho.values, "density matrix")
    grid = rho.grid
    dq = grid.spacing
    lam, vecs = np.linalg.eigh(0.5 * (rho.values + rho.values.conj().T) * dq)
    keep = np.abs(lam) > EIG_REL_TOL * np.abs(lam).max()
    rows = np.zeros((tgrid.n_theta, tgrid.n_x))
    for weight, v in zip(lam[keep], vecs[:, keep].T):
        psi = WaveFunction(grid, v / np.sqrt(dq))
        rows += weight * tomogram_from_wavefunction(psi, tgrid).values
    return Tomogram(tgrid, rows)


def density_from_tomogram(w, grid=None):
    """Density matrix from a tomogram via filtered back-projection.

    The reconstruction runs through inverse_radon on the coordinate grid
    points (momentum axis equal to the coordinate axis) and the exact Wigner
    inversion.  Hermiticity is enforced by symmetrization; the pre-projection
    defect is recorded on the result.
    """
    if grid is None:
        grid = CoordinateGrid(q_max=w.grid.x_max, n_q=512)
    W = inverse_radon(w, q_axis=grid.points, p_axis=grid.points)
    return density_from_wigner(W, grid)


def tomogram_from_wavefunction(psi, tgrid=None):
    """Tomogram of a pure state through the rotated-quadrature kernel.

    Per theta the amplitude is a chirped Fourier transform of the state read
    off at frequencies X / sin(theta) with the chirp-z transform.  That sweep
    must stay inside one period of the sampled transform, which fails once
    |sin| drops below |cos|, so those rows integrate over the momentum-space
    wavefunction instead: the quadrature operator keeps its form under
    q -> p, theta -> theta - pi/2, swapping the roles of sin and cos.  Either
    way the division is by a factor of at least 1/sqrt(2).  Squaring the
    amplitude makes every row nonnegative by construction.

    Both transforms are of sampled data, so each repeats: in X / sin(theta)
    with period 2 pi / dq, in X / cos(theta) with period n_fft * dq.  A row
    reads |X| <= x_max at a divisor of at least 1/sqrt(2), and a row that
    fits the window keeps its content there (plus the state's tails), so
    both periods are made longer than twice that reach: a wide X window
    refines the q samples spectrally, which is exact for the band-limited
    states WaveFunction.validate admits, and lengthens the momentum FFT.
    """
    if tgrid is None:
        tgrid = TomogramGrid()
    grid = psi.grid
    dq = grid.spacing
    dx = tgrid.x_spacing
    x0 = float(tgrid.xs[0])
    span = 2.0 * np.sqrt(2.0) * (tgrid.x_max + GAUSSIAN_MARGIN)

    qs, wq, vals, dq_s = grid.points, grid.trapezoid_weights, psi.values, dq
    k = int(np.ceil(span * dq / (2.0 * np.pi)))
    if k > 1:
        # Zero-padded spectrum; the state vanishes at both grid edges, so
        # plain weights stand in for the trapezoid ones.
        n = grid.n_q
        h = (n + 1) // 2
        spec_q = np.fft.fft(psi.values)
        padded = np.zeros(k * n, dtype=complex)
        padded[:h] = spec_q[:h]
        padded[h - n:] = spec_q[h:]
        dq_s = dq / k
        vals = np.fft.ifft(padded) * k
        qs = grid.points[0] + dq_s * np.arange(k * n)
        wq = np.full(k * n, dq_s)

    # Momentum samples on a q-padded FFT axis.
    n_fft = next_fast_len(max(4 * grid.n_q, int(np.ceil(span / dq))))
    spec = np.fft.fft(psi.values * grid.trapezoid_weights, n=n_fft)
    ps = 2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(n_fft, d=dq))
    dp = ps[1] - ps[0]
    psi_p = np.fft.fftshift(spec) * np.exp(-1j * ps * grid.points[0]) / np.sqrt(2.0 * np.pi)

    rows = np.empty((tgrid.n_theta, tgrid.n_x))
    for j, theta in enumerate(tgrid.thetas):
        s, c = np.sin(theta), np.cos(theta)
        if abs(s) < 1e-12:
            raise SingularityError("tomogram row requested at sin(theta) = 0")
        if abs(s) >= abs(c):
            chirp = np.exp(1j * qs**2 * c / (2.0 * s))
            cvec = vals * chirp * wq
            amp = czt(cvec, tgrid.n_x, np.exp(-1j * dx * dq_s / s), np.exp(1j * x0 * dq_s / s))
            div = abs(s)
        else:
            sp = -c
            chirp = np.exp(1j * ps**2 * s / (2.0 * sp))
            cvec = psi_p * chirp * dp
            amp = czt(cvec, tgrid.n_x, np.exp(-1j * dx * dp / sp), np.exp(1j * x0 * dp / sp))
            div = abs(c)
        rows[j] = np.abs(amp) ** 2 / (2.0 * np.pi * div)
    return Tomogram(tgrid, rows)


def moments(w, n):
    """Per-row quadrature moments <X^n>(theta), returned as an n_theta vector."""
    if n < 0:
        raise ValueError("moment order must be nonnegative")
    return (w.values * w.grid.xs**n) @ w.grid.x_trapezoid_weights
