"""Transforms between density matrices, Wigner functions and optical tomograms.

The optical tomogram w(X, theta) is the distribution of the rotated quadrature
X = q cos(theta) + p sin(theta).  Rows outside [0, pi) are reached through the
twisted extension w(X, theta + pi) = w(-X, theta), which every sampler here
applies automatically.

Conventions: hbar = 1, Wigner functions normalized to integrate to 2*pi over
phase space, tomogram rows normalized to 1 in X.

Every FFT here is numpy's, and the default (linear) tomogram sampler is a
private numpy kernel, _bilinear, so importing this module loads no SciPy.
Its cubic twin _cubic is the one scipy.ndimage entry: the cubic samplers
(Tomogram.sample_twisted with interp="cubic", and radon) spline-filter
their data and evaluate it through _cubic, importing scipy.ndimage on
first use.
"""

import numpy as np
from dataclasses import dataclass

from .errors import GridError, SupportError
from .grids import CoordinateGrid, TomogramGrid, trapezoid_weights
from .states import (
    GAUSSIAN_MARGIN,
    DensityMatrix,
    WaveFunction,
    _require_finite,
)

# Interpolation step (in either phase-space direction) that keeps cubic-spline
# sampling errors comfortably below the 1e-5 transform accuracy target.
SAMPLING_STEP = 0.04

# Step of the auxiliary quadrature along rotated lines.
LINE_STEP = 0.15

# Relative magnitude of W at the grid boundary above which a line-integral
# transform refuses to run (mass would be truncated).
BOUNDARY_REL_TOL = 1e-4

# Absolute tomogram magnitude at the X edge above which inversion refuses;
# the Green-kernel evolution in oracles holds the q-edge density to it too.
EDGE_MASS_TOL = 1e-8

# Tomogram.validate's bounds: the largest deviation of a row's norm from 1,
# which every tomogram meets (the initial one, both evolution backends'
# pull-backs, invert's input), and the default floor below 0.
ROW_NORM_TOL = 1e-3
NEGATIVITY_TOL = 1e-6

# Largest deviation of a Wigner function's mass (its phase-space integral
# over 2 pi) from 1.
WIGNER_MASS_TOL = 1e-3

# Relative eigenvalue magnitude below which tomogram_from_density drops an
# eigenpair of rho dq; the weight dropped is then at most n_q times this
# (times the largest eigenvalue), far below every transform tolerance.
EIG_REL_TOL = 1e-12

# Most samples tomogram_from_wavefunction may ask for on its refined q grid
# or its momentum FFT (2**22 complex values = 64 MiB).
SAMPLE_LIMIT = 1 << 22


def _linear_nodes(x, n):
    """Per-axis part of _bilinear: whether x lies in [0, n - 1] (False for
    NaN and +-Inf), the two node indices and their weights.

    The upper node of a point on n - 1 itself is mirrored onto n - 2 (its
    weight is 0), as ndimage's boundary rule does.
    """
    inside = (x >= 0.0) & (x <= n - 1)
    x = np.where(inside, x, 0.0)
    i0 = np.floor(x)
    w0 = 1.0 - (x - i0)
    i0 = i0.astype(np.intp)
    i1 = np.where(i0 < n - 1, i0 + 1, max(n - 2, 0))
    return inside, i0, i1, w0, 1.0 - w0


def _bilinear(data, row, col):
    """Bilinear interpolation of the 2-D data at the index coordinates
    (row, col), broadcast together; 0 outside [0, n - 1] on either axis.

    Replays scipy.ndimage.map_coordinates(data, ..., order=1,
    prefilter=False, mode="constant", cval=0.0) as of SciPy 1.17.1 step
    for step (weights 1 - frac and 1 - that, products and sum in ndimage's
    order), so its output is bit-identical while scipy.ndimage, which pulls
    in scipy.special, stays unimported.  A row coordinate of lower rank
    than col (one per tomogram row) keeps its per-row work at that size.
    tests/test_transforms.py::test_bilinear_is_bit_identical_to_ndimage
    compares the two; re-run it whenever the SciPy pin moves.
    """
    n_r, n_c = data.shape
    r_in, r0, r1, wr0, wr1 = _linear_nodes(row, n_r)
    c_in, c0, c1, wc0, wc1 = _linear_nodes(col, n_c)
    flat = data.ravel()
    r0, r1 = r0 * n_c, r1 * n_c
    out = 0.0 + np.take(flat, r0 + c0) * wr0 * wc0
    out += np.take(flat, r0 + c1) * wr0 * wc1
    out += np.take(flat, r1 + c0) * wr1 * wc0
    out += np.take(flat, r1 + c1) * wr1 * wc1
    return np.where(r_in & c_in, out, 0.0)


def _cubic(coeffs, row, col):
    """The cubic twin of _bilinear: the spline with the 2-D coefficients
    coeffs (spline_filter(data, order=3)) at the index coordinates (row,
    col), broadcast together; 0 outside the array.  The package's one
    scipy.ndimage.map_coordinates call, imported on first use."""
    from scipy.ndimage import map_coordinates

    row, col = np.broadcast_arrays(row, col)
    out = map_coordinates(coeffs, np.array([row.ravel(), col.ravel()]), order=3,
                          prefilter=False, mode="constant", cval=0.0)
    return out.reshape(row.shape)


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

    def validate(self, neg_tol=NEGATIVITY_TOL):
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
        if worst > ROW_NORM_TOL:
            raise SupportError(f"row normalization deviates by {worst:.3e} > {ROW_NORM_TOL:.1e}")
        return self

    def sample_twisted(self, X, theta, interp="linear"):
        """Evaluate the tomogram at arbitrary (X, theta) with theta on the
        whole real line, using the twisted periodic extension.

        X outside the grid evaluates to 0.  interp is "linear" (default,
        positivity preserving, the numpy kernel _bilinear) or "cubic"
        (scipy.ndimage's spline through _cubic, imported on first use).

        The twisted extension (and the cubic branch's spline prefilter) is
        built once per call.  The broadcast (X, theta) output is then
        filled in blocks of whole leading-axis rows of about SAMPLE_BLOCK
        points, each folded and interpolated on its own; every step is
        elementwise, so the blocks give the bits of one whole-array pass.
        """
        if interp not in ("linear", "cubic"):
            raise ValueError(f"unknown interpolation {interp!r}")
        X = np.asarray(X, dtype=float)
        theta = np.asarray(theta, dtype=float)
        # Both inputs take the output's rank (a 0-d output is one row), so a
        # block slices the leading axis of each input that spans it.
        shape = np.broadcast_shapes(X.shape, theta.shape)
        lead = shape or (1,)
        X = X.reshape((1,) * (len(lead) - X.ndim) + X.shape)
        theta = theta.reshape((1,) * (len(lead) - theta.ndim) + theta.shape)

        g = 1 if interp == "linear" else 4
        n_t = self.grid.n_theta
        top = np.flip(self.values[n_t - g:], axis=1)
        bottom = np.flip(self.values[:g], axis=1)
        ext = np.concatenate([top, self.values, bottom], axis=0)
        if g == 1:
            kernel = _bilinear
        else:
            from scipy.ndimage import spline_filter

            ext = spline_filter(ext, order=3)
            kernel = _cubic

        out = np.empty(lead)
        step = max(1, SAMPLE_BLOCK // max(1, int(np.prod(lead[1:]))))
        for lo in range(0, lead[0], step):
            Xb = X[lo:lo + step] if X.shape[0] > 1 else X
            tb = theta[lo:lo + step] if theta.shape[0] > 1 else theta
            # The fold and the row coordinate depend on theta alone, so they
            # are computed on theta's own shape (one per pull-back row).
            k = np.floor(tb / np.pi)
            row = (tb - k * np.pi) / self.grid.theta_spacing - 0.5 + g
            sign = np.where(np.mod(k, 2.0) == 0.0, 1.0, -1.0)
            col = (sign * Xb + self.grid.x_max) / self.grid.x_spacing
            out[lo:lo + step] = kernel(ext, row, col)
        return out.reshape(shape)

    def pull_back(self, theta0, a, b, interp="linear"):
        """Row-affine pull-back w(X, theta_j) = a_j * self(a_j X + b_j, theta0_j),
        the delta-kernel form of every quadratic propagator.

        The frame (theta0, a, b) is three float arrays of length n_theta
        (theta0 anywhere on the real line), sampled in one sample_twisted
        call, which works through the rows in cache-sized blocks; the rows
        are then scaled by a in place.  The prefactor is the X-scale a
        itself, which keeps each row a probability density in X.
        SupportError when a source point leaves the X window while this
        tomogram has mass at its edge; that guard reads only the row ends,
        since a X + b is affine in X on each row.
        The result must keep rows normalized within ROW_NORM_TOL, whichever
        backend made the frame, and nonnegative (cubic may undershoot by
        1e-6; a negative input floor may grow by the largest a).
        """
        tg = self.grid
        ends = a[:, None] * tg.xs[[0, -1]] + b[:, None]
        if np.any(np.abs(ends) > tg.x_max):
            edge = self.edge_mass()
            if edge > EDGE_MASS_TOL:
                raise SupportError(
                    "mapped source points leave the X window while the tomogram "
                    f"still carries {edge:.3e} at its edge; enlarge x_max"
                )
        X0 = a[:, None] * tg.xs + b[:, None]
        vals = self.sample_twisted(X0, theta0[:, None], interp=interp)
        vals *= a[:, None]
        w = Tomogram(tg, vals)
        floor = min(0.0, float(self.values.min()))
        base_tol = 1e-12 if interp == "linear" else 1e-6
        w.validate(neg_tol=base_tol + 1.01 * abs(floor) * max(1.0, float(a.max())))
        return w


@dataclass
class WignerFunction:
    """Wigner function on the square (q, p) grid whose q and p axes are both
    the points of one CoordinateGrid."""

    grid: CoordinateGrid
    values: np.ndarray

    def __post_init__(self):
        n = self.grid.n_q
        if self.values.shape != (n, n):
            raise GridError(
                f"Wigner array shape {self.values.shape} does not match grid ({n}, {n})"
            )

    @property
    def spacing(self):
        # The step between the first two points, which can differ from
        # grid.spacing in the last bit; every Wigner quadrature uses it.
        return float(self.grid.points[1] - self.grid.points[0])

    def mass(self):
        """Phase-space integral divided by 2*pi (should be 1)."""
        w = trapezoid_weights(self.grid.n_q, self.spacing)
        return float(w @ self.values @ w) / (2.0 * np.pi)

    def validate(self):
        _require_finite(self.values, "Wigner function")
        m = self.mass()
        if abs(m - 1.0) > WIGNER_MASS_TOL:
            raise SupportError(
                f"Wigner mass {m} deviates from 1 by more than {WIGNER_MASS_TOL:.1e}"
            )
        return self


def _fourier_refine(values, axis, factor):
    """Trigonometric refinement of uniformly sampled data along one axis.

    The samples are treated as one period; for data that decays to zero at
    both ends this is spectrally accurate interpolation.  Returns the refined
    array restricted to the span of the original samples, i.e. length
    (n - 1) * factor + 1 along the refined axis; complex for complex values,
    real otherwise.
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
    fine = np.fft.ifft(pad, axis=-1)
    if not np.iscomplexobj(values):
        fine = fine.real
    fine = fine[..., : (n - 1) * factor + 1] * factor
    return np.moveaxis(fine, -1, axis)


def density_from_wigner(W):
    """Invert the Wigner transform: rho(q, q') from W((q + q')/2, p), on the
    Wigner function's own grid.

    Midpoints between coordinate grid points are reached by spectral
    half-step shifting of W in q, and the p-integral uses uniform weights.
    Only the upper triangle q <= q' is integrated; the lower one is its
    conjugate, so the result is Hermitian by construction and records
    hermiticity_defect 0.0.
    """
    grid = W.grid
    n = grid.n_q
    dq = W.spacing

    k = 2.0 * np.pi * np.fft.fftfreq(n, d=dq)
    spec = np.fft.fft(W.values, axis=0)
    spec *= np.exp(1j * k * dq / 2.0)[:, None]
    shifted = np.fft.ifft(spec, axis=0).real[: n - 1].copy()
    del spec
    # rho(q_i, q_i') is P[m, d] = sum_p W_m(p) exp(i p d dq) dp / 2pi at
    # m = i + i' (even m: row m/2 of W, odd m: a half-step-shifted row) and
    # d = i - i', which has the parity of m.  Each parity class needs only
    # its own offsets d = 2c - (n - 1) + ((n - 1 + parity) % 2), so P is
    # kept as C[m, c] with c = (d + n - 1) // 2.  The phase of -d is the
    # exact conjugate of the phase of d, so rho(q_i', q_i) is exactly
    # conj(rho(q_i, q_i')): only the columns d <= 0, c <= (n - 1) // 2, are
    # built, and the entries with i > i' are conjugated copies.  Every
    # full-size step runs in place, with the operations of the plain
    # expressions.
    n_c = (n - 1) // 2 + 1
    c = np.arange(n_c)
    C = np.empty((2 * n - 1, n_c), dtype=complex)
    for parity, rows in ((0, W.values), (1, shifted)):
        d = 2 * c - (n - 1) + (n - 1 + parity) % 2
        phase = np.outer(grid.points, d * dq) * 1j
        np.exp(phase, out=phase)
        phase *= dq / (2.0 * np.pi)
        np.matmul(rows.astype(complex), phase, out=C[parity::2])
        del phase
    del shifted

    # One flat gather of C at row i + i' and column (-|i - i'| + n - 1) // 2,
    # then the conjugate below the diagonal.  An imaginary part that
    # cancels to zero comes out of the matmul as +0 on both sides of the
    # diagonal, and the conjugate turns it into -0; adding 0.0 makes it +0
    # again, the bits of the Hermitian part (v + v^H) / 2 of the full table.
    ii = np.arange(n)
    flat = np.subtract.outer(ii, ii)
    np.abs(flat, out=flat)
    np.negative(flat, out=flat)
    flat += n - 1
    flat //= 2
    flat += np.add.outer(n_c * ii, n_c * ii)
    vals = C.ravel().take(flat)
    del C, flat
    np.conjugate(vals, out=vals, where=np.greater.outer(ii, ii))
    vals.imag += 0.0
    return DensityMatrix(grid, vals, hermiticity_defect=0.0)


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

    W is refined along both axes by trigonometric interpolation until its
    step is at most SAMPLING_STEP and spline-filtered once; each line is a
    trapezoid quadrature at LINE_STEP across the whole array, through _cubic.
    """
    from scipy.ndimage import spline_filter

    if tgrid is None:
        tgrid = TomogramGrid()
    _check_wigner_boundary(W)

    q0 = float(W.grid.points[0])
    k = max(1, int(np.ceil(W.spacing / SAMPLING_STEP)))
    vals = np.ascontiguousarray(W.values, dtype=float)
    vals = _fourier_refine(_fourier_refine(vals, 0, k), 1, k)
    dq = W.spacing / k
    reach = max(abs(q0), abs(q0 + (vals.shape[0] - 1) * dq))
    coeffs = spline_filter(vals, order=3)

    n_half = int(np.ceil(np.hypot(reach, reach) / LINE_STEP))
    ys = np.arange(-n_half, n_half + 1) * LINE_STEP
    yw = trapezoid_weights(ys.size, LINE_STEP)
    xs = tgrid.xs
    rows = np.empty((tgrid.n_theta, tgrid.n_x))
    for j, theta in enumerate(tgrid.thetas):
        s, c = np.sin(theta), np.cos(theta)
        qs = xs[:, None] * c - ys[None, :] * s
        ps = xs[:, None] * s + ys[None, :] * c
        rows[j] = _cubic(coeffs, (qs - q0) / dq, (ps - q0) / dq) @ yw / (2.0 * np.pi)
    return Tomogram(tgrid, rows)


# Points per block of Tomogram.sample_twisted (whole leading-axis rows, at
# least one): 16 rows of the default 1024-point X axis, so the per-point
# temporaries of a block (coordinates, node indices, weights, gathers;
# 128 KB each) stay in the L2 cache.
SAMPLE_BLOCK = 16384

# Points per block of the back-projection: its work buffers of this length
# stay in the L2 cache while every angle passes over them.
BACKPROJECT_BLOCK = 16384

# Tomogram rows per block of the FBP ramp filter; each block's padded
# spectrum and filtered rows take about 1 MB apiece on the default grids.
# Row blocks give the same bits as one whole-array real FFT.
FILTER_BLOCK = 16


def _back_project(xs, rows, thetas, q, p):
    """For each tomogram i of the stack rows (shape (k, n_theta, n_x)), the
    sum over j of np.interp(q cos(thetas[j]) + p sin(thetas[j]), xs,
    rows[i, j], left=0, right=0), accumulated in j order, bit for bit;
    returns shape (k, m).

    q and p are flat point coordinates and xs is strictly increasing and
    uniform up to rounding.  Each point's bracket comes from arithmetic,
    j = int((s - xs[0]) / dx), instead of np.interp's binary search; the
    value replays np.interp's own steps, slopes[j] * (s - xs[j]) + rows[j],
    with slopes = diff(rows) / diff(xs) as np.interp precomputes them.  The
    residual s - xs[j] vouches for the bracket when it lies in [0, smallest
    step): then xs[j] <= s < xs[j + 1] exactly.  Every other point (a
    rounding miss, s on or beyond the last node, s outside the window, NaN)
    is redone with np.interp itself.  The geometry (s, the bracket, the
    residual and the redo mask) depends on the points and the angle alone,
    so it is computed once per block and angle for every tomogram.
    """
    k, m = rows.shape[0], q.size
    acc = np.zeros((k, m))
    if m == 0:
        return acc
    x_lo, x_lower = xs[0], xs[:-1]
    inv_dx = (xs.size - 1) / (xs[-1] - xs[0])
    slopes = np.diff(rows, axis=-1)
    slopes /= np.diff(xs)
    lower = rows[..., :-1]
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
            n = min(b, m - lo)
            qb, pb, ab = q[lo:lo + n], p[lo:lo + n], acc[:, lo:lo + n]
            s, t, r, v = s_buf[:n], t_buf[:n], r_buf[:n], v_buf[:n]
            j, bad = j_buf[:n], bad_buf[:n]
            for a, (c, sn) in enumerate(trig):
                np.multiply(qb, c, out=s)
                np.multiply(pb, sn, out=t)
                np.add(s, t, out=s)
                np.subtract(s, x_lo, out=t)
                np.multiply(t, inv_dx, out=t)
                np.copyto(j, t, casting="unsafe")
                # Clipping to the last bracket start leaves any point past it
                # to the residual check.
                x_lower.take(j, out=r, mode="clip")
                np.subtract(s, r, out=r)
                np.greater_equal(r.view(np.uint64), step_bits, out=bad)
                redo = np.flatnonzero(bad) if bad.any() else None
                if redo is not None:
                    s_redo = s[redo]
                for i in range(k):
                    slopes[i, a].take(j, out=v, mode="clip")
                    np.multiply(v, r, out=v)
                    lower[i, a].take(j, out=t, mode="clip")
                    np.add(v, t, out=v)
                    if redo is not None:
                        v[redo] = np.interp(s_redo, xs, rows[i, a], left=0.0, right=0.0)
                    np.add(ab[i], v, out=ab[i])
    return acc


def inverse_radon_many(ws, grid=None):
    """Filtered back-projection of tomograms on one TomogramGrid onto the
    square (q, p) grid of a CoordinateGrid, by default
    CoordinateGrid(x_max, min(n_x, CoordinateGrid.n_q)); one WignerFunction
    per tomogram.

    Per theta row: real FFT in X, multiply by the |eta| ramp (band-limited
    at the X Nyquist frequency), inverse real FFT, then back-project with
    linear interpolation at s = q cos(theta) + p sin(theta) and
    midpoint-rule theta sum.  The row FFT is zero-padded so the ramp acts
    as a linear (not circular) convolution; the filtered projections decay
    only like 1/X^2 and would otherwise wrap their tails back into the
    window.  The padded length is the fast length at or above 2 n_x - 1:
    the n_x kept outputs see only kernel lags |n| <= n_x - 1, which that
    length samples without wrapping, so any longer padding computes the
    same convolution and differs only by FFT rounding.  The result is
    confined to the reconstruction disc r < x_max: outside it the
    projections carry no information and the truncated tails leave
    percent-level junk, so only points strictly inside are back-projected
    and every other point is exactly 0.  Each output is bit-identical to
    one np.interp(s, X, row, left=0, right=0) per theta summed in theta
    order over the whole grid and masked afterwards.

    The ramp is built once and each tomogram is filtered in blocks of
    FILTER_BLOCK rows into one preallocated stack, so no padded array of a
    whole tomogram is ever alive; one back-projection pass then shares its
    geometry across all of them.
    Tomograms on different grids are refused (GridError), and so is a
    tomogram holding NaN or Inf or carrying mass at |X| = x_max
    (SupportError), before any is filtered.
    """
    if not ws:
        return []
    tg = ws[0].grid
    if any(w.grid != tg for w in ws):
        raise GridError("tomograms to back-project live on different grids")
    if grid is None:
        grid = CoordinateGrid(q_max=tg.x_max, n_q=min(tg.n_x, CoordinateGrid.n_q))
    for w in ws:
        _require_finite(w.values, "tomogram")
        edge = w.edge_mass()
        if edge > EDGE_MASS_TOL:
            raise SupportError(
                f"tomogram carries {edge:.3e} at |X| = x_max; support is truncated"
            )

    n_fft = _next_fast_len(2 * tg.n_x - 1)
    dx = tg.x_spacing
    # Discrete ramp built as the FFT of the real-space kernel of the
    # Nyquist-band-limited |eta| filter.  Sampling |eta| directly would zero
    # the DC bin and under-weight the lowest bins, which back-projects into
    # a flat negative basin (a constant ~0.6% mass deficit at 8 n_x padding).
    n = np.fft.fftfreq(n_fft, d=1.0 / n_fft).astype(int)
    kern = np.zeros(n_fft)
    kern[0] = np.pi / (2.0 * dx * dx)
    odd = (n % 2) != 0
    kern[odd] = -2.0 / (np.pi * (n[odd] * dx) ** 2)
    # The kernel is real and even, so its spectrum is real: the real-input
    # FFT carries half of it.
    ramp = np.real(np.fft.rfft(kern)) * dx

    filtered = np.empty((len(ws), tg.n_theta, tg.n_x))
    for out, w in zip(filtered, ws):
        for lo in range(0, tg.n_theta, FILTER_BLOCK):
            spec = np.fft.rfft(w.values[lo:lo + FILTER_BLOCK], n=n_fft, axis=1)
            spec *= ramp
            out[lo:lo + FILTER_BLOCK] = np.fft.irfft(spec, n=n_fft, axis=1)[:, : tg.n_x]

    qq, pp = np.broadcast_arrays(grid.points[:, None], grid.points[None, :])
    inside = np.hypot(qq, pp) < tg.x_max
    acc = _back_project(tg.xs, filtered, tg.thetas, qq[inside], pp[inside])
    del filtered
    outs = []
    for a in acc:
        out = np.zeros(inside.shape)
        out[inside] = a * tg.theta_spacing
        outs.append(WignerFunction(grid, out))
    return outs


def inverse_radon(w, grid=None):
    """Filtered back-projection of one tomogram: inverse_radon_many([w],
    grid)[0], which documents the filter, the disc and the refusals."""
    return inverse_radon_many([w], grid)[0]


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

    The reconstruction runs through inverse_radon onto grid (its default
    when None) and the Wigner inversion on that grid, whose result is
    Hermitian by construction (hermiticity_defect 0.0).
    """
    return density_from_wigner(inverse_radon(w, grid))


def _next_fast_len(n):
    """Smallest 11-smooth integer >= n (n >= 1): the FFT length
    scipy.fft.next_fast_len(n) returns for complex input."""
    m = n
    while True:
        k = m
        for f in (2, 3, 5, 7, 11):
            while k % f == 0:
                k //= f
        if k == 1:
            return m
        m += 1


def _cpow(base, e):
    """base ** e, bit for bit, for one complex scalar base and a real
    exponent array e.

    numpy's complex power calls libm's cpow per element, which glibc
    evaluates as cexp(e * clog(base)); here the log is taken once.  The
    integer exponents with |e| < 100 keep **: numpy multiplies those out
    by repeated squaring.
    """
    out = np.exp(e * np.log(base))
    small = (np.abs(e) < 100) & (e == np.trunc(e))
    out[small] = base ** e[small]
    return out


def _czt(x, m, w, a):
    """Chirp-z transform of the 1-D x at the m points a * w**-k (Bluestein).

    Replays the arithmetic of scipy.signal.czt as of SciPy 1.17.1
    (scipy.signal._czt.CZT) step for step with numpy.fft in place of
    scipy.fft, so no SciPy module is imported.  On numpy 2.4.6 both FFTs are
    the same pocketfft, and the output is bit-identical to SciPy's; numpy < 2
    had a different FFT, so the bits are pinned by
    tests/test_transforms.py::test_czt_is_bit_identical_to_scipy, not by
    this docstring.  Re-run it whenever the numpy or SciPy pin moves.

    The two power arrays w ** (k**2 / 2) and a ** -k, which SciPy forms
    with **, come from _cpow: one scalar log per row and one vectorised
    complex exp in place of a cpow call per element, with the same bits
    on that build.  Their integer exponents with |e| < 100 (k**2 / 2 for
    even k <= 14, -k for k <= 99) still go through **, because numpy
    multiplies those out by repeated squaring, which rounds differently
    from exp-log.
    """
    n = x.shape[-1]
    k = np.arange(max(m, n), dtype=np.min_scalar_type(-max(m, n) ** 2))
    wk2 = _cpow(w, k**2 / 2.0)
    awk2 = _cpow(a, -k[:n]) * wk2[:n]
    nfft = _next_fast_len(n + m - 1)
    fwk2 = np.fft.fft(1 / np.hstack((wk2[n - 1:0:-1], wk2[:m])), nfft)
    return np.fft.ifft(fwk2 * np.fft.fft(x * awk2, nfft))[n - 1:n + m - 1] * wk2[:m]


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
    GridError, before either is built, when one would hold more than
    SAMPLE_LIMIT samples.
    """
    if tgrid is None:
        tgrid = TomogramGrid()
    grid = psi.grid
    dq = grid.spacing
    dx = tgrid.x_spacing
    x0 = float(tgrid.xs[0])
    span = 2.0 * np.sqrt(2.0) * (tgrid.x_max + GAUSSIAN_MARGIN)

    # The refinement factor k and both lengths as floats first: a huge
    # window is refused, not left to overflow an int or an allocation.
    k = np.ceil(span * dq / (2.0 * np.pi))
    n_fine, n_fft = (grid.n_q - 1) * k + 1, max(4.0 * grid.n_q, np.ceil(span / dq))
    if max(n_fine, n_fft) > SAMPLE_LIMIT:
        raise GridError(
            f"x_max = {tgrid.x_max:g} at q spacing {dq:g} asks for {n_fine:.3g} refined "
            f"q samples and a momentum FFT of {n_fft:.3g}, more than SAMPLE_LIMIT = {SAMPLE_LIMIT}"
        )

    qs, wq, vals, dq_s = grid.points, grid.trapezoid_weights, psi.values, dq
    if k > 1:
        fine = CoordinateGrid(q_max=grid.q_max, n_q=int(n_fine))
        qs, wq, dq_s = fine.points, fine.trapezoid_weights, fine.spacing
        vals = _fourier_refine(psi.values, -1, int(k))

    # Momentum samples on a q-padded FFT axis.
    n_fft = _next_fast_len(int(n_fft))
    spec = np.fft.fft(psi.values * grid.trapezoid_weights, n=n_fft)
    ps = 2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(n_fft, d=dq))
    dp = ps[1] - ps[0]
    psi_p = np.fft.fftshift(spec) * np.exp(-1j * ps * grid.points[0]) / np.sqrt(2.0 * np.pi)

    rows = np.empty((tgrid.n_theta, tgrid.n_x))
    for j, theta in enumerate(tgrid.thetas):
        s, c = np.sin(theta), np.cos(theta)
        # Position samples, or momentum ones with (sin, cos) -> (-cos, sin).
        u, f, w, du, sn, cs = (
            (qs, vals, wq, dq_s, s, c) if abs(s) >= abs(c) else (ps, psi_p, dp, dp, -c, s)
        )
        chirp = np.exp(1j * u**2 * cs / (2.0 * sn))
        amp = _czt(f * chirp * w, tgrid.n_x, np.exp(-1j * dx * du / sn), np.exp(1j * x0 * du / sn))
        rows[j] = np.abs(amp) ** 2 / (2.0 * np.pi * abs(sn))
    return Tomogram(tgrid, rows)


def moments(w, n):
    """Per-row quadrature moments <X^n>(theta), returned as an n_theta vector."""
    if n < 0:
        raise ValueError("moment order must be nonnegative")
    return (w.values * w.grid.xs**n) @ w.grid.x_trapezoid_weights
