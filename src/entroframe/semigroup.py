"""Heat and Ornstein-Uhlenbeck flows and the Hermite (Mehler) operator.

Heat flow acts on Lebesgue densities: f_t = f * N(0, 2t) per axis.
OU flow acts on Gaussian-reference densities; by reversibility the
density evolves by the Mehler operator itself,

    (P_t f)(x) = int f(x cos theta + y sin theta) dgamma(y),
    cos theta = e^{-t}.

In d dimensions both operators are tensor products of 1d ones, so grid
densities are flowed one axis at a time (_flow_grid): a 1d density along
its axis, a 2d density along x and then along y.  On each axis both flows,
and hermite_p_theta on grid input, are one operator (_gauss_rows),

    s(y) -> int s(c y + a z) dgamma(z),

evaluated at the input's n nodes.  A flow keeps n nodes per axis, on the
axis d x, d the spread of N(0, 1) after the flow: sqrt(1 + 2t) for heat and
1 for OU.  Its value at d y is the operator at y with (c, a) = (d, sqrt(2t))
for heat and (e^{-t}, sqrt(1 - e^{-2t})) for OU.
P_theta takes (cos theta, sin theta) on its own axis.  A blur a narrower
than MIN_BLUR_STEPS grid steps is the 64-node Gauss-Hermite sum of the
spline; a wider one convolves with the sampled N(0, a^2) on the axis grown
by the kernel radius and reads that spline at c y.  Splines are
prefiltered along the flowed axis only and read through one band of
spline weights per output node (quadrature.spline_band), so no 2d spline
is evaluated; a lone line's spline is summed at its points by
quadrature.affine_sums.  A block of lines is blurred through the FFT,
whose kernel spectrum carries the prefilter too (_line_blur), so that blur
costs no prefilter pass; the Gauss-Hermite sum of a 2d pass runs on the
whole array along the flowed axis, its prefilter one row of all lines per
step (_band_down).

A 2d flow is two passes, one per axis, a blur pass over BLOCK_ROWS lines
at a time: a pass flows the last axis of its input and returns its result
transposed, the flowed axis first.  Starting from the transpose of the
values, the x pass comes first and the y pass ends in f's orientation,
C-contiguous, so a flow holds the x pass's result and its output and
O(BLOCK_ROWS n) working values.  A 2d heat flow whose blur is sampled on
both axes is instead one FFT round trip (_blur_round_trip): y's transform
keeps only the bins where the Gaussian factor is above 2^-53, the real and
imaginary parts of that band go through _gauss_rows along x as real lines,
and the flow holds its output and the band alone.  OU keeps its passes: a
Gaussian-reference density grows toward the grid's corners, and a transform
that mixes all rows rounds every value by eps times the corner's.
de Bruijn's identity dS/dt = -I holds along both flows and is checked by
a centered finite difference.
"""

from __future__ import annotations

import math

import numpy as np

from .density import (GaussianDensity, GridDensity1D, GridDensity2D,
                      GridFunction1D, Reference, _freeze, default_axis,
                      marginal)
from .errors import GridError, InvalidFlowTime, ReferenceMismatch
from .functional import entropy, fisher
from .quadrature import (BLOCK_ROWS, affine_sums, blocks, gauss_hermite, grid_index,
                         next_fast_len, prefilter_rows, sample_coefficients,
                         spline_band, spline_coefficients)

# Below this blur width (in grid steps) the sampled kernel is too coarse
# and a flow evaluates its Gaussian integral at Gauss-Hermite nodes.
MIN_BLUR_STEPS = 4.0

KERNEL_RADIUS_SIGMAS = 8.0


def _flow_time(t):
    """t as a float, once it is finite and >= 0; InvalidFlowTime otherwise."""
    t = float(t)
    if not (math.isfinite(t) and t >= 0.0):
        raise InvalidFlowTime(f"flow time must be finite and >= 0, got {t!r}")
    return t


# === per-axis operators ===================================================

def _flow_grid(f, c, a, d):
    """f flowed by _gauss_rows(., c, a) one axis at a time, as a density of
    f's kind and reference on the axes d x.

    A 2d Lebesgue density whose blur a is at least MIN_BLUR_STEPS steps on
    both axes takes one FFT round trip (_blur_round_trip).  Every other
    flow runs one pass per axis: a Gaussian-reference density grows toward
    the grid's corners, and a transform that mixes all of its rows rounds
    each value by eps times the corner's, where one line at a time rounds
    it by eps times its line's largest value.
    """
    if f.reference is Reference.LEBESGUE and len(f.axes) == 2 \
            and all(a >= MIN_BLUR_STEPS * h for _, h in f.axes):
        values = _blur_round_trip(f.values, f.axes, c, a)
    else:
        values = f.values.T
        for x, h in f.axes:
            values = _gauss_rows(values, x, h, c, a)
        values = values.T
    # every pass allocates its result (both flows return f for a zero
    # time), so the output is clipped where it lies
    np.maximum(values, 0.0, out=values)
    return type(f)(f.reference, *(d * x for x, _ in f.axes), _freeze(values),
                   renormalization=f.renormalization)


def _blur_kernel(sigma, h):
    """Discrete Gaussian kernel with exact unit mass; returns (weights, radius)."""
    radius = int(math.ceil(KERNEL_RADIUS_SIGMAS * sigma / h))
    offsets = np.arange(-radius, radius + 1) * h
    w = np.exp(-0.5 * (offsets / sigma) ** 2)
    return w / w.sum(), radius


def _blur_spectrum(sigma, h, n):
    """The real-FFT spectrum that blurs real lines of n nodes by the sampled
    N(0, sigma^2) and prefilters them: (spectrum, nfft, size, radius).

    The product of a line's rfft at length nfft with the spectrum
    transforms back to the cubic-spline coefficients of the blurred line
    on its first size = n + 2 radius nodes, the axis grown by the kernel
    radius at each end.  The prefilter, the inverse of the filter
    (1, 4, 1) / 6, is the factor 6 / (4 + 2 cos w) folded into the
    kernel's spectrum.  That filter is circular: it differs from
    spline_coefficients' only near the grown axis's ends, by a difference
    that decays as (2 - sqrt 3)^k.
    """
    w, radius = _blur_kernel(sigma, h)
    size = n + w.size - 1
    nfft = next_fast_len(size)
    spectrum = np.fft.rfft(w, nfft)
    spectrum *= 6.0 / (4.0 + 2.0 * np.cos(2.0 * np.pi / nfft * np.arange(spectrum.size)))
    return spectrum, nfft, size, radius


class _BlockFFT:
    """Real FFTs at length nfft of blocks of at most BLOCK_ROWS lines of n
    values, zero-extended, in buffers kept from block to block: each block
    is copied into the zero-extended one, and both transforms write into
    their own (numpy's out=).  With a fresh padded copy and fresh outputs
    for every block, the 33 blocks of a pass on the default grid took twice
    as long in a fresh process, which faulted in 134k pages."""

    def __init__(self, n, nfft):
        self.n, self.nfft = n, nfft
        self.values = np.zeros((BLOCK_ROWS, nfft))
        self.spectra = np.empty((BLOCK_ROWS, nfft // 2 + 1), dtype=complex)
        self.coeffs = np.empty((BLOCK_ROWS, nfft))

    def forward(self, lines):
        """The spectra of a block of lines: its rows of self.spectra."""
        m = len(lines)
        self.values[:m, :self.n] = lines
        return np.fft.rfft(self.values[:m], out=self.spectra[:m])

    def backward(self, m):
        """The inverse transforms of the first m rows of self.spectra: the
        first m rows of self.coeffs."""
        return np.fft.irfft(self.spectra[:m], self.nfft, out=self.coeffs[:m])


def _line_blur(sigma, h, shape):
    """Cubic-spline coefficients of lines of the given shape, (n,) or (m, n),
    fully convolved with the sampled N(0, sigma^2) along their last axis.

    Returns (coeffs, radius): coeffs maps such lines to their coefficients
    on the axis grown by the kernel radius at each end, whose n + 2 radius
    nodes are the first columns of its result.  A single line is summed
    directly and prefiltered by spline_coefficients, which keeps each
    output's rounding local; FFT rounding spreads eps * max|values| (4.5e4
    at the edge of a Gaussian-reference grid) over the whole axis.  A block
    of lines is convolved through the FFT with _blur_spectrum, so the
    inverse transform returns the coefficients, in a _BlockFFT's buffer
    that the next block overwrites.
    """
    if len(shape) == 1:
        w, radius = _blur_kernel(sigma, h)
        return (lambda line: spline_coefficients(np.convolve(line, w))), radius
    spectrum, nfft, size, radius = _blur_spectrum(sigma, h, shape[-1])
    transforms = _BlockFFT(shape[-1], nfft)

    def blur(lines):
        transforms.forward(lines)[...] *= spectrum
        return transforms.backward(len(lines))
    return blur, radius


def _line_pass(values, flow):
    """flow on every line of a 2d array along its last axis, flowed axis first.

    flow(lines, out) writes the (m, n) result of a block of m lines, on the
    lines' own node count, into out.  The lines go BLOCK_ROWS at a time
    into a C-ordered array of values' shape, returned transposed, so two
    passes from the transpose of a 2d array flow both of its axes and end
    C-contiguous in its orientation.
    """
    out = np.empty(values.shape)
    for rows in blocks(values.shape[0]):
        flow(values[rows], out[rows])
    return out.T


def _gauss_rows(values, x, h, c, a):
    """y -> int s(c y + a z) dgamma(z), s the spline of a line, on every line
    of values along its last axis, at the nodes y = x: the lines, flowed
    axis first (see _line_pass), on x's n nodes.

    Both regimes are sum_k w_k s'(c y + a z_k) over one point set (z, w),
    s' the spline of a line's coefficients on x grown by radius nodes at
    each end.  a < MIN_BLUR_STEPS h is the 64-node Gauss-Hermite sum (z, w)
    of the line's own spline; else the lines are blurred by the sampled
    N(0, a^2) on the grown axis, and that spline is read at c y: z = [0],
    w = [1].  A lone line is sampled at those points by
    quadrature.affine_sums, which is cheaper than building the band; the
    lines of a 2d pass are read through one quadrature.spline_band: a blur
    pass reads each block's coefficients through it (_BandRead), and the
    Gauss-Hermite pass prefilters and reads the whole array along its
    flowed axis (_band_down).
    """
    if a == 0.0:
        return values.T
    hermite = a < MIN_BLUR_STEPS * h
    if hermite:
        (z, w), coeffs, radius = gauss_hermite(), spline_coefficients, 0
    else:
        coeffs, radius = _line_blur(a, h, values.shape)
        z, w = np.zeros(1), np.ones(1)
    x0 = x[0] - radius * h
    if values.ndim == 1:
        line = coeffs(values)
        return affine_sums(lambda p: sample_coefficients(line, [grid_index(p, x0, h)]),
                           x, c, z, a, w)
    band = spline_band(grid_index(c * x[:, None] + a * z, x0, h), w, x.size + 2 * radius)
    if hermite:
        return _band_down(values.T, *band)
    read = _BandRead(*band)
    return _line_pass(values, lambda lines, out: read(coeffs(lines), out))


class _BandRead:
    """The (lo, band) rows of a quadrature.spline_band applied along the
    last axis of blocks of at most BLOCK_ROWS lines of coefficients, which
    may run past the band's columns: out[:, i] = sum_k band[i, k]
    lines[:, lo[i] + k].

    The columns the bands span (a dilation by e^-t reads the middle of
    the grown axis) are copied, transposed, into a buffer kept from block
    to block, so that one np.take gathers the taps of READ_POINTS outputs
    as rows of the block's values, and one einsum sums them on the calling
    thread into a (READ_POINTS, rows) sum that is copied into out
    transposed.  Gathering single values along each line, and summing over
    the taps as the last axis, took twice as long per block; gathering all
    taps of a block at once, 4 MiB, made the 2d heat round trip about 14%
    slower than READ_POINTS at a time (medians of 9 calls).
    """

    READ_POINTS = 256

    def __init__(self, lo, band):
        self.band = band
        self.first = int(lo.min())
        self.cols = (lo[:, None] - self.first + np.arange(band.shape[1])).ravel()
        self.columns = np.empty((self.cols.max() + 1, BLOCK_ROWS))
        self.taps = np.empty((self.READ_POINTS * band.shape[1], BLOCK_ROWS))
        self.sums = np.empty((self.READ_POINTS, BLOCK_ROWS))

    def __call__(self, lines, out):
        m, width = len(lines), self.band.shape[1]
        columns = self.columns[:, :m]
        columns[...] = lines[:, self.first:self.first + len(columns)].T
        for points in blocks(len(self.band), self.READ_POINTS):
            weights = self.band[points]
            taps, sums = self.taps[:weights.size, :m], self.sums[:len(weights), :m]
            np.take(columns, self.cols[points.start * width:points.stop * width], axis=0,
                    out=taps, mode="clip")
            np.einsum("ikr,ik->ir", taps.reshape(weights.shape + (m,)), weights, out=sums)
            out[:, points] = sums.T


def _band_down(lines, lo, band):
    """The (lo, band) rows of a quadrature.spline_band applied along axis 0
    to the spline of every column of lines, a 2d array with the flowed axis
    first: the lines, flowed axis first, as _line_pass returns them.

    The columns are prefiltered by prefilter_rows, whose steps each take one
    row: in place where lines is a pass's own result (writeable, and
    C-ordered as _line_pass and this function leave it), else, on a
    density's frozen values, into a new array.  So two passes hold two
    n x n arrays.  Output row i is then one einsum of band[i] with the band
    of coefficient rows it reads, on the calling thread, into a contiguous
    block of BLOCK_ROWS rows that is copied into the output as a whole: an
    einsum into a strided row took five times as long.
    """
    coeffs = lines if lines.flags.writeable else np.empty(lines.shape)
    prefilter_rows(lines, coeffs)
    out = np.empty(lines.shape[::-1]).T
    width = band.shape[1]
    block = np.empty((BLOCK_ROWS, lines.shape[1]))
    for rows in blocks(len(out)):
        held = block[:len(out[rows])]
        for row, start, weights in zip(held, lo[rows].tolist(), band[rows]):
            np.einsum("kj,k->j", coeffs[start:start + width], weights, out=row)
        out[rows] = held
    return out


# a w beyond which the Gaussian factor exp(-(a w)^2 / 2) of a blur's
# spectrum is below 2^-53
SPECTRUM_REACH = math.sqrt(106.0 * math.log(2.0))


def _blur_round_trip(values, axes, c, a):
    """_gauss_rows(., c, a) on both axes of a 2d array by one real-FFT round
    trip, for a blur a of at least MIN_BLUR_STEPS steps on each axis: the
    values on the nodes, C-contiguous in values' orientation.

    y, forward: each block of BLOCK_ROWS rows (lines along y) is
    transformed at the y blur's length and multiplied by its spectrum
    (_blur_spectrum), of which only the K bins with a w < SPECTRUM_REACH
    are kept; past them the sampled kernel's spectrum is its truncation
    floor, about 7e-16.  x, in the spectrum: the real and imaginary parts
    of the (n_x, K) band are 2K real lines along x, which _gauss_rows
    blurs and reads at c x, as every other pass does.  y, back: each block
    of rows is transformed back at the y length, and its coefficients are
    read at c y.  The flow holds its output and the band, O(n K) values:
    on the default grid K is 86 of 1441 bins at t = 0.1 and 50 of 1876 at
    t = 0.5, where two passes hold two n x n arrays.
    """
    (x, hx), (y, hy) = axes
    spectrum, nfft, size, radius = _blur_spectrum(a, hy, y.size)
    spectrum = spectrum[:math.ceil(SPECTRUM_REACH * nfft * hy / (2.0 * math.pi * a))]
    bins = spectrum.size
    transforms = _BlockFFT(y.size, nfft)
    band = np.empty((x.size, bins), dtype=complex)
    for rows in blocks(x.size):
        np.multiply(transforms.forward(values[rows])[:, :bins], spectrum, out=band[rows])
    # the x pass returns the lines flowed axis first, (n_x, 2K) in Fortran
    # order: one C-ordered copy views it as the complex band again
    band = np.ascontiguousarray(_gauss_rows(band.view(float).T, x, hx, c, a)).view(complex)
    read = _BandRead(*spline_band(grid_index(c * y[:, None], y[0] - radius * hy, hy),
                                  np.ones(1), size))
    out = np.empty((x.size, y.size))
    transforms.spectra[:, bins:] = 0.0
    for rows in blocks(x.size):
        m = len(band[rows])
        transforms.spectra[:m, :bins] = band[rows]
        read(transforms.backward(m), out[rows])
    return out


# === heat and OU flows ====================================================

def _flow(f, t, reference):
    """f flowed for time t: the heat flow on the Lebesgue reference, the OU
    flow on the Gaussian one.  Both map N(m, C) to N(c m, c^2 C + q I), with
    (c, q) = (1, 2t) for heat and (e^{-t}, 1 - c^2) for OU; q == 0 returns f.
    A grid flow's value at d y, d = sqrt(c^2 + q), is E f(c d y + sqrt(q) Z).
    """
    t = _flow_time(t)
    if reference is Reference.LEBESGUE:
        name, measure, c, q = "heat flow", "Lebesgue", 1.0, 2.0 * t
    else:
        c = math.exp(-t)
        name, measure, q = "OU flow", "Gaussian-reference", 1.0 - c * c
    if not isinstance(f, (GaussianDensity, GridDensity1D, GridDensity2D)):
        raise ReferenceMismatch(f"{name} is not defined for {type(f).__name__}")
    if f.reference is not reference:
        raise ReferenceMismatch(f"{name} acts on {measure} densities")
    if q == 0.0:
        return f
    if isinstance(f, GaussianDensity):
        return GaussianDensity(reference, c * f.mean, c * c * f.covariance + q * np.eye(f.dim))
    d = math.sqrt(c * c + q)
    return _flow_grid(f, c * d, math.sqrt(q), d)


def heat_flow(f, t):
    """e^{t Laplacian} applied to a Lebesgue density; variance grows by 2t per axis.

    A grid keeps n nodes per axis on the axis dilated by d = sqrt(1 + 2t),
    its value at d y being E f(d y + sqrt(2t) Z).  The spline is zero off
    the grid, so a density that is not negligible at an end e loses there
    part of what the kernel carries past e: f(e) sqrt(2t) [phi(k) - k Q(k)],
    k = (d - 1) |e| / sqrt(2t), Q the normal upper tail; about
    f(e) sqrt(t / pi) at small t.  The flow keeps the input's
    renormalization; the grids this package builds vanish at their ends.
    A 2d grid blurred by at least MIN_BLUR_STEPS steps on both axes is
    flowed by one FFT round trip, not one pass per axis (_flow_grid).
    """
    return _flow(f, t, Reference.LEBESGUE)


def ou_flow(f, t):
    """Ornstein-Uhlenbeck evolution of a Gaussian-reference density.

    The reversibility of the OU semigroup in L^2(gamma) means the relative
    density itself evolves by the Mehler operator P_t: on a grid, blur by
    N(0, 1 - e^{-2t}) and dilate by e^{-t}, one axis at a time, or below
    MIN_BLUR_STEPS grid steps of blur the Gauss-Hermite sum.
    """
    return _flow(f, t, Reference.GAUSSIAN)


# === Mehler operator ======================================================

def _mehler_angle(theta):
    """theta as a float, once it lies in [0, pi/2]; InvalidFlowTime otherwise."""
    theta = float(theta)
    if not 0.0 <= theta <= math.pi / 2.0 + 1e-12:
        raise InvalidFlowTime(f"theta must lie in [0, pi/2], got {theta!r}")
    return theta


def hermite_p_theta(f, theta, x=None):
    """P_theta f(x) = int f(x cos theta + y sin theta) dgamma(y), a GridFunction1D.

    A GridFunction1D or GridDensity1D (its spline, zero off-grid, possibly
    signed) goes through the OU flow's operator _gauss_rows on its own
    axis; an x that is not that axis raises GridError.  A callable is
    summed at 64 Gauss-Hermite nodes per point of x (default axis when
    omitted) by quadrature.affine_sums, 256 points of x at a time, so no
    (n, 64) array of samples is held.  theta in [0, pi/2]; P_0 is the
    identity and P_{pi/2} averages f against gamma.
    """
    theta = _mehler_angle(theta)
    c, s = math.cos(theta), math.sin(theta)
    if isinstance(f, (GridFunction1D, GridDensity1D)):
        if x is not None and not np.array_equal(x, f.x):
            raise GridError("a grid input is mapped on its own axis only")
        values = _gauss_rows(f.values, f.x, f.h, max(c, 0.0), s)
        return GridFunction1D(f.x, _freeze(values))
    if not callable(f):
        raise ReferenceMismatch(f"cannot evaluate {type(f).__name__} at Mehler points")
    x = default_axis() if x is None else np.asarray(x, dtype=float)
    z, w = gauss_hermite()
    return GridFunction1D(x, _freeze(affine_sums(f, x, c, z, s, w)))


# === flow diagnostics =====================================================

def de_bruijn_check(f, t, step=1e-3):
    """|d/dt S(f_t) + I(f_t)| via a centered difference at time t.

    The identity dS/dt = -I holds along the heat flow (Lebesgue reference)
    and the OU flow (Gaussian reference); the residual is dominated by the
    O(step^2) difference error for closed-form inputs.
    """
    t = _flow_time(t)
    step = float(step)
    if not (math.isfinite(step) and 0.0 < step <= t):
        raise InvalidFlowTime(f"need 0 < step <= t, got step={step!r}, t={t!r}")
    s_plus = entropy(_flow(f, t + step, f.reference))
    s_minus = entropy(_flow(f, t - step, f.reference))
    i_mid = fisher(_flow(f, t, f.reference))
    return abs((s_plus - s_minus) / (2.0 * step) + i_mid)


def stability_check(f, direction, t):
    """sup |marginal(flow(f)) - flow(marginal(f))| on a 2d density.

    Flows commute with directional marginals (per-axis heat kernels and
    the rotation invariance of the OU mechanism); both paths land on the
    same output grid by construction.

    The unweighted sup is the meaningful error measure for Lebesgue
    densities.  Gaussian-reference values may grow toward the grid edge
    (any variance above 1), where the two paths' relative agreement is
    amplified into a large absolute difference; weight by the reference
    density before comparing in that regime.
    """
    t = _flow_time(t)
    if not isinstance(f, GridDensity2D):
        raise ReferenceMismatch("stability check needs a GridDensity2D")
    via_2d = marginal(_flow(f, t, f.reference), direction)
    via_1d = _flow(marginal(f, direction), t, f.reference)
    if via_2d.x.size != via_1d.x.size or abs(via_2d.x[0] - via_1d.x[0]) > 1e-9:
        raise ReferenceMismatch("flow and marginal landed on different grids")
    return float(np.max(np.abs(via_2d.values - via_1d.values)))
