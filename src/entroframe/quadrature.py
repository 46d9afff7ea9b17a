"""Quadrature rules and spline sampling shared by the density modules.

Everything here operates on uniform, ascending, odd-length grids so that
composite Simpson weights are exact and subsampling by 2 keeps the
endpoints.

Every pass over an n x n grid runs BLOCK_ROWS lines at a time (blocks
returns the slices), so it holds O(BLOCK_ROWS n) working values, never a
whole n x n temporary.  A caller's function (a callable frame factor, or a
callable under the Mehler formula at 64 Gauss-Hermite nodes per point) is
evaluated on at most CALL_POINTS points at a time (call_blocks returns the
slices of rows), so that its temporaries stay small enough for the
allocator to reuse from block to block.  Every contraction of
such a block with a weight vector goes through contract, which uses
np.einsum and so never calls BLAS.  A
BLAS product of that size runs on the BLAS thread pool, whose threads
keep spinning on the other cores after the call returns: they cost CPU
time and save no wall time at this size.  einsum runs on the calling
thread alone.  A 1d Simpson sum of n values stays a dot product, which
BLAS runs on one thread.

A sheared sum, sum_j w_j s_j(a - shift_j) over the splines s_j of n lines
(the marginals and linear combinations), is sampled on one lattice of step
LATTICE_STEP = 1/2 in index units.  On the lattice points of one phase, a
line's points share their fractional part, so the line's samples there are
one 4-tap filter (np.correlate).  The lines add into one O(n) lattice
array, and its own cubic spline is evaluated once at the output points: n^2
spline evaluations become 2 n^2 filter outputs plus O(n) evaluations, and
the resampling adds the error of a spline at half the grid step.  Each
line's weight w_j is one constant, so the filters read the lines' values,
and the spline prefilter, which commutes with them, runs once on each phase
of the lattice sum: two O(n) prefilters per sum in place of one per line.
A weight that varies along the lines (the Gaussian reference's gamma(s),
s = x.u_perp) is taken at the lines' nodes: each block of lines is
multiplied by it before it is filtered, so the sum is that of the splines
of the weighted lines, and no line is prefiltered in either reference.
On Gaussian marginals over Lebesgue measure the largest pointwise error
against the closed form was 12% (n = 513) to 17% (n = 257) above that of
one spline evaluation per point, the same to three digits whether the
values or the coefficients are sampled; a lattice of step 1 saved another
fifth of the time but raised it 2.6 times.

Where every line is a copy of one line with a constant weight (a linear
combination of two 1d densities, or the grid factor of a frame integral),
shifted_copies takes the same lattice sum without the copies: on each
phase the copies' 4-tap filters fold into one comb, and the sum is one
real-FFT correlation of the zero-extended line with it, O(n log n) in
place of n filters per phase.  Its values are sheared_sum's to summation
order (within 1.1e-14 of the peak on random draws up to n = 2049).
"""

import functools
import math

import numpy as np
from scipy import fft, ndimage, sparse

from .errors import GridError


# === grids ================================================================

def validate_axis(x, name="axis"):
    """Check that x is a uniform ascending grid of odd length >= 65.

    Returns the grid step; raises GridError on a malformed axis.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 65 or x.size % 2 == 0:
        raise GridError(f"{name} must be 1d with odd length >= 65, got shape {x.shape}")
    steps = np.diff(x)
    h = (x[-1] - x[0]) / (x.size - 1)
    if h <= 0 or not np.all(np.abs(steps - h) <= 1e-12 * max(abs(x[0]), abs(x[-1]), 1.0)):
        raise GridError(f"{name} must be uniform and ascending")
    return h


# Lines of an n x n grid that one pass holds at a time.
BLOCK_ROWS = 64

# Points at which one call evaluates a caller's function: the rows of one
# block of an (n, width) point set.  2^14 doubles are 128 KiB, which glibc
# keeps on its heap for reuse; the 1 MiB temporaries of 64 rows of 2049
# points, or of a whole (2049, 64) Gauss-Hermite array, went back to the
# kernel when freed, and every next block zero-filled fresh pages.
CALL_POINTS = 2 ** 14


def blocks(n, rows=BLOCK_ROWS):
    """Slices of rows consecutive indices covering range(n)."""
    return [slice(start, start + rows) for start in range(0, n, rows)]


def call_blocks(n, width):
    """Slices covering range(n), each of max(1, CALL_POINTS // width)
    consecutive rows of an (n, width) point set."""
    return blocks(n, max(1, CALL_POINTS // width))


# === Simpson ==============================================================

def simpson_weights(n, h):
    """Composite Simpson weights for n (odd) uniformly spaced points.

    Built once per (n, h) among the last 32 pairs asked for (the axes of a
    few densities); the array is read-only and shared by all callers, who
    only multiply it.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"Simpson rule needs odd n >= 3, got {n}")
    return _simpson_weights(int(n), float(h))


@functools.lru_cache(maxsize=32)
def _simpson_weights(n, h):
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= h / 3.0
    w.flags.writeable = False
    return w


def contract(values, weights):
    """sum_k values[..., k] * weights[k], on the calling thread alone."""
    return np.einsum("...k,k->...", values, weights)


# === Gauss-Hermite ========================================================

def gauss_hermite(n=64):
    """Nodes and weights integrating f against the standard gaussian.

    Probabilists' normalization: sum w_k f(z_k) ~ int f d(gamma_1).
    Computed once per n; the arrays are read-only and shared by all callers.
    """
    return _gauss_hermite(int(n))


@functools.cache
def _gauss_hermite(n):
    z, w = np.polynomial.hermite.hermgauss(n)
    z, w = z * np.sqrt(2.0), w / np.sqrt(np.pi)
    z.flags.writeable = w.flags.writeable = False
    return z, w


# === spline sampling ======================================================

# Cubic B-spline coefficients are prefiltered once per line, so repeated
# sampling of the same line pays the filter cost once.

def spline_coefficients(lines):
    """Prefiltered cubic spline coefficients of lines along their last axis."""
    return ndimage.spline_filter1d(np.asarray(lines, dtype=float), order=3, axis=-1,
                                   mode="constant")


def grid_index(points, x0, h):
    """Fractional index (p - x0) / h of points p on the grid x0 + k h."""
    return (np.asarray(points, dtype=float) - x0) / h


def sample_coefficients(coeffs, indices):
    """Evaluate prefiltered spline coefficients at fractional indices.

    indices: sequence of index arrays, one per array axis; points outside
    the grid evaluate to 0.
    """
    return ndimage.map_coordinates(coeffs, indices, order=3,
                                   mode="constant", cval=0.0, prefilter=False)


def _bspline_weights(u):
    """6 x the cubic B-spline weights of the taps at floor(p) - 1 .. floor(p) + 2
    of a point p with fractional part u, stacked on a new first axis."""
    v = 1.0 - u
    return v * v * v, 4.0 - 3.0 * u * u * (2.0 - u), 4.0 - 3.0 * v * v * (2.0 - v), u * u * u


def spline_matrix(index, weights, n):
    """Sparse (m, n) matrix S with (S @ c)[i] = sum_k weights[k] * s(index[i, k]).

    s is the cubic spline of the n prefiltered coefficients c, evaluated as
    sample_coefficients does: taps past an edge read the mirrored
    coefficient (c[-1] = c[1]) and points outside [0, n - 1] evaluate to 0.
    index is (m, k), weights (k,).  Each row is built as one dense band, so
    no duplicate entries are summed afterwards.
    """
    index = np.asarray(index, dtype=float)
    m = index.shape[0]
    base = np.floor(index)
    scale = np.asarray(weights, dtype=float) * ((index >= 0.0) & (index <= n - 1)) / 6.0
    taps = np.empty((4,) + index.shape)
    for tap, weight in zip(taps, _bspline_weights(index - base)):
        np.multiply(weight, scale, out=tap)
    # row i is one band of columns lo[i] .. lo[i] + width - 1 (before mirroring)
    first = base.astype(np.intp) - 1
    lo = first.min(axis=1)
    first -= lo[:, None]
    width = int(first.max()) + 4
    first += np.arange(0, m * width, width)[:, None]
    band = np.bincount((first + np.arange(4)[:, None, None]).ravel(), taps.ravel(),
                       minlength=m * width)
    cols = np.abs(lo[:, None] + np.arange(width))
    cols = np.where(cols > n - 1, 2 * (n - 1) - cols, cols)
    # columns still out of range after mirroring carry only zero weights
    cols = np.clip(cols, 0, n - 1)
    return sparse.csr_matrix((band, cols.ravel(), np.arange(0, m * width + 1, width)),
                             shape=(m, n))


# Step, in index units, of the lattice on which sheared_sum samples every
# line, and the lattice points it keeps past the output points at each end:
# the end conditions of the resampling spline reach an output point damped
# by 0.268 per point, so by less than 1e-9 across the margin.
LATTICE_STEP = 0.5
LATTICE_MARGIN = 16


def sheared_sum(lines, sums):
    """Sheared sums sum_j w_j * s_j(index0 - shifts[j]) over the cubic
    splines s_j of the rows of lines, one array of values per sum.

    lines, (count, n), is read BLOCK_ROWS rows at a time, and every sum
    reads each block.  sums holds one (index0, shifts, weights[, scale])
    per sum: index0, (k,) fractional indices, is shifted by shifts[j] in
    line j, and weights, (count,), holds one constant w_j per line.  scale,
    if given, is a function scale(block) that returns the (rows, n) node
    weights of the block's lines; s_j is then the spline of line j's values
    times its node weights.

    Each sum samples every line on its own lattice a_m = a_0 + m LATTICE_STEP
    of fractional indices, covering its index0.  On the lattice points
    a_0 + p LATTICE_STEP + i of one phase p, line j's points a - shifts[j]
    share one fractional part, so its four B-spline weights are constant
    along the line and its samples are one 4-tap filter (np.correlate) of
    the line.  The filter reads the line's values, zero-extended at its
    ends and multiplied by its node weights where the sum has them, with
    w_j folded into the four taps.  The samples of all lines add into one
    lattice array G per sum.  The spline prefilter is a shift-invariant
    linear filter, so it commutes with the 4-tap filters, the shifts by
    whole indices and the sum (Unser, Aldroubi and Eden, 1993):
    prefiltering each phase of G once gives the sum of the lines' splines,
    and no line is prefiltered.  The cubic spline of G is then evaluated at
    index0.
    """
    lattices = [_Lattice(*terms) for terms in sums]
    plain = [lattice for lattice in lattices if lattice.scale is None]
    scaled = [lattice for lattice in lattices if lattice.scale is not None]
    count, n = lines.shape
    # value k of a row sits at k + PAD, between zeros
    values = np.zeros((min(BLOCK_ROWS, count), n + 2 * _Lattice.PAD))
    for block in blocks(count):
        rows = lines[block]
        ext = values[:len(rows)]
        held = ext[:, _Lattice.PAD:-_Lattice.PAD]
        if plain:
            held[...] = rows
        for lattice in plain:
            lattice.add(block, ext, n)
        for lattice in scaled:
            np.multiply(rows, lattice.scale(block), out=held)
            lattice.add(block, ext, n)
    return [lattice.resample() for lattice in lattices]


def shifted_copies(line, index0, shifts, weights):
    """sum_j weights[j] * s(index0 - shifts[j]) over the cubic spline s of
    one line of n values, zero-extended at its ends: the sheared_sum of
    copies of the line with constant weights, without the copies.

    On the lattice of sheared_sum, copy j at phase p reads the line through
    four taps at value indices base_jp - 1 .. base_jp + 2 of lattice point
    0, each one further on at each next point.  Every copy reads the same
    line, so np.bincount folds the 4 m weighted taps of the m copies into
    one comb kappa_p over the offsets they reach, and the phase's lattice
    sum is the correlation G_p[i] = sum_k kappa_p[k] line[lo_p + k + i],
    done by a real FFT at a 5-smooth length: O(n log n) on one thread for
    the 2 n m filter outputs of sheared_sum, and no BLAS (a long
    np.correlate runs through numpy's dot, which can).  The phase sums are
    then prefiltered and resampled at index0 as sheared_sum does it.
    """
    lattice = _Lattice(index0, shifts, weights)
    base, taps = lattice.taps(slice(None))
    # copy j, phase p: lattice point i reads values first[j, p] + i .. + 3
    first = base - 1
    lo = first.min(axis=0)
    widths = first.max(axis=0) - lo + 4
    n = line.size
    # correlation lags -(width - 1) .. n - 1 fit in nfft without wrapping
    nfft = fft.next_fast_len(n + int(widths.max()) - 1, real=True)
    spectrum = fft.rfft(line, nfft)
    for p, (end, width) in enumerate(zip(lattice.ends, widths)):
        comb = np.bincount((first[:, p, None] - lo[p] + np.arange(4)).ravel(),
                           taps[:, p].ravel(), minlength=width)
        # lag d of the circular correlation sits at d mod nfft
        corr = fft.irfft(spectrum * np.conj(fft.rfft(comb, nfft)), nfft)
        lag = lo[p] + np.arange(end)
        lattice.phase_sums[p, :end] = np.where((lag > -width) & (lag < n), corr[lag % nfft], 0.0)
    return lattice.resample()


class _Lattice:
    """One sum of sheared_sum: its lattice and the O(n) sum G on it, kept
    as one row per phase, so each line adds into contiguous values.  taps
    gives each line's phase bases and 4-tap filters, to add for a block of
    lines and to shifted_copies for every copy of its one line."""

    PHASES = round(1.0 / LATTICE_STEP)
    # zeros on each side of a line: the taps of the points within two
    # indices of its ends
    PAD = 3

    def __init__(self, index0, shifts, weights, scale=None):
        self.index0 = np.asarray(index0, dtype=float)
        self.shifts, self.weights, self.scale = shifts, weights, scale
        self.a0 = self.index0.min() - LATTICE_MARGIN * LATTICE_STEP
        self.size = math.ceil((self.index0.max() - self.a0) / LATTICE_STEP) + LATTICE_MARGIN + 1
        # lattice point i of phase p, at a_0 + p LATTICE_STEP + i, is
        # G[PHASES i + p] = phase_sums[p, i], for 0 <= i < ends[p]
        self.ends = np.array([len(range(p, self.size, self.PHASES)) for p in range(self.PHASES)])
        self.phase_sums = np.zeros((self.PHASES, self.ends[0]))

    def taps(self, rows):
        """(base, taps) of the lines rows: at phase p, lattice point i lies
        at base[j, p] + u + i on line j, 0 <= u < 1, so it reads the line's
        values base - 1 + i .. base + 2 + i with the weights taps[j, p], the
        four B-spline weights of u times w_j."""
        start = self.a0 + LATTICE_STEP * np.arange(self.PHASES) - self.shifts[rows, None]
        base = np.floor(start)
        taps = np.stack(_bspline_weights(start - base), axis=-1) / 6.0 \
            * self.weights[rows, None, None]
        return base.astype(np.intp), taps

    def add(self, block, ext, n):
        """Add the samples of the block's lines of n points each, whose
        values ext holds between PAD zeros."""
        base, taps = self.taps(block)
        # the points whose taps reach the line: within 2 of [0, n - 1]
        first = np.maximum(-2 - base, 0)
        last = np.minimum(n - base, self.ends - 1)
        # row[b + i] is the first tap of point i: value k sits at k + PAD
        for row, line_taps, line_base, line_first, line_last in zip(
                ext, taps, (base + self.PAD - 1).tolist(), first.tolist(), last.tolist()):
            for p, (tap, b, i, j) in enumerate(zip(line_taps, line_base, line_first, line_last)):
                if i <= j:
                    self.phase_sums[p, i:j + 1] += np.correlate(row[b + i:b + j + 4], tap)

    def resample(self):
        """The cubic spline of the sum G, evaluated at index0.  G is first
        prefiltered along each phase, which makes it the sum of the lines'
        splines."""
        total = np.empty(self.size)
        for p, (row, end) in enumerate(zip(self.phase_sums, self.ends)):
            total[p::self.PHASES] = spline_coefficients(row[:end])
        return sample_coefficients(spline_coefficients(total),
                                   [(self.index0 - self.a0) / LATTICE_STEP])
