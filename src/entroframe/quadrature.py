"""Quadrature rules and spline sampling shared by the density modules.

Everything here operates on uniform, ascending, odd-length grids so that
composite Simpson weights are exact and subsampling by 2 keeps the
endpoints.

Every pass over an n x n grid runs BLOCK_ROWS lines at a time (blocks
returns the slices), so it holds O(BLOCK_ROWS n) working values, never a
whole n x n temporary.  Every contraction of such a block, or of an
n x 64 array of Gauss-Hermite samples, with a weight vector goes through
contract, which uses np.einsum and so never calls BLAS.  A
BLAS product of that size runs on the BLAS thread pool, whose threads
keep spinning on the other cores after the call returns: they cost CPU
time and save no wall time at this size.  einsum runs on the calling
thread alone.  A 1d Simpson sum of n values stays a dot product, which
BLAS runs on one thread.
"""

import functools

import numpy as np
from scipy import ndimage, sparse


# === grids ================================================================

def validate_axis(x, name="axis"):
    """Check that x is a uniform ascending grid of odd length >= 65.

    Returns the grid step.  Raises ValueError on malformed axes; callers
    wrap this in the package error types.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 65 or x.size % 2 == 0:
        raise ValueError(f"{name} must be 1d with odd length >= 65, got shape {x.shape}")
    steps = np.diff(x)
    h = (x[-1] - x[0]) / (x.size - 1)
    if h <= 0 or not np.all(np.abs(steps - h) <= 1e-12 * max(abs(x[0]), abs(x[-1]), 1.0)):
        raise ValueError(f"{name} must be uniform and ascending")
    return h


# Lines of an n x n grid that one pass holds at a time.
BLOCK_ROWS = 64


def blocks(n):
    """Slices of BLOCK_ROWS consecutive indices covering range(n)."""
    return [slice(start, start + BLOCK_ROWS) for start in range(0, n, BLOCK_ROWS)]


# === Simpson ==============================================================

def simpson_weights(n, h):
    """Composite Simpson weights for n (odd) uniformly spaced points."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"Simpson rule needs odd n >= 3, got {n}")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


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

# Cubic B-spline coefficients are prefiltered once per 1d array, so repeated
# sampling of the same line pays the filter cost once.  The lines of a 2d
# grid are prefiltered BLOCK_ROWS at a time, right before they are sampled.

SPLINE_ORDER = 3


def spline_coefficients(values, axis=None, out=None):
    """Prefiltered spline coefficients along every axis, or along one axis only.

    out, if given, is the float array of values' shape that receives them.
    """
    values = np.asarray(values, dtype=float)
    output = np.float64 if out is None else out
    if axis is None:
        return ndimage.spline_filter(values, order=SPLINE_ORDER, output=output,
                                     mode="constant")
    return ndimage.spline_filter1d(values, order=SPLINE_ORDER, axis=axis, output=output,
                                   mode="constant")


def grid_index(points, x0, h):
    """Fractional index (p - x0) / h of points p on the grid x0 + k h."""
    return (np.asarray(points, dtype=float) - x0) / h


def sample_coefficients(coeffs, indices):
    """Evaluate prefiltered spline coefficients at fractional indices.

    indices: sequence of index arrays, one per array axis; points outside
    the grid evaluate to 0.
    """
    return ndimage.map_coordinates(coeffs, indices, order=SPLINE_ORDER,
                                   mode="constant", cval=0.0, prefilter=False)


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
    u = index - base
    v = 1.0 - u
    scale = np.asarray(weights, dtype=float) * ((index >= 0.0) & (index <= n - 1)) / 6.0
    # cubic B-spline weights of the taps at base - 1 .. base + 2
    taps = np.empty((4,) + index.shape)
    np.multiply(v * v * v, scale, out=taps[0])
    np.multiply(4.0 - 3.0 * u * u * (2.0 - u), scale, out=taps[1])
    np.multiply(4.0 - 3.0 * v * v * (2.0 - v), scale, out=taps[2])
    np.multiply(u * u * u, scale, out=taps[3])
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


def sheared_sum(terms, index0, shifts):
    """sum_j w_j * s_j(index0 - shifts[j]), s_j the 1d spline of line j.

    The lines come BLOCK_ROWS at a time: for each slice lines of
    blocks(len(shifts)), terms(lines) returns their coefficients, one row
    per line, each prefiltered along itself only, and their weights w_j,
    broadcastable to (rows, k).  index0: (k,) fractional indices, shifted
    by shifts[j] in line j.  One 4-tap evaluation per point of each line;
    points outside a line evaluate to 0.
    """
    index0 = np.asarray(index0, dtype=float)
    out = np.zeros(index0.size)
    samples = np.empty(index0.size)
    for lines in blocks(len(shifts)):
        rows, weights = terms(lines)
        weights = np.broadcast_to(weights, (len(rows), index0.size))
        for row, shift, w in zip(rows, shifts[lines], weights):
            ndimage.map_coordinates(row, (index0 - shift)[None, :], output=samples,
                                    order=SPLINE_ORDER, mode="constant", cval=0.0,
                                    prefilter=False)
            out += w * samples
    return out
