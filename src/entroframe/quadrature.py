"""Quadrature rules and spline sampling shared by the density modules.

Everything here operates on uniform, ascending, odd-length grids so that
composite Simpson weights are exact and subsampling by 2 keeps the
endpoints.
"""

import numpy as np
from scipy import ndimage


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


# === Simpson ==============================================================

def simpson_weights(n, h):
    """Composite Simpson weights for n (odd) uniformly spaced points."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"Simpson rule needs odd n >= 3, got {n}")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


# === Gauss-Hermite ========================================================

def gauss_hermite(n=64):
    """Nodes and weights integrating f against the standard gaussian.

    Probabilists' normalization: sum w_k f(z_k) ~ int f d(gamma_1).
    """
    z, w = np.polynomial.hermite.hermgauss(n)
    return z * np.sqrt(2.0), w / np.sqrt(np.pi)


# === spline sampling ======================================================

# Cubic B-spline coefficients are prefiltered once per array so repeated
# sampling (marginal lines, Hermite nodes) pays the filter cost once.

SPLINE_ORDER = 3


def spline_coefficients(values, order=SPLINE_ORDER, axis=None):
    """Prefiltered spline coefficients along every axis, or along one axis only."""
    if order <= 1:
        return np.asarray(values, dtype=float)
    values = np.asarray(values, dtype=float)
    if axis is None:
        return ndimage.spline_filter(values, order=order, mode="constant")
    return ndimage.spline_filter1d(values, order=order, axis=axis, mode="constant")


def sample_coefficients(coeffs, indices, order=SPLINE_ORDER):
    """Evaluate prefiltered spline coefficients at fractional indices.

    indices: sequence of index arrays, one per array axis; points outside
    the grid evaluate to 0.
    """
    return ndimage.map_coordinates(coeffs, indices, order=order,
                                   mode="constant", cval=0.0, prefilter=False)


def sheared_sum(rows, index0, shifts, weights):
    """sum_j weights[j] * s_j(index0 - shifts[j]), s_j the 1d spline of rows[j].

    rows: (m, n) coefficients, each row prefiltered along itself only;
    index0: (k,) fractional indices, shifted by shifts[j] in row j;
    weights: broadcastable to (m, k).  One 4-tap evaluation per point of
    each row; points outside a row evaluate to 0.
    """
    index0 = np.asarray(index0, dtype=float)
    weights = np.broadcast_to(weights, (len(rows), index0.size))
    out = np.zeros(index0.size)
    samples = np.empty(index0.size)
    for row, shift, w in zip(rows, shifts, weights):
        ndimage.map_coordinates(row, (index0 - shift)[None, :], output=samples,
                                order=SPLINE_ORDER, mode="constant", cval=0.0,
                                prefilter=False)
        out += w * samples
    return out
