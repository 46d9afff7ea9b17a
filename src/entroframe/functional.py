"""Entropy, Fisher information, and L^p norms.

Conventions: S_mu(f) = int f log f dmu (the negative of the differential
entropy when mu is Lebesgue and f a probability density), and
I_mu(f) = int |grad f|^2 / f dmu.  Both are computed by composite Simpson
quadrature on grid densities and by closed forms on GaussianDensity.

The integrand x log x is evaluated with a hard floor at 1e-300 so that
0 log 0 = 0.  The Fisher integrand |grad f|^2/f is zeroed where the
Lebesgue density f dmu/dx is at most eps times its largest value on the
grid: a flowed density's far tail is FFT rounding of that size, next to
gradients of the same size, and kept it took the error of a 2d heat flow
at t = 0.05 from -8.8e-9 to +2.3e-7 (n = 2049).  The floor is weighted
by dmu/dx because a Gaussian-reference density may be largest at the
grid's edge, where eps times its largest value zeroes real mass.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .density import (LOG_2PI, GaussianDensity, GridDensity1D, GridDensity2D,
                      GridFunction1D, Reference, _cached, block_integral,
                      integral, reference_weight)
from .errors import InvalidExponents, NonSmoothWarning, ReferenceMismatch
from .quadrature import blocks

VALUE_FLOOR = 1e-300

# The Fisher integrand is zeroed where f dmu/dx is at most this fraction
# of its largest value on the grid: there f is its own rounding.
FISHER_FLOOR = np.finfo(float).eps

# Relative disagreement between the h and 2h Fisher estimates above which
# the input is flagged as insufficiently resolved.
ROUGHNESS_TOL = 0.05


# === integrands ===========================================================

def xlogx(values):
    v = np.asarray(values, dtype=float)
    out = np.maximum(v, VALUE_FLOOR)
    np.log(out, out=out)
    out *= v
    np.copyto(out, 0.0, where=v <= VALUE_FLOOR)
    return out


# === entropy ==============================================================

def _entropy_gaussian(f):
    sign, logdet = np.linalg.slogdet(f.covariance)
    n = f.dim
    if f.reference is Reference.GAUSSIAN:
        m2 = float(f.mean @ f.mean)
        return 0.5 * (float(np.trace(f.covariance)) + m2 - n - logdet)
    return -0.5 * n * (LOG_2PI + 1.0) - 0.5 * logdet


def entropy(f):
    """S_mu(f), a float, for a grid or Gaussian density.

    A grid density's quadrature runs once and is kept on the density, which
    is frozen: a frame check asks for S(f) of the same density again and again.
    """
    if isinstance(f, GaussianDensity):
        return float(_entropy_gaussian(f))
    if isinstance(f, (GridDensity1D, GridDensity2D)):
        return _cached(f, "_entropy_memo", lambda: block_integral(
            f.reference, lambda rows: xlogx(f.values[rows]), *f.axes))
    raise ReferenceMismatch(f"entropy is not defined for {type(f).__name__}")


# === Fisher information ===================================================

def _above_floor(values, axes, reference):
    """rows -> whether f dmu/dx exceeds FISHER_FLOOR times its largest value
    on the grid, at the nodes rows of the first axis of values.

    Over the Gaussian reference dmu/dx = wx wy, the product of each axis's
    gamma (wx = 1 on a 1d grid, one row), so f dmu/dx > floor is
    f wy > floor / wx.  Its largest value is found BLOCK_ROWS rows at a
    time, and no block of it is kept.
    """
    if reference is Reference.LEBESGUE:
        floor = FISHER_FLOOR * float(values.max())
        return lambda rows: values[rows] > floor
    *first, (y, _) = axes
    wy = reference_weight(reference, y)
    wx = reference_weight(reference, first[0][0]) if first else np.ones(1)
    lines = values.reshape(wx.size, -1)
    peak = max(float(np.max(np.max(lines[rows] * wy, axis=1) * wx[rows]))
               for rows in blocks(wx.size))
    limit = (FISHER_FLOOR * peak / wx).reshape(values.shape[:-1] + (1,))
    return lambda rows: values[rows] * wy > limit[rows]


def _fisher_estimate(values, axes, reference):
    n = values.shape[0]
    above = _above_floor(values, axes, reference)

    def integrand(rows):
        # |grad f|^2 / f where above, else 0, built in place in the x
        # gradient's array; a block with no node above the floor is all 0,
        # so it is not differenced.  The gradient along x reads one row
        # past each end of rows, and at least 3 rows (edge_order=2), so
        # every kept row gets the difference it gets on the whole array.
        keep = above(rows)
        if not keep.any():
            return np.zeros(keep.shape)
        start, stop, _ = rows.indices(n)
        hi = min(stop + 1, n)
        lo = max(min(start - 1, hi - 3), 0)
        block = values[lo:hi]
        v = values[rows]
        sq = np.gradient(block, axes[0][1], axis=0, edge_order=2)[start - lo:stop - lo]
        sq *= sq
        if len(axes) == 2:
            t = np.gradient(v, axes[1][1], axis=1, edge_order=2)
            t *= t
            sq += t
        sq /= np.maximum(v, VALUE_FLOOR)
        np.copyto(sq, 0.0, where=~keep)
        return sq
    return block_integral(reference, integrand, *axes)


def _coarse_slice(n):
    # Subsample by 2 keeping an odd count for Simpson: start at 0 when
    # (n+1)/2 is odd, else at 1 (dropping one ~zero tail point per side).
    return slice(0, None, 2) if ((n + 1) // 2) % 2 == 1 else slice(1, None, 2)


def _richardson(fine, coarse, what):
    # Central differences are O(h^2); one Richardson step removes the
    # leading term.  Large disagreement flags an under-resolved density.
    if abs(fine - coarse) > ROUGHNESS_TOL * max(abs(fine), 1e-12):
        warnings.warn(
            f"{what}: Fisher estimates at h and 2h differ by "
            f"{abs(fine - coarse):.3e} (> {ROUGHNESS_TOL:.0%} of {abs(fine):.3e})",
            NonSmoothWarning, stacklevel=3)
    return fine + (fine - coarse) / 3.0


def _fisher_gaussian(f):
    n = f.dim
    inv = np.linalg.inv(f.covariance)
    if f.reference is Reference.GAUSSIAN:
        b = np.eye(n) - inv
        return float(f.mean @ f.mean) + float(np.trace(b @ f.covariance @ b.T))
    return float(np.trace(inv))


def fisher(f):
    """I_mu(f), a float, for a grid or Gaussian density.

    Grid path: second-order central differences at steps h and 2h with one
    Richardson extrapolation; NonSmoothWarning when the two estimates
    disagree by more than 5%.
    """
    if isinstance(f, GaussianDensity):
        return _fisher_gaussian(f)
    if isinstance(f, (GridDensity1D, GridDensity2D)):
        slices = tuple(_coarse_slice(x.size) for x, _ in f.axes)
        fine = _fisher_estimate(f.values, f.axes, f.reference)
        coarse = _fisher_estimate(f.values[slices],
                                  [(x[s], 2.0 * h) for (x, h), s in zip(f.axes, slices)],
                                  f.reference)
        return _richardson(fine, coarse, "fisher")
    raise ReferenceMismatch(f"fisher information is not defined for {type(f).__name__}")


# === L^p norms ============================================================

def _norm_exponent(p):
    p = float(p)
    if not p >= 1.0 or not math.isfinite(p):
        raise InvalidExponents(f"norm exponent must be finite and >= 1, got {p!r}")
    return p


def _lp_norm(values, p, reference, axis):
    """||values||_{L^p(mu)} = m ||v / m||_{L^p(ds)}, v = |values| (dmu/ds)^{1/p},
    m = max v: no power over- or underflows however large p or the values."""
    p = _norm_exponent(p)
    v = np.abs(np.asarray(values, dtype=float)) * reference_weight(reference, axis[0], p)
    m = float(np.max(v))
    return 0.0 if m == 0.0 else m * integral(Reference.LEBESGUE, (v / m) ** p, axis) ** (1.0 / p)


def _lp_norm_gaussian(f, p, reference):
    """||N(m, v)||_p = p^(-1/(2p)) (2 pi v)^((1-p)/(2p)) against Lebesgue measure."""
    if f.dim != 1 or f.reference is not Reference.LEBESGUE \
            or reference not in (None, Reference.LEBESGUE):
        raise ReferenceMismatch("lp_norm of a GaussianDensity needs a 1d Lebesgue density")
    p = _norm_exponent(p)
    v = float(f.covariance[0, 0])
    return p ** (-0.5 / p) * (2.0 * math.pi * v) ** ((1.0 - p) / (2.0 * p))


def lp_norm(f, p, reference=None):
    """||f||_{L^p(mu)} for a 1d grid function or density, or a 1d Lebesgue
    GaussianDensity (closed form).

    GridFunction1D needs the reference spelled out; densities carry theirs.
    """
    if isinstance(f, GaussianDensity):
        return _lp_norm_gaussian(f, p, reference)
    if not isinstance(f, (GridDensity1D, GridFunction1D)):
        raise ReferenceMismatch(f"lp_norm is not defined for {type(f).__name__}")
    if reference is None:
        if isinstance(f, GridFunction1D):
            raise ReferenceMismatch("lp_norm of a grid function needs an explicit reference")
        reference = f.reference
    return _lp_norm(f.values, p, reference, f.axes[0])
