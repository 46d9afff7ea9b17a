"""Grid-sampled and Gaussian densities against a reference measure.

A density is normalized so that int f dmu = 1, where mu is either
Lebesgue measure or the standard Gaussian measure (per dimension).  Grid
densities live on uniform odd-length axes; GaussianDensity carries exact
mean/covariance so that entropies, Fisher informations, and flows can
dispatch to closed forms.  The operations marginal, linear_combination,
convolve and scale1d are exact on GaussianDensity input: they return the
GaussianDensity of the transformed law, under the same input rules as on
grids.

Mass policy for constructed values: a deviation of the total mass from 1
up to 1e-6 (1D) or 1e-5 (2D) is accepted as is; up to 1e-2 the density is
renormalized and RenormalizationWarning is emitted; beyond that
NormalizationError is raised.  Marginals and linear combinations
renormalize silently and record the applied factor; flows do not
renormalize and keep their input's factor.
"""

from __future__ import annotations

import copy
import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import fft
from scipy.special import ndtr

from .errors import (DomainTruncation, GridError, NormalizationError, NotSPD,
                     ReferenceMismatch, RenormalizationWarning, ZeroScale)
from .frames import Direction
from .quadrature import (blocks, contract, grid_index, sample_coefficients,
                         sheared_sum, shifted_copies, simpson_weights,
                         spline_coefficients, validate_axis)

LOG_2PI = math.log(2.0 * math.pi)

# Mass policy thresholds.
MASS_TIGHT_1D = 1e-6
MASS_TIGHT_2D = 1e-5
MASS_LOOSE = 1e-2

# Fraction of mass allowed to leave the interpolation domain in marginals.
TRUNCATION_TOL = 1e-4

# Values below -NEGATIVE_TOL * peak are rejected; smaller undershoots
# (cubic interpolation ringing) are clipped to 0.
NEGATIVE_TOL = 1e-9

DEFAULT_LENGTH = 10.0
DEFAULT_POINTS = 2049


class Reference(enum.Enum):
    LEBESGUE = "lebesgue"
    GAUSSIAN = "gaussian"


# === default grid =========================================================

def default_axis(length=None, points=None):
    """points nodes on [-length, length]; None takes DEFAULT_POINTS, DEFAULT_LENGTH."""
    length = DEFAULT_LENGTH if length is None else float(length)
    points = DEFAULT_POINTS if points is None else int(points)
    if points < 65 or points % 2 == 0:
        raise GridError(f"axis needs an odd number of points >= 65, got {points}")
    if not 0.0 < length < math.inf:
        raise GridError(f"axis half-length must be positive and finite, got {length}")
    return np.linspace(-length, length, points)


# === reference weights ====================================================

def log_gaussian_weight(x):
    """log of the standard gaussian density at x (elementwise)."""
    x = np.asarray(x, dtype=float)
    return -0.5 * x * x - 0.5 * LOG_2PI


def reference_weight(reference, x):
    """d(mu)/dx at the points x, an array of any shape: 1 for Lebesgue, else
    the standard gaussian density."""
    if reference is Reference.LEBESGUE:
        return 1.0
    return np.exp(log_gaussian_weight(x))


def integral(reference, values, *axes):
    """int g dmu over the product grid of axes, each an (x, h) pair.

    values[i, ...] = g(x_i, ...); Lebesgue values are used as they are,
    with no copy.  See block_integral for the order of the sums.
    """
    return block_integral(reference, lambda rows: values[rows], *axes)


def block_integral(reference, integrand, *axes):
    """int g dmu over the product grid of axes, g given one block at a time.

    integrand(rows) returns g[rows], g restricted to the nodes rows (a
    slice) of the first axis.  Each axis's Simpson weights carry that
    axis's reference weight (the Gaussian reference is a product), so the
    integrand is contracted as it comes: a 1d grid in one block, a 2d grid
    64 rows of x at a time, each block of contiguous rows with wy
    (contract(block, wy)), the per-row sums then meeting wx.  In all
    contract(g, wy) @ wx, no n x n temporary.
    """
    (x, h), *rest = axes
    wx = simpson_weights(x.size, h) * reference_weight(reference, x)
    if not rest:
        return float(integrand(slice(None)) @ wx)
    (y, k), = rest
    wy = simpson_weights(y.size, k) * reference_weight(reference, y)
    sums = np.empty(x.size)
    for rows in blocks(x.size):
        sums[rows] = contract(integrand(rows), wy)
    return float(sums @ wx)


# === value policy =========================================================

def _clip_values(values, what):
    values = np.asarray(values, dtype=float)
    # max and min propagate NaN and show +-inf; with initial=0.0, low < 0
    # only where some value is.
    peak = float(values.max(initial=0.0))
    low = float(values.min(initial=0.0))
    if not (math.isfinite(peak) and math.isfinite(low)):
        raise NormalizationError(f"{what}: values must be finite")
    if peak <= 0.0:
        raise NormalizationError(f"{what}: values are identically nonpositive")
    if low < -NEGATIVE_TOL * peak:
        raise NormalizationError(
            f"{what}: negative values down to {low:.3e} (peak {peak:.3e})")
    if low < 0.0:
        values = _freeze(np.maximum(values, 0.0))
    return values


def _mass_policy(values, mass, tight, what):
    """Apply the mass policy; return (values, applied_factor)."""
    deviation = abs(mass - 1.0)
    if deviation <= tight:
        return values, 1.0
    if deviation <= MASS_LOOSE:
        warnings.warn(
            f"{what}: mass {mass:.8f} off by {deviation:.2e}; renormalizing",
            RenormalizationWarning, stacklevel=4)
        return _freeze(values / mass), 1.0 / mass
    raise NormalizationError(
        f"{what}: mass {mass:.8f} deviates from 1 by {deviation:.2e} (> {MASS_LOOSE:g})")


def _readonly(a):
    """a as a read-only C-contiguous float array that no caller can write to.

    An array the caller could still write to is copied, so a density
    neither aliases nor freezes its caller's data; an array already
    read-only (a producer's own, passed through _freeze) is kept as is.
    """
    if (isinstance(a, np.ndarray) and not a.flags.writeable
            and a.dtype == np.float64 and a.flags.c_contiguous):
        return a
    return _freeze(np.array(a, dtype=float, order="C"))


def _freeze(a):
    """Mark an array this package just made, and shares with no one, read-only."""
    a.flags.writeable = False
    return a


def _cached(obj, name, compute):
    """compute() once per object, kept on the object under name.

    Densities are frozen and their arrays read-only, so a value derived
    from them stays valid for the object's lifetime and dies with it.
    """
    value = obj.__dict__.get(name)
    if value is None:
        value = compute()
        object.__setattr__(obj, name, value)
    return value


# === grid containers ======================================================

class _Grid:
    """Base of the grid containers: read-only values on checked axes.

    After construction, axes holds one (nodes, step) pair per axis, and
    each step is also kept by name: h (1d), or hx and hy (2d).
    """

    def _own_axes(self, **steps):
        """Check and freeze the axis fields and the values; steps maps each
        axis field to the attribute that keeps its step."""
        axes = []
        for name, step in steps.items():
            x = _readonly(getattr(self, name))
            h = validate_axis(x, name)
            object.__setattr__(self, name, x)
            object.__setattr__(self, step, h)
            axes.append((x, h))
        values = _readonly(self.values)
        shape = tuple(x.size for x, _ in axes)
        if values.shape != shape:
            raise GridError(f"values shape {values.shape} != grid shape {shape}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "axes", tuple(axes))


class _Grid1D(_Grid):
    """Base of the 1d grid containers: one axis x with step h, callable at points."""

    def __post_init__(self):
        self._own_axes(x="h")

    def spline_coeffs(self):
        return _cached(self, "_coeffs_memo", lambda: spline_coefficients(self.values))

    def __call__(self, points):
        """Cubic-spline evaluation; zero outside the grid."""
        idx = grid_index(points, self.x[0], self.h)
        return sample_coefficients(self.spline_coeffs(), [idx.ravel()]).reshape(np.shape(points))


class _GridDensity(_Grid):
    """Base of the grid densities: the mass policy and the mass against the reference."""

    @classmethod
    def from_values(cls, reference, *grid, what="density"):
        """Validated constructor applying the mass policy.

        grid is the axes, then the values: (x, values) or (x, y, values).
        """
        *axes, values = grid
        density = cls(reference, *axes, _clip_values(values, what))
        values, factor = _mass_policy(density.values, density.mass(), cls._mass_tight, what)
        if factor != 1.0:
            density._renormalize(values, factor)
        return density

    def _renormalize(self, values, factor):
        """Finish, in place, a density this package has just built and shares with no one."""
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "renormalization", factor)

    def mass(self):
        return integral(self.reference, self.values, *self.axes)


@dataclass(frozen=True, eq=False)
class GridFunction1D(_Grid1D):
    """An arbitrary sampled function on a uniform axis (no mass policy)."""

    x: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        if not np.all(np.isfinite(self.values)):
            raise GridError("values must be finite")


@dataclass(frozen=True, eq=False)
class GridDensity1D(_Grid1D, _GridDensity):
    """A probability density on a uniform axis w.r.t. its reference."""

    _mass_tight = MASS_TIGHT_1D

    reference: Reference
    x: np.ndarray
    values: np.ndarray
    renormalization: float = 1.0


@dataclass(frozen=True, eq=False)
class GridDensity2D(_GridDensity):
    """A probability density on a uniform product grid, values[i, j] = f(x_i, y_j)."""

    _mass_tight = MASS_TIGHT_2D

    reference: Reference
    x: np.ndarray
    y: np.ndarray
    values: np.ndarray
    renormalization: float = 1.0

    def __post_init__(self):
        self._own_axes(x="hx", y="hy")


# === Gaussian densities ===================================================

@dataclass(frozen=True, eq=False)
class GaussianDensity:
    """Exact Gaussian density N(mean, covariance) w.r.t. a reference.

    Carries parameters instead of samples so entropy, Fisher information,
    and heat/OU flows can use closed forms.
    """

    reference: Reference
    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        m = np.atleast_1d(np.asarray(self.mean, dtype=float))
        c = np.asarray(self.covariance, dtype=float)
        if c.ndim == 0:
            c = c.reshape(1, 1)
        if m.ndim != 1 or c.shape != (m.size, m.size):
            raise NotSPD(f"mean shape {m.shape} and covariance shape {c.shape} disagree")
        for name, a in (("mean", m), ("covariance", c)):
            if not np.all(np.isfinite(a)):
                raise NotSPD(f"{name} must be finite, got {a.tolist()}")
        if not np.allclose(c, c.T, rtol=0.0, atol=1e-12):
            raise NotSPD("covariance must be symmetric")
        try:
            np.linalg.cholesky(c)
        except np.linalg.LinAlgError:
            raise NotSPD("covariance must be positive definite") from None
        object.__setattr__(self, "mean", _readonly(m))
        object.__setattr__(self, "covariance", _readonly(c))

    @property
    def dim(self):
        return self.mean.size

    def _shaped(self, points):
        # points carry a trailing dim axis; for dim 1 a bare array is allowed
        pts = np.asarray(points, dtype=float)
        if self.dim == 1 and (pts.ndim == 0 or pts.shape[-1] != 1):
            pts = pts[..., None]
        return pts

    def _precision(self):
        """(inverse covariance, log det covariance)."""
        p = np.linalg.inv(self.covariance)
        return 0.5 * (p + p.T), np.linalg.slogdet(self.covariance)[1]

    def pdf(self, points):
        """Density values w.r.t. the carried reference measure."""
        pts = self._shaped(points)
        d = pts - self.mean
        precision, logdet = self._precision()
        quad = np.einsum("...i,ij,...j->...", d, precision, d)
        logp = -0.5 * (quad + self.dim * LOG_2PI + logdet)
        if self.reference is Reference.GAUSSIAN:
            logp = logp + 0.5 * np.einsum("...i,...i->...", pts, pts) \
                + 0.5 * self.dim * LOG_2PI
        return np.exp(logp)

    def to_grid(self, length=None, points=None):
        """Sample onto the default (or given) grid; mass policy applies."""
        if self.dim == 1:
            x = _freeze(default_axis(length, points))
            return GridDensity1D.from_values(
                self.reference, x, _freeze(self.pdf(x[:, None])), what="gaussian grid")
        if self.dim == 2:
            x = _freeze(default_axis(length, points))
            return GridDensity2D.from_values(
                self.reference, x, x, _freeze(self._grid_pdf_2d(x, x)), what="gaussian grid")
        raise GridError(f"no grid sampling for dimension {self.dim}")

    def _grid_pdf_2d(self, x, y):
        """pdf on the product grid x by y, values[i, j] = pdf(x_i, y_j).

        The quadratic form a dx^2 + 2b dx dy + c dy^2 is split into its
        per-axis parts and one outer product, so no per-point solve and no
        (n, n, 2) point array is built.  The one n x n array is filled 64
        rows of x at a time, each block finished while it is in cache.
        """
        precision, logdet = self._precision()
        (a, b), (_, c) = precision
        dx = x - self.mean[0]
        dy = y - self.mean[1]
        log_x = -0.5 * (a * dx * dx + 2.0 * LOG_2PI + logdet)
        log_y = -0.5 * c * dy * dy
        if self.reference is Reference.GAUSSIAN:
            log_x = log_x + 0.5 * x * x + LOG_2PI
            log_y = log_y + 0.5 * y * y
        bdx = -b * dx
        v = np.empty((x.size, y.size))
        for rows in blocks(x.size):
            block = v[rows]
            np.multiply.outer(bdx[rows], dy, out=block)
            block += log_x[rows, None]
            block += log_y
            np.exp(block, out=block)
        return v


def gaussian(reference, mean, covariance):
    """Convenience factory accepting scalars for 1d mean/variance."""
    return GaussianDensity(reference, mean, covariance)


# === parametric builders ==================================================

def gaussian_mixture(reference, weights, means, variances, length=None, points=None):
    """1d mixture sum_k w_k N(m_k, v_k) sampled on a grid.

    Mixture weights must be positive and sum to 1 within 1e-9.  With the
    Gaussian reference the values are the mixture's Lebesgue density
    divided by the standard gaussian, computed in log space.
    """
    w = np.asarray(weights, dtype=float)
    m = np.asarray(means, dtype=float)
    v = np.asarray(variances, dtype=float)
    if not (w.shape == m.shape == v.shape) or w.ndim != 1 or w.size == 0:
        raise NormalizationError("mixture weights/means/variances must be 1d and equal length")
    # each test is of what is ok, so a NaN, which compares false, fails it
    for name, a, ok, need, error in (
            ("weight", w, w > 0.0, "positive", NormalizationError),
            ("mean", m, np.isfinite(m), "finite", NotSPD),
            ("variance", v, np.isfinite(v) & (v > 0.0), "finite and positive", NotSPD)):
        bad = np.flatnonzero(~ok)
        if bad.size:
            raise error(f"mixture {name} {bad[0] + 1} must be {need}, got {float(a[bad[0]])!r}")
    if abs(w.sum() - 1.0) > 1e-9:
        raise NormalizationError(f"mixture weights must sum to 1, got {float(w.sum())!r}")
    w = w / w.sum()
    x = _freeze(default_axis(length, points))
    # one contiguous row of n values per component
    logs = (-0.5 * (x[None, :] - m[:, None]) ** 2 / v[:, None]
            - 0.5 * (LOG_2PI + np.log(v))[:, None])
    if reference is Reference.GAUSSIAN:
        logs -= log_gaussian_weight(x)
    vals = _freeze(w @ np.exp(logs, out=logs))
    return GridDensity1D.from_values(reference, x, vals, what="gaussian mixture")


def uniform_density(a, b, smoothing=0.05, length=None, points=None):
    """Lebesgue density of the uniform law on [a, b], optionally mollified.

    smoothing > 0 convolves with N(0, smoothing^2) (closed form via the
    normal CDF); smoothing = 0 gives the raw indicator, whose grid mass
    misses 1 by up to 4/3 h / (b - a) on a grid of step h: that triggers
    the renormalization warning where it is at most MASS_LOOSE.  Where a
    grid step too coarse for the smoothing, or for [a, b] itself, puts the
    mass further off, the NormalizationError names the step and the point
    count that resolves the edges.
    """
    a, b = float(a), float(b)
    if not b > a:
        raise NormalizationError(f"uniform needs a < b, got [{a}, {b}]")
    x = _freeze(default_axis(length, points))
    if smoothing > 0.0:
        vals = (ndtr((x - a) / smoothing) - ndtr((x - b) / smoothing)) / (b - a)
    else:
        vals = np.where((x >= a) & (x <= b), 1.0 / (b - a), 0.0)
    try:
        return GridDensity1D.from_values(Reference.LEBESGUE, x, _freeze(vals), what="uniform")
    except NormalizationError as exc:
        h = validate_axis(x)
        if smoothing > 0.0:
            step = smoothing
            cause = f"the grid step {h:.3g} exceeds the smoothing {smoothing:g}"
        else:
            step = 0.75 * MASS_LOOSE * (b - a)
            cause = f"[{a:g}, {b:g}] spans {(b - a) / h:.3g} grid steps of {h:.3g}"
        if h <= step:
            raise
        need = 2 * math.ceil((x[-1] - x[0]) / step / 2.0) + 1
        raise NormalizationError(
            f"{exc}: {cause}, so the edges at {a:g} and {b:g} are not resolved; a step "
            f"of at most {step:.3g} takes {need} points on [{x[0]:g}, {x[-1]:g}]") from None


class ExpFunction:
    """The test function t -> exp(a t), evaluated exactly."""

    def __init__(self, a):
        self.a = float(a)
        if not math.isfinite(self.a):
            raise NormalizationError(f"exp rate must be finite, got {self.a!r}")

    def __call__(self, points):
        return np.exp(self.a * np.asarray(points, dtype=float))


# === operations ===========================================================

def _as_direction(d):
    return d if isinstance(d, Direction) else Direction(float(d))


def marginal(f, direction, x_out=None):
    """Directional marginal of a 2d density: f_u(t) = int f(t u + s u_perp) w(s) ds.

    With u = (cos a, sin a) and |cos a| >= |sin a|, the line through t u
    crosses the grid line y = y_j at x = t / cos a - y_j tan a, so

        f_u(t) = |cos a|^-1 int f(t / cos a - y tan a, y) w(s) dy,
        s = (y - t sin a) / cos a.

    The integral runs over the grid's own y nodes with Simpson weights; each
    node's term is the cubic spline of its line along x.  The lines are
    sampled and summed on quadrature.sheared_sum's half-step lattice of x,
    and the spline of that sum is evaluated at t / cos a.  Steeper
    directions swap the roles of x and y.  w is 1 for the Lebesgue
    reference.  For the Gaussian reference w is the standard gaussian
    density, and s = x.u_perp = y cos a - x sin a depends on the grid node
    alone, so each line's values are multiplied by w(s) at its nodes,
    BLOCK_ROWS lines at a time, and the term is the spline of f w(s) along
    the line.  In both references each line's weight is then one constant:
    the lines' values, zero-extended at their ends, are summed, the spline
    prefilter runs on the O(n) sum alone, and no line is prefiltered.
    Along an axis (a = 0 or pi/2), on that axis's own nodes, the splines
    would only give back the grid values, so the marginal is the Simpson
    sum of the values over the other axis.  The result is renormalized
    (factor recorded); DomainTruncation is raised if more than
    TRUNCATION_TOL of the mass falls outside the output axis.

    This is marginals(f, [direction], x_out)[0], memo included.

    A 2d GaussianDensity N(m, C) has the exact marginal N(u.m, u^T C u) on
    its reference; x_out applies to grids only.
    """
    return marginals(f, [direction], x_out)[0]


def marginals(f, directions, x_out=None):
    """[marginal(f, d, x_out) for d in directions], computed together.

    The directions whose lines run along the same grid axis (x where
    |cos a| >= |sin a|, else y) share one quadrature.sheared_sum: each
    block of BLOCK_ROWS lines of that axis is read once for every one of
    them.  No line is prefiltered in either reference, only each
    direction's O(n) lattice sum.  Axis marginals on their axis's own nodes
    prefilter nothing.  The values are those of one direction at a time,
    bit for bit.

    Without x_out the marginals live on f.x and are memoized on f per
    canonical direction angle: only directions not yet in the memo are
    computed, and equal directions return the same object for as long as
    f lives.  An explicit x_out bypasses the memo.
    """
    if isinstance(f, GaussianDensity) and f.dim == 2 and x_out is None:
        units = [_as_direction(d).unit_vector() for d in directions]
        return [GaussianDensity(f.reference, [float(u @ f.mean)], [[float(u @ f.covariance @ u)]])
                for u in units]
    if not isinstance(f, GridDensity2D):
        raise ReferenceMismatch(
            f"marginal needs a GridDensity2D or, without x_out, a 2d GaussianDensity; "
            f"got {type(f).__name__}")
    thetas = [_as_direction(d).theta for d in directions]
    if x_out is not None:
        return _marginals(f, thetas, _zero_on(f.reference, x_out))
    memo = _cached(f, "_marginals_memo", dict)
    new = [theta for theta in dict.fromkeys(thetas) if theta not in memo]
    if new:
        memo.update(zip(new, _marginals(f, new, _zero_on(f.reference, f.x))))
    return [memo[theta] for theta in thetas]


def _marginals(f, thetas, out):
    """The marginals of grid density f along the angles thetas, on the axis
    of the zero density out (see _zero_on).

    An axis marginal on the grid's own nodes is one contract of the values
    with the other axis's weights; every other direction is a sheared_sum,
    one call for all the directions whose lines run along the same axis.
    """
    t = out.x
    sums = [None] * len(thetas)
    # (position in thetas, sheared_sum terms) of the directions along x, along y
    sheared = ([], [])
    for k, theta in enumerate(thetas):
        axis, cos_a, sin_a = _shear(theta)
        (along, _), (across, h_across) = f.axes[axis], f.axes[1 - axis]
        w = simpson_weights(across.size, h_across) / abs(cos_a)
        if theta in (0.0, math.pi / 2.0) and np.array_equal(t, along):
            # an axis marginal at the nodes: each line's spline there gives
            # back the line's values, so the sum contracts the values themselves
            sums[k] = contract(_lines(f, axis).T, w * reference_weight(f.reference, across))
            continue
        sheared[axis].append((k, _sheared_terms(f, axis, cos_a, sin_a, w, t)))
    for axis, group in enumerate(sheared):
        if group:
            positions, terms = zip(*group)
            for k, values in zip(positions, sheared_sum(_lines(f, axis), terms)):
                sums[k] = values
    return _line_densities(out, "marginal", sums)


def _sheared_terms(f, axis, cos_a, sin_a, w, t):
    """sheared_sum's (index0, shifts, weights, scale) of the marginal on t
    whose lines run along axis, with the Simpson weights w of the other
    axis; scale is None over Lebesgue measure."""
    (along, h), (across, _) = f.axes[axis], f.axes[1 - axis]

    def scale(rows):
        # node (x, y_j) of line j is at s = x.u_perp = y_j cos a - x sin a
        return np.exp(log_gaussian_weight(across[rows, None] * cos_a - along * sin_a))
    return (grid_index(t / cos_a, along[0], h), across * (sin_a / cos_a / h), w,
            None if f.reference is Reference.LEBESGUE else scale)


def _shear(theta):
    """(axis, cos a, sin a) for a marginal along theta: its lines run along
    grid axis 0 (x) where |cos theta| >= |sin theta|, with a = theta, and
    else along axis 1 (y), x = t / sin theta - y cot theta being the same
    shear with the axes swapped, so cos a and sin a swap too."""
    cos_a, sin_a = math.cos(theta), math.sin(theta)
    if abs(cos_a) >= abs(sin_a):
        return 0, cos_a, sin_a
    return 1, sin_a, cos_a


def _lines(f, axis):
    """The grid lines of f along axis, one per row: the rows of values.T run along x."""
    return f.values.T if axis == 0 else f.values


def _zero_on(reference, t):
    """The zero density on axis t, which _line_densities copies: t is
    checked here, once, before anything is summed on it."""
    return GridDensity1D(reference, t, _freeze(np.zeros(np.shape(t))))


def _line_densities(out, what, sums):
    """The 1d densities of the sheared line integrals sums, in order, each a
    copy of the zero density out with the sum as its values.

    Each is clipped at 0, DomainTruncation is raised if more than
    TRUNCATION_TOL of its mass fell off the grid, and the rest is
    renormalized, recording the factor.
    """
    densities = []
    for vals in sums:
        vals = np.maximum(vals, 0.0)
        raw_mass = integral(out.reference, vals, *out.axes)
        if raw_mass < 1.0 - TRUNCATION_TOL:
            raise DomainTruncation(
                f"{what} mass {raw_mass:.6f}; more than {TRUNCATION_TOL:g} lost off-grid")
        # a copy of the checked axis, not a second check of it
        density = copy.copy(out)
        density._renormalize(_freeze(vals / raw_mass), 1.0 / raw_mass)
        densities.append(density)
    return densities


def _closed_form(what, *densities):
    """Whether the inputs of a 1d Lebesgue operation are GaussianDensity
    (True) or GridDensity1D (False); ReferenceMismatch for anything else,
    another reference, or a mix of the two."""
    for d in densities:
        if not (isinstance(d, GridDensity1D) or isinstance(d, GaussianDensity) and d.dim == 1):
            raise ReferenceMismatch(f"{what} needs 1d densities, got {type(d).__name__}")
        if d.reference is not Reference.LEBESGUE:
            raise ReferenceMismatch(f"{what} is defined for Lebesgue densities")
    closed = {isinstance(d, GaussianDensity) for d in densities}
    if len(closed) > 1:
        raise ReferenceMismatch(f"{what} cannot pair a GaussianDensity with a grid density")
    return closed.pop()


def convolve(f, g):
    """Convolution of two Lebesgue densities on equally spaced grids.

    The discrete convolution, times the step, taken as one real-FFT product
    at a 5-smooth length that holds it without wrapping: O(n log n) on one
    thread, where the direct sum is O(n^2).  Its values are the direct
    sum's to rounding (within 1.5e-15 of the peak on 400 random draws of
    65 to 2049 nodes); the far tails' negative rounding, down to about
    -2e-16 of the peak, is clipped to 0 by from_values.  Output axis
    spans the Minkowski sum of the inputs.  Two Gaussians give
    N(m_f + m_g, v_f + v_g).
    """
    if _closed_form("convolve", f, g):
        return GaussianDensity(Reference.LEBESGUE, [f.mean[0] + g.mean[0]],
                               [[f.covariance[0, 0] + g.covariance[0, 0]]])
    h = f.h
    if abs(g.h - h) > 1e-12 * h:
        raise GridError(f"grid steps differ: {h!r} vs {g.h!r}")
    n = f.x.size + g.x.size - 1
    nfft = fft.next_fast_len(n, real=True)
    vals = fft.irfft(fft.rfft(f.values, nfft) * fft.rfft(g.values, nfft), nfft)[:n] * h
    x = _freeze(np.linspace(f.x[0] + g.x[0], f.x[-1] + g.x[-1], n))
    return GridDensity1D.from_values(Reference.LEBESGUE, x, _freeze(vals),
                                     what="convolution")


def scale1d(f, a):
    """Density of a*X when f is the density of X: exact regridding.

    New axis a * x (flipped back to ascending for a < 0), values / |a|.
    No interpolation is involved, so entropies transform exactly.  A
    Gaussian N(m, v) gives N(a m, a^2 v).
    """
    closed = _closed_form("scale1d", f)
    a = float(a)
    if abs(a) < 1e-12:
        raise ZeroScale(f"dilation factor {a!r} is numerically zero")
    if closed:
        return GaussianDensity(Reference.LEBESGUE, [a * f.mean[0]], [[a * a * f.covariance[0, 0]]])
    ascending = slice(None, None, -1 if a < 0 else 1)
    x = _freeze(f.x[ascending] * a)
    vals = _freeze(f.values[ascending] / abs(a))
    return GridDensity1D(Reference.LEBESGUE, x, vals, renormalization=f.renormalization)


def independent_product(f, g):
    """2d density of the independent pair (X, Y) ~ f(x) g(y)."""
    for d in (f, g):
        if not isinstance(d, GridDensity1D):
            raise ReferenceMismatch(f"product needs GridDensity1D, got {type(d).__name__}")
    if f.reference is not g.reference:
        raise ReferenceMismatch("product factors carry different references")
    vals = _freeze(np.outer(f.values, g.values))
    return GridDensity2D.from_values(f.reference, f.x, g.x, vals, what="product")


def linear_combination(f, g, a, b):
    """Density of a*X + b*Y for independent X ~ f, Y ~ g (Lebesgue).

    This is the marginal of f(x) g(y) along (a, b)/|(a, b)|, dilated by
    |(a, b)|, and it is computed as marginal computes it: for |a| >= |b|
    (else f and g swap roles),

        out(t) = |a|^-1 int g(y) f((t - b y) / a) dy,

    a Simpson sum over g's own nodes of shifted copies of f's cubic spline,
    added on quadrature.sheared_sum's half-step lattice, which stays
    accurate as b -> 0 where rescale-then-convolve degenerates.  Every copy
    is of the one line f, zero-extended at its ends, with one constant
    weight, so quadrature.shifted_copies folds the copies into one comb per
    lattice phase and correlates f with it by FFT, O(n log n) in place of
    one filter per copy; only the O(n) lattice sum is prefiltered.
    The output axis spans the Minkowski sum of the two scaled supports.
    Two Gaussians give N(a m_f + b m_g, a^2 v_f + b^2 v_g).
    """
    closed = _closed_form("linear_combination", f, g)
    a, b = float(a), float(b)
    if abs(a) < 1e-12 or abs(b) < 1e-12:
        raise ZeroScale(f"coefficients ({a!r}, {b!r}) must be nonzero")
    if closed:
        return GaussianDensity(Reference.LEBESGUE, [a * f.mean[0] + b * g.mean[0]],
                               [[a * a * f.covariance[0, 0] + b * b * g.covariance[0, 0]]])
    if abs(a) < abs(b):
        f, g, a, b = g, f, b, a
    lo = min(a * f.x[0], a * f.x[-1]) + min(b * g.x[0], b * g.x[-1])
    hi = max(a * f.x[0], a * f.x[-1]) + max(b * g.x[0], b * g.x[-1])
    t = _freeze(np.linspace(lo, hi, f.x.size + g.x.size - 1))
    w = simpson_weights(g.x.size, g.h) * g.values / abs(a)
    sums = shifted_copies(f.values, grid_index(t / a, f.x[0], f.h), g.x * (b / a / f.h), w)
    return _line_densities(_zero_on(Reference.LEBESGUE, t), "combination", [sums])[0]
