"""Grid-sampled and Gaussian densities against a reference measure.

A density is normalized so that int f dmu = 1, where mu is either
Lebesgue measure or the standard Gaussian measure (per dimension).  Grid
densities live on uniform odd-length axes; GaussianDensity carries exact
mean/covariance so that entropies, Fisher informations, and flows can
dispatch to closed forms.

Mass policy for constructed values: a deviation of the total mass from 1
up to 1e-6 (1D) or 1e-5 (2D) is accepted as is; up to 1e-2 the density is
renormalized and RenormalizationWarning is emitted; beyond that
NormalizationError is raised.  Geometric operations (marginals, flows,
pushforwards) renormalize silently and record the applied factor.
"""

from __future__ import annotations

import enum
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import signal
from scipy.special import ndtr

from .errors import (DomainTruncation, GridError, NormalizationError, NotSPD,
                     ReferenceMismatch, RenormalizationWarning, Singular,
                     ZeroScale)
from .frames import Direction
from .quadrature import (sample_coefficients, sheared_sum, simpson_weights,
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
GRID_ENV_VAR = "ENTROFRAME_GRID_N"


class Reference(enum.Enum):
    LEBESGUE = "lebesgue"
    GAUSSIAN = "gaussian"


# === default grid =========================================================

def default_grid_points():
    """Default number of axis points, overridable via ENTROFRAME_GRID_N."""
    raw = os.environ.get(GRID_ENV_VAR)
    if raw is None:
        return DEFAULT_POINTS
    try:
        n = int(raw)
    except ValueError:
        raise GridError(f"{GRID_ENV_VAR}={raw!r} is not an integer") from None
    if n < 65 or n % 2 == 0:
        raise GridError(f"{GRID_ENV_VAR}={n} must be odd and >= 65")
    return n


def default_axis(length=None, points=None):
    length = DEFAULT_LENGTH if length is None else float(length)
    points = default_grid_points() if points is None else int(points)
    if points < 65 or points % 2 == 0:
        raise GridError(f"axis needs an odd number of points >= 65, got {points}")
    if not length > 0:
        raise GridError(f"axis half-length must be positive, got {length}")
    return np.linspace(-length, length, points)


# === reference weights ====================================================

def log_gaussian_weight(x):
    """log of the standard gaussian density at x (elementwise)."""
    x = np.asarray(x, dtype=float)
    return -0.5 * x * x - 0.5 * LOG_2PI


def reference_weight_1d(reference, x):
    if reference is Reference.GAUSSIAN:
        return np.exp(log_gaussian_weight(x))
    return np.ones_like(np.asarray(x, dtype=float))


def reference_weight_2d(reference, x, y):
    if reference is Reference.GAUSSIAN:
        return np.exp(log_gaussian_weight(x)[:, None] + log_gaussian_weight(y)[None, :])
    return np.ones((len(x), len(y)))


# === value policy =========================================================

def _clip_values(values, what):
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise NormalizationError(f"{what}: values must be finite")
    peak = float(values.max(initial=0.0))
    if peak <= 0.0:
        raise NormalizationError(f"{what}: values are identically nonpositive")
    low = float(values.min())
    if low < -NEGATIVE_TOL * peak:
        raise NormalizationError(
            f"{what}: negative values down to {low:.3e} (peak {peak:.3e})")
    if low < 0.0:
        values = np.maximum(values, 0.0)
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
        return values / mass, 1.0 / mass
    raise NormalizationError(
        f"{what}: mass {mass:.8f} deviates from 1 by {deviation:.2e} (> {MASS_LOOSE:g})")


def _readonly(a):
    a = np.ascontiguousarray(a, dtype=float)
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

@dataclass(frozen=True, eq=False)
class GridFunction1D:
    """An arbitrary sampled function on a uniform axis (no mass policy)."""

    x: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        x = _readonly(self.x)
        v = _readonly(self.values)
        try:
            validate_axis(x, "x")
        except ValueError as exc:
            raise GridError(str(exc)) from None
        if v.shape != x.shape:
            raise GridError(f"values shape {v.shape} != axis shape {x.shape}")
        if not np.all(np.isfinite(v)):
            raise GridError("values must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "values", v)

    @property
    def h(self):
        return (self.x[-1] - self.x[0]) / (self.x.size - 1)

    def spline_coeffs(self):
        return _cached(self, "_coeffs_memo", lambda: spline_coefficients(self.values))

    def __call__(self, points):
        """Cubic-spline evaluation; zero outside the grid."""
        idx = (np.asarray(points, dtype=float) - self.x[0]) / self.h
        return sample_coefficients(self.spline_coeffs(), [idx.ravel()]).reshape(np.shape(points))


@dataclass(frozen=True, eq=False)
class GridDensity1D:
    """A probability density on a uniform axis w.r.t. its reference."""

    reference: Reference
    x: np.ndarray
    values: np.ndarray
    renormalization: float = 1.0

    def __post_init__(self):
        x = _readonly(self.x)
        v = _readonly(self.values)
        try:
            validate_axis(x, "x")
        except ValueError as exc:
            raise GridError(str(exc)) from None
        if v.shape != x.shape:
            raise GridError(f"values shape {v.shape} != axis shape {x.shape}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "values", v)

    @classmethod
    def from_values(cls, reference, x, values, what="density"):
        """Validated constructor applying the mass policy."""
        x = np.asarray(x, dtype=float)
        values = _clip_values(values, what)
        h = (x[-1] - x[0]) / (x.size - 1)
        mass = float(simpson_weights(x.size, h)
                     @ (values * reference_weight_1d(reference, x)))
        values, factor = _mass_policy(values, mass, MASS_TIGHT_1D, what)
        return cls(reference, x, values, renormalization=factor)

    @property
    def h(self):
        return (self.x[-1] - self.x[0]) / (self.x.size - 1)

    def mass(self):
        return float(simpson_weights(self.x.size, self.h)
                     @ (self.values * reference_weight_1d(self.reference, self.x)))

    def spline_coeffs(self):
        return _cached(self, "_coeffs_memo", lambda: spline_coefficients(self.values))

    def as_function(self):
        return GridFunction1D(self.x, self.values)


@dataclass(frozen=True, eq=False)
class GridDensity2D:
    """A probability density on a uniform product grid, values[i, j] = f(x_i, y_j)."""

    reference: Reference
    x: np.ndarray
    y: np.ndarray
    values: np.ndarray
    renormalization: float = 1.0

    def __post_init__(self):
        x = _readonly(self.x)
        y = _readonly(self.y)
        v = _readonly(self.values)
        try:
            validate_axis(x, "x")
            validate_axis(y, "y")
        except ValueError as exc:
            raise GridError(str(exc)) from None
        if v.shape != (x.size, y.size):
            raise GridError(f"values shape {v.shape} != {(x.size, y.size)}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "values", v)

    @classmethod
    def from_values(cls, reference, x, y, values, what="density"):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        values = _clip_values(values, what)
        hx = (x[-1] - x[0]) / (x.size - 1)
        hy = (y[-1] - y[0]) / (y.size - 1)
        w = values * reference_weight_2d(reference, x, y)
        mass = float(simpson_weights(x.size, hx) @ w @ simpson_weights(y.size, hy))
        values, factor = _mass_policy(values, mass, MASS_TIGHT_2D, what)
        return cls(reference, x, y, values, renormalization=factor)

    @property
    def hx(self):
        return (self.x[-1] - self.x[0]) / (self.x.size - 1)

    @property
    def hy(self):
        return (self.y[-1] - self.y[0]) / (self.y.size - 1)

    def mass(self):
        w = self.values * reference_weight_2d(self.reference, self.x, self.y)
        return float(simpson_weights(self.x.size, self.hx) @ w
                     @ simpson_weights(self.y.size, self.hy))

    def spline_coeffs(self):
        return _cached(self, "_coeffs_memo", lambda: spline_coefficients(self.values))

    def line_coeffs(self, axis):
        """Values prefiltered along `axis` only, as one row per node of the other axis.

        Row j holds the 1d spline coefficients of the grid line through the
        j-th node of the other axis: values[:, j] for axis 0, values[j, :]
        for axis 1.
        """
        def compute():
            c = spline_coefficients(self.values, axis=axis)
            return _readonly(c.T if axis == 0 else c)
        return _cached(self, f"_line_coeffs_memo{axis}", compute)


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
        """(inverse covariance, log det covariance), computed once per density."""
        def compute():
            p = np.linalg.inv(self.covariance)
            return _readonly(0.5 * (p + p.T)), np.linalg.slogdet(self.covariance)[1]
        return _cached(self, "_precision_memo", compute)

    def log_pdf_lebesgue(self, points):
        """log of the Lebesgue-density at points of shape (..., dim)."""
        pts = self._shaped(points)
        d = pts - self.mean
        precision, logdet = self._precision()
        quad = np.einsum("...i,ij,...j->...", d, precision, d)
        return -0.5 * (quad + self.dim * LOG_2PI + logdet)

    def pdf(self, points):
        """Density values w.r.t. the carried reference measure."""
        pts = self._shaped(points)
        logp = self.log_pdf_lebesgue(pts)
        if self.reference is Reference.GAUSSIAN:
            logp = logp + 0.5 * np.einsum("...i,...i->...", pts, pts) \
                + 0.5 * self.dim * LOG_2PI
        return np.exp(logp)

    def to_grid(self, length=None, points=None):
        """Sample onto the default (or given) grid; mass policy applies."""
        if self.dim == 1:
            x = default_axis(length, points)
            return GridDensity1D.from_values(
                self.reference, x, self.pdf(x[:, None]), what="gaussian grid")
        if self.dim == 2:
            x = default_axis(length, points)
            y = default_axis(length, points)
            return GridDensity2D.from_values(
                self.reference, x, y, self._grid_pdf_2d(x, y), what="gaussian grid")
        raise GridError(f"no grid sampling for dimension {self.dim}")

    def _grid_pdf_2d(self, x, y):
        """pdf on the product grid x by y, values[i, j] = pdf(x_i, y_j).

        The quadratic form a dx^2 + 2b dx dy + c dy^2 is split into its
        per-axis parts and one outer product, so no per-point solve and no
        (n, n, 2) point array is built.
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
        return np.exp(log_x[:, None] + (-b * dx)[:, None] * dy[None, :] + log_y[None, :])


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
    if np.any(w <= 0.0) or abs(w.sum() - 1.0) > 1e-9:
        raise NormalizationError(f"mixture weights must be positive and sum to 1, got {w.sum()!r}")
    if np.any(v <= 0.0):
        raise NotSPD("mixture variances must be positive")
    w = w / w.sum()
    x = default_axis(length, points)
    logs = (-0.5 * (x[:, None] - m[None, :]) ** 2 / v[None, :]
            - 0.5 * (LOG_2PI + np.log(v))[None, :])
    if reference is Reference.GAUSSIAN:
        logs = logs - log_gaussian_weight(x)[:, None]
    vals = np.exp(logs) @ w
    return GridDensity1D.from_values(reference, x, vals, what="gaussian mixture")


def uniform_density(a, b, smoothing=0.05, length=None, points=None):
    """Lebesgue density of the uniform law on [a, b], optionally mollified.

    smoothing > 0 convolves with N(0, smoothing^2) (closed form via the
    normal CDF); smoothing = 0 gives the raw indicator, whose grid mass
    misses 1 at O(h) and therefore triggers the renormalization warning.
    """
    a, b = float(a), float(b)
    if not b > a:
        raise NormalizationError(f"uniform needs a < b, got [{a}, {b}]")
    x = default_axis(length, points)
    if smoothing > 0.0:
        vals = (ndtr((x - a) / smoothing) - ndtr((x - b) / smoothing)) / (b - a)
    else:
        vals = np.where((x >= a) & (x <= b), 1.0 / (b - a), 0.0)
    return GridDensity1D.from_values(Reference.LEBESGUE, x, vals, what="uniform")


class ExpFunction:
    """The test function t -> exp(a t), evaluated exactly."""

    def __init__(self, a):
        self.a = float(a)

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
    node's term is one 1d cubic-spline evaluation along x, on coefficients
    prefiltered along x only.  Steeper directions swap the roles of x and
    y.  w is 1 for the Lebesgue reference and the standard gaussian density
    for the Gaussian one.  The result is renormalized (factor recorded);
    DomainTruncation is raised if more than TRUNCATION_TOL of the mass
    falls outside the output axis.

    Without x_out the marginal lives on f.x and is memoized on f per
    canonical direction angle, so equal directions return the same
    object for as long as f lives.  An explicit x_out bypasses the memo.
    """
    if not isinstance(f, GridDensity2D):
        raise ReferenceMismatch(f"marginal needs a GridDensity2D, got {type(f).__name__}")
    theta = _as_direction(direction).theta
    if x_out is not None:
        return _marginal(f, theta, np.asarray(x_out, dtype=float))
    memo = _cached(f, "_marginals_memo", dict)
    if theta not in memo:
        memo[theta] = _marginal(f, theta, f.x)
    return memo[theta]


def _marginal(f, theta, t):
    cos_a, sin_a = math.cos(theta), math.sin(theta)
    if abs(cos_a) >= abs(sin_a):
        axis, along, h_along, across, h_across = 0, f.x, f.hx, f.y, f.hy
    else:
        # x = t / sin a - y cot a: the same shear with the axes swapped
        axis, along, h_along, across, h_across = 1, f.y, f.hy, f.x, f.hx
        cos_a, sin_a = sin_a, cos_a
    index0 = (t / cos_a - along[0]) / h_along
    shifts = across * (sin_a / cos_a / h_along)
    w = simpson_weights(across.size, h_across)[:, None] / abs(cos_a)
    if f.reference is Reference.GAUSSIAN:
        w = w * np.exp(log_gaussian_weight((across[:, None] - t * sin_a) / cos_a))
    raw = sheared_sum(f.line_coeffs(axis), index0, shifts, w)

    ht = (t[-1] - t[0]) / (t.size - 1)
    raw_mass = float(simpson_weights(t.size, ht)
                     @ (np.maximum(raw, 0.0) * reference_weight_1d(f.reference, t)))
    if raw_mass < 1.0 - TRUNCATION_TOL:
        raise DomainTruncation(
            f"marginal mass {raw_mass:.6f}; more than {TRUNCATION_TOL:g} lost off-grid")
    vals = np.maximum(raw, 0.0) / raw_mass
    return GridDensity1D(f.reference, t, _readonly(vals),
                         renormalization=1.0 / raw_mass)


def convolve(f, g, method="direct"):
    """Convolution of two Lebesgue densities on equally spaced grids.

    method "direct" uses the exact discrete convolution; "fft" uses the
    FFT-based path.  Output axis spans the Minkowski sum of the inputs.
    """
    for d in (f, g):
        if not isinstance(d, GridDensity1D):
            raise ReferenceMismatch(f"convolve needs GridDensity1D, got {type(d).__name__}")
        if d.reference is not Reference.LEBESGUE:
            raise ReferenceMismatch("convolution is defined for Lebesgue densities")
    h = f.h
    if abs(g.h - h) > 1e-12 * h:
        raise GridError(f"grid steps differ: {h!r} vs {g.h!r}")
    if method == "direct":
        vals = np.convolve(f.values, g.values) * h
    elif method == "fft":
        vals = signal.fftconvolve(f.values, g.values) * h
    else:
        raise GridError(f"unknown convolution method {method!r}")
    n = f.x.size + g.x.size - 1
    x = np.linspace(f.x[0] + g.x[0], f.x[-1] + g.x[-1], n)
    return GridDensity1D.from_values(Reference.LEBESGUE, x, vals, what="convolution")


def scale1d(f, a):
    """Density of a*X when f is the density of X: exact regridding.

    New axis a * x (flipped back to ascending for a < 0), values / |a|.
    No interpolation is involved, so entropies transform exactly.
    """
    if not isinstance(f, GridDensity1D):
        raise ReferenceMismatch(f"scale1d needs a GridDensity1D, got {type(f).__name__}")
    if f.reference is not Reference.LEBESGUE:
        raise ReferenceMismatch("dilation is defined for Lebesgue densities")
    a = float(a)
    if abs(a) < 1e-12:
        raise ZeroScale(f"dilation factor {a!r} is numerically zero")
    x = f.x * a
    vals = f.values / abs(a)
    if a < 0:
        x = x[::-1]
        vals = vals[::-1]
    return GridDensity1D(Reference.LEBESGUE, x, _readonly(vals),
                         renormalization=f.renormalization)


def affine_pushforward(f, matrix):
    """Density of A X on the same grid, X distributed as the 2d density f."""
    if not isinstance(f, GridDensity2D) or f.reference is not Reference.LEBESGUE:
        raise ReferenceMismatch("affine pushforward needs a Lebesgue GridDensity2D")
    a = np.asarray(matrix, dtype=float)
    if a.shape != (2, 2):
        raise Singular(f"expected a 2x2 matrix, got shape {a.shape}")
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    if abs(det) < 1e-12:
        raise Singular(f"matrix is numerically singular (det = {det!r})")
    inv = np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]]) / det
    X, Y = np.meshgrid(f.x, f.y, indexing="ij")
    px = inv[0, 0] * X + inv[0, 1] * Y
    py = inv[1, 0] * X + inv[1, 1] * Y
    ix = (px - f.x[0]) / f.hx
    iy = (py - f.y[0]) / f.hy
    vals = sample_coefficients(f.spline_coeffs(), [ix.ravel(), iy.ravel()]).reshape(X.shape)
    vals = np.maximum(vals, 0.0) / abs(det)
    return GridDensity2D.from_values(Reference.LEBESGUE, f.x, f.y, vals,
                                     what="pushforward")


def independent_product(f, g):
    """2d density of the independent pair (X, Y) ~ f(x) g(y)."""
    for d in (f, g):
        if not isinstance(d, GridDensity1D):
            raise ReferenceMismatch(f"product needs GridDensity1D, got {type(d).__name__}")
    if f.reference is not g.reference:
        raise ReferenceMismatch("product factors carry different references")
    vals = np.outer(f.values, g.values)
    return GridDensity2D.from_values(f.reference, f.x, g.x, vals, what="product")


def linear_combination(f, g, a, b):
    """Density of a*X + b*Y for independent X ~ f, Y ~ g (Lebesgue).

    Integrates over the factor with the smaller coefficient on its own
    grid (exact samples, Simpson weights) and samples the other factor
    with the cubic interpolant, which stays accurate as |b| -> 0 where a
    rescale-then-convolve route would degenerate.
    """
    for d in (f, g):
        if not isinstance(d, GridDensity1D) or d.reference is not Reference.LEBESGUE:
            raise ReferenceMismatch("linear_combination needs Lebesgue GridDensity1D inputs")
    a, b = float(a), float(b)
    if abs(a) < 1e-12 or abs(b) < 1e-12:
        raise ZeroScale(f"coefficients ({a!r}, {b!r}) must be nonzero")
    if abs(a) < abs(b):
        f, g, a, b = g, f, b, a
    # out(t) = (1/|a|) * int g(y) f((t - b y)/a) dy
    lo = min(a * f.x[0], a * f.x[-1]) + min(b * g.x[0], b * g.x[-1])
    hi = max(a * f.x[0], a * f.x[-1]) + max(b * g.x[0], b * g.x[-1])
    n = f.x.size + g.x.size - 1
    t = np.linspace(lo, hi, n)
    pts = (t[:, None] - b * g.x[None, :]) / a
    idx = (pts - f.x[0]) / f.h
    samp = sample_coefficients(f.spline_coeffs(), [idx.ravel()]).reshape(pts.shape)
    vals = np.maximum(samp, 0.0) @ (simpson_weights(g.x.size, g.h) * g.values) / abs(a)
    ht = (t[-1] - t[0]) / (n - 1)
    raw_mass = float(simpson_weights(n, ht) @ vals)
    if raw_mass < 1.0 - TRUNCATION_TOL:
        raise DomainTruncation(
            f"combination mass {raw_mass:.6f}; more than {TRUNCATION_TOL:g} lost off-grid")
    return GridDensity1D(Reference.LEBESGUE, t, _readonly(vals / raw_mass),
                         renormalization=1.0 / raw_mass)
