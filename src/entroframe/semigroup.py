"""Heat and Ornstein-Uhlenbeck flows and the Hermite (Mehler) operator.

Heat flow acts on Lebesgue densities: f_t = f * N(0, 2t) per axis.
OU flow acts on Gaussian-reference densities; by reversibility the
density evolves by the Mehler operator itself,

    (P_t f)(x) = int f(x cos theta + y sin theta) dgamma(y),
    cos theta = e^{-t}.

In d dimensions both operators are tensor products of 1d ones, so grid
densities are flowed one axis at a time: a 1d density along its axis, a 2d
density along x and then along y.  The 1d OU operator blurs with
N(0, sin^2 theta) and dilates by cos theta; for a blur narrower than
MIN_BLUR_STEPS grid steps it is the 64-node Gauss-Hermite quadrature of
the Mehler integral instead.  Either way the values are prefiltered along
that axis only and sampled through one banded sparse matrix
(quadrature.spline_matrix), so no 2d spline is ever evaluated.  de Bruijn's
identity dS/dt = -I holds along both flows and is checked by a centered
finite difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import signal

from .density import (GaussianDensity, GridDensity1D, GridDensity2D,
                      GridFunction1D, Reference, _freeze, default_axis,
                      marginal)
from .errors import InvalidFlowTime, ReferenceMismatch
from .functional import entropy, fisher
from .quadrature import (contract, gauss_hermite, grid_index,
                         sample_coefficients, spline_coefficients,
                         spline_matrix)

# Below this blur width (in grid steps) the sampled kernel is too coarse
# and the OU flow evaluates the Mehler integral at Gauss-Hermite nodes.
MIN_BLUR_STEPS = 4.0

KERNEL_RADIUS_SIGMAS = 8.0


@dataclass(frozen=True)
class FlowTime:
    """A nonnegative semigroup time, interchangeable with the Mehler angle."""

    t: float

    def __post_init__(self):
        t = float(self.t)
        if not (math.isfinite(t) and t >= 0.0):
            raise InvalidFlowTime(f"flow time must be finite and >= 0, got {t!r}")
        object.__setattr__(self, "t", t)

    @classmethod
    def from_theta(cls, theta):
        theta = float(theta)
        if not 0.0 <= theta < math.pi / 2.0:
            raise InvalidFlowTime(f"theta must lie in [0, pi/2), got {theta!r}")
        return cls(-math.log(math.cos(theta)))

    @property
    def theta(self):
        return math.acos(math.exp(-self.t))


def _coerce_time(t):
    ft = t if isinstance(t, FlowTime) else FlowTime(t)
    return ft.t


# === per-axis operators ===================================================

def _grid_like(f, axes, values):
    """A density of f's kind and reference on the given axes."""
    values = _freeze(np.maximum(values, 0.0, order="C"))
    return type(f)(f.reference, *axes, values, renormalization=f.renormalization)


def _blur_kernel(sigma, h):
    """Discrete Gaussian kernel with exact unit mass; returns (weights, radius)."""
    radius = int(math.ceil(KERNEL_RADIUS_SIGMAS * sigma / h))
    offsets = np.arange(-radius, radius + 1) * h
    w = np.exp(-0.5 * (offsets / sigma) ** 2)
    return w / w.sum(), radius


def _blur_along(values, axis, sigma, h):
    """Full convolution of every line along axis with the sampled N(0, sigma^2).

    The axis grows by the kernel radius at each end; returns (values, radius).
    """
    w, radius = _blur_kernel(sigma, h)
    if values.ndim == 1:
        # A single line is summed directly, which keeps each output's
        # rounding local; FFT rounding spreads eps * max|values| (4.5e4 at
        # the edge of a Gaussian-reference grid) over the whole axis.
        return np.convolve(values, w), radius
    shape = [1] * values.ndim
    shape[axis] = w.size
    return signal.fftconvolve(values, w.reshape(shape), axes=axis), radius


def _extended_axis(x, h, radius):
    return np.linspace(x[0] - radius * h, x[-1] + radius * h, x.size + 2 * radius)


def _mehler_rows(values, x, h, t):
    """The 1d Mehler operator P_t on every line of values along its last axis.

    x are the nodes of that axis.  The result has the flowed axis first, so
    a 2d array flowed once per axis comes back in its own orientation, and
    every FFT, prefilter and copy runs along contiguous memory.
    """
    c = math.exp(-t)
    a = math.sqrt(max(1.0 - c * c, 0.0))
    if a == 0.0:
        return values.T
    if a < MIN_BLUR_STEPS * h:
        # Blur below grid resolution: Gauss-Hermite quadrature of the Mehler
        # integral, sum_k w_k s(c x + a z_k), against the spline instead.
        z, w = gauss_hermite()
        coeffs = spline_coefficients(values, axis=-1)
        index = grid_index(c * x[:, None] + a * z[None, :], x[0], h)
    else:
        blurred, radius = _blur_along(values, -1, a, h)
        coeffs = spline_coefficients(blurred, axis=-1)
        index = grid_index(c * x, x[0] - radius * h, h)[:, None]
        w = np.ones(1)
    if coeffs.ndim == 1:
        # a lone line samples its points directly, cheaper than building
        # the matrix
        return contract(sample_coefficients(coeffs, [index.ravel()]).reshape(index.shape), w)
    return spline_matrix(index, w, coeffs.shape[-1]) @ coeffs.T


# === heat flow ============================================================

def heat_flow(f, t):
    """e^{t Laplacian} applied to a Lebesgue density; variance grows by 2t per axis.

    Grid densities convolve each axis in turn with the sampled kernel, on
    an axis extended by the kernel radius, so no mass leaves the domain.
    """
    t = _coerce_time(t)
    if isinstance(f, GaussianDensity):
        if f.reference is not Reference.LEBESGUE:
            raise ReferenceMismatch("heat flow acts on Lebesgue densities")
        return GaussianDensity(Reference.LEBESGUE, f.mean,
                               f.covariance + 2.0 * t * np.eye(f.dim))
    if isinstance(f, (GridDensity1D, GridDensity2D)):
        if f.reference is not Reference.LEBESGUE:
            raise ReferenceMismatch("heat flow acts on Lebesgue densities")
        sigma = math.sqrt(2.0 * t)
        if sigma == 0.0:
            return f
        vals, axes = f.values, []
        for axis, (x, h) in enumerate(f.axes):
            vals, radius = _blur_along(vals, axis, sigma, h)
            axes.append(_extended_axis(x, h, radius))
        return _grid_like(f, axes, vals)
    raise ReferenceMismatch(f"heat flow is not defined for {type(f).__name__}")


# === OU flow ==============================================================

def ou_flow(f, t):
    """Ornstein-Uhlenbeck evolution of a Gaussian-reference density.

    The reversibility of the OU semigroup in L^2(gamma) means the relative
    density itself evolves by the Mehler operator P_t.  On a grid P_t is
    the tensor product of 1d operators, applied one axis at a time: blur
    by N(0, 1 - e^{-2t}), then dilate the argument by e^{-t}; below
    MIN_BLUR_STEPS grid steps of blur (chosen per axis), 64-node
    Gauss-Hermite quadrature of the Mehler integral instead.  Each pass
    prefilters along its own axis and samples through one banded sparse
    matrix, so a 2d flow costs two 1d passes and no 2d spline evaluation.
    """
    t = _coerce_time(t)
    if isinstance(f, GaussianDensity):
        if f.reference is not Reference.GAUSSIAN:
            raise ReferenceMismatch("OU flow acts on Gaussian-reference densities")
        c = math.exp(-t)
        n = f.dim
        cov = c * c * f.covariance + (1.0 - c * c) * np.eye(n)
        return GaussianDensity(Reference.GAUSSIAN, c * f.mean, cov)
    if isinstance(f, (GridDensity1D, GridDensity2D)):
        if f.reference is not Reference.GAUSSIAN:
            raise ReferenceMismatch("OU flow acts on Gaussian-reference densities")
        # Each pass flows the last axis and moves it to the front, so the
        # passes start from the transpose and end in f's orientation.
        vals = np.ascontiguousarray(f.values.T)
        for x, h in f.axes:
            vals = _mehler_rows(vals, x, h, t)
        return _grid_like(f, [x for x, _ in f.axes], vals.T)
    raise ReferenceMismatch(f"OU flow is not defined for {type(f).__name__}")


# === Mehler operator ======================================================

def hermite_p_theta(f, theta, x=None):
    """P_theta f(x) = int f(x cos theta + y sin theta) dgamma(y).

    The integral is the 64-node Gauss-Hermite quadrature.

    f may be a callable (evaluated exactly at the quadrature points), a
    GridFunction1D, or a GridDensity1D (sampled through the cubic spline,
    zero off-grid).  theta in [0, pi/2]; P_0 is the identity and P_{pi/2}
    averages f against gamma.  Returns a GridFunction1D on the axis x
    (default axis when omitted).
    """
    theta = float(theta)
    if not 0.0 <= theta <= math.pi / 2.0 + 1e-12:
        raise InvalidFlowTime(f"theta must lie in [0, pi/2], got {theta!r}")
    if x is None:
        x = f.x if isinstance(f, (GridFunction1D, GridDensity1D)) else default_axis()
    x = np.asarray(x, dtype=float)
    c, s = math.cos(theta), math.sin(theta)
    z, w = gauss_hermite()
    pts = c * x[:, None] + s * z[None, :]
    if not callable(f):  # the 1d grid containers evaluate their spline
        raise ReferenceMismatch(f"cannot evaluate {type(f).__name__} at Mehler points")
    samples = np.asarray(f(pts), dtype=float)
    return GridFunction1D(x, _freeze(contract(samples, w)))


# === flow diagnostics =====================================================

def _flow_for(f, t):
    ref = f.reference
    if ref is Reference.LEBESGUE:
        return heat_flow(f, t)
    return ou_flow(f, t)


def de_bruijn_check(f, t, step=1e-3):
    """|d/dt S(f_t) + I(f_t)| via a centered difference at time t.

    The identity dS/dt = -I holds along the heat flow (Lebesgue reference)
    and the OU flow (Gaussian reference); the residual is dominated by the
    O(step^2) difference error for closed-form inputs.
    """
    t = _coerce_time(t)
    step = float(step)
    if step <= 0.0 or t - step < 0.0:
        raise InvalidFlowTime(f"need 0 < step <= t, got step={step!r}, t={t!r}")
    s_plus = float(entropy(_flow_for(f, t + step)))
    s_minus = float(entropy(_flow_for(f, t - step)))
    i_mid = float(fisher(_flow_for(f, t)))
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
    t = _coerce_time(t)
    if not isinstance(f, GridDensity2D):
        raise ReferenceMismatch("stability check needs a GridDensity2D")
    via_2d = marginal(_flow_for(f, t), direction)
    via_1d = _flow_for(marginal(f, direction), t)
    if via_2d.x.size != via_1d.x.size or abs(via_2d.x[0] - via_1d.x[0]) > 1e-9:
        raise ReferenceMismatch("flow and marginal landed on different grids")
    return float(np.max(np.abs(via_2d.values - via_1d.values)))
