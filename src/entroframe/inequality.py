"""Inequality checks built on frames, densities, functionals, and flows.

Every check returns an InequalityReport with the measured left- and
right-hand sides.  slack = rhs - lhs, so the inequality holds when
slack >= 0; a check "passes" when slack >= -tolerance.  rhs always
includes the sharp constant, which is also reported separately.

Check names double as CLI names: subadditivity, fisher, main-entropy,
main-integral, young-conv, young-entropy, shannon, blachmann-stam (and
its second report blachmann-stam-harmonic), hyper, hyper2, lsi,
lsi-integrated, brascamp-lieb.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .density import (ExpFunction, GaussianDensity, GridDensity1D,
                      GridDensity2D, GridFunction1D, Reference, _cached,
                      convolve, default_axis, linear_combination, marginal,
                      reference_weight_1d, reference_weight_2d, scale1d)
from .errors import InvalidExponents, ReferenceMismatch
from .frames import (ExponentTriple, Frame2, angles_from_exponents,
                     conjugate_exponent, shannon_limit_frame)
from .functional import entropy, fisher, lp_norm, lp_norm_values
from .quadrature import gauss_hermite, sample_coefficients, simpson_weights
from .semigroup import FlowTime, hermite_p_theta, ou_flow

SQRT2 = math.sqrt(2.0)

DEFAULT_TOLERANCES = {
    "subadditivity": 1e-4,
    "fisher": 1e-4,
    "main-entropy": 1e-4,
    "main-integral": 1e-3,
    "young-conv": 1e-3,
    "young-entropy": 2e-4,
    "shannon": 1e-4,
    "blachmann-stam": 1e-3,
    "blachmann-stam-harmonic": 1e-3,
    "hyper": 1e-6,
    "hyper2": 1e-3,
    "lsi": 1e-5,
    "lsi-integrated": 1e-4,
    "brascamp-lieb": 1e-3,
}

CHECK_NAMES = tuple(n for n in DEFAULT_TOLERANCES if n != "blachmann-stam-harmonic")


# === reports ==============================================================

@dataclass(frozen=True)
class InequalityReport:
    """Outcome of one inequality evaluation; slack = rhs - lhs."""

    name: str
    lhs: float
    rhs: float
    constant: float
    slack: float
    tolerance: float
    inputs_digest: str

    @property
    def passed(self):
        return self.slack >= -self.tolerance

    def to_dict(self):
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "constant": self.constant,
            "slack": self.slack,
            "tolerance": self.tolerance,
            "inputs_digest": self.inputs_digest,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)


def _canon(part):
    if isinstance(part, np.ndarray):
        raw = hashlib.sha1(np.ascontiguousarray(part, dtype=float).tobytes())
        return f"array{part.shape}:{raw.hexdigest()[:16]}"
    if isinstance(part, Reference):
        return part.value
    if isinstance(part, Frame2):
        return _canon(("frame", part.thetas, part.weights))
    if isinstance(part, ExponentTriple):
        return _canon(("triple",) + part.as_tuple())
    if isinstance(part, GaussianDensity):
        return _canon(("gaussian", part.reference, part.mean, part.covariance))
    if isinstance(part, GridDensity1D):
        return _cached(part, "_canon_memo", lambda: _canon(
            ("grid1d", part.reference, part.x, part.values)))
    if isinstance(part, GridDensity2D):
        return _cached(part, "_canon_memo", lambda: _canon(
            ("grid2d", part.reference, part.x, part.y, part.values)))
    if isinstance(part, GridFunction1D):
        return _cached(part, "_canon_memo", lambda: _canon(
            ("gridfn", part.x, part.values)))
    if isinstance(part, ExpFunction):
        return f"exp(a={part.a!r})"
    if isinstance(part, (tuple, list)):
        return "(" + ",".join(_canon(p) for p in part) + ")"
    if isinstance(part, float):
        return repr(part)
    if callable(part):
        return getattr(part, "__name__", type(part).__name__)
    return repr(part)


def inputs_digest(*parts):
    return hashlib.sha1(_canon(parts).encode()).hexdigest()[:12]


def _report(name, lhs, rhs, constant, tolerance, parts):
    tol = DEFAULT_TOLERANCES[name] if tolerance is None else float(tolerance)
    return InequalityReport(name=name, lhs=float(lhs), rhs=float(rhs),
                            constant=float(constant), slack=float(rhs) - float(lhs),
                            tolerance=tol, inputs_digest=inputs_digest(name, *parts))


# === sharp Young constants ================================================

def _ct(t):
    # C_t = sqrt(t^{1/t} / t'^{1/t'}), the one-exponent factor.
    t = float(t)
    tc = conjugate_exponent(t)
    return math.sqrt(t ** (1.0 / t) / tc ** (1.0 / tc))


def _validate_young(p, q, r):
    p, q, r = float(p), float(q), float(r)
    for v in (p, q, r):
        if not v > 1.0:
            raise InvalidExponents(f"Young exponent {v!r} must be > 1")
    if abs(1.0 / p + 1.0 / q - 1.0 - 1.0 / r) > 1e-9:
        raise InvalidExponents(
            f"Young scaling violated: 1/{p} + 1/{q} - 1 != 1/{r}")
    return p, q, r


def young_constant(p, q, r):
    """Sharp constant C_p C_q / C_r for ||f * g||_r <= C ||f||_p ||g||_q."""
    p, q, r = _validate_young(p, q, r)
    return _ct(p) * _ct(q) / _ct(r)


def young_log_constant(p, q, r):
    """log of the sharp Young constant, written out exponent by exponent.

    Equals (1/2) [ (log p)/p - (log p')/p' + (log q)/q - (log q')/q'
                   - (log r)/r + (log r')/r' ].
    """
    p, q, r = _validate_young(p, q, r)
    pc, qc, rc = (conjugate_exponent(v) for v in (p, q, r))
    return 0.5 * (math.log(p) / p - math.log(pc) / pc
                  + math.log(q) / q - math.log(qc) / qc
                  - math.log(r) / r + math.log(rc) / rc)


def young_extremal_covariance(p, q, r):
    """Covariance of the centered Gaussian saturating the entropic Young bound.

    Built from the Young frame angles: with A = [[cot t3, 1],
    [cot t3 - cot t2, 0]] and M = A A^T, the extremal covariance is M with
    its diagonal swapped, [[M22, M12], [M12, M11]].  Any positive multiple
    is extremal as well.
    """
    p, q, r = _validate_young(p, q, r)
    frame = angles_from_exponents((conjugate_exponent(r), p, q))
    t2, t3 = frame.thetas[1], frame.thetas[2]
    ct2, ct3 = 1.0 / math.tan(t2), 1.0 / math.tan(t3)
    a = np.array([[ct3, 1.0], [ct3 - ct2, 0.0]])
    m = a @ a.T
    return np.array([[m[1, 1], m[0, 1]], [m[0, 1], m[0, 0]]])


# === closed forms for exponential test functions ==========================

def exp_norm_gamma(a, p):
    """||exp(a t)||_{L^p(gamma)} = exp(p a^2 / 2)."""
    return math.exp(float(p) * float(a) ** 2 / 2.0)


def mehler_exp_norm(a, q, theta):
    """||P_theta exp(a t)||_{L^q(gamma)} = exp(a^2 (sin^2 + q cos^2) / 2)."""
    a, q, theta = float(a), float(q), float(theta)
    c, s = math.cos(theta), math.sin(theta)
    return math.exp(a * a * (s * s + q * c * c) / 2.0)


def hyper_threshold(p, q):
    """Largest theta with ||P_theta f||_q <= ||f||_p: cos^2 = (p-1)/(q-1)."""
    p, q = float(p), float(q)
    if not (q > 1.0 and 1.0 <= p <= q):
        raise InvalidExponents(f"need 1 <= p <= q and q > 1, got ({p}, {q})")
    return math.acos(math.sqrt((p - 1.0) / (q - 1.0)))


# === extremizers ==========================================================

@dataclass(frozen=True)
class GaussianExtremizer:
    """Equality family of the two-function integral inequality.

    Each factor satisfies |g_i|^{p_i} d(mu) = K e^{-lam (t - a_i)^2} dt up
    to normalization: lam > 0 (lam >= 1/2 keeps the Gaussian-reference
    factors bounded; lam = 1/2 gives pure exponentials there).
    """

    lam: float
    a2: float = 0.0
    a3: float = 0.0

    def __post_init__(self):
        if not float(self.lam) > 0.0:
            raise InvalidExponents(f"lam must be positive, got {self.lam!r}")
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "a2", float(self.a2))
        object.__setattr__(self, "a3", float(self.a3))

    def factor(self, slot, p, reference):
        """Callable g with |g|^p = e^{-lam (t - a)^2} against the reference."""
        a = {2: self.a2, 3: self.a3}[slot]
        lam, p = self.lam, float(p)
        if reference is Reference.GAUSSIAN:
            def g(t):
                t = np.asarray(t, dtype=float)
                return np.exp((-lam * (t - a) ** 2 + 0.5 * t * t) / p)
        else:
            def g(t):
                t = np.asarray(t, dtype=float)
                return np.exp(-lam * (t - a) ** 2 / p)
        return g

    def pair(self, triple, reference):
        t = triple if isinstance(triple, ExponentTriple) else ExponentTriple(*triple)
        return (self.factor(2, t.p2, reference), self.factor(3, t.p3, reference))


# === evaluation helpers ===================================================

def _eval_at(f, pts):
    """Evaluate a callable / grid function / grid density at points."""
    if isinstance(f, GridDensity1D):
        idx = (np.asarray(pts, dtype=float) - f.x[0]) / f.h
        return sample_coefficients(f.spline_coeffs(), [idx.ravel()]).reshape(np.shape(pts))
    if callable(f):  # includes GridFunction1D
        return np.asarray(f(pts), dtype=float)
    raise ReferenceMismatch(f"cannot evaluate {type(f).__name__} pointwise")


def _values_on(f, x):
    if isinstance(f, (GridFunction1D, GridDensity1D)) and f.x.shape == x.shape \
            and abs(f.x[0] - x[0]) < 1e-12 and abs(f.x[-1] - x[-1]) < 1e-12:
        return f.values
    return _eval_at(f, x)


def _coerce_triple(t):
    return t if isinstance(t, ExponentTriple) else ExponentTriple(*t)


# === marginal entropy / Fisher subadditivity ==============================

def _weighted_marginal_sum(frame, f, functional):
    if isinstance(f, GaussianDensity):
        if f.dim != 2:
            raise ReferenceMismatch("subadditivity needs a 2d density")
        total = 0.0
        for d, c in zip(frame.directions, frame.weights):
            u = d.unit_vector()
            m = float(u @ f.mean)
            v = float(u @ f.covariance @ u)
            total += c * float(functional(GaussianDensity(f.reference, [m], [[v]])))
        return total, float(functional(f))
    if isinstance(f, GridDensity2D):
        total = 0.0
        for d, c in zip(frame.directions, frame.weights):
            total += c * float(functional(marginal(f, d)))
        return total, float(functional(f))
    raise ReferenceMismatch(f"subadditivity is not defined for {type(f).__name__}")


def check_subadditivity(frame, f, tolerance=None):
    """sum_i c_i S(f_{u_i}) <= S(f) for a 2d density and any frame."""
    lhs, rhs = _weighted_marginal_sum(frame, f, entropy)
    return _report("subadditivity", lhs, rhs, 0.0, tolerance, (frame, f))


def check_fisher_subadditivity(frame, f, tolerance=None):
    """sum_i c_i I(f_{u_i}) <= I(f) for a 2d density and any frame."""
    lhs, rhs = _weighted_marginal_sum(frame, f, fisher)
    return _report("fisher", lhs, rhs, 0.0, tolerance, (frame, f))


def check_main_entropy(triple, f, tolerance=None):
    """Subadditivity along the frame of an exponent triple, weights 1/p_i."""
    t = _coerce_triple(triple)
    lhs, rhs = _weighted_marginal_sum(angles_from_exponents(t), f, entropy)
    return _report("main-entropy", lhs, rhs, 0.0, tolerance, (t, f))


# === the two-function integral inequality =================================

def _two_function_integral(triple, g, h, reference, length=None, points=None):
    t = _coerce_triple(triple)
    frame = angles_from_exponents(t)
    t2, t3 = frame.thetas[1], frame.thetas[2]
    outer = conjugate_exponent(t.p1)
    x = default_axis(length, points)
    if reference is Reference.GAUSSIAN:
        y, wy = gauss_hermite()
    else:
        y = x
        wy = simpson_weights(x.size, x[1] - x[0])
    gx = _eval_at(g, math.cos(t2) * x[:, None] + math.sin(t2) * y[None, :])
    hx = _eval_at(h, math.cos(t3) * x[:, None] + math.sin(t3) * y[None, :])
    inner = (gx * hx) @ wy
    lhs = lp_norm_values(x, inner, outer, reference)
    rhs = lp_norm_values(x, _values_on(g, x), t.p2, reference) \
        * lp_norm_values(x, _values_on(h, x), t.p3, reference)
    return lhs, rhs, t


def check_main_integral(triple, g, h, reference=Reference.LEBESGUE,
                        tolerance=None, length=None, points=None):
    """|| int g(x cos t2 + y sin t2) h(x cos t3 + y sin t3) dmu(y) ||_{p1'}
    <= ||g||_{p2} ||h||_{p3}."""
    lhs, rhs, t = _two_function_integral(triple, g, h, reference, length, points)
    return _report("main-integral", lhs, rhs, 1.0, tolerance,
                   (t, g, h, reference))


def check_hyper_two_function(f, g, p, r, tolerance=None, length=None, points=None):
    """Two-function hypercontractivity: the integral inequality on the
    Gaussian-reference frame of (q', p, r) with 1/q = 1/p + 1/r - 1."""
    p, r = float(p), float(r)
    if not (p > 1.0 and r > 1.0):
        raise InvalidExponents(f"need p, r > 1, got ({p}, {r})")
    qinv = 1.0 / p + 1.0 / r - 1.0
    if not 0.0 < qinv < 1.0:
        raise InvalidExponents(f"1/p + 1/r - 1 = {qinv!r} leaves no valid q")
    q = 1.0 / qinv
    triple = ExponentTriple(conjugate_exponent(q), p, r)
    lhs, rhs, t = _two_function_integral(triple, f, g, Reference.GAUSSIAN,
                                         length, points)
    return _report("hyper2", lhs, rhs, 1.0, tolerance, (t, f, g))


# === Young's inequality ===================================================

def check_young_convolution(g, h, p, q, r, tolerance=None):
    """||g * h||_r <= C_p C_q / C_r ||g||_p ||h||_q on Lebesgue densities."""
    p, q, r = _validate_young(p, q, r)
    conv = convolve(g, h)
    constant = young_constant(p, q, r)
    lhs = lp_norm(conv, r, Reference.LEBESGUE)
    rhs = constant * lp_norm(g, p, Reference.LEBESGUE) * lp_norm(h, q, Reference.LEBESGUE)
    return _report("young-conv", lhs, rhs, constant, tolerance, (g, h, p, q, r))


def _young_entropy_terms(f):
    """(S_X, S_Y, S_{X-Y}, S_XY) for a joint 2d Lebesgue density."""
    if isinstance(f, GaussianDensity):
        if f.dim != 2 or f.reference is not Reference.LEBESGUE:
            raise ReferenceMismatch("young-entropy needs a 2d Lebesgue density")
        m, c = f.mean, f.covariance
        gx = GaussianDensity(Reference.LEBESGUE, [m[0]], [[c[0, 0]]])
        gy = GaussianDensity(Reference.LEBESGUE, [m[1]], [[c[1, 1]]])
        vd = c[0, 0] + c[1, 1] - 2.0 * c[0, 1]
        gd = GaussianDensity(Reference.LEBESGUE, [m[0] - m[1]], [[vd]])
        return tuple(float(entropy(d)) for d in (gx, gy, gd, f))
    if isinstance(f, GridDensity2D):
        if f.reference is not Reference.LEBESGUE:
            raise ReferenceMismatch("young-entropy needs a Lebesgue density")
        s_x = float(entropy(marginal(f, 0.0)))
        s_y = float(entropy(marginal(f, math.pi / 2.0)))
        # marginal along 3pi/4 is (Y - X)/sqrt(2); X - Y is its -sqrt(2) dilate
        s_d = float(entropy(scale1d(marginal(f, 3.0 * math.pi / 4.0), -SQRT2)))
        return s_x, s_y, s_d, float(entropy(f))
    raise ReferenceMismatch(f"young-entropy is not defined for {type(f).__name__}")


def check_young_entropy(f, p, q, r, tolerance=None):
    """(1/r') S(X) + (1/p) S(X-Y) + (1/q) S(Y) <= S(X,Y) + log C.

    Equality for centered Gaussians with covariance proportional to
    young_extremal_covariance(p, q, r).
    """
    p, q, r = _validate_young(p, q, r)
    s_x, s_y, s_d, s_xy = _young_entropy_terms(f)
    constant = young_log_constant(p, q, r)
    lhs = s_x / conjugate_exponent(r) + s_d / p + s_y / q
    rhs = s_xy + constant
    return _report("young-entropy", lhs, rhs, constant, tolerance, (f, p, q, r))


# === Shannon's inequality =================================================

def _both_gaussian_1d(g, h):
    if not (isinstance(g, GaussianDensity) and isinstance(h, GaussianDensity)):
        return False
    for d in (g, h):
        if d.dim != 1 or d.reference is not Reference.LEBESGUE:
            raise ReferenceMismatch("sums need 1d Lebesgue densities")
    return True


def _combination_entropy(g, h, a, b):
    """S of the density of a X + b Y, closed form when both are Gaussian."""
    if _both_gaussian_1d(g, h):
        m = a * g.mean[0] + b * h.mean[0]
        v = a * a * g.covariance[0, 0] + b * b * h.covariance[0, 0]
        return float(entropy(GaussianDensity(Reference.LEBESGUE, [m], [[v]])))
    return float(entropy(linear_combination(g, h, a, b)))


def _sum_density(g, h):
    """Density of (X + Y)/sqrt(2) for independent X ~ g, Y ~ h."""
    return scale1d(convolve(g, h), 1.0 / SQRT2)


def check_shannon(g, h, tolerance=None):
    """S((X + Y)/sqrt 2) <= (S(X) + S(Y))/2 for Lebesgue densities."""
    if _both_gaussian_1d(g, h):
        lhs = _combination_entropy(g, h, 1.0 / SQRT2, 1.0 / SQRT2)
    else:
        lhs = float(entropy(_sum_density(g, h)))
    rhs = 0.5 * (float(entropy(g)) + float(entropy(h)))
    return _report("shannon", lhs, rhs, 0.0, tolerance, (g, h))


@dataclass(frozen=True)
class TaylorPoint:
    """One probe of the Shannon limit: frame at s, its slack, and the
    first-order residual rho(s) (bounded by C|s| near 0)."""

    s: float
    lhs: float
    rhs: float
    slack: float
    rho: float


def shannon_taylor_check(g, h, s_values):
    """Expand the subadditivity slack of the frame (s, pi/4, pi/2 - s).

    For the product density g(x) h(y), the frame inequality reads
    lhs(s) = c1 S(X cos s + Y sin s) + c2 S((X+Y)/sqrt 2)
           + c3 S(X sin s + Y cos s) <= S(X) + S(Y).
    As s -> 0- the weights behave like (1 + 2s, -4s, 1 + 2s), and

        rho(s) = [S(X) + S(Y) - lhs(s)] / (-s)
                 - [2 S(X) + 2 S(Y) - 4 S((X+Y)/sqrt 2)]

    tends to 0 (|rho| <= C |s|), vanishing identically for iid inputs.
    """
    s_g = float(entropy(g))
    s_h = float(entropy(h))
    s_sum = _combination_entropy(g, h, 1.0 / SQRT2, 1.0 / SQRT2)
    bracket = 2.0 * s_g + 2.0 * s_h - 4.0 * s_sum
    points = []
    for s in s_values:
        s = float(s)
        frame = shannon_limit_frame(s)
        c1, c2, c3 = frame.weights
        m1 = _combination_entropy(g, h, math.cos(s), math.sin(s))
        m3 = _combination_entropy(g, h, math.sin(s), math.cos(s))
        lhs = c1 * m1 + c2 * s_sum + c3 * m3
        rhs = s_g + s_h
        rho = (rhs - lhs) / (-s) - bracket
        points.append(TaylorPoint(s=s, lhs=lhs, rhs=rhs, slack=rhs - lhs, rho=rho))
    return points


# === Blachman-Stam ========================================================

def check_blachmann_stam(g, h, tolerance=None):
    """Fisher information of sums, two equivalent normal forms.

    Report 1 ("blachmann-stam"): I((X+Y)/sqrt 2) <= (I(X) + I(Y))/2.
    Report 2 ("blachmann-stam-harmonic"): I(X+Y) <= harmonic mean
    I(X) I(Y) / (I(X) + I(Y)).
    """
    if _both_gaussian_1d(g, h):
        i_g, i_h = float(fisher(g)), float(fisher(h))
        vs = g.covariance[0, 0] + h.covariance[0, 0]
        ms = g.mean[0] + h.mean[0]
        i_half = float(fisher(GaussianDensity(Reference.LEBESGUE,
                                              [ms / SQRT2], [[vs / 2.0]])))
        i_sum = float(fisher(GaussianDensity(Reference.LEBESGUE, [ms], [[vs]])))
    else:
        conv = convolve(g, h)
        i_g, i_h = float(fisher(g)), float(fisher(h))
        i_half = float(fisher(scale1d(conv, 1.0 / SQRT2)))
        i_sum = float(fisher(conv))
    first = _report("blachmann-stam", i_half, 0.5 * (i_g + i_h), 0.0,
                    tolerance, (g, h))
    second = _report("blachmann-stam-harmonic", i_sum,
                     i_g * i_h / (i_g + i_h), 0.0, tolerance, (g, h, "harmonic"))
    return first, second


# === hypercontractivity and log-Sobolev ===================================

def check_hypercontractivity(f, p, q, theta, tolerance=None,
                             length=None, points=None):
    """||P_theta f||_{L^q(gamma)} <= ||f||_{L^p(gamma)}.

    Holds for all f iff cos theta <= sqrt((p-1)/(q-1)); past the
    threshold the slack goes negative for exponential inputs.
    """
    p, q = float(p), float(q)
    if not (p >= 1.0 and q >= 1.0):
        raise InvalidExponents(f"need p, q >= 1, got ({p}, {q})")
    if isinstance(f, (GridFunction1D, GridDensity1D)):
        x = f.x
    else:
        x = default_axis(length, points)
    pf = hermite_p_theta(f, theta, x=x)
    lhs = lp_norm(pf, q, Reference.GAUSSIAN)
    rhs = lp_norm_values(x, _values_on(f, x), p, Reference.GAUSSIAN)
    return _report("hyper", lhs, rhs, 1.0, tolerance, (f, p, q, float(theta)))


def check_log_sobolev(f, tolerance=None):
    """S_gamma(f) <= (1/2) I_gamma(f); equality on exp(a t - a^2/2)."""
    if f.reference is not Reference.GAUSSIAN:
        raise ReferenceMismatch("log-Sobolev lives over the Gaussian reference")
    lhs = float(entropy(f))
    rhs = 0.5 * float(fisher(f))
    return _report("lsi", lhs, rhs, 0.5, tolerance, (f,))


def check_integrated_lsi(f, theta, tolerance=None):
    """S_gamma(P_theta f) <= cos^2(theta) S_gamma(f) along the OU flow."""
    theta = float(theta)
    flowed = ou_flow(f, FlowTime.from_theta(theta))
    constant = math.cos(theta) ** 2
    lhs = float(entropy(flowed))
    rhs = constant * float(entropy(f))
    return _report("lsi-integrated", lhs, rhs, constant, tolerance, (f, theta))


# === Brascamp-Lieb ========================================================

def check_brascamp_lieb(frame, f1, f2, f3, reference=Reference.LEBESGUE,
                        tolerance=None, length=None, points=None):
    """int prod_i f_i(x . u_i)^{c_i} dmu_2 <= prod_i (int f_i dmu)^{c_i}
    for nonnegative f_i along the frame directions."""
    x = default_axis(length, points)
    h = x[1] - x[0]
    X = x[:, None]
    Y = x[None, :]
    prod = np.ones((x.size, x.size))
    rhs = 1.0
    w1 = simpson_weights(x.size, h)
    if reference is Reference.GAUSSIAN:
        w1 = w1 * reference_weight_1d(reference, x)
        w2 = reference_weight_2d(reference, x, x)
    else:
        w2 = 1.0
    for d, c, f in zip(frame.directions, frame.weights, (f1, f2, f3)):
        u = d.unit_vector()
        vals = np.maximum(_eval_at(f, u[0] * X + u[1] * Y), 0.0)
        prod *= vals ** c
        rhs *= float(w1 @ np.maximum(_values_on(f, x), 0.0)) ** c
    wx = simpson_weights(x.size, h)
    lhs = float(wx @ (prod * w2) @ wx)
    return _report("brascamp-lieb", lhs, rhs, 1.0, tolerance,
                   (frame, f1, f2, f3, reference))
