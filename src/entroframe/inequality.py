"""Inequality checks built on frames, densities, functionals, and flows.

Every check returns an InequalityReport with the measured left- and
right-hand sides.  slack = rhs - lhs, so the inequality holds when
slack >= 0; a check "passes" when slack >= -tolerance.  rhs always
includes the sharp constant, which is also reported separately.

Check names double as CLI names: subadditivity, fisher, main-entropy,
main-integral, young-conv, young-entropy, shannon, blachmann-stam (and
its second report blachmann-stam-harmonic), hyper, hyper2, lsi,
lsi-integrated, brascamp-lieb.

main-integral, hyper2 and brascamp-lieb integrate products of f_i(x . u_i)
over a frame, sum_i c_i u_i u_i^T = Id, in the coordinates (s_1, s_2) =
(x . u_1, x . u_j), u_j the one of u_2, u_3 farther from u_1, on
{|s_1|, |s_2| <= L}: dx = ds_1 ds_2 / |det(u_1, u_j)|, and grid factors
are 0 off their grid.  As |x|^2 = sum_i c_i (x . u_i)^2, the 2d standard
Gaussian is prod_i gamma(x . u_i)^{c_i}, so over the Gaussian reference
each factor takes a power of gamma and every side is a Lebesgue integral.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .density import (ExpFunction, GaussianDensity, GridDensity1D,
                      GridDensity2D, GridFunction1D, Reference, _cached,
                      convolve, default_axis, integral, linear_combination,
                      marginals, reference_weight, scale1d)
from .errors import InvalidExponents, InvalidFlowTime, ReferenceMismatch
from .frames import (ExponentTriple, Frame2, _coerce_triple, _hyper2_exponents,
                     angles_from_exponents, conjugate_exponent,
                     shannon_limit_frame, validate_young, young_frame)
from .functional import _lp_norm, entropy, fisher, lp_norm
from .quadrature import (affine_sums, grid_index, shifted_copies,
                         simpson_weights, validate_axis)
from .semigroup import hermite_p_theta, ou_flow

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
        return asdict(self)

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)


def _canon(part):
    if isinstance(part, np.ndarray):
        raw = hashlib.sha1(np.ascontiguousarray(part, dtype=float))
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
    if callable(part):
        return getattr(part, "__name__", type(part).__name__)
    return repr(part)


def inputs_digest(*parts):
    return hashlib.sha1(_canon(parts).encode()).hexdigest()[:12]


def _axis_part(x):
    """The digest part of the axis a check integrates on: its ends and size."""
    return ("axis", float(x[0]), float(x[-1]), x.size)


def _tolerance(tolerance, default=None):
    """tolerance as a float, once it is finite and >= 0; default if it is None."""
    if tolerance is None:
        return default
    tol = float(tolerance)
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {tol!r}")
    return tol


def _report(name, lhs, rhs, constant, tolerance, parts):
    tol = _tolerance(tolerance, DEFAULT_TOLERANCES[name])
    return InequalityReport(name=name, lhs=float(lhs), rhs=float(rhs),
                            constant=float(constant), slack=float(rhs) - float(lhs),
                            tolerance=tol, inputs_digest=inputs_digest(name, *parts))


# === sharp Young constants ================================================

def _ct(t):
    # C_t = sqrt(t^{1/t} / t'^{1/t'}), the one-exponent factor.
    t = float(t)
    tc = conjugate_exponent(t)
    return math.sqrt(t ** (1.0 / t) / tc ** (1.0 / tc))


def young_constant(p, q, r):
    """Sharp constant C_p C_q / C_r for ||f * g||_r <= C ||f||_p ||g||_q."""
    p, q, r = validate_young(p, q, r)
    return _ct(p) * _ct(q) / _ct(r)


def young_log_constant(p, q, r):
    """log of the sharp Young constant, written out exponent by exponent.

    Equals (1/2) [ (log p)/p - (log p')/p' + (log q)/q - (log q')/q'
                   - (log r)/r + (log r')/r' ].
    """
    p, q, r = validate_young(p, q, r)
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
    ct2, ct3 = (1.0 / math.tan(t) for t in young_frame(p, q, r).thetas[1:])
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
        for field in ("lam", "a2", "a3"):
            value = float(getattr(self, field))
            if not math.isfinite(value):
                raise InvalidExponents(f"{field} must be finite, got {value!r}")
            object.__setattr__(self, field, value)
        if not self.lam > 0.0:
            raise InvalidExponents(f"lam must be positive, got {self.lam!r}")

    def factor(self, slot, p, reference):
        """Callable g with |g|^p = e^{-lam (t - a)^2} against the reference,
        named by its slot, lam, a, p and reference for inputs_digest."""
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
        g.__name__ = (f"extremizer(slot={slot},lam={lam!r},a={a!r},p={p!r},"
                      f"{reference.value})")
        return g

    def pair(self, triple, reference):
        t = _coerce_triple(triple)
        return (self.factor(2, t.p2, reference), self.factor(3, t.p3, reference))


# === evaluation helpers ===================================================

def _eval_at(f, pts):
    """Evaluate a callable / grid function / grid density at points."""
    if callable(f):  # the 1d grid containers evaluate their spline
        return np.asarray(f(pts), dtype=float)
    raise ReferenceMismatch(f"cannot evaluate {type(f).__name__} pointwise")


def _values_on(f, x):
    if isinstance(f, (GridFunction1D, GridDensity1D)) and f.x.shape == x.shape \
            and abs(f.x[0] - x[0]) < 1e-12 and abs(f.x[-1] - x[-1]) < 1e-12:
        return f.values
    return _eval_at(f, x)


def _frame_inner(thetas, f2, f3, axis):
    """F(s_1) = int f_j(s_2) f_k(a s_1 + b s_2) ds_2 / |det(u_1, u_j)| on the
    nodes, u_k = a u_1 + b u_j, with u_j the one of u_2, u_3 farther from u_1:
    sum_i c_i sin^2(theta_i - theta_1) = 1 and c_2 + c_3 < 2 give |det| >
    1/sqrt 2 and |a|, |b| < sqrt 2, however close two directions lie.  A
    factor (f, weight) enters as weight(f(s), s), f_j read at the nodes.

    A grid factor f_k enters as the cubic spline of its weighted node
    values weight(f_k.values, f_k.x), zero-extended at its ends, so the sum
    over s_2 is one of copies of that line, shifted by -b s_2 / h_k:
    quadrature.shifted_copies, O(n log n).  A callable f_k is evaluated
    exactly at a s_1 + b s_2 by quadrature.affine_sums, on CALL_POINTS // n
    rows of s_1 at a time (7 at n = 2049), each contracted on its own, so
    no n x n array is ever held and every temporary stays small enough for
    the allocator to reuse."""
    (x, h), (t1, t2, t3) = axis, thetas
    if abs(math.sin(t3 - t1)) > abs(math.sin(t2 - t1)):
        (t2, f2), (t3, f3) = (t3, f3), (t2, f2)
    det = math.sin(t2 - t1)
    a, b = math.sin(t2 - t3) / det, math.sin(t3 - t1) / det
    (fj, wj), (fk, wk) = f2, f3
    fj_weighted = simpson_weights(x.size, h) * wj(_values_on(fj, x), x)
    if isinstance(fk, (GridFunction1D, GridDensity1D)):
        return shifted_copies(wk(fk.values, fk.x), grid_index(a * x, fk.x[0], fk.h),
                              -b * x / fk.h, fj_weighted) / abs(det)
    return affine_sums(lambda s: wk(_eval_at(fk, s), s), x, a, x, b, fj_weighted) / abs(det)


# === marginal entropy / Fisher subadditivity ==============================

def _weighted_marginal_sum(frame, f, functional):
    total = sum(c * functional(m)
                for m, c in zip(marginals(f, frame.directions), frame.weights))
    return total, functional(f)


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
    x = default_axis(length, points)
    axis = (x, validate_axis(x))

    def weight(p):
        if reference is Reference.LEBESGUE:
            return lambda v, s: v
        return lambda v, s: v * reference_weight(reference, s, p)
    thetas = angles_from_exponents(t).thetas
    inner = _frame_inner(thetas, (g, weight(t.p2)), (h, weight(t.p3)), axis)
    lhs = _lp_norm(inner, conjugate_exponent(t.p1), Reference.LEBESGUE, axis)
    rhs = math.prod(_lp_norm(_values_on(f, x), p, reference, axis)
                    for f, p in ((g, t.p2), (h, t.p3)))
    return lhs, rhs, t, x


def check_main_integral(triple, g, h, reference=Reference.LEBESGUE,
                        tolerance=None, length=None, points=None):
    """|| int g(x cos t2 + y sin t2) h(x cos t3 + y sin t3) dmu(y) ||_{p1'}
    <= ||g||_{p2} ||h||_{p3}, taken in (s_1, s_2) = (x, x cos tj + y sin tj),
    tj the one of t2, t3 farther from 0, on {|s_1|, |s_2| <= L}.  Over the
    Gaussian reference g and h take gamma^{1/p2} and gamma^{1/p3}, and the
    outer weight cancels in the L^{p1'}(gamma) norm: gamma^{(1/p1 - 1) p1'} = 1/gamma."""
    lhs, rhs, t, x = _two_function_integral(triple, g, h, reference, length, points)
    return _report("main-integral", lhs, rhs, 1.0, tolerance,
                   (t, g, h, reference, _axis_part(x)))


def check_hyper_two_function(f, g, p, r, tolerance=None, length=None, points=None):
    """Two-function hypercontractivity: the integral inequality on the
    Gaussian-reference frame of (q', p, r) with 1/q = 1/p + 1/r - 1; p and r
    are valid iff that exponent triple exists (0 < 1/q < 1 among others)."""
    p, r = float(p), float(r)
    try:
        triple = ExponentTriple(*_hyper2_exponents(p, r))
    except InvalidExponents as exc:
        raise InvalidExponents(f"p = {p!r}, r = {r!r} give no exponent triple (q', p, r): "
                               f"{exc}") from None
    lhs, rhs, t, x = _two_function_integral(triple, f, g, Reference.GAUSSIAN, length, points)
    return _report("hyper2", lhs, rhs, 1.0, tolerance, (t, f, g, _axis_part(x)))


# === Young's inequality ===================================================

def check_young_convolution(g, h, p, q, r, tolerance=None):
    """||g * h||_r <= C_p C_q / C_r ||g||_p ||h||_q on Lebesgue densities."""
    p, q, r = validate_young(p, q, r)
    conv = convolve(g, h)
    constant = young_constant(p, q, r)
    lhs = lp_norm(conv, r, Reference.LEBESGUE)
    rhs = constant * lp_norm(g, p, Reference.LEBESGUE) * lp_norm(h, q, Reference.LEBESGUE)
    return _report("young-conv", lhs, rhs, constant, tolerance, (g, h, p, q, r))


def _young_entropy_terms(f):
    """(S_X, S_Y, S_{X-Y}, S_XY) for a joint 2d Lebesgue density."""
    if getattr(f, "reference", None) is not Reference.LEBESGUE:
        raise ReferenceMismatch("young-entropy needs a Lebesgue density")
    f_x, f_y, f_d = marginals(f, [0.0, math.pi / 2.0, 3.0 * math.pi / 4.0])
    # marginal along 3pi/4 is (Y - X)/sqrt(2); X - Y is its -sqrt(2) dilate
    return entropy(f_x), entropy(f_y), entropy(scale1d(f_d, -SQRT2)), entropy(f)


def check_young_entropy(f, p, q, r, tolerance=None):
    """(1/r') S(X) + (1/p) S(X-Y) + (1/q) S(Y) <= S(X,Y) + log C.

    Equality for centered Gaussians with covariance proportional to
    young_extremal_covariance(p, q, r).
    """
    p, q, r = validate_young(p, q, r)
    s_x, s_y, s_d, s_xy = _young_entropy_terms(f)
    constant = young_log_constant(p, q, r)
    lhs = s_x / conjugate_exponent(r) + s_d / p + s_y / q
    rhs = s_xy + constant
    return _report("young-entropy", lhs, rhs, constant, tolerance, (f, p, q, r))


# === Shannon's inequality =================================================

def check_shannon(g, h, tolerance=None):
    """S((X + Y)/sqrt 2) <= (S(X) + S(Y))/2 for independent Lebesgue X ~ g, Y ~ h."""
    lhs = entropy(scale1d(convolve(g, h), 1.0 / SQRT2))
    rhs = 0.5 * (entropy(g) + entropy(h))
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
    s_g = entropy(g)
    s_h = entropy(h)
    s_sum = entropy(linear_combination(g, h, 1.0 / SQRT2, 1.0 / SQRT2))
    bracket = 2.0 * s_g + 2.0 * s_h - 4.0 * s_sum
    points = []
    for s in s_values:
        s = float(s)
        frame = shannon_limit_frame(s)
        c1, c2, c3 = frame.weights
        m1 = entropy(linear_combination(g, h, math.cos(s), math.sin(s)))
        m3 = entropy(linear_combination(g, h, math.sin(s), math.cos(s)))
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

    I(aX) = I(X) / a^2, and scale1d regrids exactly, so I((X+Y)/sqrt 2) is
    2 I(X+Y): one Fisher quadrature serves both reports.
    """
    i_g, i_h = fisher(g), fisher(h)
    i_sum = fisher(convolve(g, h))
    first = _report("blachmann-stam", 2.0 * i_sum, 0.5 * (i_g + i_h), 0.0,
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
    x = f.x if isinstance(f, (GridFunction1D, GridDensity1D)) else default_axis(length, points)
    pf = hermite_p_theta(f, theta, x=x)
    lhs = lp_norm(pf, q, Reference.GAUSSIAN)
    rhs = _lp_norm(_values_on(f, x), p, Reference.GAUSSIAN, pf.axes[0])
    return _report("hyper", lhs, rhs, 1.0, tolerance, (f, p, q, float(theta), _axis_part(x)))


def check_log_sobolev(f, tolerance=None):
    """S_gamma(f) <= (1/2) I_gamma(f); equality on exp(a t - a^2/2)."""
    if f.reference is not Reference.GAUSSIAN:
        raise ReferenceMismatch("log-Sobolev lives over the Gaussian reference")
    lhs = entropy(f)
    rhs = 0.5 * fisher(f)
    return _report("lsi", lhs, rhs, 0.5, tolerance, (f,))


def _lsi_angle(theta):
    """theta as a float, once it lies in [0, pi/2); InvalidFlowTime otherwise."""
    theta = float(theta)
    if not 0.0 <= theta < math.pi / 2.0:
        raise InvalidFlowTime(f"theta must lie in [0, pi/2), got {theta!r}")
    return theta


def check_integrated_lsi(f, theta, tolerance=None):
    """S_gamma(P_theta f) <= cos^2(theta) S_gamma(f) along the OU flow."""
    theta = _lsi_angle(theta)
    flowed = ou_flow(f, -math.log(math.cos(theta)))
    constant = math.cos(theta) ** 2
    lhs = entropy(flowed)
    rhs = constant * entropy(f)
    return _report("lsi-integrated", lhs, rhs, constant, tolerance, (f, theta))


# === Brascamp-Lieb ========================================================

def check_brascamp_lieb(frame, f1, f2, f3, reference=Reference.LEBESGUE,
                        tolerance=None, length=None, points=None):
    """int prod_i f_i(x . u_i)^{c_i} dmu_2 <= prod_i (int f_i dmu)^{c_i}
    for nonnegative f_i along the frame directions, taken in the coordinates
    (x . u_1, x . u_j) of _frame_inner on {|s_1|, |s_2| <= L}; over the
    Gaussian reference f_i becomes f_i gamma."""
    x = default_axis(length, points)
    axis = (x, validate_axis(x))

    def weight(c):
        return lambda v, s: (np.maximum(v, 0.0) * reference_weight(reference, s)) ** c
    c1, c2, c3 = frame.weights
    v = [weight(1.0)(_values_on(f, x), x) for f in (f1, f2, f3)]
    inner = _frame_inner(frame.thetas, (f2, weight(c2)), (f3, weight(c3)), axis)
    lhs = integral(Reference.LEBESGUE, v[0] ** c1 * inner, axis)
    rhs = math.prod(integral(Reference.LEBESGUE, vi, axis) ** c
                    for vi, c in zip(v, frame.weights))
    return _report("brascamp-lieb", lhs, rhs, 1.0, tolerance,
                   (frame, f1, f2, f3, reference, _axis_part(x)))
