"""Rank-one decompositions of the identity of R^2.

A frame is three directions u_i (lines through the origin, angles mod pi)
together with weights c_i in (0, 1) such that

    c_1 u_1 u_1^T + c_2 u_2 u_2^T + c_3 u_3 u_3^T = Id,   c_1 + c_2 + c_3 = 2.

Such a decomposition exists iff the three angular sectors cut by the
directions are all strictly smaller than pi/2.  Constructors recover the
weights from the directions, the directions from the weights (canonical
gauge: theta_1 = 0, theta_2 in (0, pi/2), theta_3 in (pi/2, pi)), and both
from an exponent triple p_i > 1 with 1/p_1 + 1/p_2 + 1/p_3 = 2 via
c_i = 1/p_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (CompatibilityViolation, DegenerateDirections, FrameError,
                     InvalidExponents, SectorViolation, WeightOutOfRange)

# Tolerances: user-supplied triples may miss their constraint surface by up
# to CONSTRAINT_TOL and are snapped onto it; frames must then reproduce the
# identity to RESIDUAL_TOL.  The sector condition is strict, with a margin.
CONSTRAINT_TOL = 1e-9
RESIDUAL_TOL = 1e-12
SECTOR_TOL = 1e-12
DEGENERATE_TOL = 1e-12

_HALF_PI = math.pi / 2.0


def canonical_angle(theta):
    """Representative of theta modulo pi inside [0, pi); FrameError if theta
    is not finite."""
    t = float(theta)
    if not math.isfinite(t):
        raise FrameError(f"direction angle must be finite, got {t!r}")
    t = math.fmod(t, math.pi)
    if t < 0.0:
        t += math.pi
    if t >= math.pi:  # fmod rounding at the top end
        t = 0.0
    return t


def conjugate_exponent(p):
    """Hoelder conjugate p' = p/(p-1); p = 1 and inf map to each other."""
    p = float(p)
    if p < 1.0:
        raise InvalidExponents(f"exponent {p} < 1 has no conjugate")
    if p == 1.0:
        return math.inf
    if p == math.inf:
        return 1.0
    return p / (p - 1.0)


# === directions ===========================================================

@dataclass(frozen=True)
class Direction:
    """A line through the origin, stored as its angle in [0, pi)."""

    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", canonical_angle(self.theta))

    def unit_vector(self):
        return np.array([math.cos(self.theta), math.sin(self.theta)])

    def distance(self, other):
        """Angular distance between two lines (mod pi metric)."""
        d = abs(self.theta - other.theta)
        return min(d, math.pi - d)


def sector_measures(thetas):
    """The three angular sectors cut by three lines; they sum to pi.

    Sectors are indexed 1..3 in the order (between the two smallest sorted
    angles, between the larger two, wrap-around).
    """
    s = sorted(canonical_angle(t) for t in thetas)
    return (s[1] - s[0], s[2] - s[1], math.pi - (s[2] - s[0]))


def _check_directions(ds):
    for i in range(3):
        for j in range(i + 1, 3):
            if ds[i].distance(ds[j]) < DEGENERATE_TOL:
                raise DegenerateDirections(
                    f"directions {i + 1} and {j + 1} coincide modulo pi "
                    f"(theta = {ds[i].theta:.6f}, {ds[j].theta:.6f})")
    for k, m in enumerate(sector_measures(d.theta for d in ds), start=1):
        if m >= _HALF_PI - SECTOR_TOL:
            raise SectorViolation(k, m)


# === frames ===============================================================

@dataclass(frozen=True)
class Frame2:
    """A weighted triple of directions decomposing the identity of R^2."""

    directions: tuple
    weights: tuple

    def __post_init__(self):
        ds = tuple(d if isinstance(d, Direction) else Direction(d)
                   for d in self.directions)
        ws = tuple(float(c) for c in self.weights)
        if len(ds) != 3 or len(ws) != 3:
            raise CompatibilityViolation("a frame has exactly three directions and weights")
        object.__setattr__(self, "directions", ds)
        object.__setattr__(self, "weights", ws)
        _check_directions(ds)
        _snap_triple(ws, False, CONSTRAINT_TOL)  # validates; the frame keeps ws
        res = self.residual()
        if res > RESIDUAL_TOL:
            raise CompatibilityViolation(
                f"decomposition residual {res:.3e} exceeds {RESIDUAL_TOL:g}")

    @property
    def thetas(self):
        return tuple(d.theta for d in self.directions)

    def gram(self):
        """sum_i c_i u_i u_i^T as a 2x2 array."""
        g = np.zeros((2, 2))
        for d, c in zip(self.directions, self.weights):
            u = d.unit_vector()
            g += c * np.outer(u, u)
        return g

    def residual(self):
        """Frobenius distance of the weighted sum from the identity."""
        return float(np.linalg.norm(self.gram() - np.eye(2)))


MERCEDES_WEIGHT = 2.0 / 3.0


def mercedes_frame():
    """The symmetric frame: directions 0, pi/3, 2pi/3, all weights 2/3."""
    return Frame2((0.0, math.pi / 3.0, 2.0 * math.pi / 3.0),
                  (MERCEDES_WEIGHT,) * 3)


# === directions -> weights ================================================

def weights_from_directions(theta_1, theta_2, theta_3):
    """Frame with the given directions; weights are uniquely determined.

    c_i = cos(theta_j - theta_k) / (sin(theta_j - theta_i) sin(theta_k - theta_i))
    for {i, j, k} = {1, 2, 3}.  The formula is invariant under shifting any
    angle by pi, so canonical representatives are used throughout.
    Raises DegenerateDirections / SectorViolation when no frame exists.
    """
    ds = (Direction(theta_1), Direction(theta_2), Direction(theta_3))
    _check_directions(ds)
    t1, t2, t3 = (d.theta for d in ds)
    c1 = math.cos(t2 - t3) / (math.sin(t2 - t1) * math.sin(t3 - t1))
    c2 = math.cos(t3 - t1) / (math.sin(t3 - t2) * math.sin(t1 - t2))
    c3 = math.cos(t1 - t2) / (math.sin(t1 - t3) * math.sin(t2 - t3))
    return Frame2(ds, (c1, c2, c3))


# === weights -> directions ================================================

def _snap_triple(values, exponents, tol):
    """A triple of frame weights, or of exponents (their reciprocals) when
    exponents is true, put on the constraint surface: the weights sum to 2.

    Each weight must lie in (0, 1), so each exponent in (1, inf), and the
    weights' sum s within tol of 2.  s != 2 rescales the weights by 2/s, the
    exponents by s/2; a triple with s == 2 comes back as given.
    """
    vs = tuple(float(v) for v in values)
    if len(vs) != 3:
        raise CompatibilityViolation("a triple has three entries")
    error, noun, low, high = ((InvalidExponents, "exponent", 1.0, math.inf) if exponents
                              else (WeightOutOfRange, "weight", 0.0, 1.0))
    for v in vs:
        if not low < v < high:
            raise error(f"{noun} {v!r} outside ({low:g}, {high:g})")
    s = sum(1.0 / v if exponents else v for v in vs)
    if abs(s - 2.0) > tol:
        raise (error if exponents else CompatibilityViolation)(
            f"{'reciprocals' if exponents else 'weights'} sum to {s!r}, "
            f"expected 2 within {tol:g}")
    if s == 2.0:
        return vs
    return tuple(v * (s / 2.0) if exponents else v * (2.0 / s) for v in vs)


def normalize_weights(weights):
    """Snap a weight triple onto the constraint surface sum c = 2.

    Accepts triples within CONSTRAINT_TOL of the surface; rescales so the
    sum is exactly 2 in floating point.
    """
    return _snap_triple(weights, False, CONSTRAINT_TOL)


def directions_from_weights(c_1, c_2, c_3):
    """Canonical frame with the given weights.

    Gauge: theta_1 = 0, theta_2 in (0, pi/2), theta_3 in (pi/2, pi).
    Weights within CONSTRAINT_TOL of sum 2 are snapped onto the constraint.
    """
    c1, c2, c3 = normalize_weights((c_1, c_2, c_3))
    u2 = (math.sqrt((1.0 - c1) * (1.0 - c2) / (c1 * c2)),
          math.sqrt((1.0 - c3) / (c1 * c2)))
    u3 = (-math.sqrt((1.0 - c1) * (1.0 - c3) / (c1 * c3)),
          math.sqrt((1.0 - c2) / (c1 * c3)))
    theta_2 = math.atan2(u2[1], u2[0])
    theta_3 = math.atan2(u3[1], u3[0])
    return Frame2((0.0, theta_2, theta_3), (c1, c2, c3))


# === exponent triples =====================================================

@dataclass(frozen=True)
class ExponentTriple:
    """Exponents p_i > 1 with 1/p_1 + 1/p_2 + 1/p_3 = 2.

    Triples whose reciprocals sum within CONSTRAINT_TOL of 2 are snapped
    onto the constraint surface (reciprocals rescaled by 2/sum), so the
    stored values satisfy the relation to machine precision.
    """

    p1: float
    p2: float
    p3: float

    def __post_init__(self):
        ps = _snap_triple((self.p1, self.p2, self.p3), True, CONSTRAINT_TOL)
        for name, p in zip(("p1", "p2", "p3"), ps):
            object.__setattr__(self, name, p)

    def as_tuple(self):
        return (self.p1, self.p2, self.p3)

    def weights(self):
        return (1.0 / self.p1, 1.0 / self.p2, 1.0 / self.p3)


def _coerce_triple(t):
    if isinstance(t, ExponentTriple):
        return t
    return ExponentTriple(*t)


def angles_from_exponents(triple):
    """Canonical frame of the triple: directions_from_weights at c_i = 1/p_i."""
    return directions_from_weights(*_coerce_triple(triple).weights())


def _young_triple(p, q, r):
    """The exponent triple (r', p, q) of a Young triple, 1/p + 1/q = 1 + 1/r.

    It exists iff p, q, r > 1 are finite and the relation holds within
    CONSTRAINT_TOL; raises InvalidExponents otherwise.
    """
    return ExponentTriple(conjugate_exponent(r), p, q)


def _hyper2_exponents(p, r):
    """The exponents (q', p, r) of two-function hypercontractivity, with
    1/q = 1/p + 1/r - 1, not yet checked as an exponent triple.  p or r = 0
    and 1/q = 0 give exponents the triple rejects, not a ZeroDivisionError."""
    p, r = float(p), float(r)
    qinv = 1.0 / p + 1.0 / r - 1.0 if p and r else math.nan
    return conjugate_exponent(1.0 / qinv if qinv else math.inf), p, r


def young_frame(p, q, r):
    """Frame of the Young triple (r', p, q).  Example: young_frame(3/2, 3/2, 3)
    is the Mercedes frame (triple (3/2, 3/2, 3/2))."""
    return angles_from_exponents(_young_triple(p, q, r))


def validate_young(p, q, r):
    """The Young triple as floats, as given, once _young_triple accepts it."""
    _young_triple(p, q, r)
    return float(p), float(q), float(r)


# === the Shannon limit ====================================================

def shannon_limit_frame(s):
    """Frame with directions (s, pi/4, pi/2 - s) for s in (-pi/2, 0).

    As s -> 0- the weights degenerate like (1 + 2s, -4s, 1 + 2s); the
    wrap sector closes to pi/2 at s = 0 and the outer directions collide
    at s = -pi/4.  Raises SectorViolation / DegenerateDirections outside
    the valid range, via the general constructor.
    """
    s = float(s)
    return weights_from_directions(s, math.pi / 4.0, _HALF_PI - s)
