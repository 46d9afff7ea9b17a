"""Property tests of the paper's invariances, on n = 513 grids.

Each bound is the tolerance the example-based test of the same property
already uses: the frame round trip of tests/test_frames.py, the scaling
law of TestScale1d, the closed-form subadditivity gaps of
TestSubadditivity, and the equality cases of TestBrascampLieb and
TestMainIntegral.  The frame checks' batched marginals are compared with
single ones bit for bit, on n = 129 grids; the grid subadditivity slack of
a turned mixture, and its change from one reference to the other, are
bounded by 10x the gaps measured on n = 257 and 513 grids.  Runs are
derandomized, so every run draws the same examples.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from entroframe import (
    ExponentTriple,
    Frame2,
    GaussianExtremizer,
    GridDensity2D,
    Reference,
    angles_from_exponents,
    check_brascamp_lieb,
    check_main_entropy,
    check_main_integral,
    check_subadditivity,
    default_axis,
    directions_from_weights,
    entropy,
    gaussian,
    marginal,
    mercedes_frame,
    scale1d,
    weights_from_directions,
)
from entroframe.density import log_gaussian_weight

LEB = Reference.LEBESGUE
GAM = Reference.GAUSSIAN
POINTS = 513

PROPERTY = settings(max_examples=50, deadline=None, derandomize=True, database=None)
WEIGHT = st.floats(1e-5, 1.0 - 1e-5)
# weights (0.5, 0.5, 0.9999) rescaled onto sum 2: u_2 lies 0.014 rad from u_1
SKEWED = (0.5 / 0.99995, 0.5 / 0.99995)


def random_frame(c1, c2):
    c3 = 2.0 - c1 - c2
    assume(1e-5 < c3 < 1.0 - 1e-5)
    return directions_from_weights(c1, c2, c3)


def rotation(phi):
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s], [s, c]])


@PROPERTY
@given(c1=WEIGHT, c2=WEIGHT)
def test_frame_round_trip(c1, c2):
    """weights -> directions -> weights returns the triple."""
    c3 = 2.0 - c1 - c2
    assume(1e-5 < c3 < 1.0 - 1e-5)
    frame = directions_from_weights(c1, c2, c3)
    back = weights_from_directions(*frame.thetas)
    assert frame.residual() <= 1e-12
    np.testing.assert_allclose(back.weights, (c1, c2, c3), atol=1e-10)


@PROPERTY
@given(a=st.floats(0.25, 4.0), negative=st.booleans())
def test_entropy_of_a_dilate(a, negative):
    """S(aX) = S(X) - log|a| through scale1d, on a grid and in closed form."""
    a = -a if negative else a
    closed = gaussian(LEB, 0.3, 1.2)
    for d in (closed.to_grid(points=POINTS), closed):
        np.testing.assert_allclose(float(entropy(scale1d(d, a))),
                                   float(entropy(d)) - math.log(abs(a)), atol=1e-9)


@PROPERTY
@given(weights=st.tuples(WEIGHT, WEIGHT), variances=st.tuples(
    st.floats(0.2, 5.0), st.floats(0.2, 5.0)), alpha=st.floats(0.0, math.pi),
    phi=st.floats(-math.pi, math.pi))
def test_subadditivity_slack_is_rotation_invariant(weights, variances, alpha, phi):
    """Turning the frame's directions and the covariance by the same angle
    leaves the closed-form subadditivity slack unchanged."""
    frame = random_frame(*weights)
    turned = Frame2(tuple(t + phi for t in frame.thetas), frame.weights)
    r, q = rotation(alpha), rotation(phi)
    cov = r @ np.diag(variances) @ r.T
    slack = check_subadditivity(frame, gaussian(LEB, [0.0, 0.0], cov)).slack
    turned_slack = check_subadditivity(turned, gaussian(LEB, [0.0, 0.0], q @ cov @ q.T)).slack
    np.testing.assert_allclose(turned_slack, slack, atol=1e-12)


@PROPERTY
@given(weights=st.tuples(WEIGHT, WEIGHT), lam=st.floats(0.3, 3.0))
@example(weights=SKEWED, lam=1.0)
def test_common_gaussian_saturates_brascamp_lieb(weights, lam):
    """f_i = e^{-lam t^2} gives lhs = rhs = pi/lam on every frame, and so
    does f_i = e^{-lam t^2}/gamma over the Gaussian reference, since
    gamma_2(x) = prod_i gamma(x . u_i)^{c_i}."""
    frame = random_frame(*weights)

    def leb(t):
        return np.exp(-lam * np.asarray(t, dtype=float) ** 2)

    def gam(t):
        t = np.asarray(t, dtype=float)
        return np.exp((0.5 - lam) * t * t + 0.5 * math.log(2.0 * math.pi))

    for f, ref in ((leb, LEB), (gam, GAM)):
        r = check_brascamp_lieb(frame, f, f, f, ref, points=POINTS)
        assert abs(r.slack) / r.rhs <= 1e-12


@PROPERTY
@given(weights=st.tuples(WEIGHT, WEIGHT), lam=st.floats(0.3, 3.0),
       radius=st.floats(0.0, 1.0), phi=st.floats(-math.pi, math.pi))
@example(weights=SKEWED, lam=0.8, radius=1.0, phi=0.5)
def test_gaussian_extremizers_saturate_main_integral(weights, lam, radius, phi):
    """Every GaussianExtremizer pair is an equality case of the main
    integral inequality on every frame, in both references.  The pair is
    drawn by its 2d centre z, |z| <= 1: g and h centre on z . u_2 and
    z . u_3, and the outer function of the lhs on z . u_1.  A centre far
    enough out for the square to cut that function's tail is the known
    failure TestMainIntegral::test_extremizer_centred_far_out."""
    frame = random_frame(*weights)
    triple = ExponentTriple(*(1.0 / c for c in frame.weights))
    z = radius * np.array([math.cos(phi), math.sin(phi)])
    centers = (z @ frame.directions[1].unit_vector(), z @ frame.directions[2].unit_vector())
    for ref in (LEB, GAM):
        g, h = GaussianExtremizer(lam, *centers).pair(triple, ref)
        r = check_main_integral(triple, g, h, ref, points=POINTS)
        assert abs(r.slack) / r.rhs <= 1e-12


@PROPERTY
@given(weights=st.tuples(st.floats(0.2, 0.9), st.floats(0.2, 0.9)),
       ref=st.sampled_from([LEB, GAM]), rho=st.floats(-0.4, 0.4),
       phi=st.floats(-math.pi, math.pi))
def test_frame_checks_sum_single_marginals(weights, ref, rho, phi):
    """The frame checks take all their marginals in one call; each side is
    still the sum of one marginal and one entropy at a time, taken on a
    fresh copy of the density, bit for bit, on a turned frame too."""
    c1, c2 = weights
    c3 = 2.0 - c1 - c2
    assume(0.2 < c3 < 0.9)
    frame = directions_from_weights(c1, c2, c3)
    turned = Frame2(tuple(t + phi for t in frame.thetas), frame.weights)
    triple = ExponentTriple(*(1.0 / c for c in frame.weights))
    f = gaussian(ref, [0.2, -0.1], [[1.0, rho], [rho, 0.8]]).to_grid(points=129)
    for report, on in ((check_subadditivity(turned, f), turned),
                       (check_main_entropy(triple, f), angles_from_exponents(triple))):
        fresh = GridDensity2D(f.reference, f.x, f.y, f.values)
        lhs = sum(c * float(entropy(marginal(fresh, d)))
                  for d, c in zip(on.directions, on.weights))
        assert (report.lhs, report.rhs) == (lhs, float(entropy(fresh)))


# a two-component 2d Gaussian mixture: (weight, mean, covariance) per component
MIXTURE = ((0.4, [0.8, -0.3], [[1.0, 0.3], [0.3, 0.6]]),
           (0.6, [-0.6, 0.5], [[0.5, -0.1], [-0.1, 0.9]]))
# 10x the largest slack gap measured over phi in {0.1, 0.37, pi/4, 1} when
# the property was planned (a mixture, Mercedes frame): Lebesgue 5.2e-9 at
# n = 257 and 3.0e-10 at 513, Gaussian reference 2.7e-8 and 1.7e-9
ROTATION_GAP = {(LEB, 257): 5.2e-8, (LEB, 513): 3.0e-9,
                (GAM, 257): 2.7e-7, (GAM, 513): 1.7e-8}


def turned_mixture(ref, phi, points):
    """MIXTURE turned by phi, on a grid of points nodes per axis of the
    default length: its density at z is MIXTURE's at R(-phi) z."""
    x = default_axis(points=points)
    dx, dy = np.meshgrid(x, x, indexing="ij")
    q = rotation(phi)
    values = np.zeros((points, points))
    for weight, mean, cov in MIXTURE:
        m, c = q @ np.array(mean), q @ np.array(cov) @ q.T
        p = np.linalg.inv(c)
        u, v = dx - m[0], dy - m[1]
        values += weight * np.exp(-0.5 * (p[0, 0] * u * u + 2.0 * p[0, 1] * u * v
                                          + p[1, 1] * v * v)) \
            / (2.0 * math.pi * math.sqrt(np.linalg.det(c)))
    if ref is GAM:
        values /= np.exp(log_gaussian_weight(dx) + log_gaussian_weight(dy))
    return GridDensity2D.from_values(ref, x, x, values)


@functools.cache
def unturned_slack(ref, points):
    return check_subadditivity(mercedes_frame(), turned_mixture(ref, 0.0, points)).slack


@pytest.mark.parametrize("points", [257, 513])
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(ref=st.sampled_from([LEB, GAM]), phi=st.floats(-math.pi, math.pi))
@example(ref=LEB, phi=math.pi / 4.0)
@example(ref=GAM, phi=0.37)
def test_grid_subadditivity_slack_is_rotation_invariant(points, ref, phi):
    """Turning a gridded mixture and the Mercedes frame by the same phi
    leaves the grid subadditivity slack unchanged within ROTATION_GAP.  The
    turned frame's directions are sheared along either grid axis at every
    slope, in both references: the lines' values are summed as they are
    over Lebesgue measure, and times gamma(x.u_perp) at their nodes over
    the Gaussian reference."""
    frame = mercedes_frame()
    turned = Frame2(tuple(t + phi for t in frame.thetas), frame.weights)
    slack = check_subadditivity(turned, turned_mixture(ref, phi, points)).slack
    assert abs(slack - unturned_slack(ref, points)) <= ROTATION_GAP[ref, points]


# 10x the largest slack gap between the two references measured on this
# test's draws and on seven frames (weights from 0.25 to 0.95) at phi in
# {0, 0.37, 1, -2.2, 2.9} when the property was added: 2.2e-8 at n = 257
# and 1.1e-9 at 513
REFERENCE_GAP = {257: 2.2e-7, 513: 1.1e-8}


@pytest.mark.parametrize("points", [257, 513])
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(weights=st.tuples(st.floats(0.2, 0.9), st.floats(0.2, 0.9)),
       phi=st.floats(-math.pi, math.pi))
@example(weights=(2.0 / 3.0, 2.0 / 3.0), phi=0.37)
def test_grid_subadditivity_slack_is_reference_invariant(points, weights, phi):
    """One law gridded over Lebesgue measure and over gamma has one
    subadditivity slack.  Its entropy relative to gamma_2 is the Lebesgue
    one moved by E|X|^2 / 2 + log 2 pi, each marginal's by
    E(X.u_i)^2 / 2 + log(2 pi) / 2, and sum c_i = 2 with
    sum c_i (x.u_i)^2 = |x|^2, so the moves cancel in the slack.  Over
    gamma each sheared marginal weights its lines by gamma(x.u_perp) at
    their nodes, so this ties that path to the Lebesgue one."""
    c1, c2 = weights
    c3 = 2.0 - c1 - c2
    assume(0.2 < c3 < 0.9)
    frame = directions_from_weights(c1, c2, c3)
    leb, gam = (check_subadditivity(frame, turned_mixture(ref, phi, points)).slack
                for ref in (LEB, GAM))
    assert abs(leb - gam) <= REFERENCE_GAP[points]
