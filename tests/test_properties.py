"""Property tests of the paper's invariances, on n = 513 grids.

Each bound is the tolerance the example-based test of the same property
already uses: the frame round trip of tests/test_frames.py, the scaling
law of TestScale1d, and the closed-form subadditivity gaps of
TestSubadditivity.  Runs are derandomized, so every run draws the same
examples.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from entroframe import (
    Frame2,
    Reference,
    check_subadditivity,
    directions_from_weights,
    entropy,
    gaussian,
    scale1d,
    weights_from_directions,
)

LEB = Reference.LEBESGUE
POINTS = 513

PROPERTY = settings(max_examples=50, deadline=None, derandomize=True, database=None)
WEIGHT = st.floats(0.05, 0.95)


def rotation(phi):
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s], [s, c]])


@PROPERTY
@given(c1=WEIGHT, c2=WEIGHT)
def test_frame_round_trip(c1, c2):
    """weights -> directions -> weights returns the triple."""
    c3 = 2.0 - c1 - c2
    assume(0.05 < c3 < 0.95)
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
    c1, c2 = weights
    c3 = 2.0 - c1 - c2
    assume(0.05 < c3 < 0.95)
    frame = directions_from_weights(c1, c2, c3)
    turned = Frame2(tuple(t + phi for t in frame.thetas), frame.weights)
    r, q = rotation(alpha), rotation(phi)
    cov = r @ np.diag(variances) @ r.T
    slack = check_subadditivity(frame, gaussian(LEB, [0.0, 0.0], cov)).slack
    turned_slack = check_subadditivity(turned, gaussian(LEB, [0.0, 0.0], q @ cov @ q.T)).slack
    np.testing.assert_allclose(turned_slack, slack, atol=1e-12)
