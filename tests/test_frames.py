"""Frame construction: weights from directions, directions from weights,
exponent parameterizations, and the degenerate-limit family.

The core identity under test: three unit directions u_i (angles mod pi)
and weights c_i in (0,1) with sum 2 satisfy sum_i c_i u_i u_i^T = Id
exactly when each angular sector between consecutive directions is
strictly below pi/2.
"""

import math

import numpy as np
import pytest

from entroframe import (
    CompatibilityViolation,
    DegenerateDirections,
    Direction,
    ExponentTriple,
    Frame2,
    FrameError,
    InvalidExponents,
    SectorViolation,
    WeightOutOfRange,
    angles_from_exponents,
    canonical_angle,
    conjugate_exponent,
    directions_from_weights,
    mercedes_frame,
    normalize_weights,
    sector_measures,
    shannon_limit_frame,
    weights_from_directions,
    young_frame,
)

MERCEDES_ANGLES = (0.0, math.pi / 3.0, 2.0 * math.pi / 3.0)


def random_weight_triples(rng, count, low=0.05, high=0.95):
    triples = []
    while len(triples) < count:
        c1, c2 = rng.uniform(low, high, size=2)
        c3 = 2.0 - c1 - c2
        if low < c3 < high:
            triples.append((float(c1), float(c2), float(c3)))
    return triples


# === angles and directions ================================================

class TestCanonicalAngle:
    def test_wraps_mod_pi(self):
        rng = np.random.default_rng(7)
        for theta in rng.uniform(-20.0, 20.0, size=200):
            wrapped = canonical_angle(theta)
            assert 0.0 <= wrapped < math.pi
            # same line: sin of the difference vanishes
            assert abs(math.sin(theta - wrapped)) < 1e-12

    def test_top_end_maps_to_zero(self):
        assert canonical_angle(math.pi) == 0.0
        assert canonical_angle(-math.pi) == 0.0

    def test_fixed_points(self):
        assert canonical_angle(0.0) == 0.0
        np.testing.assert_allclose(canonical_angle(1.0), 1.0, rtol=0, atol=0)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_refused(self, theta):
        for make in (canonical_angle, Direction):
            with pytest.raises(FrameError, match=f"direction angle must be finite, got {theta!r}"):
                make(theta)


class TestDirection:
    def test_unit_vector(self):
        d = Direction(math.pi / 3.0)
        u = d.unit_vector()
        np.testing.assert_allclose(np.dot(u, u), 1.0, atol=1e-15)
        np.testing.assert_allclose(u, [0.5, math.sqrt(3.0) / 2.0], atol=1e-15)

    def test_angle_canonicalized_on_construction(self):
        d = Direction(math.pi / 3.0 + math.pi)
        np.testing.assert_allclose(d.theta, math.pi / 3.0, atol=1e-12)

    def test_distance_is_mod_pi(self):
        a = Direction(0.1)
        b = Direction(0.1 + math.pi)
        assert a.distance(b) < 1e-12


class TestSectorMeasures:
    def test_mercedes_sectors_equal(self):
        np.testing.assert_allclose(sector_measures(MERCEDES_ANGLES),
                                   math.pi / 3.0, atol=1e-15)

    def test_sectors_sum_to_pi(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            thetas = sorted(rng.uniform(0.0, math.pi, size=3))
            np.testing.assert_allclose(sum(sector_measures(thetas)), math.pi,
                                       atol=1e-12)


# === weights from directions ==============================================

class TestWeightsFromDirections:
    def test_mercedes_weights(self):
        frame = weights_from_directions(*MERCEDES_ANGLES)
        np.testing.assert_allclose(frame.weights, 2.0 / 3.0, atol=1e-13)

    def test_decomposition_residual(self):
        """sum c_i u_i u_i^T = Id to machine precision on random frames."""
        rng = np.random.default_rng(23)
        for triple in random_weight_triples(rng, 50):
            frame = directions_from_weights(*triple)
            assert frame.residual() <= 1e-12
            np.testing.assert_allclose(frame.gram(), np.eye(2), atol=1e-12)

    def test_mod_pi_invariance(self):
        """Shifting any direction by pi leaves the weights unchanged."""
        base = weights_from_directions(0.2, 1.1, 2.3)
        shifted = weights_from_directions(0.2 + math.pi, 1.1, 2.3 - math.pi)
        np.testing.assert_allclose(shifted.weights, base.weights, atol=1e-12)

    def test_weights_sum_to_two(self):
        frame = weights_from_directions(0.3, 1.2, 2.1)
        np.testing.assert_allclose(sum(frame.weights), 2.0, atol=1e-12)

    def test_sector_violation_message(self):
        # (0, pi/6, pi/4) leaves a wrap-around sector of 3pi/4
        with pytest.raises(SectorViolation) as exc:
            weights_from_directions(0.0, 0.5236, 0.7854)
        assert str(exc.value) == "sector violation: sector 3 measures 2.3562 ≥ π/2"
        assert exc.value.index == 3
        np.testing.assert_allclose(exc.value.measure, 2.3562, atol=1e-4)

    def test_right_angle_sector_rejected(self):
        # an exactly-pi/2 sector is degenerate (a weight would need to be 1)
        with pytest.raises(SectorViolation):
            weights_from_directions(0.0, math.pi / 2.0, 3.0 * math.pi / 4.0)

    def test_coincident_directions_rejected(self):
        with pytest.raises(DegenerateDirections):
            weights_from_directions(0.5, 0.5 + math.pi, 1.0)


# === directions from weights ==============================================

class TestDirectionsFromWeights:
    def test_canonical_gauge(self):
        """theta1 = 0, theta2 in (0, pi/2), theta3 in (pi/2, pi)."""
        rng = np.random.default_rng(31)
        for triple in random_weight_triples(rng, 50):
            t1, t2, t3 = directions_from_weights(*triple).thetas
            assert t1 == 0.0
            assert 0.0 < t2 < math.pi / 2.0
            assert math.pi / 2.0 < t3 < math.pi

    def test_round_trip(self):
        rng = np.random.default_rng(37)
        for triple in random_weight_triples(rng, 100):
            frame = directions_from_weights(*triple)
            back = weights_from_directions(*frame.thetas)
            np.testing.assert_allclose(back.weights, triple, atol=1e-10)

    def test_known_direction(self):
        """Weights (1/2, 3/4, 3/4) pin u_2 = (1/sqrt 3, sqrt(2/3))."""
        frame = directions_from_weights(0.5, 0.75, 0.75)
        u2 = frame.directions[1].unit_vector()
        np.testing.assert_allclose(
            u2, [0.5773502691896257, 0.816496580927726], atol=1e-12)
        np.testing.assert_allclose(frame.thetas[1], 0.9553166181245093,
                                   atol=1e-12)

    def test_mercedes_from_equal_weights(self):
        frame = directions_from_weights(2.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0)
        np.testing.assert_allclose(frame.thetas, MERCEDES_ANGLES, atol=1e-12)

    def test_out_of_range_weight_rejected(self):
        with pytest.raises(WeightOutOfRange):
            directions_from_weights(1.0, 0.5, 0.5)
        with pytest.raises(WeightOutOfRange):
            directions_from_weights(-0.1, 1.05, 1.05)

    def test_wrong_sum_rejected(self):
        with pytest.raises(CompatibilityViolation):
            directions_from_weights(0.5, 0.5, 0.5)


class TestNormalizeWeights:
    def test_snaps_tiny_deviation(self):
        c = normalize_weights((0.5 + 1e-12, 0.75, 0.75))
        assert abs(sum(c) - 2.0) <= 5e-16

    def test_rejects_rounded_literals(self):
        # 0.6667 sums to 2.0001, outside the library's 1e-9 snap band
        with pytest.raises(CompatibilityViolation):
            normalize_weights((0.6667, 0.6667, 0.6667))

    def test_exact_input_unchanged(self):
        c = normalize_weights((0.5, 0.75, 0.75))
        np.testing.assert_allclose(c, (0.5, 0.75, 0.75), atol=1e-15)


class TestFrame2Validation:
    def test_requires_three_directions(self):
        with pytest.raises(Exception):
            Frame2((Direction(0.0), Direction(1.0)), (1.0, 1.0))

    def test_rejects_inconsistent_weights(self):
        # weights valid on their own but wrong for these directions
        with pytest.raises(Exception):
            Frame2(tuple(Direction(t) for t in MERCEDES_ANGLES),
                   (0.5, 0.75, 0.75))


# === exponent parameterizations ===========================================

class TestConjugateExponent:
    def test_pairs(self):
        np.testing.assert_allclose(conjugate_exponent(2.0), 2.0)
        np.testing.assert_allclose(conjugate_exponent(4.0 / 3.0), 4.0)
        np.testing.assert_allclose(conjugate_exponent(3.0), 1.5)

    def test_involution(self):
        rng = np.random.default_rng(41)
        for p in rng.uniform(1.01, 10.0, size=50):
            np.testing.assert_allclose(
                conjugate_exponent(conjugate_exponent(p)), p, rtol=1e-12)


class TestExponentTriple:
    def test_reciprocals_sum_to_two_exactly(self):
        t = ExponentTriple(2.0, 4.0 / 3.0, 4.0 / 3.0)
        assert sum(1.0 / p for p in t.as_tuple()) == 2.0

    def test_snaps_small_deviation(self):
        t = ExponentTriple(2.0000000001, 4.0 / 3.0, 4.0 / 3.0)
        assert sum(1.0 / p for p in t.as_tuple()) == 2.0

    def test_rejects_large_deviation(self):
        with pytest.raises(InvalidExponents):
            ExponentTriple(2.0, 2.0, 2.0)

    def test_rejects_exponent_at_most_one(self):
        with pytest.raises(InvalidExponents):
            ExponentTriple(1.0, 2.0, 2.0)

    def test_weights_are_reciprocals(self):
        t = ExponentTriple(2.0, 4.0 / 3.0, 4.0 / 3.0)
        np.testing.assert_allclose(t.weights(), (0.5, 0.75, 0.75), atol=1e-15)


class TestAnglesFromExponents:
    def test_matches_weight_construction(self):
        """Exponent angles and weight angles agree on the same frame."""
        rng = np.random.default_rng(43)
        for _ in range(50):
            a, b = rng.uniform(0.15, 0.9, size=2)
            c = 2.0 - a - b
            if not 0.05 < c < 0.95:
                continue
            triple = ExponentTriple(1.0 / a, 1.0 / b, 1.0 / c)
            frame_e = angles_from_exponents(triple)
            frame_w = directions_from_weights(*triple.weights())
            np.testing.assert_allclose(frame_e.thetas, frame_w.thetas,
                                       atol=1e-10)

    def test_mercedes_triple(self):
        frame = angles_from_exponents(ExponentTriple(1.5, 1.5, 1.5))
        np.testing.assert_allclose(frame.thetas, MERCEDES_ANGLES, atol=1e-12)


class TestYoungFrame:
    def test_symmetric_case_is_mercedes(self):
        frame = young_frame(1.5, 1.5, 3.0)
        np.testing.assert_allclose(frame.thetas, MERCEDES_ANGLES, atol=1e-12)
        np.testing.assert_allclose(frame.weights, 2.0 / 3.0, atol=1e-12)

    def test_young_relation_enforced(self):
        with pytest.raises(InvalidExponents):
            young_frame(1.5, 3.0, 3.0)

    def test_cross_parameterization(self):
        """young_frame(p, q, r) equals the (r', p, q) exponent frame."""
        p, q = 4.0 / 3.0, 4.0 / 3.0
        r = 1.0 / (1.0 / p + 1.0 / q - 1.0)
        frame_y = young_frame(p, q, r)
        frame_e = angles_from_exponents(
            ExponentTriple(conjugate_exponent(r), p, q))
        np.testing.assert_allclose(frame_y.thetas, frame_e.thetas, atol=1e-12)


# === the degenerate-limit family ==========================================

class TestShannonLimitFrame:
    def test_directions_are_the_limit_family(self):
        s = -0.02
        frame = shannon_limit_frame(s)
        np.testing.assert_allclose(
            frame.thetas,
            (canonical_angle(s), math.pi / 4.0, math.pi / 2.0 - s),
            atol=1e-12)

    def test_valid_frame_for_small_negative_s(self):
        for s in (-0.3, -0.05, -1e-3, -1e-5):
            frame = shannon_limit_frame(s)
            assert frame.residual() <= 1e-12
            np.testing.assert_allclose(sum(frame.weights), 2.0, atol=1e-12)

    def test_weight_expansion_coefficients(self):
        """c = (1+2s, -4s, 1+2s) + s^2 (4, -8, 4) + O(s^3)."""
        for s in (-1e-3, -1e-4):
            c1, c2, c3 = shannon_limit_frame(s).weights
            np.testing.assert_allclose(c1, 1.0 + 2.0 * s + 4.0 * s * s,
                                       atol=60.0 * abs(s) ** 3)
            np.testing.assert_allclose(c2, -4.0 * s - 8.0 * s * s,
                                       atol=120.0 * abs(s) ** 3)
            np.testing.assert_allclose(c3, 1.0 + 2.0 * s + 4.0 * s * s,
                                       atol=60.0 * abs(s) ** 3)

    def test_middle_weight_vanishes_linearly(self):
        c2_coarse = shannon_limit_frame(-1e-2).weights[1]
        c2_fine = shannon_limit_frame(-1e-3).weights[1]
        np.testing.assert_allclose(c2_coarse / 1e-2, 4.0, rtol=0.03)
        np.testing.assert_allclose(c2_fine / 1e-3, 4.0, rtol=0.003)

    def test_rejects_s_outside_domain(self):
        for s in (0.0, 0.1, -math.pi / 2.0):
            with pytest.raises(SectorViolation):
                shannon_limit_frame(s)


class TestMercedesFactory:
    def test_mercedes_frame(self):
        frame = mercedes_frame()
        np.testing.assert_allclose(frame.thetas, MERCEDES_ANGLES, atol=1e-15)
        np.testing.assert_allclose(frame.weights, 2.0 / 3.0, atol=1e-15)
        assert frame.residual() <= 1e-15
