"""Inequality checks against closed-form Gaussian oracles.

Every check_* returns an InequalityReport with slack = rhs - lhs, so a
valid inequality shows slack >= 0 and every equality case shows
|slack| ~ 0.  Closed-form reference values are spelled out next to the
frames and covariances that produce them.
"""

import hashlib
import math

import numpy as np
import pytest

from entroframe import (
    ExpFunction,
    ExponentTriple,
    Reference,
    angles_from_exponents,
    gaussian,
    gaussian_mixture,
    mercedes_frame,
    uniform_density,
    weights_from_directions,
)
from entroframe.errors import InvalidExponents, ReferenceMismatch
from entroframe.inequality import (
    CHECK_NAMES,
    DEFAULT_TOLERANCES,
    GaussianExtremizer,
    InequalityReport,
    check_blachmann_stam,
    check_brascamp_lieb,
    check_fisher_subadditivity,
    check_hyper_two_function,
    check_hypercontractivity,
    check_integrated_lsi,
    check_log_sobolev,
    check_main_entropy,
    check_main_integral,
    check_shannon,
    check_subadditivity,
    check_young_convolution,
    check_young_entropy,
    exp_norm_gamma,
    hyper_threshold,
    _canon,
    inputs_digest,
    mehler_exp_norm,
    shannon_taylor_check,
    young_constant,
    young_extremal_covariance,
    young_log_constant,
)

LEB = Reference.LEBESGUE
GAM = Reference.GAUSSIAN

TRIPLE = ExponentTriple(2.0, 4.0 / 3.0, 4.0 / 3.0)


def frozen_report(slack, tolerance):
    return InequalityReport("demo", 1.0, 1.0 + slack, 0.0, slack,
                            tolerance, "0" * 12)


# === report plumbing ======================================================

class TestReportPlumbing:
    def test_pass_boundary_is_inclusive(self):
        assert frozen_report(-1e-4, 1e-4).passed
        assert not frozen_report(-1.01e-4, 1e-4).passed
        assert frozen_report(0.0, 1e-4).passed

    def test_json_round_trip(self):
        import json
        r = frozen_report(0.5, 1e-3)
        d = json.loads(r.to_json())
        assert list(d) == ["name", "lhs", "rhs", "constant", "slack",
                           "tolerance", "inputs_digest"]
        assert d["slack"] == 0.5

    def test_digest_is_deterministic(self):
        merc = mercedes_frame()
        assert inputs_digest("x", merc) == inputs_digest("x", merc)
        assert inputs_digest("x", merc) != inputs_digest("y", merc)
        assert len(inputs_digest("x")) == 12

    def test_default_tolerances_cover_all_checks(self):
        for name in CHECK_NAMES:
            assert name in DEFAULT_TOLERANCES
        assert "blachmann-stam-harmonic" in DEFAULT_TOLERANCES
        assert "blachmann-stam-harmonic" not in CHECK_NAMES

    def test_grid_digest_cache_matches_uncached(self):
        """The digest cached on a grid density equals a fresh hash of its arrays."""
        grids = (gaussian(LEB, [0.2, -0.3], [[2.0, 0.7], [0.7, 1.2]]).to_grid(points=129),
                 gaussian(LEB, 0.3, 1.4).to_grid(points=129))
        uncached = (("grid2d", LEB, grids[0].x, grids[0].y, grids[0].values),
                    ("grid1d", LEB, grids[1].x, grids[1].values))
        for grid, parts in zip(grids, uncached):
            want = hashlib.sha1(_canon(("x", parts)).encode()).hexdigest()[:12]
            assert inputs_digest("x", grid) == want
            assert inputs_digest("x", grid) == want  # served from the cache
            assert _canon(grid) == _canon(parts)

    def test_reports_carry_inputs_digest(self):
        d = gaussian(LEB, [0.0, 0.0], [[4.0, 0.0], [0.0, 1.0]])
        a = check_subadditivity(mercedes_frame(), d)
        b = check_subadditivity(mercedes_frame(), d)
        assert a.inputs_digest == b.inputs_digest


# === sharp constants and closed-form helpers ==============================

class TestYoungConstants:
    def test_reference_value(self):
        """C(4/3, 4/3, 2) = (4/3)^(3/4) * 4^(-1/4)."""
        want = (4.0 / 3.0) ** 0.75 * 4.0 ** -0.25
        np.testing.assert_allclose(young_constant(4.0 / 3.0, 4.0 / 3.0, 2.0),
                                   want, rtol=1e-14)

    def test_log_form_agrees(self):
        for p, q in ((1.5, 1.2), (1.25, 2.0), (4.0 / 3.0, 4.0 / 3.0)):
            r = 1.0 / (1.0 / p + 1.0 / q - 1.0)
            np.testing.assert_allclose(math.log(young_constant(p, q, r)),
                                       young_log_constant(p, q, r), atol=1e-14)

    def test_scaling_relation_enforced(self):
        with pytest.raises(InvalidExponents):
            young_constant(1.5, 1.5, 2.0)
        with pytest.raises(InvalidExponents):
            young_constant(0.9, 2.0, 2.0)

    def test_extremal_covariance(self):
        cov = young_extremal_covariance(4.0 / 3.0, 4.0 / 3.0, 2.0)
        np.testing.assert_allclose(cov, [[2.0, 1.0], [1.0, 1.5]], atol=1e-12)


class TestClosedFormHelpers:
    def test_exp_norm_gamma(self):
        np.testing.assert_allclose(exp_norm_gamma(1.0, 2.0), math.e, rtol=1e-15)

    def test_mehler_norm_interpolates(self):
        """theta = 0 gives the plain norm; theta = pi/2 the L^1 average."""
        a, q = 0.9, 3.0
        np.testing.assert_allclose(mehler_exp_norm(a, q, 0.0),
                                   exp_norm_gamma(a, q), rtol=1e-14)
        np.testing.assert_allclose(mehler_exp_norm(a, q, math.pi / 2.0),
                                   math.exp(a * a / 2.0), rtol=1e-14)

    def test_hyper_threshold_values(self):
        np.testing.assert_allclose(hyper_threshold(2.0, 4.0),
                                   0.9553166181245093, rtol=1e-15)
        np.testing.assert_allclose(math.cos(hyper_threshold(1.5, 3.0)) ** 2,
                                   0.25, rtol=1e-13)

    def test_hyper_threshold_domain(self):
        for p, q in ((3.0, 2.0), (0.5, 2.0), (2.0, 1.0)):
            with pytest.raises(InvalidExponents):
                hyper_threshold(p, q)


# === marginal subadditivity ===============================================

class TestSubadditivity:
    """Closed-form slacks for the Mercedes frame (weights 2/3 at
    0, 60, 120 degrees): marginal variances of diag(4, 1) are
    (4, 7/4, 7/4), so the entropy gap is log(49/32)/3 and the Fisher
    gap 5/4 - (2/3)(1/4 + 4/7 + 4/7) = 9/28."""

    def test_entropy_gap_diag(self):
        d = gaussian(LEB, [0.0, 0.0], [[4.0, 0.0], [0.0, 1.0]])
        r = check_subadditivity(mercedes_frame(), d)
        np.testing.assert_allclose(r.slack, math.log(49.0 / 32.0) / 3.0,
                                   atol=1e-12)
        assert r.passed

    def test_fisher_gap_diag(self):
        d = gaussian(LEB, [0.0, 0.0], [[4.0, 0.0], [0.0, 1.0]])
        r = check_fisher_subadditivity(mercedes_frame(), d)
        np.testing.assert_allclose(r.slack, 9.0 / 28.0, atol=1e-12)

    def test_fisher_gap_correlated(self):
        """Sigma = [[2,1],[1,2]]: trace inverse 4/3 against (2/3)(45/26)."""
        d = gaussian(LEB, [0.0, 0.0], [[2.0, 1.0], [1.0, 2.0]])
        r = check_fisher_subadditivity(mercedes_frame(), d)
        np.testing.assert_allclose(r.slack, 7.0 / 39.0, atol=1e-12)

    def test_grid_path_agrees_with_closed_form(self):
        d = gaussian(LEB, [0.0, 0.0], [[4.0, 0.0], [0.0, 1.0]])
        closed = check_subadditivity(mercedes_frame(), d).slack
        grid = check_subadditivity(mercedes_frame(), d.to_grid()).slack
        np.testing.assert_allclose(grid, closed, atol=1e-5)

    def test_fisher_grid_path_agrees(self):
        d = gaussian(LEB, [0.0, 0.0], [[4.0, 0.0], [0.0, 1.0]])
        closed = check_fisher_subadditivity(mercedes_frame(), d).slack
        grid = check_fisher_subadditivity(mercedes_frame(), d.to_grid()).slack
        np.testing.assert_allclose(grid, closed, atol=1e-4)

    def test_main_entropy_is_subadditivity_on_the_triple_frame(self):
        d = gaussian(LEB, [0.0, 0.0], [[4.0, 0.0], [0.0, 1.0]])
        via_triple = check_main_entropy(TRIPLE, d)
        via_frame = check_subadditivity(angles_from_exponents(TRIPLE), d)
        assert via_triple.lhs == via_frame.lhs
        assert via_triple.rhs == via_frame.rhs

    def test_needs_two_dimensional_density(self):
        with pytest.raises(ReferenceMismatch):
            check_subadditivity(mercedes_frame(), gaussian(LEB, 0.0, 1.0))


# === two-function integral inequality =====================================

class TestMainIntegral:
    def test_extremal_family_saturates(self):
        """|g_i|^{p_i} = e^{-lam t^2} gives equality for every lam > 0."""
        for ref in (LEB, GAM):
            for lam in (0.6, 0.8, 1.3):
                g, h = GaussianExtremizer(lam).pair(TRIPLE, ref)
                r = check_main_integral(TRIPLE, g, h, ref)
                assert abs(r.slack) / r.rhs <= 1e-12

    def test_shifted_centers_stay_extremal(self):
        ext = GaussianExtremizer(0.8, a2=0.4, a3=-0.7)
        g, h = ext.pair(TRIPLE, GAM)
        r = check_main_integral(TRIPLE, g, h, GAM)
        assert abs(r.slack) / r.rhs <= 1e-12

    def test_mismatched_widths_leave_the_family(self):
        g = GaussianExtremizer(0.8).factor(2, TRIPLE.p2, GAM)
        h = GaussianExtremizer(1.6).factor(3, TRIPLE.p3, GAM)
        r = check_main_integral(TRIPLE, g, h, GAM)
        assert r.slack / r.rhs > 1e-3
        assert r.passed

    def test_constants_saturate_both_references(self):
        one = ExpFunction(0.0)
        for ref in (LEB, GAM):
            r = check_main_integral(TRIPLE, one, one, ref)
            assert abs(r.slack) / r.rhs <= 1e-12

    def test_extremizer_rejects_bad_lam(self):
        with pytest.raises(InvalidExponents):
            GaussianExtremizer(0.0)


# === Young's inequality ===================================================

class TestYoungConvolution:
    def test_extremal_width_ratio(self):
        """Equality at var(g)/var(h) = q'/p' (= 2 for p=1.5, q=1.2)."""
        g = gaussian(LEB, 0.0, 2.0).to_grid()
        h = gaussian(LEB, 0.0, 1.0).to_grid()
        r = check_young_convolution(g, h, 1.5, 1.2, 2.0)
        assert abs(r.slack) / r.rhs <= 1e-12

    def test_swapped_widths_are_strictly_inside(self):
        g = gaussian(LEB, 0.0, 2.0).to_grid()
        h = gaussian(LEB, 0.0, 1.0).to_grid()
        r = check_young_convolution(h, g, 1.5, 1.2, 2.0)
        assert r.slack / r.rhs > 0.05
        assert r.passed

    def test_equal_exponents_saturate_at_equal_widths(self):
        g = gaussian(LEB, 0.0, 1.0).to_grid()
        r = check_young_convolution(g, g, 4.0 / 3.0, 4.0 / 3.0, 2.0)
        assert abs(r.slack) / r.rhs <= 1e-12

    def test_constant_is_reported(self):
        g = gaussian(LEB, 0.0, 1.0).to_grid()
        r = check_young_convolution(g, g, 4.0 / 3.0, 4.0 / 3.0, 2.0)
        np.testing.assert_allclose(r.constant,
                                   young_constant(4.0 / 3.0, 4.0 / 3.0, 2.0),
                                   rtol=1e-15)

    def test_invalid_exponents(self):
        g = gaussian(LEB, 0.0, 1.0).to_grid()
        with pytest.raises(InvalidExponents):
            check_young_convolution(g, g, 1.5, 1.5, 2.0)


class TestYoungEntropy:
    def test_iid_standard_normal_gap(self):
        """Frozen: iid N(0,1) at (4/3, 4/3, 2) sits strictly inside."""
        d = gaussian(LEB, [0.0, 0.0], np.eye(2))
        r = check_young_entropy(d, 4.0 / 3.0, 4.0 / 3.0, 2.0)
        np.testing.assert_allclose(r.slack, 0.12911815676884286, atol=1e-12)

    def test_extremal_covariance_saturates(self):
        """Equality on young_extremal_covariance and any multiple of it."""
        cov = young_extremal_covariance(4.0 / 3.0, 4.0 / 3.0, 2.0)
        for k in (1.0, 2.5):
            d = gaussian(LEB, [0.0, 0.0], k * cov)
            r = check_young_entropy(d, 4.0 / 3.0, 4.0 / 3.0, 2.0)
            assert abs(r.slack) <= 1e-12

    def test_constant_is_log_constant(self):
        d = gaussian(LEB, [0.0, 0.0], np.eye(2))
        r = check_young_entropy(d, 4.0 / 3.0, 4.0 / 3.0, 2.0)
        np.testing.assert_allclose(
            r.constant, young_log_constant(4.0 / 3.0, 4.0 / 3.0, 2.0),
            rtol=1e-15)

    def test_gamma_reference_rejected(self):
        d = gaussian(GAM, [0.0, 0.0], np.eye(2))
        with pytest.raises(ReferenceMismatch):
            check_young_entropy(d, 4.0 / 3.0, 4.0 / 3.0, 2.0)


# === Shannon's inequality =================================================

class TestShannon:
    def test_gaussian_pair_closed_form(self):
        """N(0,1) + N(0,4): slack = (1/2) log(5/4)."""
        r = check_shannon(gaussian(LEB, 0.0, 1.0), gaussian(LEB, 0.0, 4.0))
        np.testing.assert_allclose(r.slack, 0.5 * math.log(1.25), atol=1e-14)

    def test_iid_gaussians_saturate(self):
        g = gaussian(LEB, 0.0, 1.0)
        assert abs(check_shannon(g, g).slack) <= 1e-14

    def test_grid_mixture_pair(self):
        mix = gaussian_mixture(LEB, [0.5, 0.5], [-1.0, 1.0], [0.5, 0.5])
        g = gaussian(LEB, 0.0, 1.0).to_grid()
        r = check_shannon(mix, g)
        np.testing.assert_allclose(r.slack, 0.03159108533414101, atol=1e-8)
        assert r.passed

    def test_taylor_residual_shrinks_linearly(self):
        """rho(s) for (N(0,1), N(0,4)), frozen at s = -1e-2, -1e-3, -1e-4."""
        pts = shannon_taylor_check(gaussian(LEB, 0.0, 1.0),
                                   gaussian(LEB, 0.0, 4.0),
                                   [-1e-2, -1e-3, -1e-4])
        want = (0.002247391260022269, 0.00023166277482822295,
                2.3234947830630404e-05)
        for pt, w in zip(pts, want):
            np.testing.assert_allclose(pt.rho, w, rtol=1e-9)
        ratios = [abs(pt.rho / pt.s) for pt in pts]
        assert max(ratios) <= 0.233

    def test_taylor_residual_vanishes_iid(self):
        g = gaussian(LEB, 0.0, 1.0)
        pts = shannon_taylor_check(g, g, [-1e-2, -1e-3])
        for pt in pts:
            assert abs(pt.rho) <= 1e-12

    def test_two_dimensional_input_rejected(self):
        d2 = gaussian(LEB, [0.0, 0.0], np.eye(2))
        with pytest.raises(ReferenceMismatch):
            check_shannon(d2, d2)


# === Blachman-Stam ========================================================

class TestBlachmanStam:
    def test_gaussian_pair_both_forms(self):
        """I = 1 and 1/4: normalized form gives (0.4, 0.625); the harmonic
        form is tight for every Gaussian pair."""
        first, second = check_blachmann_stam(gaussian(LEB, 0.0, 1.0),
                                             gaussian(LEB, 0.0, 4.0))
        np.testing.assert_allclose((first.lhs, first.rhs), (0.4, 0.625),
                                   rtol=1e-14)
        np.testing.assert_allclose(first.slack, 0.225, atol=1e-14)
        assert second.name == "blachmann-stam-harmonic"
        assert abs(second.slack) <= 1e-14

    def test_harmonic_equality_any_gaussians(self):
        _, second = check_blachmann_stam(gaussian(LEB, 0.3, 0.6),
                                         gaussian(LEB, -0.2, 2.5))
        assert abs(second.slack) <= 1e-14

    def test_grid_path_agrees_with_closed_form(self):
        g, h = gaussian(LEB, 0.0, 1.0), gaussian(LEB, 0.0, 4.0)
        c1, c2 = check_blachmann_stam(g, h)
        g1, g2 = check_blachmann_stam(g.to_grid(), h.to_grid())
        np.testing.assert_allclose(g1.slack, c1.slack, atol=1e-4)
        np.testing.assert_allclose(g2.slack, c2.slack, atol=1e-4)


# === hypercontractivity ===================================================

class TestHypercontractivity:
    def test_slack_changes_sign_at_threshold(self):
        """(p, q) = (2, 4): valid iff theta >= acos sqrt(1/3)."""
        th = hyper_threshold(2.0, 4.0)
        f = ExpFunction(1.0)
        below = check_hypercontractivity(f, 2.0, 4.0, th - 0.05)
        above = check_hypercontractivity(f, 2.0, 4.0, th + 0.05)
        assert below.slack < 0.0 and not below.passed
        assert above.slack > 0.0 and above.passed

    def test_norms_match_closed_forms(self):
        f = ExpFunction(1.0)
        r = check_hypercontractivity(f, 2.0, 4.0, 0.7)
        np.testing.assert_allclose(r.lhs, mehler_exp_norm(1.0, 4.0, 0.7),
                                   rtol=1e-9)
        np.testing.assert_allclose(r.rhs, exp_norm_gamma(1.0, 2.0), rtol=1e-9)

    def test_right_angle_always_passes(self):
        r = check_hypercontractivity(ExpFunction(1.0), 2.0, 4.0, math.pi / 2.0)
        assert r.slack > 0.0

    def test_invalid_exponents(self):
        with pytest.raises(InvalidExponents):
            check_hypercontractivity(ExpFunction(1.0), 0.5, 4.0, 1.0)


class TestHyperTwoFunction:
    def test_exponential_pair_saturates(self):
        """rhs = ||e^t||_{L^2} ||e^{-t/2}||_{L^1.5}; exp pairs are extremal."""
        r = check_hyper_two_function(ExpFunction(1.0), ExpFunction(-0.5),
                                     2.0, 1.5)
        want = exp_norm_gamma(1.0, 2.0) * exp_norm_gamma(-0.5, 1.5)
        np.testing.assert_allclose(r.rhs, want, rtol=1e-9)
        assert abs(r.slack) <= 1e-9

    def test_rejects_exponents_without_q(self):
        with pytest.raises(InvalidExponents):
            check_hyper_two_function(ExpFunction(1.0), ExpFunction(1.0),
                                     3.0, 3.0)


# === log-Sobolev ==========================================================

class TestLogSobolev:
    def test_exponential_family_saturates(self):
        """S = a^2/2 and I = a^2, so slack vanishes identically."""
        for a in (0.5, 1.0, 2.0):
            r = check_log_sobolev(gaussian(GAM, a, 1.0))
            assert r.slack == 0.0
            np.testing.assert_allclose(r.lhs, a * a / 2.0, rtol=1e-14)

    def test_grid_path_near_equality(self):
        r = check_log_sobolev(gaussian(GAM, 1.0, 1.0).to_grid())
        assert abs(r.slack) <= 1e-8
        assert r.passed

    def test_variance_input_is_strict(self):
        r = check_log_sobolev(gaussian(GAM, 0.0, 2.0))
        want = 0.25 - 0.15342640972002736
        np.testing.assert_allclose(r.slack, want, atol=1e-14)

    def test_lebesgue_rejected(self):
        with pytest.raises(ReferenceMismatch):
            check_log_sobolev(gaussian(LEB, 0.0, 1.0))


class TestIntegratedLsi:
    def test_exponential_family_saturates(self):
        """Entropy decays exactly like cos^2(theta) on exp(a t - a^2/2)."""
        r = check_integrated_lsi(gaussian(GAM, 1.2, 1.0), 0.6)
        assert r.slack == 0.0
        np.testing.assert_allclose(r.constant, math.cos(0.6) ** 2, rtol=1e-15)

    def test_variance_input_is_strict(self):
        r = check_integrated_lsi(gaussian(GAM, 0.0, 2.0), 0.6)
        assert r.slack > 1e-3
        assert r.passed


# === Brascamp-Lieb ========================================================

class TestBrascampLieb:
    def test_trivial_function_gamma(self):
        one = ExpFunction(0.0)
        r = check_brascamp_lieb(mercedes_frame(), one, one, one, GAM)
        assert r.lhs == 1.0 and r.rhs == 1.0

    def test_common_gaussian_saturates_any_frame(self):
        """f_i = e^{-t^2} gives lhs = rhs = pi on every frame, since the
        frame identity collapses the product to e^{-|x|^2}."""
        def gsq(x):
            x = np.asarray(x, dtype=float)
            return np.exp(-x * x)

        for frame in (mercedes_frame(), weights_from_directions(0.0, 1.1, 2.2)):
            r = check_brascamp_lieb(frame, gsq, gsq, gsq, LEB)
            np.testing.assert_allclose(r.lhs, math.pi, rtol=1e-12)
            assert abs(r.slack) / r.rhs <= 1e-12

    def test_mixed_corpus_holds_strictly(self):
        """Frozen: uniform, Gaussian, and bimodal factors on the Mercedes
        frame sit strictly inside the bound."""
        u = uniform_density(-1.0, 1.0)
        g = gaussian(LEB, 0.0, 1.0).to_grid()
        mix = gaussian_mixture(LEB, [0.5, 0.5], [-1.0, 1.0], [0.5, 0.5])
        r = check_brascamp_lieb(mercedes_frame(), u, g, mix, LEB)
        np.testing.assert_allclose(r.lhs, 0.8480127462915322, atol=1e-8)
        np.testing.assert_allclose(r.slack, 0.15198725370846777, atol=1e-8)
        assert r.passed
