"""Grid densities, parametric families, mass policy, and the geometric
operations (marginals, convolution, dilation, affine pushforward).

Grid values are samples f(x_i); integration is composite Simpson against
the declared reference measure (Lebesgue, or standard Gaussian gamma).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroframe import (
    DomainTruncation,
    ExpFunction,
    GaussianDensity,
    GridDensity1D,
    GridDensity2D,
    NormalizationError,
    NotSPD,
    Reference,
    RenormalizationWarning,
    Singular,
    ZeroScale,
    affine_pushforward,
    convolve,
    default_axis,
    default_grid_points,
    entropy,
    gaussian,
    gaussian_mixture,
    independent_product,
    linear_combination,
    marginal,
    scale1d,
    uniform_density,
)
from entroframe.density import DEFAULT_POINTS, GRID_ENV_VAR, LOG_2PI
from entroframe.frames import Direction

LEB = Reference.LEBESGUE
GAM = Reference.GAUSSIAN


def lebesgue_gaussian_values(x, mean, var):
    return np.exp(-0.5 * (x - mean) ** 2 / var) / math.sqrt(2.0 * math.pi * var)


def closed_form_marginal(g, theta, t):
    """Values of the marginal of the Gaussian g along Direction(theta)."""
    u = Direction(theta).unit_vector()
    return GaussianDensity(g.reference, [float(u @ g.mean)],
                           [[float(u @ g.covariance @ u)]]).pdf(t)


# === grid configuration ===================================================

class TestDefaultGrid:
    def test_default_points(self, monkeypatch):
        monkeypatch.delenv(GRID_ENV_VAR, raising=False)
        assert default_grid_points() == DEFAULT_POINTS

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(GRID_ENV_VAR, "513")
        assert default_grid_points() == 513

    def test_env_override_must_be_odd(self, monkeypatch):
        monkeypatch.setenv(GRID_ENV_VAR, "512")
        with pytest.raises(Exception):
            default_grid_points()

    def test_default_axis_symmetric(self):
        x = default_axis()
        assert x.size == DEFAULT_POINTS
        np.testing.assert_allclose(x[0], -10.0)
        np.testing.assert_allclose(x[-1], 10.0)
        np.testing.assert_allclose(x + x[::-1], 0.0, atol=1e-12)


# === mass policy ==========================================================

class TestMassPolicy:
    def test_tiny_deviation_accepted_as_is(self):
        x = default_axis()
        vals = lebesgue_gaussian_values(x, 0.0, 1.0) * (1.0 + 5e-7)
        d = GridDensity1D.from_values(LEB, x, vals)
        assert d.renormalization == 1.0
        np.testing.assert_allclose(d.mass(), 1.0 + 5e-7, rtol=1e-9)

    def test_moderate_deviation_warns(self):
        x = default_axis()
        vals = lebesgue_gaussian_values(x, 0.0, 1.0) * 1.002
        with pytest.warns(RenormalizationWarning):
            d = GridDensity1D.from_values(LEB, x, vals)
        np.testing.assert_allclose(d.mass(), 1.0, atol=1e-12)
        np.testing.assert_allclose(d.renormalization, 1.0 / 1.002, rtol=1e-6)

    def test_gross_deviation_rejected(self):
        x = default_axis()
        vals = lebesgue_gaussian_values(x, 0.0, 1.0) * 1.5
        with pytest.raises(NormalizationError):
            GridDensity1D.from_values(LEB, x, vals)

    def test_small_negative_values_clipped(self):
        x = default_axis()
        vals = lebesgue_gaussian_values(x, 0.0, 1.0)
        vals[0] = -1e-12
        d = GridDensity1D.from_values(LEB, x, vals)
        assert d.values[0] == 0.0

    def test_large_negative_values_rejected(self):
        x = default_axis()
        vals = lebesgue_gaussian_values(x, 0.0, 1.0)
        vals[x.size // 2] = -0.1
        with pytest.raises(NormalizationError):
            GridDensity1D.from_values(LEB, x, vals)


# === parametric families ==================================================

class TestGaussianDensity:
    def test_rejects_non_spd_covariance(self):
        with pytest.raises(NotSPD):
            gaussian(LEB, [0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    def test_rejects_asymmetric_covariance(self):
        with pytest.raises(NotSPD):
            gaussian(LEB, [0.0, 0.0], [[1.0, 0.2], [0.1, 1.0]])

    def test_lebesgue_pdf(self):
        d = gaussian(LEB, 0.5, 2.0)
        x = np.linspace(-3.0, 3.0, 7)
        np.testing.assert_allclose(d.pdf(x),
                                   lebesgue_gaussian_values(x, 0.5, 2.0),
                                   rtol=1e-13)

    def test_gamma_reference_standard_gaussian_is_one(self):
        """N(0,1) relative to gamma is the constant function 1."""
        d = gaussian(GAM, 0.0, 1.0)
        x = np.linspace(-5.0, 5.0, 11)
        np.testing.assert_allclose(d.pdf(x), 1.0, rtol=1e-12)

    def test_gamma_reference_exponential_family(self):
        """N(a,1) relative to gamma is exp(a x - a^2/2)."""
        a = 0.8
        d = gaussian(GAM, a, 1.0)
        x = np.linspace(-4.0, 4.0, 9)
        np.testing.assert_allclose(d.pdf(x), np.exp(a * x - a * a / 2.0),
                                   rtol=1e-12)

    def test_to_grid_mass(self):
        for ref in (LEB, GAM):
            d = gaussian(ref, 0.3, 1.4).to_grid()
            np.testing.assert_allclose(d.mass(), 1.0, atol=1e-13)

    def test_to_grid_matches_pdf(self):
        d = gaussian(LEB, 0.0, 1.0)
        g = d.to_grid()
        np.testing.assert_allclose(g.values, d.pdf(g.x), rtol=1e-13)

    @pytest.mark.parametrize("ref", [LEB, GAM])
    @pytest.mark.parametrize("cov", [[[2.0, 0.7], [0.7, 1.2]],
                                     [[0.6, 0.25], [0.25, 0.4]]])
    def test_to_grid_2d_matches_per_point_solve(self, ref, cov):
        """The separable 2d grid equals a per-point solve to 1e-14 of the peak."""
        d = gaussian(ref, [0.2, -0.3], cov)
        g = d.to_grid(points=257)
        pts = np.stack(np.meshgrid(g.x, g.y, indexing="ij"), axis=-1)
        diff = pts - d.mean
        sol = np.linalg.solve(d.covariance, diff[..., None])[..., 0]
        logp = -0.5 * (np.einsum("...i,...i->...", diff, sol) + 2.0 * LOG_2PI
                       + np.linalg.slogdet(d.covariance)[1])
        if ref is GAM:
            logp += 0.5 * np.einsum("...i,...i->...", pts, pts) + LOG_2PI
        want = np.exp(logp)
        assert np.max(np.abs(g.values - want)) <= 1e-14 * want.max()
        np.testing.assert_allclose(d.pdf(pts), g.values, rtol=0.0,
                                   atol=1e-14 * want.max())


class TestGaussianMixture:
    def test_mass_one(self):
        d = gaussian_mixture(LEB, [0.3, 0.7], [-1.0, 1.5], [0.5, 1.2])
        np.testing.assert_allclose(d.mass(), 1.0, atol=1e-13)

    def test_single_component_matches_gaussian(self):
        mix = gaussian_mixture(LEB, [1.0], [0.4], [1.1])
        base = gaussian(LEB, 0.4, 1.1).to_grid()
        np.testing.assert_allclose(mix.values, base.values, rtol=1e-12)

    def test_second_moment(self):
        """Mixture variance = sum w_i (v_i + m_i^2) - (sum w_i m_i)^2."""
        w, m, v = [0.4, 0.6], [-1.0, 0.5], [0.8, 1.5]
        d = gaussian_mixture(LEB, w, m, v)
        h = d.x[1] - d.x[0]
        mean = np.trapezoid(d.x * d.values, dx=h)
        second = np.trapezoid(d.x ** 2 * d.values, dx=h)
        target_mean = sum(wi * mi for wi, mi in zip(w, m))
        target_second = sum(wi * (vi + mi * mi) for wi, mi, vi in zip(w, m, v))
        np.testing.assert_allclose(mean, target_mean, atol=1e-10)
        np.testing.assert_allclose(second, target_second, atol=1e-8)

    def test_gamma_reference_mixture_mass(self):
        d = gaussian_mixture(GAM, [0.5, 0.5], [-0.5, 0.5], [0.7, 1.3])
        np.testing.assert_allclose(d.mass(), 1.0, atol=1e-12)


class TestUniformDensity:
    def test_smoothed_mass(self):
        d = uniform_density(-1.0, 2.0)
        np.testing.assert_allclose(d.mass(), 1.0, atol=1e-13)

    def test_plateau_value(self):
        d = uniform_density(-2.0, 2.0)
        middle = np.abs(d.x) < 1.0
        np.testing.assert_allclose(d.values[middle], 0.25, rtol=1e-10)

    def test_raw_indicator_lands_in_warn_band(self):
        """Simpson on a jump converges at O(h); the mass error is visible."""
        with pytest.warns(RenormalizationWarning):
            d = uniform_density(-1.0, 1.0, smoothing=0.0)
        np.testing.assert_allclose(d.mass(), 1.0, atol=1e-13)


class TestExpFunction:
    def test_values(self):
        f = ExpFunction(0.7)
        x = np.linspace(-2.0, 2.0, 5)
        np.testing.assert_allclose(f(x), np.exp(0.7 * x), rtol=1e-15)


# === interpolation ========================================================

class TestCubicSampling:
    def test_off_grid_accuracy(self):
        """Cubic spline sampling of a Gaussian is ~1e-11 between nodes."""
        d = gaussian(LEB, 0.0, 1.0).to_grid()
        t = np.linspace(-3.0, 3.0, 1001)  # mostly off-grid points
        np.testing.assert_allclose(d.as_function()(t),
                                   lebesgue_gaussian_values(t, 0.0, 1.0),
                                   atol=1e-10)

    def test_outside_support_is_zero(self):
        d = gaussian(LEB, 0.0, 1.0).to_grid()
        np.testing.assert_allclose(d.as_function()(np.array([12.0, -15.0])),
                                   0.0, atol=1e-300)


# === marginals ============================================================

class TestMarginal:
    def test_standard_gaussian_any_direction(self):
        """Rotational invariance: every marginal of N(0, Id) is N(0, 1)."""
        d = gaussian(LEB, [0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]).to_grid()
        for theta in (0.0, 0.3, math.pi / 4.0, 1.2):
            m = marginal(d, theta)
            np.testing.assert_allclose(
                m.values, lebesgue_gaussian_values(m.x, 0.0, 1.0), atol=1e-9)

    def test_correlated_gaussian_variance(self):
        """Marginal along u has variance u^T Sigma u."""
        cov = np.array([[2.0, 1.0], [1.0, 2.0]])
        d = gaussian(LEB, [0.0, 0.0], cov).to_grid()
        for theta in (0.0, math.pi / 6.0, math.pi / 2.0):
            u = np.array([math.cos(theta), math.sin(theta)])
            m = marginal(d, theta)
            var = float(u @ cov @ u)
            np.testing.assert_allclose(
                m.values, lebesgue_gaussian_values(m.x, 0.0, var), atol=1e-8)

    def test_gamma_reference_marginal(self):
        """Marginals of a gamma-reference density are gamma densities."""
        d = gaussian(GAM, [0.2, -0.1], [[0.8, 0.1], [0.1, 0.9]]).to_grid()
        m = marginal(d, 0.25)
        np.testing.assert_allclose(m.mass(), 1.0, atol=1e-10)
        assert m.reference is GAM

    def test_truncated_output_axis_rejected(self):
        """Mass leaking past the output axis must not pass silently."""
        d = gaussian(LEB, [0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]).to_grid()
        with pytest.raises(DomainTruncation):
            marginal(d, 0.0, x_out=np.linspace(-1.0, 1.0, 101))
        # the memo must not turn a truncated axis into a cached success
        marginal(d, 0.0)
        with pytest.raises(DomainTruncation):
            marginal(d, 0.0, x_out=np.linspace(-1.0, 1.0, 101))

    @pytest.mark.parametrize("theta", [
        0.0, math.pi / 4.0 - 1e-3, math.pi / 4.0 + 1e-3, math.pi / 2.0,
        3.0 * math.pi / 4.0 - 1e-3, 3.0 * math.pi / 4.0 + 1e-3,
        math.pi + 0.4])
    def test_closed_form_around_axis_swap(self, theta):
        """Values match N(u^T m, u^T Sigma u) on both sides of |cos| = |sin|.

        theta >= pi names the same line as theta - pi, whose unit vector is
        the one the marginal is taken along.
        """
        g = gaussian(LEB, [0.2, -0.3], [[2.0, 0.7], [0.7, 1.2]])
        m = marginal(g.to_grid(), theta)
        np.testing.assert_allclose(m.values, closed_form_marginal(g, theta, m.x),
                                   atol=1e-10)

    @pytest.mark.parametrize("theta", [1.3, 2.0])
    def test_gamma_reference_steep_values(self, theta):
        """Steep directions (|sin| > |cos|) weight the line by gamma in s."""
        g = gaussian(GAM, [0.2, -0.1], [[0.8, 0.3], [0.3, 0.6]])
        m = marginal(g.to_grid(), theta)
        assert m.reference is GAM
        np.testing.assert_allclose(m.values, closed_form_marginal(g, theta, m.x),
                                   atol=5e-10)

    def test_memo_per_density_and_direction(self):
        d = gaussian(LEB, [0.2, -0.3], [[2.0, 0.7], [0.7, 1.2]]).to_grid()
        m = marginal(d, 0.4)
        assert marginal(d, Direction(0.4)) is m
        assert marginal(d, 0.5) is not m
        # keyed on the canonical angle; wrapped - pi is exact (Sterbenz)
        wrapped = 0.4 + math.pi
        assert marginal(d, wrapped) is marginal(d, wrapped - math.pi)

    def test_memo_is_not_shared_between_densities(self):
        cov = [[2.0, 0.7], [0.7, 1.2]]
        a = gaussian(LEB, [0.2, -0.3], cov).to_grid()
        b = gaussian(LEB, [-0.2, 0.3], cov).to_grid()
        ma, mb = marginal(a, 0.4), marginal(b, 0.4)
        assert ma is not mb
        assert marginal(a, 0.4) is ma and marginal(b, 0.4) is mb
        assert not np.allclose(ma.values, mb.values)

    def test_x_out_bypasses_memo(self):
        d = gaussian(LEB, [0.2, -0.3], [[2.0, 0.7], [0.7, 1.2]]).to_grid()
        explicit = marginal(d, 0.4, x_out=d.x)
        memoized = marginal(d, 0.4)
        assert explicit is not memoized
        assert marginal(d, 0.4, x_out=d.x) is not explicit
        assert marginal(d, 0.4) is memoized
        np.testing.assert_array_equal(explicit.values, memoized.values)


class TestMarginalRotationInvariance:
    POINTS = 513
    # test_functional's 1e-7 2d entropy bound, loosened for the coarse grid
    # as selftest does: by ((2049 - 1)/(n - 1))^2
    BOUND = 1e-7 * ((DEFAULT_POINTS - 1) / (POINTS - 1)) ** 2

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(ref=st.sampled_from([LEB, GAM]),
           eigenvalues=st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
           rotation=st.floats(0.0, math.pi),
           mean=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
           theta=st.floats(0.0, 2.0 * math.pi))
    def test_marginal_entropy_matches_closed_form(self, ref, eigenvalues,
                                                  rotation, mean, theta):
        """S(f_u) = S(N(u^T m, u^T Sigma u)) for any SPD Sigma and direction."""
        c, s = math.cos(rotation), math.sin(rotation)
        r = np.array([[c, -s], [s, c]])
        cov = r @ np.diag(eigenvalues) @ r.T
        cov = 0.5 * (cov + cov.T)
        g = gaussian(ref, mean, cov)
        m = marginal(g.to_grid(points=self.POINTS), theta)
        u = Direction(theta).unit_vector()
        want = entropy(GaussianDensity(ref, [float(u @ g.mean)],
                                       [[float(u @ cov @ u)]]))
        assert abs(float(entropy(m)) - float(want)) <= self.BOUND


# === convolution and dilation =============================================

class TestConvolve:
    def test_gaussian_convolution_closed_form(self):
        g = gaussian(LEB, 0.5, 1.0).to_grid()
        h = gaussian(LEB, -0.2, 2.0).to_grid()
        c = convolve(g, h)
        np.testing.assert_allclose(
            c.values, lebesgue_gaussian_values(c.x, 0.3, 3.0), atol=1e-9)

    def test_direct_and_fft_agree(self):
        g = gaussian(LEB, 0.0, 0.7).to_grid()
        h = gaussian(LEB, 0.4, 1.2).to_grid()
        direct = convolve(g, h, method="direct")
        fft = convolve(g, h, method="fft")
        np.testing.assert_allclose(fft.values, direct.values, atol=1e-12)

    def test_minkowski_axis(self):
        """The convolution lives on the sum of the two supports."""
        g = gaussian(LEB, 0.0, 1.0).to_grid()
        c = convolve(g, g)
        np.testing.assert_allclose(c.x[0], 2.0 * g.x[0], atol=1e-12)
        np.testing.assert_allclose(c.x[-1], 2.0 * g.x[-1], atol=1e-12)

    def test_mass_preserved(self):
        g = gaussian(LEB, 0.0, 1.0).to_grid()
        h = gaussian(LEB, 1.0, 0.5).to_grid()
        np.testing.assert_allclose(convolve(g, h).mass(), 1.0, atol=1e-10)


class TestScale1d:
    def test_entropy_scaling_law(self):
        """The functional int f log f drops by log|a| under dilation by a."""
        d = gaussian(LEB, 0.0, 1.0).to_grid()
        for a in (0.5, 2.0, -1.5):
            scaled = scale1d(d, a)
            np.testing.assert_allclose(
                float(entropy(scaled)),
                float(entropy(d)) - math.log(abs(a)), atol=1e-9)

    def test_negative_scale_flips(self):
        d = gaussian(LEB, 1.0, 0.5).to_grid()
        flipped = scale1d(d, -1.0)
        np.testing.assert_allclose(
            flipped.values, lebesgue_gaussian_values(flipped.x, -1.0, 0.5),
            atol=1e-12)

    def test_zero_scale_rejected(self):
        d = gaussian(LEB, 0.0, 1.0).to_grid()
        with pytest.raises(ZeroScale):
            scale1d(d, 0.0)


class TestAffinePushforward:
    def test_rotation_preserves_standard_gaussian(self):
        d = gaussian(LEB, [0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]).to_grid()
        c, s = math.cos(0.6), math.sin(0.6)
        rotated = affine_pushforward(d, [[c, -s], [s, c]])
        np.testing.assert_allclose(rotated.values, d.values, atol=1e-9)

    def test_singular_matrix_rejected(self):
        d = gaussian(LEB, [0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]).to_grid()
        with pytest.raises(Singular):
            affine_pushforward(d, [[1.0, 1.0], [1.0, 1.0]])


class TestLinearCombination:
    def test_matches_closed_form(self):
        """Density of aX + bY for independent Gaussians."""
        g = gaussian(LEB, 0.2, 1.0).to_grid()
        h = gaussian(LEB, -0.5, 2.0).to_grid()
        for a, b in ((1.0, 1.0), (0.3, 1.4), (1.4, 0.3), (1.0, -1.0)):
            d = linear_combination(g, h, a, b)
            mean = a * 0.2 + b * -0.5
            var = a * a * 1.0 + b * b * 2.0
            np.testing.assert_allclose(
                d.values, lebesgue_gaussian_values(d.x, mean, var), atol=1e-8)


class TestIndependentProduct:
    def test_entropy_is_additive(self):
        g = gaussian(LEB, 0.0, 1.0).to_grid()
        h = gaussian(LEB, 0.5, 2.0).to_grid()
        prod = independent_product(g, h)
        np.testing.assert_allclose(
            float(entropy(prod)),
            float(entropy(g)) + float(entropy(h)), atol=1e-8)

    def test_values_factorize(self):
        g = gaussian(LEB, 0.0, 1.0).to_grid()
        h = gaussian(LEB, 0.0, 0.5).to_grid()
        prod = independent_product(g, h)
        np.testing.assert_allclose(prod.values,
                                   np.outer(g.values, h.values), rtol=1e-12)


# === 2d grid densities ====================================================

class TestGridDensity2D:
    def test_from_values_mass(self):
        x = default_axis()
        vals = np.outer(lebesgue_gaussian_values(x, 0.0, 1.0),
                        lebesgue_gaussian_values(x, 0.0, 1.0))
        d = GridDensity2D.from_values(LEB, x, x, vals)
        np.testing.assert_allclose(d.mass(), 1.0, atol=1e-12)

    def test_gamma_2d_mass(self):
        d = gaussian(GAM, [0.0, 0.0], [[0.9, 0.2], [0.2, 1.1]]).to_grid()
        np.testing.assert_allclose(d.mass(), 1.0, atol=1e-10)
