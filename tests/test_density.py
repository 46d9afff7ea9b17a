"""Grid densities, parametric families, mass policy, and the geometric
operations (marginals, convolution, dilation, linear combinations).

Grid values are samples f(x_i); integration is composite Simpson against
the declared reference measure (Lebesgue, or standard Gaussian gamma).
"""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

import entroframe
from entroframe import (
    DomainTruncation,
    ExpFunction,
    GaussianDensity,
    GridDensity1D,
    GridDensity2D,
    GridError,
    GridFunction1D,
    NormalizationError,
    NotSPD,
    Reference,
    ReferenceMismatch,
    RenormalizationWarning,
    ZeroScale,
    convolve,
    default_axis,
    entropy,
    fisher,
    gaussian,
    gaussian_mixture,
    independent_product,
    linear_combination,
    marginal,
    marginals,
    scale1d,
    uniform_density,
)
from entroframe import density as density_module
from entroframe import quadrature as quadrature_module
from entroframe.density import (DEFAULT_POINTS, LOG_2PI, integral, log_gaussian_weight,
                                reference_weight)
from entroframe.frames import Direction, directions_from_weights, mercedes_frame
from entroframe.quadrature import (LATTICE_MARGIN, LATTICE_STEP, contract, simpson_weights,
                                   validate_axis)

LEB = Reference.LEBESGUE
GAM = Reference.GAUSSIAN


def lebesgue_gaussian_values(x, mean, var):
    return np.exp(-0.5 * (x - mean) ** 2 / var) / math.sqrt(2.0 * math.pi * var)


def closed_form_marginal_law(g, theta):
    """(reference, mean, variance) of the marginal of g along Direction(theta)."""
    u = Direction(theta).unit_vector()
    return g.reference, float(u @ g.mean), float(u @ g.covariance @ u)


def closed_form_marginal(g, theta, t):
    """Values of the marginal of the Gaussian g along Direction(theta)."""
    reference, mean, variance = closed_form_marginal_law(g, theta)
    return GaussianDensity(reference, [mean], [[variance]]).pdf(t)


# === grid configuration ===================================================

class TestDefaultGrid:
    @pytest.mark.parametrize("raw", ["513", "512"])
    def test_grid_comes_from_the_call(self, monkeypatch, raw):
        """No environment variable sets the default grid, not even the
        ENTROFRAME_GRID_N that once did, well-formed or not."""
        monkeypatch.setenv("ENTROFRAME_GRID_N", raw)
        assert default_axis().size == DEFAULT_POINTS
        assert gaussian(LEB, 0.0, 1.0).to_grid().x.size == DEFAULT_POINTS
        assert default_axis(points=513).size == 513
        assert not hasattr(entroframe, "default_grid_points")

    @pytest.mark.parametrize("length", [math.inf, -math.inf, math.nan, 0.0, -1.0])
    def test_half_length_must_be_positive_and_finite(self, length):
        with pytest.raises(GridError, match=f"half-length .* got {length}"):
            default_axis(length=length)

    def test_default_axis_symmetric(self):
        x = default_axis()
        assert x.size == DEFAULT_POINTS
        np.testing.assert_allclose(x[0], -10.0)
        np.testing.assert_allclose(x[-1], 10.0)
        np.testing.assert_allclose(x + x[::-1], 0.0, atol=1e-12)


# === grid axes ============================================================

BAD_AXES = {
    "even": lambda n: np.linspace(-10.0, 10.0, n - 1),
    "descending": lambda n: np.linspace(10.0, -10.0, n),
    "nonuniform": lambda n: 10.0 * np.sinh(np.linspace(-3.0, 3.0, n)) / math.sinh(3.0),
}


class TestGridAxes:
    """Each grid owns its axes: checked once when built, steps kept."""

    @pytest.mark.parametrize("kind", sorted(BAD_AXES))
    def test_validate_axis_raises_grid_error(self, kind):
        with pytest.raises(GridError, match="x must be"):
            validate_axis(BAD_AXES[kind](129), "x")

    @pytest.mark.parametrize("kind", sorted(BAD_AXES))
    def test_from_values_1d_checks_axis_before_mass(self, kind):
        x = BAD_AXES[kind](129)
        with pytest.raises(GridError):
            GridDensity1D.from_values(LEB, x, lebesgue_gaussian_values(x, 0.0, 1.0))

    @pytest.mark.parametrize("kind", sorted(BAD_AXES))
    def test_from_values_2d_checks_axes_before_mass(self, kind):
        x = BAD_AXES[kind](129)
        y = default_axis(points=129)
        vals = np.outer(lebesgue_gaussian_values(x, 0.0, 1.0),
                        lebesgue_gaussian_values(y, 0.0, 1.0))
        with pytest.raises(GridError):
            GridDensity2D.from_values(LEB, x, y, vals)

    @pytest.mark.parametrize("kind", sorted(BAD_AXES))
    def test_marginal_checks_x_out_before_mass(self, kind):
        f = gaussian(LEB, [0.0, 0.0], np.eye(2)).to_grid(points=129)
        with pytest.raises(GridError):
            marginal(f, 0.3, x_out=BAD_AXES[kind](129))

    def test_each_axis_is_checked_once(self, monkeypatch):
        """One validation per built axis, also when the call renormalizes,
        and x_out is checked before any line is summed."""
        x = default_axis(points=129)
        g = gaussian(LEB, 0.2, 1.0).to_grid(points=129)
        h = gaussian(LEB, -0.5, 2.0).to_grid(points=129)
        f = gaussian(LEB, [0.0, 0.0], np.eye(2)).to_grid(points=129)
        seen = []

        def counting(x, name="axis"):
            seen.append(name)
            return validate_axis(x, name)
        monkeypatch.setattr(density_module, "validate_axis", counting)
        with pytest.warns(RenormalizationWarning):
            GridDensity1D.from_values(LEB, x, lebesgue_gaussian_values(x, 0.0, 1.0) * 1.002)
        assert seen == ["x"]
        for call in (lambda: linear_combination(g, h, 1.0, 0.5),
                     lambda: marginal(f, 0.3, x_out=x)):
            seen.clear()
            call()
            assert seen == ["x"]

        def no_sum(*args):
            raise AssertionError("summed a line before checking x_out")
        monkeypatch.setattr(density_module, "sheared_sum", no_sum)
        for kind in sorted(BAD_AXES):
            with pytest.raises(GridError):
                marginal(f, 0.3, x_out=BAD_AXES[kind](129))

    def test_steps_are_kept(self):
        x = default_axis(points=129)
        y = default_axis(length=6.0, points=65)
        d1 = GridDensity1D(LEB, x, lebesgue_gaussian_values(x, 0.0, 1.0))
        d2 = GridDensity2D(LEB, x, y, np.ones((129, 65)))
        assert d1.h == (x[-1] - x[0]) / 128
        assert (d2.hx, d2.hy) == (d1.h, (y[-1] - y[0]) / 64)
        assert [h for _, h in d2.axes] == [d2.hx, d2.hy]

    def test_density_1d_is_callable_like_its_function(self):
        d = gaussian(LEB, 0.3, 1.2).to_grid(points=513)
        t = np.array([[-11.0, -2.37], [0.004, 10.5]])
        np.testing.assert_array_equal(d(t), GridFunction1D(d.x, d.values)(t))
        assert d(t)[0, 0] == 0.0 and d(t)[1, 1] == 0.0

    def test_integral_contracts_axes_in_order(self):
        """The 2d Gaussian-reference integral is wx @ (v * phi(x) phi(y)) @ wy;
        the Lebesgue one sums each row of x against wy, then the row sums
        against wx, exactly."""
        x = default_axis(points=65)
        y = default_axis(length=5.0, points=129)
        v = np.add.outer(np.cos(x), y * y)
        hx, hy = (x[-1] - x[0]) / 64, (y[-1] - y[0]) / 128
        wx, wy = simpson_weights(65, hx), simpson_weights(129, hy)
        phi = np.exp(-0.5 * np.add.outer(x * x, y * y) - LOG_2PI)
        got = integral(GAM, v, (x, hx), (y, hy))
        np.testing.assert_allclose(got, wx @ (v * phi) @ wy, rtol=1e-14)
        assert integral(LEB, v, (x, hx), (y, hy)) == float(contract(v, wy) @ wx)

    def test_gaussian_reference_integral_separates(self):
        """The Gaussian reference weighs each axis once: the integral of
        u(x) v(y) is the product of the two 1d integrals."""
        x = default_axis(points=65)
        y = default_axis(length=5.0, points=129)
        u, v = np.cos(x) + 1.5, y * y
        hx, hy = (x[-1] - x[0]) / 64, (y[-1] - y[0]) / 128
        got = integral(GAM, np.outer(u, v), (x, hx), (y, hy))
        want = integral(GAM, u, (x, hx)) * integral(GAM, v, (y, hy))
        np.testing.assert_allclose(got, want, rtol=1e-15)


# === mass policy ==========================================================

class TestSimpsonWeights:
    def test_memoized_read_only_and_exact(self):
        """Built once per (n, h): the same read-only array on every call,
        whatever int and float types name the pair, equal to the composite
        rule (1, 4, 2, 4, ..., 2, 4, 1) h / 3."""
        h = 20.0 / 2048
        w = simpson_weights(2049, h)
        assert simpson_weights(np.int64(2049), np.float64(h)) is w
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 0.0
        want = np.ones(2049)
        want[1:-1:2] = 4.0
        want[2:-1:2] = 2.0
        np.testing.assert_array_equal(w, want * (h / 3.0))
        assert simpson_weights(65, h).size == 65
        assert simpson_weights(2049, 2.0 * h)[0] == 2.0 * h / 3.0
        with pytest.raises(ValueError, match="odd n >= 3"):
            simpson_weights(2048, h)


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_values_rejected(self, bad):
        """A NaN or an infinity anywhere, even beside a negative value, in 1d
        and in 2d, is refused as not finite."""
        x = default_axis(points=129)
        line = lebesgue_gaussian_values(x, 0.0, 1.0)
        for place in (0, x.size // 2, x.size - 1):
            for grid, vals in (((x,), line.copy()),
                               ((x, x), np.outer(line, line))):
                vals.flat[place] = bad
                vals.flat[1] = -0.5
                cls = GridDensity1D if len(grid) == 1 else GridDensity2D
                with pytest.raises(NormalizationError, match="values must be finite$"):
                    cls.from_values(LEB, *grid, vals, what="values")


# === ownership of the caller's arrays =====================================

class TestCallerArrays:
    """A density copies any array its caller can still write to."""

    @pytest.mark.parametrize("build", [
        lambda x, v: GridDensity1D(LEB, x, v),
        lambda x, v: GridDensity1D.from_values(LEB, x, v),
        lambda x, v: GridFunction1D(x, v),
        lambda x, v: GridDensity2D(LEB, x, x, np.outer(v, v)),
    ])
    def test_caller_arrays_stay_writeable_and_unshared(self, build):
        x = default_axis(points=129)
        v = lebesgue_gaussian_values(x, 0.0, 1.0)
        d = build(x, v)
        assert x.flags.writeable and v.flags.writeable
        assert d.x is not x and d.values is not v
        kept_x, kept_values = d.x.copy(), d.values.copy()
        x[:] = 0.0
        v[:] = 7.0
        np.testing.assert_array_equal(d.x, kept_x)
        np.testing.assert_array_equal(d.values, kept_values)
        assert not d.values.flags.writeable

    def test_gaussian_parameters_are_copied(self):
        mean, cov = np.array([0.5, 0.0]), np.eye(2)
        g = gaussian(LEB, mean, cov)
        mean[0] = 3.0
        cov[0, 0] = 9.0
        assert mean.flags.writeable and cov.flags.writeable
        np.testing.assert_array_equal(g.mean, [0.5, 0.0])
        np.testing.assert_array_equal(g.covariance, np.eye(2))

    def test_read_only_arrays_are_shared_not_copied(self):
        """Arrays a density already owns pass through without a copy."""
        d = gaussian(LEB, [0.0, 0.0], np.eye(2)).to_grid(points=129)
        again = GridDensity2D(LEB, d.x, d.y, d.values)
        assert again.x is d.x and again.values is d.values


# === parametric families ==================================================

class TestGaussianDensity:
    def test_rejects_non_spd_covariance(self):
        with pytest.raises(NotSPD):
            gaussian(LEB, [0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    def test_rejects_asymmetric_covariance(self):
        with pytest.raises(NotSPD):
            gaussian(LEB, [0.0, 0.0], [[1.0, 0.2], [0.1, 1.0]])

    @pytest.mark.parametrize("mean, cov, name", [
        (math.nan, 1.0, "mean"),
        (0.0, math.nan, "covariance"),
        ([0.0, math.inf], np.eye(2), "mean"),
        ([0.0, 0.0], [[1.0, math.nan], [math.nan, 1.0]], "covariance"),
    ])
    def test_rejects_non_finite_parameters(self, mean, cov, name):
        with pytest.raises(NotSPD, match=f"^{name} must be finite"):
            gaussian(LEB, mean, cov)

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

    @pytest.mark.parametrize("ref", [LEB, GAM])
    def test_is_the_sum_of_its_components(self, ref):
        """Each component's log density (less log gamma over the Gaussian
        reference), exponentiated and added in order: the grid values
        within a few ulp."""
        w, m, v = [0.2, 0.5, 0.3], [-2.0, 0.3, 1.7], [0.4, 1.5, 0.8]
        d = gaussian_mixture(ref, w, m, v)
        assert d.renormalization == 1.0
        log_norms = -0.5 * (LOG_2PI + np.log(v))
        shift = log_gaussian_weight(d.x) if ref is GAM else 0.0
        want = sum(wk * np.exp(-0.5 * (d.x - mk) ** 2 / vk + cut - shift)
                   for wk, mk, vk, cut in zip(w, m, v, log_norms))
        np.testing.assert_allclose(d.values, want, rtol=4 * np.finfo(float).eps, atol=0.0)

    def test_gamma_reference_mixture_mass(self):
        d = gaussian_mixture(GAM, [0.5, 0.5], [-0.5, 0.5], [0.7, 1.3])
        np.testing.assert_allclose(d.mass(), 1.0, atol=1e-12)

    @pytest.mark.parametrize("w, m, v, error, message", [
        ([math.nan, 1.0], [0.0, 1.0], [1.0, 1.0], NormalizationError,
         "mixture weight 1 must be positive, got nan"),
        ([0.5, 0.5], [0.0, math.nan], [1.0, 1.0], NotSPD,
         "mixture mean 2 must be finite, got nan"),
        ([0.5, 0.5], [0.0, 1.0], [math.nan, 1.0], NotSPD,
         "mixture variance 1 must be finite and positive, got nan"),
        ([0.5, 0.5], [0.0, 1.0], [1.0, 0.0], NotSPD,
         "mixture variance 2 must be finite and positive, got 0.0"),
    ])
    def test_rejects_bad_parameter_by_name(self, w, m, v, error, message):
        """A NaN compares false, so it fails every positivity test and is
        named, not caught later as non-finite grid values."""
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            gaussian_mixture(LEB, w, m, v, points=129)


class TestUniformDensity:
    def test_smoothed_values_are_the_normal_cdf_difference(self):
        """The mollified indicator is the difference of two normal CDFs,
        taken through math.erfc, which scipy.special.ndtr gives within a
        few units in the last place of the plateau."""
        from scipy.special import ndtr
        d = uniform_density(-1.0, 2.0, smoothing=0.3)
        want = (ndtr((d.x + 1.0) / 0.3) - ndtr((d.x - 2.0) / 0.3)) / 3.0
        np.testing.assert_allclose(d.values / d.renormalization, want,
                                   rtol=0.0, atol=4e-16 * want.max())

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

    def test_raw_indicator_too_narrow_for_the_grid_names_the_step(self):
        """On the default grid [-0.05, 0.05] spans 10 steps, and its grid
        mass misses 1 by 0.107: the error names the step and a point count
        at which the same call renormalizes."""
        with pytest.raises(NormalizationError) as caught:
            uniform_density(-0.05, 0.05, smoothing=0.0)
        message = str(caught.value)
        assert "spans 10.2 grid steps of 0.00977" in message
        need = int(re.search(r"takes (\d+) points", message).group(1))
        with pytest.warns(RenormalizationWarning):
            d = uniform_density(-0.05, 0.05, smoothing=0.0, points=need)
        np.testing.assert_allclose(d.mass(), 1.0, atol=1e-13)


class TestExpFunction:
    def test_values(self):
        f = ExpFunction(0.7)
        x = np.linspace(-2.0, 2.0, 5)
        np.testing.assert_allclose(f(x), np.exp(0.7 * x), rtol=1e-15)


# === interpolation ========================================================

# a line of odd n in [65, 4097] nodes on [-10, 10]: normal draws, a Gaussian
# bump, or a Gaussian-reference line, which grows like e^{x^2/4}
SPLINE_LINE = st.tuples(st.integers(32, 2048), st.sampled_from(["draws", "bump", "growing"]),
                        st.integers(0, 2 ** 32 - 1))


def spline_line(half, kind, seed):
    n = 2 * half + 1
    x = np.linspace(-10.0, 10.0, n)
    rng = np.random.default_rng(seed)
    if kind == "draws":
        return rng.normal(size=n)
    if kind == "bump":
        return np.exp(-0.5 * (x - rng.uniform(-2.0, 2.0)) ** 2 / rng.uniform(0.3, 2.0))
    # the relative density of N(m, 2) to gamma, up to a constant
    return np.exp(0.25 * x * x + rng.uniform(-1.0, 1.0) * x)


class TestCubicSampling:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(line=SPLINE_LINE)
    @example(line=(32, "growing", 0))
    @example(line=(2048, "growing", 1))
    def test_prefilter_is_ndimage_spline_filter1d(self, line):
        """spline_coefficients on a line, and prefilter_rows on lines as the
        columns of an array, into a new array and in place, give
        ndimage.spline_filter1d(order=3, mode="constant") within 2e-15 of
        the largest coefficient of each line."""
        values = spline_line(*line)
        want = ndimage.spline_filter1d(values, order=3, mode="constant")
        np.testing.assert_allclose(quadrature_module.spline_coefficients(values), want,
                                   rtol=0.0, atol=2e-15 * np.abs(want).max())
        columns = np.stack([values, spline_line(line[0], "draws", line[2])], axis=1)
        want = ndimage.spline_filter1d(columns, order=3, axis=0, mode="constant")
        atol = 2e-15 * np.abs(want).max(axis=0)
        got = quadrature_module.prefilter_rows(columns, np.empty(columns.shape))
        assert np.all(np.abs(got - want) <= atol)
        got = quadrature_module.prefilter_rows(columns, columns)
        assert got is columns and np.all(np.abs(got - want) <= atol)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(line=SPLINE_LINE, count=st.integers(1, 40000))
    @example(line=(2048, "growing", 1), count=40000)
    def test_sampler_is_ndimage_map_coordinates(self, line, count):
        """sample_coefficients gives ndimage.map_coordinates(order=3,
        prefilter=False, mode="constant") within 2e-15 of the largest value,
        on random points over and past the grid, more than CALL_POINTS of
        them at a time, and at and just past its ends, where it is 0."""
        coeffs = ndimage.spline_filter1d(spline_line(*line), order=3, mode="constant")
        n = coeffs.size
        ends = [0.0, 1e-13, 0.5, n - 1.5, np.nextafter(n - 1.0, 0.0), n - 1.0,
                -1e-15, -0.5, np.nextafter(n - 1.0, n), n - 0.5, n + 2.5]
        points = np.concatenate([np.random.default_rng(count).uniform(-3.0, n + 2.0, count),
                                 ends])
        want = ndimage.map_coordinates(coeffs, [points], order=3, mode="constant",
                                       cval=0.0, prefilter=False)
        got = quadrature_module.sample_coefficients(coeffs, [points])
        np.testing.assert_allclose(got, want, rtol=0.0, atol=2e-15 * np.abs(want).max())
        assert not got[-5:].any()


    def test_off_grid_accuracy(self):
        """Cubic spline sampling of a Gaussian is ~1e-11 between nodes."""
        d = gaussian(LEB, 0.0, 1.0).to_grid()
        t = np.linspace(-3.0, 3.0, 1001)  # mostly off-grid points
        np.testing.assert_allclose(d(t),
                                   lebesgue_gaussian_values(t, 0.0, 1.0),
                                   atol=1e-10)

    def test_outside_support_is_zero(self):
        d = gaussian(LEB, 0.0, 1.0).to_grid()
        np.testing.assert_allclose(d(np.array([12.0, -15.0])),
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


class TestMarginalPaths:
    """A marginal samples its lines on the half-step lattice of
    quadrature.sheared_sum.  Each line's weight is one constant, so the
    lines' values are sampled and each phase of the lattice sum is
    prefiltered once; over the Gaussian reference the values are first
    multiplied by gamma(s), s = x.u_perp, at the lines' nodes.  An axis
    marginal on the axis's own nodes sums the values."""

    POINTS = 513
    COV = [[1.1, 0.3], [0.3, 0.8]]
    THETAS = [0.3, math.pi / 4.0, 1.0, 2.0, 3.0 * math.pi / 4.0]

    def density(self, ref, points=POINTS):
        return gaussian(ref, [0.2, -0.1], self.COV).to_grid(points=points)

    @staticmethod
    def sheared_lines(d, theta):
        """Every line, as one (n, n) array, with the weights and the
        fractional indices of the marginal on d.x.  Over the Gaussian
        reference each line is multiplied by gamma(s) at its nodes."""
        cos_a, sin_a = math.cos(theta), math.sin(theta)
        (along, h), (across, k) = d.axes
        lines = d.values.T
        if abs(cos_a) < abs(sin_a):
            (across, k), (along, h) = d.axes
            lines = d.values
            cos_a, sin_a = sin_a, cos_a
        if d.reference is GAM:
            lines = lines * np.exp(log_gaussian_weight(across[:, None] * cos_a - along * sin_a))
        return (lines, simpson_weights(across.size, k) / abs(cos_a),
                (d.x / cos_a - along[0]) / h, across * (sin_a / cos_a / h))

    @staticmethod
    def renormalized(d, vals):
        vals = np.maximum(vals, 0.0)
        return vals / integral(d.reference, vals, d.axes[0])

    @staticmethod
    def lattice(index0):
        a0 = index0.min() - LATTICE_MARGIN * LATTICE_STEP
        size = math.ceil((index0.max() - a0) / LATTICE_STEP) + LATTICE_MARGIN + 1
        return a0, size, round(1.0 / LATTICE_STEP)

    @staticmethod
    def taps(start):
        b = math.floor(start)
        u = start - b
        v = 1.0 - u
        return b, u, np.array([v * v * v, 4.0 - 3.0 * u * u * (2.0 - u),
                               4.0 - 3.0 * v * v * (2.0 - v), u * u * u]) / 6.0

    def resampled(self, d, total, index0, a0):
        """The cubic spline of the lattice sum total, evaluated at index0."""
        spline = ndimage.spline_filter1d(total, order=3, mode="constant")
        return self.renormalized(d, ndimage.map_coordinates(
            spline, [(index0 - a0) / LATTICE_STEP], order=3, mode="constant", cval=0.0,
            prefilter=False))

    def prefiltered_lines_marginal(self, d, theta):
        """The lattice algorithm on prefiltered lines, on the whole grid:
        line j's samples on the lattice points of one phase are a 4-tap
        filter of its mirrored coefficients, times its weight, and the cubic
        spline of their sum is evaluated at the output points."""
        lines, w, index0, shifts = self.sheared_lines(d, theta)
        coeffs = ndimage.spline_filter1d(lines, order=3, axis=-1, mode="constant")
        n = lines.shape[1]
        a0, size, phases = self.lattice(index0)
        total = np.zeros(size)
        for c, shift, wj in zip(coeffs, shifts, w):
            ext = np.concatenate([c[1:2], c, c[-2:-4:-1]])
            for p in range(phases):
                b, u, taps = self.taps(a0 + LATTICE_STEP * p - shift)
                lo = max(-b, 0)
                hi = min(n - 1 - b - (u > 0), len(range(p, size, phases)) - 1)
                if lo <= hi:
                    total[phases * lo + p:phases * hi + p + 1:phases] += \
                        wj * np.correlate(ext[b + lo:b + hi + 4], taps)
        return self.resampled(d, total, index0, a0)

    def lebesgue_lattice_marginal(self, d, theta):
        """The lattice algorithm of constant line weights on the whole grid:
        line j's samples on the lattice points of one phase are a 4-tap
        filter of its zero-extended values, the weight folded into the taps;
        each phase of their sum is prefiltered, and the cubic spline of the
        sum is evaluated at the output points, by the package's own prefilter
        and sampler (checked against ndimage in TestCubicSampling), so that
        the blockwise marginal must match it bit for bit."""
        lines, w, index0, shifts = self.sheared_lines(d, theta)
        n = lines.shape[1]
        a0, size, phases = self.lattice(index0)
        total = np.zeros(size)
        for line, shift, wj in zip(lines, shifts, w):
            ext = np.concatenate([np.zeros(3), line, np.zeros(3)])
            for p in range(phases):
                b, _, taps = self.taps(a0 + LATTICE_STEP * p - shift)
                lo = max(-2 - b, 0)
                hi = min(n - b, len(range(p, size, phases)) - 1)
                if lo <= hi:
                    total[phases * lo + p:phases * hi + p + 1:phases] += \
                        np.correlate(ext[b + lo + 2:b + hi + 6], taps * wj)
        for p in range(phases):
            total[p::phases] = quadrature_module.spline_coefficients(total[p::phases])
        return self.renormalized(d, quadrature_module.sample_coefficients(
            quadrature_module.spline_coefficients(total), [(index0 - a0) / LATTICE_STEP]))

    def per_point_marginal(self, d, theta):
        """The marginal as one 4-tap spline evaluation per output point of
        every line, each line sampled by its own map_coordinates."""
        lines, w, index0, shifts = self.sheared_lines(d, theta)
        coeffs = ndimage.spline_filter1d(lines, order=3, axis=-1, mode="constant")
        vals = np.zeros(d.x.size)
        for row, shift, wj in zip(coeffs, shifts, w):
            vals += wj * ndimage.map_coordinates(row, (index0 - shift)[None, :], order=3,
                                                 mode="constant", cval=0.0, prefilter=False)
        return self.renormalized(d, vals)

    @pytest.mark.parametrize("ref", [LEB, GAM])
    @pytest.mark.parametrize("theta", THETAS)
    def test_blocks_give_the_whole_grid_values(self, ref, theta):
        d = self.density(ref)
        np.testing.assert_array_equal(marginal(d, theta).values,
                                      self.lebesgue_lattice_marginal(d, theta))

    @pytest.mark.parametrize("points", [POINTS, DEFAULT_POINTS])
    @pytest.mark.parametrize("theta", THETAS)
    def test_lebesgue_sum_of_values_matches_the_prefiltered_lines(self, points, theta):
        """Prefiltering the lattice sum in place of each line changes the
        lines' splines only at their ends, where a line is zero-extended
        rather than mirrored: on this density, at most 1e-11 of the peak
        (measured <= 6.1e-15)."""
        d = self.density(LEB, points)
        want = self.prefiltered_lines_marginal(d, theta)
        assert np.max(np.abs(marginal(d, theta).values - want)) <= 1e-11 * want.max()

    @pytest.mark.parametrize("ref", [LEB, GAM])
    @pytest.mark.parametrize("theta", THETAS)
    def test_lattice_matches_the_per_point_sum(self, ref, theta):
        """Resampling the lattice sum moves the values by at most 1e-8 of
        the peak (measured <= 2e-9), and entropy and Fisher information by
        at most 1e-9 (measured <= 3.1e-11 and 1.4e-10).  Over the Gaussian
        reference the values are compared as densities of Lebesgue measure,
        times gamma: unweighted, the two paths miss the closed form by 19
        and 24 at x = 10, on a peak of 5.8e4."""
        d = self.density(ref)
        got = marginal(d, theta)
        want = GridDensity1D(ref, d.x, self.per_point_marginal(d, theta))
        weight = reference_weight(ref, d.x)
        scale = np.max(want.values * weight)
        assert np.max(np.abs(got.values - want.values) * weight) <= 1e-8 * scale
        assert abs(float(entropy(got)) - float(entropy(want))) <= 1e-9
        assert abs(float(fisher(got)) - float(fisher(want))) <= 1e-9

    @pytest.mark.parametrize("ref", [LEB, GAM])
    @pytest.mark.parametrize("theta", [0.0, math.pi / 2.0])
    def test_axis_marginal_is_the_simpson_sum(self, ref, theta, monkeypatch):
        """Nothing is prefiltered or sampled.  At pi/2, cos = 6e-17 moved the
        first node of the sampled path by ~6e-14 index units, off the grid in
        half of the lines: its Gaussian-reference edge value was 2e-9 of the
        peak short."""
        d = self.density(ref)
        (x, h), (y, k) = d.axes
        values, across = (d.values, (y, k)) if theta == 0.0 else (d.values.T, (x, h))
        w = simpson_weights(across[0].size, across[1]) * reference_weight(ref, across[0])
        expected = values @ w
        expected /= integral(ref, expected, d.axes[0])

        def unused(*args, **kwargs):
            raise AssertionError("an axis marginal prefiltered or sampled a line")
        monkeypatch.setattr(density_module, "spline_coefficients", unused)
        monkeypatch.setattr(density_module, "sheared_sum", unused)
        got = marginal(d, theta).values
        assert np.max(np.abs(got - expected)) <= 1e-14 * expected.max()


class TestMarginalBatch:
    """marginals computes several directions in one pass over the lines of
    each axis: the same values as one marginal call per direction."""

    POINTS = 513
    COV = [[1.1, 0.3], [0.3, 0.8]]
    DIRECTION_SETS = {
        # both sheared directions run along y
        "mercedes": mercedes_frame().thetas,
        # theta_2 = 0.615 runs along x, theta_3 = 1.846 along y
        "split weight triple": directions_from_weights(0.6, 0.5, 0.9).thetas,
        "young": (0.0, math.pi / 2.0, 3.0 * math.pi / 4.0),
    }

    def density(self, ref):
        return gaussian(ref, [0.2, -0.1], self.COV).to_grid(points=self.POINTS)

    @staticmethod
    def fresh(d):
        """A copy of d with no memo, so its marginals are computed anew."""
        return GridDensity2D(d.reference, d.x, d.y, d.values)

    @pytest.mark.parametrize("ref", [LEB, GAM])
    @pytest.mark.parametrize("name", sorted(DIRECTION_SETS))
    @pytest.mark.parametrize("x_out", [None, default_axis(length=7.0, points=301)],
                             ids=["nodes", "x_out"])
    def test_batch_equals_single_calls(self, ref, name, x_out):
        d = self.density(ref)
        thetas = self.DIRECTION_SETS[name]
        batch = marginals(d, thetas, x_out=x_out)
        assert len(batch) == len(thetas)
        for theta, got in zip(thetas, batch):
            want = marginal(self.fresh(d), theta, x_out=x_out)
            np.testing.assert_array_equal(got.x, want.x)
            np.testing.assert_array_equal(got.values, want.values)
            assert got.renormalization == want.renormalization

    def test_batch_fills_the_memo(self):
        d = self.density(LEB)
        thetas = self.DIRECTION_SETS["split weight triple"]
        first = marginal(d, thetas[1])
        batch = marginals(d, thetas + (thetas[1],))
        assert batch[1] is first and batch[3] is first
        assert all(marginal(d, theta) is m for theta, m in zip(thetas, batch))

    @pytest.mark.parametrize("ref", [LEB, GAM])
    def test_no_line_is_prefiltered(self, ref, monkeypatch):
        """In either reference, each sheared direction prefilters the two
        phases of its lattice sum and then the sum, three 1d arrays of at
        most 2 sqrt(2) n + 33 values, and no line; a repeated call
        prefilters nothing."""
        lines, sums = [], []
        prefilter = quadrature_module.spline_coefficients

        def counting(block):
            (lines if np.ndim(block) == 2 else sums).append(len(block))
            return prefilter(block)
        monkeypatch.setattr(quadrature_module, "spline_coefficients", counting)
        d = self.density(ref)
        for name in ("mercedes", "split weight triple"):
            sums.clear()
            marginals(self.fresh(d), self.DIRECTION_SETS[name])
            assert lines == [] and len(sums) == 3 * 2 and max(sums) <= 3 * self.POINTS
        marginals(d, self.DIRECTION_SETS["mercedes"])
        sums.clear()
        marginals(d, self.DIRECTION_SETS["mercedes"])
        assert sums == []

    def test_closed_form_and_errors(self):
        g = gaussian(LEB, [0.2, -0.3], [[2.0, 0.7], [0.7, 1.2]])
        for theta, m in zip((0.3, 1.9), marginals(g, (0.3, 1.9))):
            reference, mean, variance = closed_form_marginal_law(g, theta)
            assert (m.reference, float(m.mean[0]), float(m.covariance[0, 0])) == \
                (reference, mean, variance)
        with pytest.raises(ReferenceMismatch):
            marginals(gaussian(LEB, 0.0, 1.0).to_grid(points=129), (0.3,))
        with pytest.raises(ReferenceMismatch):
            marginals(g, (0.3,), x_out=default_axis(points=129))
        assert marginals(self.density(LEB), ()) == []


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

def _convolve_input(kind, u, n, h):
    """A Lebesgue density on n points of step h around 0, from draws u in
    [0, 1]: a Gaussian of variance 0.01 to 9, a two-component mixture, or
    a raw indicator.  Each Gaussian sits at least 8.5 sd inside the grid
    and spans 2 or more steps per sd.  An indicator spans 140 or more
    steps, so that its Simpson mass, off by up to 4/3 of a step, stays
    within the mass policy: n must be at least INDICATOR_POINTS."""
    half = h * (n - 1) / 2.0
    lo, hi = max(0.1, 2.0 * h), min(3.0, half / 8.5)

    def law(u_sd, u_mean):
        sd = lo * (hi / lo) ** u_sd
        return min(2.0, half - 8.5 * sd) * (2.0 * u_mean - 1.0), sd * sd

    if kind == "gaussian":
        return gaussian(LEB, *law(u[0], u[1])).to_grid(half, n)
    if kind == "mixture":
        (m1, v1), (m2, v2) = law(u[0], u[1]), law(u[2], u[3])
        w = 0.2 + 0.6 * u[4]
        return gaussian_mixture(LEB, [w, 1.0 - w], [m1, m2], [v1, v2], half, n)
    width = 140.0 * h + (1.9 * half - 140.0 * h) * u[0]
    a = -0.95 * half + (1.9 * half - width) * u[1]
    return uniform_density(a, a + width, smoothing=0.0, length=half, points=n)


INDICATOR_POINTS = 149

CONVOLVE_INPUT = st.tuples(st.sampled_from(["gaussian", "mixture", "indicator"]),
                           st.tuples(*[st.floats(0.0, 1.0)] * 5))


class TestConvolve:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(counts=st.tuples(st.integers(32, 1024), st.integers(32, 1024)),
           u_step=st.floats(0.0, 1.0), f_draw=CONVOLVE_INPUT, g_draw=CONVOLVE_INPUT)
    @example(counts=(1024, 256), u_step=0.3, f_draw=("gaussian", (1.0, 0.5, 0, 0, 0)),
             g_draw=("mixture", (0.0, 0.2, 1.0, 0.9, 0.5)))
    @example(counts=(256, 1024), u_step=0.0, f_draw=("indicator", (0.5, 0.5, 0, 0, 0)),
             g_draw=("gaussian", (0.0, 0.5, 0, 0, 0)))
    def test_is_the_direct_sum(self, counts, u_step, f_draw, g_draw):
        """The FFT product is the direct discrete convolution times the step
        (np.convolve), within 1e-14 of the peak, for node counts 65 to 2049
        on one shared step, Gaussians, mixtures and raw indicators."""
        nf, ng = (2 * k + 1 for k in counts)
        assume(all(n >= INDICATOR_POINTS for (kind, _), n in ((f_draw, nf), (g_draw, ng))
                   if kind == "indicator"))
        h_min = 1.7 / (min(nf, ng) - 1)
        h = h_min + (0.05 - h_min) * u_step
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RenormalizationWarning)
            f, g = _convolve_input(*f_draw, nf, h), _convolve_input(*g_draw, ng, h)
            c = convolve(f, g)
        want = np.convolve(f.values, g.values) * f.h * c.renormalization
        np.testing.assert_allclose(c.values, want, rtol=0.0, atol=1e-14 * want.max())

    def test_fft_lengths_are_scipy_next_fast_len(self):
        """next_fast_len is the least 5-smooth length, as scipy.fft's is
        for real transforms."""
        from scipy import fft
        targets = list(range(1, 5000)) + [2 ** 20 + 1, 3 ** 12 + 1, 5 ** 8 + 1, 10 ** 7 + 1]
        assert [quadrature_module.next_fast_len(t) for t in targets] \
            == [fft.next_fast_len(t, real=True) for t in targets]

    def test_gaussian_convolution_closed_form(self):
        g = gaussian(LEB, 0.5, 1.0).to_grid()
        h = gaussian(LEB, -0.2, 2.0).to_grid()
        c = convolve(g, h)
        np.testing.assert_allclose(
            c.values, lebesgue_gaussian_values(c.x, 0.3, 3.0), atol=1e-9)

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
        """The functional int f log f drops by log|a| under dilation by a,
        on a grid and in closed form."""
        closed = gaussian(LEB, 0.0, 1.0)
        for d in (closed.to_grid(), closed):
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


class TestLinearCombination:
    POINTS = 513

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

    @pytest.mark.parametrize("theta", [0.3, 1.3, 1.9, 2.4],
                             ids=["shallow", "steep", "steep-negative", "shallow-negative"])
    def test_is_the_marginal_of_the_product(self, theta):
        """cos(theta) X + sin(theta) Y has the density of the marginal of
        f(x) g(y) along theta: the same sheared line integral."""
        f = gaussian_mixture(LEB, [0.3, 0.7], [-1.0, 0.8], [0.4, 1.1], points=self.POINTS)
        g = gaussian_mixture(LEB, [0.5, 0.5], [-0.5, 1.5], [1.3, 0.6], points=self.POINTS)
        combined = linear_combination(f, g, math.cos(theta), math.sin(theta))
        m = marginal(independent_product(f, g), theta, x_out=combined.x)
        peak = float(combined.values.max())
        np.testing.assert_allclose(m.values, combined.values, rtol=0.0, atol=1e-12 * peak)

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(means=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
           variances=st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
           a=st.floats(0.3, 1.5), log_ratio=st.floats(-3.0, 0.0),
           signs=st.tuples(st.sampled_from([-1.0, 1.0]), st.sampled_from([-1.0, 1.0])),
           swap=st.booleans())
    def test_random_gaussians(self, means, variances, a, log_ratio, signs, swap):
        """aX + bY ~ N(a m1 + b m2, a^2 v1 + b^2 v2), with |b/a| down to 1e-3."""
        a, b = signs[0] * a, signs[1] * a * 10.0 ** log_ratio
        if swap:
            a, b = b, a
        (m1, m2), (v1, v2) = means, variances
        d = linear_combination(gaussian(LEB, m1, v1).to_grid(points=self.POINTS),
                               gaussian(LEB, m2, v2).to_grid(points=self.POINTS), a, b)
        want = gaussian(LEB, a * m1 + b * m2, a * a * v1 + b * b * v2)
        # measured up to 6.1e-8 of the peak and 2.3e-9 in entropy on 200 draws
        np.testing.assert_allclose(d.values, want.pdf(d.x), rtol=0.0,
                                   atol=1e-6 * float(d.values.max()))
        assert abs(float(entropy(d)) - float(entropy(want))) <= 1e-7


class TestShiftedCopies:
    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(points=st.tuples(st.sampled_from([129, 257, 513]), st.sampled_from([129, 257, 513])),
           lengths=st.tuples(st.floats(4.0, 12.0), st.floats(4.0, 12.0)),
           offset=st.floats(-2.0, 2.0), log_ratio=st.floats(-3.0, 0.0),
           negative=st.booleans(), bumps=st.tuples(st.floats(-1.5, 1.5), st.floats(0.2, 2.0)))
    def test_is_the_sheared_sum_of_copies(self, points, lengths, offset, log_ratio,
                                          negative, bumps):
        """shifted_copies gives sheared_sum over zero-copy broadcast copies of
        the line, within 1e-13 of the peak (summation order only), for |b/a|
        from 1 down to 1e-3, both signs, f and g on different grids."""
        (nf, ng), (lf, lg), (mean, var) = points, lengths, bumps
        xf = np.linspace(-lf, lf, nf)
        xg = np.linspace(offset - lg, offset + lg, ng)
        hf, hg = validate_axis(xf), validate_axis(xg)
        f = np.exp(-0.5 * (xf - mean) ** 2 / var) + 0.3 * np.exp(-2.0 * (xf + 1.0) ** 2)
        ratio = -(10.0 ** log_ratio) if negative else 10.0 ** log_ratio
        t = np.linspace(-lf - lg * abs(ratio), lf + lg * abs(ratio), nf + ng - 1) + ratio * offset
        terms = (quadrature_module.grid_index(t, xf[0], hf), xg * (ratio / hf),
                 simpson_weights(ng, hg) * np.exp(-0.5 * (xg - offset) ** 2))
        want, = quadrature_module.sheared_sum(np.broadcast_to(f, (ng, nf)), [terms])
        got = quadrature_module.shifted_copies(f, *terms)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(n=st.integers(0, 2100), width=st.integers(1, 40000), seed=st.integers(0, 2 ** 32 - 1))
@example(n=2049, width=2049, seed=0)
@example(n=2049, width=64, seed=1)
@example(n=3, width=40000, seed=2)
def test_affine_sums_call_whole_rows_in_order(n, width, seed):
    """affine_sums calls f on whole rows of the point set c x_i + s y_k, in
    order, each row exactly once, with at most max(y.size, CALL_POINTS)
    points per call, and each of its sums is, bit for bit, that row's own
    contraction with w.  (One einsum over several rows wider than 8192
    rounds differently, so the sums are held to the rows' own, which every
    block of affine_sums gives: it has at most CALL_POINTS points or one
    row.)"""
    assume(n * width <= 5_000_000)
    rng = np.random.default_rng(seed)
    x, y, w = rng.standard_normal(n), rng.standard_normal(width), rng.standard_normal(width)
    c, s = rng.standard_normal(2)
    calls = []

    def f(points):
        calls.append(points.copy())
        return np.sin(points)
    got = quadrature_module.affine_sums(f, x, c, y, s, w)
    limit = max(width, quadrature_module.CALL_POINTS)
    assert all(p.ndim == 2 and p.shape[1] == width and 1 <= p.size <= limit for p in calls)
    rows = np.concatenate(calls) if calls else np.empty((0, width))
    np.testing.assert_array_equal(rows, c * x[:, None] + s * y)
    np.testing.assert_array_equal(got, [contract(np.sin(row), w) for row in rows])


def test_sheared_sum_scales_only_the_sums_with_node_weights():
    """In one call, a sum with node weights reads the lines times them and a
    sum without reads the lines as they are, in any order: each gives, bit
    for bit, the sum without node weights of the lines it reads."""
    rng = np.random.default_rng(7)
    count, n = 150, 129
    lines = rng.random((count, n))
    nodes = rng.random((count, n))
    plain = (np.linspace(-10.0, n + 10.0, 301), rng.uniform(-20.0, 20.0, count),
             rng.random(count))
    scaled = (*plain[:2], rng.random(count), lambda rows: nodes[rows])
    got = quadrature_module.sheared_sum(lines, [plain, scaled, plain])
    want_plain, = quadrature_module.sheared_sum(lines, [plain])
    want_scaled, = quadrature_module.sheared_sum(lines * nodes, [scaled[:3]])
    for values, want in zip(got, (want_plain, want_scaled, want_plain)):
        np.testing.assert_array_equal(values, want)


# === closed-form Gaussians through the operations ========================

F2 = gaussian(LEB, [0.4, -0.3], [[2.0, 0.6], [0.6, 1.1]])
F2_GAM = gaussian(GAM, [0.4, -0.3], [[0.8, 0.1], [0.1, 0.6]])
F1 = gaussian(LEB, 0.2, 1.3)
G1 = gaussian(LEB, -0.5, 0.7)
F1_GAM = gaussian(GAM, 0.2, 1.3)
F1_GRID = F1.to_grid(points=129)


# operation: (call, its exact (reference, mean, variance), the error each
# rejected call must raise)
CLOSED_FORM_OPERATIONS = {
    "marginal": (
        lambda: marginal(F2, 1.1), closed_form_marginal_law(F2, 1.1),
        [(ReferenceMismatch, lambda: marginal(F1, 1.1)),
         (ReferenceMismatch, lambda: marginal(F2, 1.1, x_out=default_axis(points=129)))]),
    "marginal-gamma": (
        lambda: marginal(F2_GAM, 2.5), closed_form_marginal_law(F2_GAM, 2.5),
        [(ReferenceMismatch, lambda: marginal(F1_GAM, 2.5))]),
    "linear_combination": (
        lambda: linear_combination(F1, G1, 0.3, -1.4),
        (LEB, 0.3 * 0.2 + -1.4 * -0.5, 0.3 * 0.3 * 1.3 + -1.4 * -1.4 * 0.7),
        [(ReferenceMismatch, lambda: linear_combination(F1, F2, 0.3, -1.4)),
         (ReferenceMismatch, lambda: linear_combination(F1_GAM, G1, 0.3, -1.4)),
         (ReferenceMismatch, lambda: linear_combination(F1, F1_GRID, 0.3, -1.4)),
         (ReferenceMismatch, lambda: linear_combination(F1_GRID, F1, 0.3, -1.4)),
         (ZeroScale, lambda: linear_combination(F1, G1, 0.3, 0.0))]),
    "convolve": (
        lambda: convolve(F1, G1), (LEB, 0.2 + -0.5, 1.3 + 0.7),
        [(ReferenceMismatch, lambda: convolve(F2, G1)),
         (ReferenceMismatch, lambda: convolve(F1, F1_GAM)),
         (ReferenceMismatch, lambda: convolve(F1, F1_GRID)),
         (ReferenceMismatch, lambda: convolve(F1_GRID, F1))]),
    "scale1d": (
        lambda: scale1d(F1, -1.7), (LEB, -1.7 * 0.2, -1.7 * -1.7 * 1.3),
        [(ReferenceMismatch, lambda: scale1d(F2, -1.7)),
         (ReferenceMismatch, lambda: scale1d(F1_GAM, -1.7)),
         (ZeroScale, lambda: scale1d(F1, 0.0))]),
}


class TestClosedFormOperations:
    @pytest.mark.parametrize("name", sorted(CLOSED_FORM_OPERATIONS))
    def test_exact_law_and_input_rules(self, name):
        """A Gaussian's image is the hand-written Gaussian, bit for bit, on
        the input's reference.  ReferenceMismatch rejects a 1d Gaussian in
        marginal, a 2d or gamma-reference one in a 1d operation, and a
        Gaussian paired with a grid density; ZeroScale a zero coefficient."""
        call, (reference, mean, variance), rejected = CLOSED_FORM_OPERATIONS[name]
        d = call()
        assert isinstance(d, GaussianDensity)
        assert d.reference is reference
        assert d.mean.tolist() == [mean]
        assert d.covariance.tolist() == [[variance]]
        for error, bad in rejected:
            with pytest.raises(error):
                bad()


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
