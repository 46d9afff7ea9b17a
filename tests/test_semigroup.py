"""Heat and Ornstein-Uhlenbeck flows, the Mehler operator, and flow
diagnostics, checked against Gaussian closed forms.

Grid-path comparisons against closed forms are made either in the bulk
window |x| <= 4 (relative error) or weighted by the standard Gaussian
density: exponential-family values grow like e^{a x} toward the grid edge,
where an absolute sup norm measures nothing useful.
"""

import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from scipy import ndimage

import entroframe
from entroframe import (
    ExpFunction,
    GridDensity1D,
    GridFunction1D,
    Reference,
    default_axis,
    entropy,
    gaussian,
    gaussian_mixture,
    independent_product,
)
from entroframe import quadrature, semigroup
from entroframe.errors import GridError, InvalidFlowTime, ReferenceMismatch
from entroframe.quadrature import (contract, gauss_hermite,
                                   sample_coefficients, simpson_weights,
                                   spline_band)
from entroframe.semigroup import (MIN_BLUR_STEPS, _blur_kernel,
                                  de_bruijn_check, heat_flow, hermite_p_theta,
                                  ou_flow, stability_check)

try:
    import resource
except ImportError:  # not on every platform
    resource = None

LEB = Reference.LEBESGUE
GAM = Reference.GAUSSIAN


def dilated_end_loss(end, t):
    """Mass per unit end value that heat flow for time t carries past the
    end sqrt(1 + 2t) |end| of the dilated axis from a constant density on
    the near side of end: sqrt(2t) [phi(k) - k Q(k)], with
    k = (sqrt(1 + 2t) - 1) |end| / sqrt(2t) and Q the normal upper tail."""
    a = math.sqrt(2.0 * t)
    k = (math.sqrt(1.0 + 2.0 * t) - 1.0) * abs(end) / a
    phi = math.exp(-0.5 * k * k) / math.sqrt(2.0 * math.pi)
    return a * (phi - k * 0.5 * math.erfc(k / math.sqrt(2.0)))


def gamma_weighted_gap(grid, closed):
    """sup of |grid - closed| against the standard Gaussian weight."""
    w = np.exp(-0.5 * grid.x ** 2) / math.sqrt(2.0 * math.pi)
    return float(np.max(np.abs(grid.values - closed.pdf(grid.x)) * w))


# === flow time ============================================================

class TestFlowTime:
    """A flow time is a float, checked by every entry point that takes one."""

    @staticmethod
    def grids():
        return (gaussian(LEB, [0.0, 0.0], np.eye(2)).to_grid(points=65),
                gaussian(GAM, [0.0, 0.0], np.eye(2)).to_grid(points=65))

    def test_accepts_nonnegative(self):
        """A zero time returns the input; a positive one flows it."""
        leb, gam = self.grids()
        for flow, f in ((heat_flow, leb), (ou_flow, gam)):
            closed = gaussian(f.reference, 0.5, 2.0)
            for d in (f, closed, closed.to_grid()):
                assert flow(d, 0.0) is d
                assert flow(d, 2.5) is not d
        assert heat_flow(gaussian(LEB, 0.5, 2.0), 2.5).covariance[0, 0] == 7.0

    def test_rejects_bad_times(self):
        leb, gam = self.grids()
        calls = (lambda t: heat_flow(leb, t), lambda t: ou_flow(gam, t),
                 lambda t: de_bruijn_check(gaussian(LEB, 0.0, 1.0), t),
                 lambda t: stability_check(leb, 0.3, t))
        for call in calls:
            for t in (-0.1, math.inf, math.nan):
                with pytest.raises(InvalidFlowTime, match="flow time must be finite"):
                    call(t)

    def test_theta_round_trip(self):
        """check_integrated_lsi flows for t = -log cos theta: its lhs is the
        entropy of that OU flow, bit for bit."""
        f = gaussian_mixture(GAM, [0.4, 0.6], [-0.5, 0.7], [0.8, 1.2], points=513)
        for theta in (0.0, 0.3, 1.2):
            report = entroframe.check_integrated_lsi(f, theta)
            assert report.lhs == entroframe.entropy(ou_flow(f, -math.log(math.cos(theta))))

    def test_from_theta_range(self):
        """check_integrated_lsi refuses theta outside [0, pi/2)."""
        f = gaussian(GAM, 0.0, 1.0)
        for theta in (-0.1, math.pi / 2.0, 2.0):
            with pytest.raises(InvalidFlowTime, match="theta must lie in"):
                entroframe.check_integrated_lsi(f, theta)


# === heat flow ============================================================

class TestHeatFlow:
    def test_closed_form_variance_growth(self):
        """Covariance grows by 2t per axis; the mean is unchanged."""
        d = heat_flow(gaussian(LEB, 0.4, 1.2), 0.3)
        np.testing.assert_allclose(d.mean, [0.4], rtol=1e-15)
        np.testing.assert_allclose(d.covariance, [[1.8]], rtol=1e-15)

        cov = np.array([[1.5, 0.3], [0.3, 0.9]])
        d2 = heat_flow(gaussian(LEB, [0.0, 0.0], cov), 0.25)
        np.testing.assert_allclose(d2.covariance, cov + 0.5 * np.eye(2),
                                   rtol=1e-15)

    def test_grid_matches_closed_form(self):
        g = heat_flow(gaussian(LEB, 0.0, 1.0).to_grid(), 0.3)
        want = gaussian(LEB, 0.0, 1.6)
        np.testing.assert_allclose(g.values, want.pdf(g.x), atol=1e-12)

    def test_grid_axis_is_dilated(self):
        """The output keeps the input's n nodes on the axis sqrt(1 + 2t) x,
        and its mass."""
        base = gaussian(LEB, 0.0, 1.0).to_grid()
        flowed = heat_flow(base, 0.25)
        np.testing.assert_array_equal(flowed.x, math.sqrt(1.5) * base.x)
        np.testing.assert_allclose(flowed.mass(), 1.0, rtol=0.0, atol=1e-10)

    def test_time_zero_is_identity(self):
        base = gaussian(LEB, 0.0, 1.0).to_grid()
        assert heat_flow(base, 0.0) is base

    @pytest.mark.parametrize("points", [513, 2049])
    @pytest.mark.parametrize("t", [1e-6, 1e-5])
    @pytest.mark.parametrize("mean, cov, bound", [
        (0.2, 1.0, 1e-9),
        ([0.3, -0.2], [[1.0, 0.2], [0.2, 1.0]], 1e-7),
    ], ids=["1d", "2d"])
    def test_small_time_quadrature_keeps_axis(self, points, t, mean, cov, bound):
        """A blur below MIN_BLUR_STEPS grid steps is the Gauss-Hermite sum on
        the input's nodes, dilated by sqrt(1 + 2t): the entropy grows by t
        per axis, as in closed form, where the sampled kernel (a near delta)
        gave the input back."""
        g = gaussian(LEB, mean, cov)
        base = g.to_grid(points=points)
        assert math.sqrt(2.0 * t) < MIN_BLUR_STEPS * base.axes[0][1]
        flowed = heat_flow(base, t)
        for (x, _), (x0, _) in zip(flowed.axes, base.axes):
            np.testing.assert_array_equal(x, math.sqrt(1.0 + 2.0 * t) * x0)
        assert abs(entropy(flowed) - entropy(heat_flow(g, t))) <= bound

    @pytest.mark.parametrize("t, loss", [
        (1e-6, lambda h, t: h / 6.0),
        (2e-4, lambda h, t: dilated_end_loss(2.0, t)),
    ])
    def test_small_time_edge_mass_leaves_the_grid(self, t, loss):
        """The spline is zero off the grid, so a density that is not
        negligible at the ends loses mass there: the end values halve at
        once, h f(end) / 6 per end, and as the blur widens the dilated
        domain keeps only part of what the kernel carries past an end.
        The renormalization is kept."""
        x = np.linspace(-2.0, 2.0, 513)
        values = np.exp(-0.5 * x * x)
        f = GridDensity1D(LEB, x, values / GridDensity1D(LEB, x, values).mass(),
                          renormalization=0.5)
        h = f.axes[0][1]
        assert math.sqrt(2.0 * t) < MIN_BLUR_STEPS * h
        flowed = heat_flow(f, t)
        assert flowed.renormalization == 0.5
        np.testing.assert_allclose(1.0 - flowed.mass(), 2.0 * f.values[0] * loss(h, t),
                                   rtol=0.02)

    def test_semigroup_property(self):
        """Two short steps equal one long step (closed form)."""
        d = gaussian(LEB, 0.0, 1.0)
        two = heat_flow(heat_flow(d, 0.2), 0.3)
        one = heat_flow(d, 0.5)
        np.testing.assert_allclose(two.covariance, one.covariance, rtol=1e-15)

    def test_gamma_reference_rejected(self):
        with pytest.raises(ReferenceMismatch):
            heat_flow(gaussian(GAM, 0.0, 1.0), 0.1)


# === OU flow ==============================================================

class TestOUFlow:
    def test_closed_form_interpolates_to_gamma(self):
        """Mean contracts by e^{-t}; covariance by c^2 Sigma + (1-c^2) I."""
        t = 0.4
        c = math.exp(-t)
        d = ou_flow(gaussian(GAM, 0.8, 1.0), t)
        np.testing.assert_allclose(d.mean, [0.8 * c], rtol=1e-15)
        np.testing.assert_allclose(d.covariance, [[1.0]], atol=1e-15)

        d2 = ou_flow(gaussian(GAM, 0.0, 2.0), t)
        np.testing.assert_allclose(d2.covariance,
                                   [[c * c * 2.0 + (1.0 - c * c)]], rtol=1e-15)

    def test_grid_matches_closed_form(self):
        base = gaussian(GAM, 0.8, 1.0)
        got = ou_flow(base.to_grid(), 0.4)
        want = ou_flow(base, 0.4)
        assert gamma_weighted_gap(got, want) <= 1e-10

    def test_small_time_quadrature_fallback(self):
        """Blur below grid resolution switches to the Mehler integral."""
        base = gaussian(GAM, 0.8, 1.0)
        got = ou_flow(base.to_grid(), 5e-4)
        want = ou_flow(base, 5e-4)
        assert gamma_weighted_gap(got, want) <= 1e-10

    def test_long_time_converges_to_constant_one(self):
        d = ou_flow(gaussian(GAM, 0.8, 1.0).to_grid(), 50.0)
        np.testing.assert_allclose(d.values, 1.0, atol=1e-10)

    def test_axis_is_preserved(self):
        base = gaussian(GAM, 0.0, 1.5).to_grid()
        flowed = ou_flow(base, 0.3)
        np.testing.assert_allclose(flowed.x, base.x, atol=0.0)

    def test_lebesgue_reference_rejected(self):
        with pytest.raises(ReferenceMismatch):
            ou_flow(gaussian(LEB, 0.0, 1.0), 0.1)


# === per-axis operators ===================================================

def spline_at(coeffs, indices):
    """The 2d cubic spline of prefiltered coeffs at indices, zero off the grid."""
    return ndimage.map_coordinates(coeffs, indices, order=3, mode="constant", cval=0.0,
                                   prefilter=False)


def direct_ou_2d(f, t, rows):
    """Rows x[rows] of the OU-flowed values of f by 2d spline evaluation.

    The direct 2d route the per-axis flow must reproduce: at least
    MIN_BLUR_STEPS grid steps of blur convolves both axes, prefilters in 2d
    and samples the dilated meshgrid; below that, the 64 x 64 tensorized
    Gauss-Hermite sum against the 2d spline.
    """
    c = math.exp(-t)
    a = math.sqrt(1.0 - c * c)
    if a < MIN_BLUR_STEPS * min(f.hx, f.hy):
        z, w = gauss_hermite()
        coeffs = ndimage.spline_filter(f.values, order=3, mode="constant")
        x = f.x[rows]
        out = np.zeros((x.size, f.y.size))
        py = (c * f.y[:, None] + a * z[None, :] - f.y[0]) / f.hy
        for k in range(z.size):
            px = (c * x + a * z[k] - f.x[0]) / f.hx
            ix = np.broadcast_to(px[:, None, None], (x.size,) + py.shape)
            iy = np.broadcast_to(py[None, :, :], ix.shape)
            vals = spline_at(coeffs, [ix.ravel(), iy.ravel()]).reshape(ix.shape)
            out += w[k] * (vals @ w)
        return np.maximum(out, 0.0)
    wx, rx = _blur_kernel(a, f.hx)
    wy, ry = _blur_kernel(a, f.hy)
    # direct sums, so the oracle shares no FFT rounding with the flow
    blurred = np.apply_along_axis(np.convolve, 0, f.values, wx)
    blurred = np.apply_along_axis(np.convolve, 1, blurred, wy)
    ix = (c * f.x[rows] - (f.x[0] - rx * f.hx)) / f.hx
    iy = (c * f.y - (f.y[0] - ry * f.hy)) / f.hy
    IX, IY = np.meshgrid(ix, iy, indexing="ij")
    vals = spline_at(ndimage.spline_filter(blurred, order=3, mode="constant"),
                     [IX.ravel(), IY.ravel()])
    return np.maximum(vals.reshape(IX.shape), 0.0)


def band_matrix(lo, band, n):
    """The dense (m, n) matrix whose row i holds band[i] from column lo[i]."""
    m, width = band.shape
    dense = np.zeros((m, n))
    dense[np.arange(m)[:, None], lo[:, None] + np.arange(width)] = band
    return dense


class TestSplineBand:
    N = 40

    def indices(self):
        rng = np.random.default_rng(7)
        n = self.N
        edges = [0.0, 1e-13, 0.5, 1.0, n - 2.0, n - 1.5, n - 1.0 - 1e-13, n - 1.0]
        outside = [-1e-15, -0.5, -3.0, n - 1.0 + 1e-13, n - 0.5, n + 2.5]
        return np.concatenate([rng.uniform(-2.0, n + 1.0, 200), edges, outside])

    def test_matches_sample_coefficients(self):
        """Row i, laid out densely, is the spline of every unit coefficient
        vector at index i: the band folds the taps past an end onto the
        mirrored columns, so it lies within the n columns, and the rows of
        the points outside the grid are 0."""
        index = self.indices()
        dense = np.stack([sample_coefficients(e, [index]) for e in np.eye(self.N)], axis=1)
        lo, band = spline_band(index[:, None], [1.0], self.N)
        assert lo.min() >= 0 and lo.max() + band.shape[1] <= self.N
        got = band_matrix(lo, band, self.N)
        np.testing.assert_allclose(got, dense, rtol=0.0, atol=1e-15)
        assert not got[-6:].any()

    def test_weighted_rows_sum_nodes(self):
        """Applied to a block of lines by semigroup._BandRead, a row is the
        weighted sum of the lines' splines at its nodes."""
        rng = np.random.default_rng(8)
        index = self.indices().reshape(-1, 2)
        weights = np.array([0.3, 0.7])
        coeffs = rng.normal(size=(3, self.N))
        want = np.stack([sample_coefficients(line, [index.ravel()]).reshape(index.shape)
                         @ weights for line in coeffs])
        lo, band = spline_band(index, weights, self.N)
        np.testing.assert_allclose(band_matrix(lo, band, self.N) @ coeffs.T, want.T,
                                   rtol=0.0, atol=1e-14)
        got = np.empty(want.shape)
        semigroup._BandRead(lo, band)(coeffs, got)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("own", [False, True])
    def test_band_down_prefilters_the_columns(self, own):
        """semigroup._band_down applies the band along axis 0 to the splines
        of the columns: the dense band times their ndimage coefficients,
        whether it prefilters a frozen array into a new one or, on an array
        a pass owns, in place."""
        rng = np.random.default_rng(9)
        n = 65
        z, w = gauss_hermite()
        index = (0.9 * np.arange(n))[:, None] + 0.3 * z
        lo, band = spline_band(index, w, n)
        values = rng.normal(size=(n, 7))
        want = band_matrix(lo, band, n) @ ndimage.spline_filter1d(values, order=3, axis=0,
                                                                  mode="constant")
        given = values.copy()
        given.flags.writeable = own
        got = semigroup._band_down(given, lo, band)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14 * np.abs(want).max())
        assert got.T.flags.c_contiguous


class TestTensorProductFlows:
    """2d flows are the per-axis 1d flows, one axis after the other."""

    @pytest.mark.parametrize("t", [1e-5, 0.5])
    def test_ou_on_product_is_product_of_1d_flows(self, t):
        f = gaussian(GAM, 0.3, 1.2).to_grid(points=513)
        g = gaussian(GAM, -0.4, 0.8).to_grid(points=513)
        both = ou_flow(independent_product(f, g), t)
        want = np.outer(ou_flow(f, t).values, ou_flow(g, t).values)
        np.testing.assert_allclose(both.values, want, rtol=1e-12,
                                   atol=1e-14 * want.max())

    @pytest.mark.parametrize("t, g_axis", [
        (1e-5, (513, 10.0)), (0.5, (513, 10.0)), (50.0, (513, 10.0)), (0.5, (257, 8.0)),
    ], ids=["1e-05", "0.5", "50.0", "0.5-non-square"])
    def test_heat_on_product_is_product_of_1d_flows(self, t, g_axis):
        """At t = 50 the dilated read passes the grown axis's ends, where the
        2d blur's circular prefilter and the 1d line's spline_filter1d differ.
        A 2d blur takes one FFT round trip that treats x and y differently,
        so g also lies on 257 nodes of [-8, 8], where swapped axes show."""
        points, half = g_axis
        f = gaussian(LEB, 0.3, 1.2).to_grid(points=513)
        g = gaussian(LEB, -0.4, 0.8).to_grid(half, points)
        both = heat_flow(independent_product(f, g), t)
        ff, gg = heat_flow(f, t), heat_flow(g, t)
        np.testing.assert_array_equal(both.x, ff.x)
        np.testing.assert_array_equal(both.y, gg.x)
        want = np.outer(ff.values, gg.values)
        np.testing.assert_allclose(both.values, want, rtol=0.0, atol=1e-14 * want.max())

    @pytest.mark.parametrize("t", [0.1, 5.0, 50.0])
    def test_round_trip_is_one_pass_per_axis_on_a_correlated_density(self, t):
        """The round trip is _gauss_rows along x and then along y, to
        rounding, on a density that is not a product (1.6e-15 of the peak
        measured at t = 50)."""
        f = gaussian(LEB, [0.3, -0.2], [[1.1, 0.3], [0.3, 0.8]]).to_grid(points=513)
        (x, hx), (y, hy) = f.axes
        c, a = math.sqrt(1.0 + 2.0 * t), math.sqrt(2.0 * t)
        want = semigroup._gauss_rows(semigroup._gauss_rows(f.values.T, x, hx, c, a),
                                     y, hy, c, a).T
        got = semigroup._blur_round_trip(f.values, f.axes, c, a)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14 * want.max())

    @pytest.mark.parametrize("t", [1e-5, 0.5])
    def test_ou_matches_direct_2d_evaluation(self, t):
        """Both branches agree with 2d spline evaluation at n = 129: t = 1e-5
        is far below MIN_BLUR_STEPS grid steps of blur, t = 0.5 above.  The
        blur path's FFT rounds by about eps * max|line| on each line, which
        is 8e-14 of the peak here against the directly summed oracle."""
        cov = np.array([[1.1, 0.3], [0.3, 0.8]])
        f = gaussian(GAM, [0.3, -0.2], cov).to_grid(points=129)
        rows = np.arange(0, 129, 16)
        want = direct_ou_2d(f, t, rows)
        got = ou_flow(f, t).values[rows]
        tol = {1e-5: 1e-14, 0.5: 2e-13}[t]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=tol * want.max())

    @pytest.mark.xfail(strict=True, reason=(
        "FFT rounding in semigroup._line_blur spreads eps * max|line| over "
        "each line of a block; at the grid edge a Gaussian-reference line of "
        "variance 2 peaks near e^25, so the 2d entropy error is 1.5e-6 where "
        "the 1d flow, one line summed directly, gives 2.4e-8"))
    def test_ou_2d_wide_gaussian_entropy(self):
        g = gaussian(GAM, [0.3, -0.2], [[2.0, 0.1], [0.1, 2.0]])
        flowed = ou_flow(g.to_grid(points=513), 0.1)
        assert abs(entropy(flowed) - entropy(ou_flow(g, 0.1))) <= 1e-7

    def test_ou_2d_keeps_one_pass_per_axis(self):
        """The strict xfail's input, held to the accuracy that per-line
        passes give (-1.5e-6): a transform that mixes all rows of a
        Gaussian-reference density rounds at eps times its corner value,
        and put through heat flow's round trip the error was +4.9e4."""
        g = gaussian(GAM, [0.3, -0.2], [[2.0, 0.1], [0.1, 2.0]])
        flowed = ou_flow(g.to_grid(points=513), 0.1)
        assert abs(entropy(flowed) - entropy(ou_flow(g, 0.1))) <= 1e-5

    @pytest.mark.skipif(resource is None, reason="needs the resource module")
    @pytest.mark.parametrize("flow, reference, t", [
        ("ou_flow", "GAUSSIAN", 1e-5),
        ("heat_flow", "LEBESGUE", 100.0),
    ], ids=["ou-small-t", "heat-large-t"])
    def test_2d_flow_default_grid_fits_in_memory(self, flow, reference, t):
        """A 2d flow on the default grid, under a 2 GiB address-space cap,
        stays accurate and under 1 GB resident: OU on the Gauss-Hermite
        branch, and heat at t = 100, whose blur sqrt(2t) = 14 exceeds the
        grid's half-length."""
        script = textwrap.dedent(f"""
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
            from entroframe import Reference, entropy, gaussian
            from entroframe.density import DEFAULT_POINTS
            from entroframe.semigroup import {flow} as flow
            g = gaussian(Reference.{reference}, [0.3, -0.2], [[1.1, 0.3], [0.3, 0.8]])
            flowed = flow(g.to_grid(points=DEFAULT_POINTS), {t!r})
            err = float(entropy(flowed)) - float(entropy(flow(g, {t!r})))
            print(err, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(entroframe.__file__)))
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", script], env=env, timeout=120,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        err, maxrss = done.stdout.split()
        # ru_maxrss is in kilobytes on Linux and in bytes on macOS
        rss_bytes = int(maxrss) * (1 if sys.platform == "darwin" else 1024)
        assert abs(float(err)) <= 1e-7
        assert rss_bytes < 1e9


class TestGaussHermite:
    def test_memoized_read_only_and_exact(self):
        z, w = gauss_hermite()
        again = gauss_hermite(64)
        assert again[0] is z and again[1] is w
        assert not z.flags.writeable and not w.flags.writeable
        nodes, weights = np.polynomial.hermite.hermgauss(64)
        np.testing.assert_array_equal(z, nodes * np.sqrt(2.0))
        np.testing.assert_array_equal(w, weights / np.sqrt(np.pi))
        assert gauss_hermite(16)[0].size == 16


# === Mehler operator ======================================================

class TestHermitePTheta:
    def test_theta_zero_is_identity(self):
        f = ExpFunction(0.6)
        p = hermite_p_theta(f, 0.0)
        np.testing.assert_allclose(p.values, f(p.x), rtol=1e-12)

    def test_theta_right_angle_averages(self):
        """P_{pi/2} f is the constant int f dgamma."""
        p = hermite_p_theta(ExpFunction(0.6), math.pi / 2.0)
        np.testing.assert_allclose(p.values, math.exp(0.18), rtol=1e-14)

    def test_exponential_closed_form(self):
        """P_theta e^{at} = exp(a cos(theta) x + a^2 sin^2(theta)/2)."""
        a, theta = 0.9, 0.7
        p = hermite_p_theta(ExpFunction(a), theta)
        c, s = math.cos(theta), math.sin(theta)
        want = np.exp(a * c * p.x + a * a * s * s / 2.0)
        np.testing.assert_allclose(p.values, want, rtol=1e-12)

    @pytest.mark.parametrize("a, theta", [(0.9, 0.7), (-1.5, 0.2), (1.0, math.pi / 2.0)])
    def test_callable_blocks_match_one_block(self, monkeypatch, a, theta):
        """A callable evaluated by quadrature.affine_sums, 256 points of the
        default axis at a time, gives bit for bit the sum over the whole
        (n, 64) array of Gauss-Hermite samples."""
        blocked = hermite_p_theta(ExpFunction(a), theta).values
        monkeypatch.setattr(quadrature, "CALL_POINTS", default_axis().size * 64)
        np.testing.assert_array_equal(blocked, hermite_p_theta(ExpFunction(a), theta).values)

    def test_lone_line_blocks_match_one_block(self, monkeypatch):
        """The 1d OU flow at t = 1e-5, a Gauss-Hermite sum of the line's
        spline sampled by quadrature.affine_sums 256 nodes at a time, gives
        bit for bit the sum over the whole (n, 64) array of samples."""
        f = gaussian(GAM, 0.3, 1.4).to_grid()
        blocked = ou_flow(f, 1e-5).values
        monkeypatch.setattr(quadrature, "CALL_POINTS", f.x.size * 64)
        np.testing.assert_array_equal(blocked, ou_flow(f, 1e-5).values)

    def test_grid_density_input(self):
        """Sampling through the spline agrees with the closed form in the
        bulk; off-grid points read as zero, so the edges are excluded."""
        gd = gaussian(GAM, 0.5, 1.0).to_grid()
        p = hermite_p_theta(gd, 0.5)
        c, s = math.cos(0.5), math.sin(0.5)
        want = np.exp(0.5 * c * p.x + 0.25 * s * s / 2.0 - 0.125)
        bulk = np.abs(p.x) <= 4.0
        np.testing.assert_allclose(p.values[bulk], want[bulk], rtol=1e-10)

    def test_constant_is_fixed_point(self):
        ones = gaussian(GAM, 0.0, 1.0).to_grid()
        p = hermite_p_theta(ones, 0.9)
        bulk = np.abs(p.x) <= 5.0
        np.testing.assert_allclose(p.values[bulk], 1.0, atol=1e-12)

    def test_pairing_is_symmetric(self):
        """<P_theta e^{at}, e^{bt}>_gamma = e^{(a^2+b^2+2ab cos theta)/2},
        symmetric in a and b (reversibility in L^2(gamma))."""
        a, b, theta = 0.5, -0.3, 0.7
        x = default_axis()
        w = simpson_weights(x.size, x[1] - x[0]) \
            * np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        left = float(hermite_p_theta(ExpFunction(a), theta).values
                     * np.exp(b * x) @ w)
        right = float(hermite_p_theta(ExpFunction(b), theta).values
                      * np.exp(a * x) @ w)
        want = math.exp((a * a + b * b + 2.0 * a * b * math.cos(theta)) / 2.0)
        np.testing.assert_allclose(left, want, rtol=1e-10)
        np.testing.assert_allclose(right, want, rtol=1e-10)

    def test_grid_input_stays_on_its_axis(self):
        """A grid input is mapped on its own axis; another x= is refused."""
        gd = gaussian(GAM, 0.5, 1.0).to_grid(points=129)
        np.testing.assert_array_equal(hermite_p_theta(gd, 0.5, x=gd.x).x, gd.x)
        with pytest.raises(GridError):
            hermite_p_theta(gd, 0.5, x=np.linspace(-2.0, 2.0, 65))

    def test_invalid_theta_rejected(self):
        for theta in (-0.1, math.pi / 2.0 + 0.1):
            with pytest.raises(InvalidFlowTime):
                hermite_p_theta(ExpFunction(1.0), theta)

    def test_custom_axis_and_nodes(self):
        """The result lives on the given axis and is the 64-node
        Gauss-Hermite sum there, contracted by quadrature.contract."""
        x = np.linspace(-2.0, 2.0, 65)
        theta = 0.4
        p = hermite_p_theta(ExpFunction(0.3), theta, x=x)
        assert isinstance(p, GridFunction1D)
        np.testing.assert_array_equal(p.x, x)
        z, w = gauss_hermite(64)
        pts = math.cos(theta) * x[:, None] + math.sin(theta) * z[None, :]
        np.testing.assert_array_equal(p.values, contract(np.exp(0.3 * pts), w))


# === de Bruijn identity ===================================================

class TestDeBruijn:
    def test_heat_flow_residual_is_difference_error(self):
        """For closed-form Gaussians the residual is exactly the O(step^2)
        centered-difference error (step^2/6) |S'''| = (step^2/6) 8/(1+2t)^3."""
        d = gaussian(LEB, 0.0, 1.0)
        for t in (0.1, 0.5):
            got = de_bruijn_check(d, t, step=1e-3)
            pred = (1e-6 / 6.0) * 8.0 / (1.0 + 2.0 * t) ** 3
            np.testing.assert_allclose(got, pred, rtol=0.02)

    def test_small_time_grid_heat_flow(self):
        """Every flow of the difference is below MIN_BLUR_STEPS grid steps of
        blur, so each is the Gauss-Hermite sum on the input axis."""
        g = gaussian(LEB, 0.2, 1.0).to_grid(points=513)
        assert de_bruijn_check(g, 2e-5, step=1e-5) <= 1e-5

    def test_ou_flow_closed_form(self):
        got = de_bruijn_check(gaussian(GAM, 0.0, 2.0), 0.3, step=1e-3)
        assert got <= 1e-6

    def test_mixture_on_grid(self):
        mix = gaussian_mixture(LEB, [0.4, 0.6], [-1.0, 1.2], [0.7, 1.1])
        assert de_bruijn_check(mix, 0.1, step=1e-3) <= 1e-3

    def test_step_validation(self):
        d = gaussian(LEB, 0.0, 1.0)
        with pytest.raises(InvalidFlowTime):
            de_bruijn_check(d, 0.1, step=0.0)
        with pytest.raises(InvalidFlowTime):
            de_bruijn_check(d, 1e-4, step=1e-3)
        with pytest.raises(InvalidFlowTime, match="step=nan"):
            de_bruijn_check(d, 0.5, step=math.nan)


# === marginal/flow commutation ============================================

class TestStability:
    def test_flows_commute_with_marginals(self):
        cov = np.array([[1.3, 0.4], [0.4, 0.8]])
        d = gaussian(LEB, [0.0, 0.0], cov).to_grid()
        assert stability_check(d, 0.6, 0.25) <= 1e-6

    def test_requires_two_dimensional_grid(self):
        with pytest.raises(ReferenceMismatch):
            stability_check(gaussian(LEB, 0.0, 1.0).to_grid(), 0.0, 0.1)
