"""Entropy, Fisher information, and L^p norms against closed forms.

Conventions under test: S_mu(f) = int f log f dmu and
I_mu(f) = int |grad f|^2 / f dmu, with mu either Lebesgue or the standard
Gaussian measure.  Closed forms on GaussianDensity are the oracles for the
quadrature paths.
"""

import math
import warnings

import numpy as np
import pytest

from entroframe import (
    ExpFunction,
    GridDensity1D,
    GridDensity2D,
    GridFunction1D,
    Reference,
    default_axis,
    entropy,
    fisher,
    gaussian,
    heat_flow,
    lp_norm,
    marginal,
)
from entroframe import functional as functional_module
from entroframe.density import reference_weight
from entroframe.errors import (InvalidExponents, NonSmoothWarning,
                               ReferenceMismatch, RenormalizationWarning)
from entroframe.functional import FISHER_FLOOR, VALUE_FLOOR, _coarse_slice, xlogx
from entroframe.quadrature import contract, simpson_weights

LEB = Reference.LEBESGUE
GAM = Reference.GAUSSIAN


# === return types =========================================================

class TestReturnTypes:
    def test_entropy_and_fisher_return_floats(self):
        """Plain Python floats, closed form or quadrature, in both references."""
        for ref in (LEB, GAM):
            for d in (gaussian(ref, 0.3, 1.4),
                      gaussian(ref, [0.2, -0.1], [[1.1, 0.3], [0.3, 0.8]])):
                for f in (d, d.to_grid(points=129)):
                    assert type(entropy(f)) is float and type(fisher(f)) is float


# === entropy closed forms =================================================

class TestEntropyClosedForm:
    def test_lebesgue_gaussian(self):
        """S_leb(N(m, s^2)) = -(1/2) log(2 pi e s^2), mean-free."""
        for m, v in ((0.0, 1.0), (0.7, 1.0), (0.0, 2.5), (-1.2, 0.4)):
            want = -0.5 * math.log(2.0 * math.pi * math.e * v)
            np.testing.assert_allclose(float(entropy(gaussian(LEB, m, v))),
                                       want, rtol=1e-14)

    def test_standard_normal_constant(self):
        np.testing.assert_allclose(float(entropy(gaussian(LEB, 0.0, 1.0))),
                                   -1.4189385332046727, rtol=1e-15)

    def test_gamma_reference_variance_term(self):
        """S_gam(N(0, s^2)) = (s^2 - 1 - log s^2) / 2."""
        np.testing.assert_allclose(float(entropy(gaussian(GAM, 0.0, 2.0))),
                                   0.15342640972002736, rtol=1e-15)
        assert float(entropy(gaussian(GAM, 0.0, 1.0))) == 0.0

    def test_gamma_reference_mean_term(self):
        """S_gam(N(a, 1)) = a^2 / 2."""
        for a in (0.5, 1.0, 2.0):
            np.testing.assert_allclose(float(entropy(gaussian(GAM, a, 1.0))),
                                       a * a / 2.0, rtol=1e-14)

    def test_two_dimensional_lebesgue(self):
        cov = np.array([[2.0, 1.0], [1.0, 1.5]])
        want = -math.log(2.0 * math.pi * math.e) \
            - 0.5 * math.log(np.linalg.det(cov))
        got = float(entropy(gaussian(LEB, [0.3, -0.4], cov)))
        np.testing.assert_allclose(got, want, rtol=1e-14)


class TestEntropyQuadrature:
    def test_matches_closed_form_1d(self):
        for ref, m, v in ((LEB, 0.3, 1.4), (GAM, 0.0, 2.0), (GAM, 0.8, 1.0)):
            d = gaussian(ref, m, v)
            np.testing.assert_allclose(float(entropy(d.to_grid())),
                                       float(entropy(d)), atol=1e-9)

    def test_matches_closed_form_2d(self):
        d = gaussian(LEB, [0.0, 0.0], [[1.2, 0.3], [0.3, 0.9]])
        np.testing.assert_allclose(float(entropy(d.to_grid())),
                                   float(entropy(d)), atol=1e-7)

    def test_rejects_grid_functions(self):
        f = GridFunction1D(default_axis(), np.ones(default_axis().size))
        with pytest.raises(ReferenceMismatch):
            entropy(f)

    def test_quadrature_runs_once_per_density(self, monkeypatch):
        calls = []

        def counting(values):
            calls.append(np.shape(values))
            return xlogx(values)
        monkeypatch.setattr(functional_module, "xlogx", counting)
        for d in (gaussian(LEB, 0.3, 1.4).to_grid(points=129),
                  gaussian(GAM, [0.2, -0.1], [[1.1, 0.3], [0.3, 0.8]]).to_grid(points=129)):
            calls.clear()
            first = entropy(d)
            assert calls
            calls.clear()
            assert entropy(d) is first
            assert calls == []

    def test_renormalized_densities_keep_their_final_entropy(self):
        """A density that is renormalized as it is built has the entropy of
        its final values: of a fresh density on them, bit for bit."""
        x = default_axis(points=129)
        values = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi) * 1.002
        with pytest.warns(RenormalizationWarning):
            built = GridDensity1D.from_values(LEB, x, values)
        f = gaussian(LEB, [0.2, -0.1], [[1.1, 0.3], [0.3, 0.8]]).to_grid(points=129)
        sheared = marginal(f, 0.7)
        assert built.renormalization != 1.0 and sheared.renormalization != 1.0
        for d in (built, sheared, marginal(f, 0.0)):
            want = entropy(GridDensity1D(d.reference, d.x, d.values))
            assert entropy(d) == want


# === Fisher information ===================================================

class TestFisher:
    def test_lebesgue_closed_form_is_inverse_variance(self):
        for v in (0.5, 1.0, 1.7):
            np.testing.assert_allclose(float(fisher(gaussian(LEB, 0.3, v))),
                                       1.0 / v, rtol=1e-14)

    def test_lebesgue_grid_agrees(self):
        d = gaussian(LEB, 0.3, 1.7)
        np.testing.assert_allclose(float(fisher(d.to_grid())),
                                   float(fisher(d)), atol=1e-8)

    def test_gamma_exponential_family(self):
        """I_gam of exp(a t - a^2/2) equals a^2."""
        for a in (0.5, 0.8, 2.0):
            d = gaussian(GAM, a, 1.0)
            np.testing.assert_allclose(float(fisher(d)), a * a, rtol=1e-13)
        g = gaussian(GAM, 0.8, 1.0).to_grid()
        np.testing.assert_allclose(float(fisher(g)), 0.64, atol=1e-8)

    def test_gamma_variance_term(self):
        """I_gam(N(0, s^2)) = (s - 1/s)^2 via the closed form."""
        for v in (0.5, 2.0, 3.0):
            s = math.sqrt(v)
            np.testing.assert_allclose(float(fisher(gaussian(GAM, 0.0, v))),
                                       (s - 1.0 / s) ** 2, rtol=1e-13)

    def test_kink_triggers_roughness_warning(self):
        """The hat density has a divergent Fisher integral; the h and 2h
        estimates disagree and the roughness check must say so."""
        x = default_axis()
        vals = np.maximum(1.0 - np.abs(x), 0.0)
        with pytest.warns(RenormalizationWarning):
            d = GridDensity1D.from_values(LEB, x, vals)
        with pytest.warns(NonSmoothWarning):
            got = float(fisher(d))
        np.testing.assert_allclose(got, 10.802064562878584, rtol=1e-10)

    def test_smooth_density_does_not_warn(self):
        d = gaussian(LEB, 0.0, 1.0).to_grid()
        with warnings.catch_warnings():
            warnings.simplefilter("error", NonSmoothWarning)
            fisher(d)

    def test_flowed_tail_rounding_is_not_information(self):
        """A flowed density's far tail is FFT rounding, values near
        eps * max next to gradients of the same size; the integrand is
        zeroed there.  Kept wherever f > 1e-300, it took the error of 2d
        heat flow at t = 0.05 to +2.3e-7 (-8.8e-9 with the floor)."""
        g = gaussian(LEB, [0.3, -0.2], [[1.1, 0.3], [0.3, 0.8]])
        want = fisher(heat_flow(g, 0.05))
        got = fisher(heat_flow(g.to_grid(), 0.05))
        assert abs(got - want) <= 5e-8 * want

    def test_floor_weighs_by_the_reference(self):
        """The floor is taken on f dgamma/dx: a Gaussian-reference density
        of variance 4 is largest at the grid's edge, and a floor of eps
        times its largest relative value zeroed real mass (relative
        error -0.56 against -7e-5)."""
        g = gaussian(GAM, [0.3, -0.2], [[4.0, 0.0], [0.0, 1.0]])
        got = fisher(g.to_grid(points=513))
        assert abs(got - fisher(g)) <= 1e-4 * fisher(g)


# === 2d reductions by row blocks ==========================================

def _whole_integral(ref, g, axes):
    """int g dmu on the whole array, in block_integral's order:
    contract(g, wy) @ wx."""
    (x, h), (y, k) = axes
    wx = simpson_weights(x.size, h) * reference_weight(ref, x)
    wy = simpson_weights(y.size, k) * reference_weight(ref, y)
    return float(contract(g, wy) @ wx)


def _whole_fisher_estimate(ref, v, axes):
    """The Fisher estimate at one step on the whole array: |grad f|^2 / f
    where f wy > FISHER_FLOOR * max(f wx wy) / wx, else 0."""
    (x, _), (y, _) = axes
    gx, gy = np.gradient(v, *(h for _, h in axes), edge_order=2)
    wx, wy = (np.ones(1), np.ones(1)) if ref is LEB else \
        (reference_weight(ref, x), reference_weight(ref, y))
    weighted = v if ref is LEB else v * wy
    limit = FISHER_FLOOR * float(np.max(np.max(weighted, axis=1) * wx)) / wx
    keep = weighted > limit[:, None]
    return _whole_integral(
        ref, np.where(keep, (gx * gx + gy * gy) / np.maximum(v, VALUE_FLOOR), 0.0), axes)


def _whole_fisher(f):
    """fisher(f) on the whole array: the estimates at h and 2h, then one
    Richardson step."""
    s = tuple(_coarse_slice(x.size) for x, _ in f.axes)
    fine = _whole_fisher_estimate(f.reference, f.values, f.axes)
    coarse = _whole_fisher_estimate(f.reference, f.values[s],
                                    [(x[t], 2.0 * h) for (x, h), t in zip(f.axes, s)])
    return fine + (fine - coarse) / 3.0


class TestRowBlocks:
    @pytest.mark.parametrize("ref", [LEB, GAM])
    @pytest.mark.parametrize("rows", [65, 129, 193])
    def test_block_edges_match_the_whole_array(self, ref, rows):
        """With 65, 129 or 193 rows the last block of 64 holds one row, and
        the coarse Fisher grid has 33, 65 or 97 rows; mass, entropy and
        Fisher equal their whole-array sums exactly."""
        x = default_axis(points=rows)
        y = default_axis(length=6.0, points=97)
        g = gaussian(ref, [0.4, -0.3], [[1.2, 0.35], [0.35, 0.6]])
        f = GridDensity2D(ref, x, y, g._grid_pdf_2d(x, y))
        assert f.mass() == _whole_integral(ref, f.values, f.axes)
        v = f.values
        want = np.where(v > VALUE_FLOOR, v * np.log(np.maximum(v, VALUE_FLOOR)), 0.0)
        assert entropy(f) == _whole_integral(ref, want, f.axes)
        assert fisher(f) == _whole_fisher(f)

    @pytest.mark.parametrize("ref", [LEB, GAM])
    def test_narrow_density_matches_the_whole_array(self, ref):
        """On the default grid most nodes of a narrow density lie below the
        Fisher floor, whole blocks of rows among them, which are not
        differenced; its Fisher information is still the whole array's
        exactly."""
        f = gaussian(ref, [0.1, -0.2], [[0.2, 0.05], [0.05, 0.1]]).to_grid()
        assert fisher(f) == _whole_fisher(f)


# === L^p norms ============================================================

class TestLpNorm:
    def test_standard_normal_l2(self):
        """||phi||_2 = (4 pi)^(-1/4) for the N(0,1) Lebesgue density."""
        g = gaussian(LEB, 0.0, 1.0).to_grid()
        np.testing.assert_allclose(lp_norm(g, 2.0),
                                   (4.0 * math.pi) ** -0.25, rtol=1e-12)

    def test_exponential_function_gamma_norms(self):
        """||exp(a t)||_{L^p(gam)} = exp(p a^2 / 2)."""
        x = default_axis()
        f = GridFunction1D(x, ExpFunction(0.7)(x))
        for p in (1.0, 2.0, 3.0):
            np.testing.assert_allclose(lp_norm(f, p, GAM),
                                       math.exp(p * 0.49 / 2.0), rtol=1e-11)

    def test_p_one_is_mass(self):
        d = gaussian(LEB, 0.2, 1.1).to_grid()
        np.testing.assert_allclose(lp_norm(d, 1.0), 1.0, atol=1e-12)

    def test_invalid_exponent_rejected(self):
        d = gaussian(LEB, 0.0, 1.0).to_grid()
        for p in (0.5, 0.0, -2.0, math.inf, math.nan):
            with pytest.raises(InvalidExponents):
                lp_norm(d, p)

    def test_grid_function_needs_reference(self):
        f = GridFunction1D(default_axis(), np.ones(default_axis().size))
        with pytest.raises(ReferenceMismatch):
            lp_norm(f, 2.0)

    def test_closed_form_density_rejected(self):
        """Only a 1d Lebesgue Gaussian has a closed-form norm."""
        for g in (gaussian(GAM, 0.0, 1.0), gaussian(LEB, [0.0, 0.0], np.eye(2))):
            with pytest.raises(ReferenceMismatch):
                lp_norm(g, 2.0)

    def test_closed_form_matches_grid(self):
        """||N(m, v)||_p = p^(-1/(2p)) (2 pi v)^((1-p)/(2p))."""
        for m, v, p in ((0.3, 2.0, 1.5), (0.0, 1.0, 2.0), (-1.0, 0.5, 1.2)):
            g = gaussian(LEB, m, v)
            want = p ** (-0.5 / p) * (2.0 * math.pi * v) ** ((1.0 - p) / (2.0 * p))
            np.testing.assert_allclose(lp_norm(g, p), want, rtol=1e-15)
            np.testing.assert_allclose(lp_norm(g.to_grid(), p), want, rtol=1e-13)
