"""Acceptance criteria: eleven pass/fail gates over the whole package.

The corpus in entroframe.selftest is run once (default grid, tolerance
scale 1); each test here owns one numbered criterion, prints its
pass/fail line, and asserts the verdict.  Criteria and tolerances are
stated in the corresponding _criterion_N docstrings.

Criterion 6 is expected to fail: the middle weight of the limiting frame
expands as c2 = -4s - 8s^2 + O(s^3), so its deviation from -4s carries
coefficient 8 and cannot satisfy the required 5 s^2 bound for any s.  The
criterion is asserted as stated rather than weakened; see the criterion
detail line for the measured coefficients (the outer weights, coefficient
4, do meet the bound, and the first-order Taylor residual behaves).
"""

import os

import pytest

from entroframe.selftest import run


@pytest.fixture(scope="module")
def corpus():
    results = run(log=None)
    return {r.index: r for r in results}


def claim(corpus, index):
    result = corpus[index]
    print(result.line())
    assert result.passed, result.line()


class TestAcceptance:
    def test_criterion_01_frame_round_trip(self, corpus):
        """100 random weight triples reconstruct through directions with
        weight error <= 1e-10 and frame residual <= 1e-12, in under 1s."""
        claim(corpus, 1)

    def test_criterion_02_mercedes_identity(self, corpus):
        """Angles (0, pi/3, 2pi/3) resolve to weights 2/3 within 1e-13."""
        claim(corpus, 2)

    def test_criterion_03_sharp_young_constant(self, corpus):
        """C(4/3,4/3,2) = (4/3)^(3/4) 4^(-1/4) within 1e-12, and the
        six-term log form agrees within 1e-12 on 20 random triples."""
        claim(corpus, 3)

    def test_criterion_04_young_equality_scan(self, corpus):
        """A Gaussian width scan at (4/3,4/3,2) attains relative slack
        <= 1e-3 somewhere, never dips below -1e-6, and finishes in 30s."""
        claim(corpus, 4)

    def test_criterion_05_shannon_inequality(self, corpus):
        """Shannon slack >= -1e-4 on 50 random mixture pairs; iid standard
        Gaussians within 1e-5 of equality; N(0,1)+N(0,4) slack equals
        log(5/4)/2 within 1e-4."""
        claim(corpus, 5)

    def test_criterion_06_shannon_limit_expansion(self, corpus):
        """Limiting-frame weights match (1+2s, -4s, 1+2s) within 5 s^2 for
        s in {-1e-2, -1e-3}, and the Taylor residual rho(s) shrinks
        proportionally to |s|.  Expected to fail: the middle weight's
        s^2 coefficient is 8 > 5 (see module docstring)."""
        claim(corpus, 6)

    def test_criterion_07_hypercontractive_threshold(self, corpus):
        """For (p,q) = (2,4) and f = e^t the slack changes sign at
        cos^2(theta) = 1/3 within 1e-3, and quadrature norms match the
        closed forms within 1e-6."""
        claim(corpus, 7)

    def test_criterion_08_log_sobolev_equality(self, corpus):
        """exp(a t - a^2/2) gives S = a^2/2 and I = a^2 within 1e-5 for
        a in {0.5, 1, 2}; slack >= -1e-5 on 50 gamma-reference mixtures."""
        claim(corpus, 8)

    def test_criterion_09_de_bruijn_identity(self, corpus):
        """|dS/dt + I| <= 1e-6 closed-form and <= 1e-3 on mixtures at
        t in {0.1, 0.5} along both flows; marginal-flow commutation on a
        correlated Gaussian within 1e-4."""
        claim(corpus, 9)

    def test_criterion_10_subadditivity_equality(self, corpus):
        """The standard 2d Gaussian saturates entropy and Fisher
        subadditivity within 1e-4 on any valid frame; diag(4,1) on the
        Mercedes frame shows gaps above 1e-3 in both forms."""
        claim(corpus, 10)

    def test_criterion_11_corpus_runtime(self, corpus):
        """Criteria 1-10 complete within the 60s budget."""
        claim(corpus, 11)


class _ReadOnlyEnviron(dict):
    """A copy of os.environ whose every write raises."""

    def _refuse(self, *args, **kwargs):
        raise AssertionError("the corpus wrote to os.environ")

    __setitem__ = __delitem__ = pop = popitem = setdefault = update = clear = _refuse


class TestRunIsolation:
    def test_grid_n_leaves_environ_alone(self, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(os, "environ", _ReadOnlyEnviron(os.environ))
            results = run(only="young", grid_n=513, log=None)
        assert [r.index for r in results] == [3, 4]
        assert all(r.passed for r in results), [r.line() for r in results]
