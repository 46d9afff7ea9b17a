"""Built-in acceptance corpus: eleven numbered criteria with pass/fail lines.

Each criterion is a small, seeded, closed-form-anchored property run; the
suite doubles as a smoke test for a fresh install (``entroframe selftest``)
and as the corpus behind the acceptance test layer.  Criteria that lean on
grid quadrature scale their tolerances by ((N0 - 1)/(N - 1))^2 when run on a
coarser grid than the default N0 = 2049, matching the second-order accuracy
of the finite differences involved; closed-form criteria do not scale.

Renormalization warnings are suppressed here: wide scan members lose tail
mass by design and the renormalizing path is exactly what is under test.
"""

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .density import (
    DEFAULT_POINTS,
    ExpFunction,
    Reference,
    RenormalizationWarning,
    default_axis,
    gaussian,
    gaussian_mixture,
)
from .frames import (
    directions_from_weights,
    mercedes_frame,
    shannon_limit_frame,
    weights_from_directions,
)
from .functional import entropy, fisher
from .inequality import (
    check_fisher_subadditivity,
    check_hypercontractivity,
    check_log_sobolev,
    check_shannon,
    check_subadditivity,
    check_young_convolution,
    exp_norm_gamma,
    hyper_threshold,
    mehler_exp_norm,
    shannon_taylor_check,
    young_constant,
    young_log_constant,
)
from .semigroup import de_bruijn_check, stability_check

LEB = Reference.LEBESGUE
GAM = Reference.GAUSSIAN
BASE_SEED = 20260401


# === result plumbing ======================================================

@dataclass(frozen=True)
class CriterionResult:
    index: int
    tag: str
    label: str
    passed: bool
    detail: str
    elapsed: float

    def line(self):
        mark = "PASS" if self.passed else "FAIL"
        return (f"criterion {self.index:2d} {mark}  {self.label}: "
                f"{self.detail} [{self.elapsed:.2f}s]")


def _tolerance_scale(n):
    """Loosen quadrature-bound tolerances on n-point grids coarser than the default."""
    if n >= DEFAULT_POINTS:
        return 1.0
    return ((DEFAULT_POINTS - 1) / (n - 1)) ** 2


def _rng(index):
    return np.random.default_rng(BASE_SEED + index)


def _random_weight_triples(rng, count, low=0.05, high=0.95):
    triples = []
    while len(triples) < count:
        c1, c2 = rng.uniform(low, high, size=2)
        c3 = 2.0 - c1 - c2
        if low < c3 < high:
            triples.append((c1, c2, c3))
    return triples


def _random_mixture(rng, reference, n, components=(2, 3),
                    mean_range=(-2.0, 2.0), var_range=(0.4, 2.5)):
    k = int(rng.integers(components[0], components[1] + 1))
    w = rng.uniform(0.2, 1.0, size=k)
    means = rng.uniform(*mean_range, size=k)
    variances = rng.uniform(*var_range, size=k)
    return gaussian_mixture(reference, w / w.sum(), means, variances, points=n)


# === criteria =============================================================

def _criterion_1(scale, n):
    """Frame round-trip over 100 random weight triples."""
    rng = _rng(1)
    t0 = time.perf_counter()
    max_err = 0.0
    max_res = 0.0
    for c1, c2, c3 in _random_weight_triples(rng, 100):
        frame = directions_from_weights(c1, c2, c3)
        back = weights_from_directions(*frame.thetas)
        max_err = max(max_err, float(np.max(np.abs(
            np.asarray(back.weights) - (c1, c2, c3)))))
        max_res = max(max_res, frame.residual())
    elapsed = time.perf_counter() - t0
    ok = max_err <= 1e-10 and max_res <= 1e-12 and elapsed < 1.0
    return ok, (f"100 triples, weight err {max_err:.2e} (<=1e-10), "
                f"residual {max_res:.2e} (<=1e-12), {elapsed:.3f}s (<1s)")


def _criterion_2(scale, n):
    """Mercedes identity: angles (0, pi/3, 2pi/3) -> weights 2/3."""
    frame = weights_from_directions(0.0, math.pi / 3.0, 2.0 * math.pi / 3.0)
    dev = float(np.max(np.abs(np.asarray(frame.weights) - 2.0 / 3.0)))
    return dev <= 1e-13, f"max |c_i - 2/3| = {dev:.2e} (<=1e-13)"


def _criterion_3(scale, n):
    """Sharp Young constant, closed form and six-term log display."""
    c = young_constant(4.0 / 3.0, 4.0 / 3.0, 2.0)
    target = (4.0 / 3.0) ** 0.75 * 4.0 ** -0.25
    dev_c = abs(c - target)
    rng = _rng(3)
    dev_log = 0.0
    found = 0
    while found < 20:
        a, b = rng.uniform(0.2, 0.95, size=2)
        if not 1.0 < a + b < 1.95:
            continue
        p, q, r = 1.0 / a, 1.0 / b, 1.0 / (a + b - 1.0)
        dev_log = max(dev_log, abs(math.log(young_constant(p, q, r))
                                   - young_log_constant(p, q, r)))
        found += 1
    ok = dev_c <= 1e-12 and dev_log <= 1e-12
    return ok, (f"|C - (4/3)^(3/4) 4^(-1/4)| = {dev_c:.2e} (<=1e-12), "
                f"log form dev {dev_log:.2e} over 20 triples (<=1e-12)")


def _criterion_4(scale, n):
    """Young equality attainment along a Gaussian width scan at (4/3,4/3,2)."""
    t0 = time.perf_counter()
    g = gaussian(LEB, 0.0, 1.0).to_grid(points=n)
    best = math.inf
    worst_violation = 0.0
    for sigma in np.geomspace(0.5, 2.0, 21):
        f = gaussian(LEB, 0.0, float(sigma) ** 2).to_grid(points=n)
        rep = check_young_convolution(f, g, 4.0 / 3.0, 4.0 / 3.0, 2.0)
        best = min(best, abs(rep.slack) / rep.rhs)
        worst_violation = min(worst_violation, rep.slack)
    elapsed = time.perf_counter() - t0
    ok = best <= 1e-3 and worst_violation >= -1e-6 * scale and elapsed < 30.0
    return ok, (f"min |slack|/rhs = {best:.2e} over 21 widths (<=1e-3), "
                f"min slack {worst_violation:.2e} (>=-{1e-6 * scale:.0e}), "
                f"{elapsed:.1f}s (<30s)")


def _criterion_5(scale, n):
    """Shannon on random mixtures, iid equality, and the N(0,1),N(0,4) case."""
    rng = _rng(5)
    worst = math.inf
    for _ in range(50):
        rep = check_shannon(_random_mixture(rng, LEB, n),
                            _random_mixture(rng, LEB, n))
        worst = min(worst, rep.slack)
    std = gaussian(LEB, 0.0, 1.0).to_grid(points=n)
    iid = abs(check_shannon(std, std).slack)
    wide = gaussian(LEB, 0.0, 4.0).to_grid(points=n)
    closed = abs(check_shannon(std, wide).slack - 0.5 * math.log(1.25))
    ok = (worst >= -1e-4 * scale and iid <= 1e-5 * scale
          and closed <= 1e-4 * scale)
    return ok, (f"min slack {worst:.2e} over 50 mixture pairs "
                f"(>=-{1e-4 * scale:.0e}), iid |slack| {iid:.2e} "
                f"(<={1e-5 * scale:.0e}), |slack - log(5/4)/2| {closed:.2e} "
                f"(<={1e-4 * scale:.0e})")


def _criterion_6(scale, n):
    """Shannon limit: weight expansion error <= 5 s^2 and Taylor residual.

    The middle weight of the limiting frame is -2 sin(2s)/(1 - sin(2s)) =
    -4s - 8s^2 + O(s^3), so its deviation from -4s carries coefficient 8
    and cannot meet the stated 5 s^2 bound; the outer weights (coefficient
    4) do.  This criterion reports the measured coefficients and fails
    honestly on the middle weight while the rest of the family checks out.
    """
    ratios = []
    weights_ok = True
    for s in (-1e-2, -1e-3):
        c1, c2, c3 = shannon_limit_frame(s).weights
        errs = (abs(c1 - (1.0 + 2.0 * s)), abs(c2 + 4.0 * s),
                abs(c3 - (1.0 + 2.0 * s)))
        ratios.append(tuple(e / s ** 2 for e in errs))
        weights_ok = weights_ok and all(e <= 5.0 * s ** 2 for e in errs)
    g = gaussian(LEB, 0.0, 1.0)
    h = gaussian(LEB, 0.0, 4.0)
    pts = shannon_taylor_check(g, h, (-1e-2, -1e-3, -1e-4))
    rhos = [abs(p.rho) for p in pts]
    taylor_ok = (all(r <= 0.3 * abs(p.s) for r, p in zip(rhos, pts))
                 and rhos[0] > rhos[1] > rhos[2])
    iid = max(abs(p.rho) for p in shannon_taylor_check(g, g, (-1e-2, -1e-3)))
    taylor_ok = taylor_ok and iid <= 1e-9
    coeff = max(r[1] for r in ratios)
    return weights_ok and taylor_ok, (
        f"outer-weight err/s^2 = {max(r[0] for r in ratios):.2f} (bound 5), "
        f"middle-weight err/s^2 = {coeff:.2f} (bound 5, exceeded: the "
        f"expansion of c2 is -4s - 8s^2 + O(s^3)), "
        f"taylor |rho|/|s| max {max(r / abs(p.s) for r, p in zip(rhos, pts)):.3f} "
        f"and decreasing, iid rho {iid:.1e}")


def _criterion_7(scale, n):
    """Hypercontractivity sign change at cos^2(theta) = 1/3 for (p,q)=(2,4)."""
    f = ExpFunction(1.0)
    lo, hi = 0.80, 1.10
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if check_hypercontractivity(f, 2.0, 4.0, mid, points=n).slack < 0.0:
            lo = mid
        else:
            hi = mid
    crossing = 0.5 * (lo + hi)
    dev_angle = abs(math.cos(crossing) ** 2 - 1.0 / 3.0)
    quad_dev = 0.0
    rhs_closed = exp_norm_gamma(1.0, 2.0)
    for theta in (0.6, hyper_threshold(2.0, 4.0), 1.2):
        rep = check_hypercontractivity(f, 2.0, 4.0, theta, points=n)
        lhs_closed = mehler_exp_norm(1.0, 4.0, theta)
        quad_dev = max(quad_dev, abs(rep.lhs - lhs_closed) / lhs_closed,
                       abs(rep.rhs - rhs_closed) / rhs_closed)
    ok = dev_angle <= 1e-3 and quad_dev <= 1e-6
    return ok, (f"|cos^2(theta*) - 1/3| = {dev_angle:.2e} (<=1e-3), "
                f"quadrature vs closed norms {quad_dev:.2e} (<=1e-6)")


def _criterion_8(scale, n):
    """Log-Sobolev equality family and nonnegativity on gamma mixtures."""
    worst_family = 0.0
    for a in (0.5, 1.0, 2.0):
        f = gaussian(GAM, a, 1.0).to_grid(points=n)
        worst_family = max(worst_family,
                           abs(entropy(f) - a * a / 2.0),
                           abs(fisher(f) - a * a))
    rng = _rng(8)
    worst = math.inf
    for _ in range(50):
        mix = _random_mixture(rng, GAM, n, mean_range=(-1.0, 1.0),
                              var_range=(0.5, 1.5))
        worst = min(worst, check_log_sobolev(mix).slack)
    ok = worst_family <= 1e-5 * scale and worst >= -1e-5 * scale
    return ok, (f"exp-family max |S - a^2/2|, |I - a^2| = {worst_family:.2e} "
                f"(<={1e-5 * scale:.0e}), min slack {worst:.2e} over 50 "
                f"mixtures (>=-{1e-5 * scale:.0e})")


def _criterion_9(scale, n):
    """de Bruijn identity along both flows plus marginal-flow stability."""
    closed = 0.0
    for dens in (gaussian(LEB, 0.0, 1.0), gaussian(LEB, 0.5, 2.0)):
        for t in (0.1, 0.5):
            closed = max(closed, de_bruijn_check(dens, t))
    for dens in (gaussian(GAM, 0.5, 1.5), gaussian(GAM, 0.0, 0.8)):
        for t in (0.1, 0.5):
            closed = max(closed, de_bruijn_check(dens, t))
    rng = _rng(9)
    gridded = 0.0
    for reference in (LEB, GAM):
        rngs = (-1.5, 1.5) if reference is LEB else (-1.0, 1.0)
        mix = _random_mixture(rng, reference, n, mean_range=rngs,
                              var_range=(0.5, 1.5))
        for t in (0.1, 0.5):
            gridded = max(gridded, de_bruijn_check(mix, t))
    corr = gaussian(LEB, [0.0, 0.0], [[2.0, 1.0], [1.0, 2.0]]).to_grid(points=n)
    stability = max(stability_check(corr, math.pi / 6.0, 0.1),
                    stability_check(corr, math.pi / 3.0, 0.5))
    ok = (closed <= 1e-6 and gridded <= 1e-3 * scale
          and stability <= 1e-4 * scale)
    return ok, (f"closed-form |dS/dt + I| = {closed:.2e} (<=1e-6), "
                f"mixtures {gridded:.2e} (<={1e-3 * scale:.0e}), "
                f"stability sup {stability:.2e} (<={1e-4 * scale:.0e})")


def _criterion_10(scale, n):
    """Subadditivity equality at the standard Gaussian, strict gap off it."""
    std = gaussian(LEB, [0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]).to_grid(points=n)
    rng = _rng(10)
    frames = [mercedes_frame()]
    frames += [directions_from_weights(*t)
               for t in _random_weight_triples(rng, 2, low=0.2, high=0.9)]
    eq_dev = 0.0
    for frame in frames:
        eq_dev = max(eq_dev, abs(check_subadditivity(frame, std).slack),
                     abs(check_fisher_subadditivity(frame, std).slack))
    skew = gaussian(LEB, [0.0, 0.0], [[4.0, 0.0], [0.0, 1.0]])
    gap_s = check_subadditivity(mercedes_frame(), skew).slack
    gap_i = check_fisher_subadditivity(mercedes_frame(), skew).slack
    ok = eq_dev <= 1e-4 * scale and gap_s > 1e-3 and gap_i > 1e-3
    return ok, (f"standard-Gaussian |slack| = {eq_dev:.2e} over "
                f"{len(frames)} frames, both forms (<={1e-4 * scale:.0e}); "
                f"diag(4,1) gaps {gap_s:.4f}, {gap_i:.4f} (>1e-3)")


CRITERIA = (
    (1, "frames", "frame round-trip", _criterion_1),
    (2, "frames", "Mercedes identity", _criterion_2),
    (3, "young", "sharp Young constant", _criterion_3),
    (4, "young", "Young equality scan", _criterion_4),
    (5, "shannon", "Shannon inequality", _criterion_5),
    (6, "shannon", "Shannon limit expansion", _criterion_6),
    (7, "hyper", "hypercontractive threshold", _criterion_7),
    (8, "lsi", "log-Sobolev equality", _criterion_8),
    (9, "flows", "de Bruijn identity", _criterion_9),
    (10, "subadd", "subadditivity equality", _criterion_10),
)

TAGS = tuple(sorted({tag for _, tag, _, _ in CRITERIA}))
TIME_BUDGET = 60.0


def run(only=None, grid_n=None, log=print):
    """Run the acceptance corpus; returns the list of CriterionResult.

    only: restrict to criteria with this tag (criterion 11, the time
    budget, is evaluated only on unrestricted runs).  grid_n: run on an
    N-point grid instead of the default, loosening quadrature tolerances
    by the matching second-order factor.
    """
    if only is not None and only not in TAGS:
        raise ValueError(f"unknown tag {only!r}; choose from {', '.join(TAGS)}")
    n = DEFAULT_POINTS if grid_n is None else int(grid_n)
    default_axis(points=n)  # a malformed point count fails before any criterion
    scale = _tolerance_scale(n)
    results = []
    total = 0.0
    for index, tag, label, func in CRITERIA:
        if only is not None and tag != only:
            continue
        t0 = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RenormalizationWarning)
            passed, detail = func(scale, n)
        elapsed = time.perf_counter() - t0
        total += elapsed
        results.append(CriterionResult(index, tag, label, passed,
                                       detail, elapsed))
        if log is not None:
            log(results[-1].line())
    if only is None:
        passed = total < TIME_BUDGET and len(results) == len(CRITERIA)
        results.append(CriterionResult(
            11, "timing", "corpus runtime", passed,
            f"criteria 1-10 completed in {total:.1f}s (<{TIME_BUDGET:.0f}s)",
            total))
        if log is not None:
            log(results[-1].line())
    if log is not None:
        good = sum(r.passed for r in results)
        log(f"{good}/{len(results)} criteria passed")
    return results
