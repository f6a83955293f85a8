"""Bounds against exact laws of equal-weight steps at D = 1.

- Rademacher: S_n = n - 2k with probability C(n, k) / 2^n.
- Two-point with point mass p: each step is +-1/sqrt(2p) with probability
  p each and 0 otherwise, so S_n = (j - k)/sqrt(2p) with the trinomial
  probability n! / (j! k! (n-j-k)!) p^(j+k) (1-2p)^(n-j-k).

Each t-th absolute moment is a finite sum, formed here in logs with
``math.lgamma`` and summed with ``math.fsum``.  Every bound must lie at or
above it with no margin (the floor); each bound's smallest bound/exact
ratio over a law's grid may only fall (the ceiling).  The one-step and
t = 2 cases, where a bound is an identity up to rounding, are not on the
grids.
"""

import math

import pytest

from rosenthal import best_bound, corollary_bound, make_model, theorem_bound

STEPS = (2, 10, 30, 200)
EXPONENTS = (2.5, 3.0, 3.5, 4.0, 6.5, 8.0, 12.0, 20.0, 40.0, 60.0)
BOUNDS = {"theorem": theorem_bound, "corollary": corollary_bound, "best": best_bound}

# The smallest bound/exact ratio of each bound over the grid, rounded up.
# A change that tightens a bound lowers its entry.
CEILINGS = {"theorem": 1.25, "corollary": 1.2993, "best": 1.0870}

TWO_POINT_STEPS = (2, 10, 30)
TWO_POINT_MASSES = (0.05, 0.25)
TWO_POINT_CEILINGS = {"theorem": 1.3404, "corollary": 1.4211, "best": 1.3353}


def _moment(logs):
    """exp of the log-sum-exp of ``logs``."""
    top = max(logs)
    return math.exp(top) * math.fsum(math.exp(v - top) for v in logs)


def rademacher_moment(n: int, t: float) -> float:
    """E|S_n|^t for n steps of +-1 with equal probability."""
    return _moment([
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        - n * math.log(2.0) + t * math.log(abs(n - 2 * k))
        for k in range(n + 1)
        if 2 * k != n
    ])


def two_point_moment(n: int, p: float, t: float) -> float:
    """E|S_n|^t for n steps of +-1/sqrt(2p) with probability p each, 0
    otherwise (0 < p < 1/2)."""
    return _moment([
        math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(k + 1)
        - math.lgamma(n - j - k + 1) + (j + k) * math.log(p)
        + (n - j - k) * math.log1p(-2.0 * p)
        + t * (math.log(abs(j - k)) - 0.5 * math.log(2.0 * p))
        for j in range(n + 1)
        for k in range(n + 1 - j)
        if j != k
    ])


def _ratios(cases):
    """Per bound: {(*case, t): bound / exact} over (case, model, law)."""
    out = {name: {} for name in BOUNDS}
    for case, model, law in cases:
        envelope = model.envelope()
        for t in EXPONENTS:
            profile, exact = model.exact_profile(t), law(t)
            for name, bound in BOUNDS.items():
                out[name][(*case, t)] = bound(profile, envelope, 1.0).value / exact
    return out


@pytest.fixture(scope="module")
def ratios():
    """Per bound: {(n, t): bound / exact} over the Rademacher grid."""
    return _ratios(
        ((n,), make_model("rademacher", n), lambda t, n=n: rademacher_moment(n, t))
        for n in STEPS
    )


@pytest.fixture(scope="module")
def two_point_ratios():
    """Per bound: {(p, n, t): bound / exact} over the two-point grid."""
    return _ratios(
        ((p, n), make_model("two_point", n, prob=p),
         lambda t, n=n, p=p: two_point_moment(n, p, t))
        for p in TWO_POINT_MASSES
        for n in TWO_POINT_STEPS
    )


def test_exact_moment_small_cases():
    # E|S_2|^t = 2^t / 2, and E S_n^2 = n, E S_n^4 = 3n^2 - 2n.
    assert math.isclose(rademacher_moment(2, 3.0), 4.0, rel_tol=1e-14)
    assert math.isclose(rademacher_moment(10, 2.0), 10.0, rel_tol=1e-14)
    assert math.isclose(rademacher_moment(30, 4.0), 3 * 30**2 - 2 * 30, rel_tol=1e-14)


@pytest.mark.parametrize("p", [0.05, 0.25, 0.5 - 1e-9])
def test_trinomial_moment_small_cases(p):
    # One step: a_1(t) = 2p (2p)^(-t/2).  E S_n^2 = n, and
    # E S_n^4 = n E X^4 + 3n(n-1) with E X^4 = 1/(2p).
    model = make_model("two_point", 1, prob=p)
    for t in (2.5, 7.0):
        assert math.isclose(two_point_moment(1, p, t), model.exact_profile(t).total(t), rel_tol=1e-14)
    assert math.isclose(two_point_moment(10, p, 2.0), 10.0, rel_tol=1e-13)
    assert math.isclose(two_point_moment(30, p, 4.0), 30 / (2 * p) + 3 * 30 * 29, rel_tol=1e-13)


@pytest.mark.parametrize("name", list(BOUNDS))
def test_bound_is_at_least_the_exact_moment(ratios, name):
    low = {case: r for case, r in ratios[name].items() if not r >= 1.0}
    assert not low, f"{name} below the exact moment at (n, t): ratio {low}"


@pytest.mark.parametrize("name", list(BOUNDS))
def test_smallest_ratio_stays_under_its_ceiling(ratios, name):
    assert min(ratios[name].values()) <= CEILINGS[name]


@pytest.mark.parametrize("name", list(BOUNDS))
def test_two_point_bound_is_at_least_the_exact_moment(two_point_ratios, name):
    low = {case: r for case, r in two_point_ratios[name].items() if not r >= 1.0}
    assert not low, f"{name} below the exact moment at (p, n, t): ratio {low}"


@pytest.mark.parametrize("name", list(BOUNDS))
def test_two_point_smallest_ratio_stays_under_its_ceiling(two_point_ratios, name):
    assert min(two_point_ratios[name].values()) <= TWO_POINT_CEILINGS[name]
