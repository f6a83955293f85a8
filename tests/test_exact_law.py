"""Bounds against an exact law: E|S_n|^t of n equal-weight Rademacher steps.

S_n = n - 2k with probability C(n, k) / 2^n, so the t-th absolute moment is
a finite sum, formed here in logs with ``math.lgamma`` and summed with
``math.fsum``.  Every bound must lie at or above it with no margin (the
floor); each bound's smallest bound/exact ratio over the grid may only fall
(the ceiling).  The one-step and t = 2 cases, where a bound is an identity
up to rounding, are not on the grid.
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


def rademacher_moment(n: int, t: float) -> float:
    """E|S_n|^t for n steps of +-1 with equal probability."""
    logs = [
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        - n * math.log(2.0) + t * math.log(abs(n - 2 * k))
        for k in range(n + 1)
        if 2 * k != n
    ]
    top = max(logs)
    return math.exp(top) * math.fsum(math.exp(v - top) for v in logs)


@pytest.fixture(scope="module")
def ratios():
    """Per bound: {(n, t): bound / exact} over the grid at D = 1."""
    out = {name: {} for name in BOUNDS}
    for n in STEPS:
        model = make_model("rademacher", n)
        envelope = model.envelope()
        for t in EXPONENTS:
            profile, exact = model.exact_profile(t), rademacher_moment(n, t)
            for name, bound in BOUNDS.items():
                out[name][n, t] = bound(profile, envelope, 1.0).value / exact
    return out


def test_exact_moment_small_cases():
    # E|S_2|^t = 2^t / 2, and E S_n^2 = n, E S_n^4 = 3n^2 - 2n.
    assert math.isclose(rademacher_moment(2, 3.0), 4.0, rel_tol=1e-14)
    assert math.isclose(rademacher_moment(10, 2.0), 10.0, rel_tol=1e-14)
    assert math.isclose(rademacher_moment(30, 4.0), 3 * 30**2 - 2 * 30, rel_tol=1e-14)


@pytest.mark.parametrize("name", list(BOUNDS))
def test_bound_is_at_least_the_exact_moment(ratios, name):
    low = {case: r for case, r in ratios[name].items() if not r >= 1.0}
    assert not low, f"{name} below the exact moment at (n, t): ratio {low}"


@pytest.mark.parametrize("name", list(BOUNDS))
def test_smallest_ratio_stays_under_its_ceiling(ratios, name):
    assert min(ratios[name].values()) <= CEILINGS[name]
