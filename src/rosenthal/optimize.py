"""Deterministic scalar optimization helpers.

Golden-section search over a bracket, optionally preceded by a dense grid
scan to localize the best cell, for the comparison bound's balancing
parameter and as the reference scan of the tests and the benchmark.  The
schedule parameter beta of ``best_bound`` is tuned on [0.02, 0.98] by a
safeguarded Newton solve on its convex log objective, a log-sum-exp of
terms linear in log beta and log(1-beta) (``_minimize_log_sum_exp_beta``).
Evaluation order is fixed, so results are reproducible bit for bit.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from .core import DomainError

__all__ = ["golden_section_minimize", "grid_then_golden_minimize"]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0
# Most bracket shrinks in golden_section_minimize: 0.618^200 ~ 2e-42.
_MAX_ITER = 200


def golden_section_minimize(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    tol: float = 1e-10,
) -> tuple[float, float]:
    """Minimize a unimodal scalar function on [lo, hi].

    Returns (x, f(x)).  The bracket endpoints are also evaluated so a
    boundary minimum cannot be missed by the interior search.
    """
    if not lo <= hi:
        raise DomainError(f"invalid bracket [{lo}, {hi}]")
    a, b = float(lo), float(hi)
    dist = b - a
    if dist <= tol:
        x = 0.5 * (a + b)
        return x, f(x)
    c = a + _INV_PHI_SQ * dist
    d = a + _INV_PHI * dist
    yc, yd = f(c), f(d)
    it = 0
    while dist > tol and it < _MAX_ITER:
        if yc < yd:
            b, d, yd = d, c, yc
            dist *= _INV_PHI
            c = a + _INV_PHI_SQ * dist
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            dist *= _INV_PHI
            d = a + _INV_PHI * dist
            yd = f(d)
        it += 1
    x_in = c if yc < yd else d
    y_in = min(yc, yd)
    best = min(((lo, f(lo)), (hi, f(hi)), (x_in, y_in)), key=lambda p: p[1])
    return best


def grid_then_golden_minimize(
    f: Callable[[float], float],
    grid: Sequence[float],
    *,
    tol: float = 1e-10,
) -> tuple[float, float]:
    """Scan a fixed grid, then refine around the best cell by golden section.

    The grid must be sorted increasing.  Returns (x, f(x)) over the union
    of grid points and the refined bracket.
    """
    pts = [float(x) for x in grid]
    if len(pts) < 2:
        raise DomainError("grid needs at least two points")
    vals = [f(x) for x in pts]
    i = min(range(len(pts)), key=lambda k: (vals[k], k))
    lo = pts[max(i - 1, 0)]
    hi = pts[min(i + 1, len(pts) - 1)]
    x, y = golden_section_minimize(f, lo, hi, tol=tol)
    if vals[i] <= y:
        return pts[i], vals[i]
    return x, y


# Newton stops where its predicted decrease F'^2 / (2 F'') is below the
# rounding of the log value F.  The cap only bounds the loop: bisection
# alone reaches the float resolution of u in about 55 steps.
_EPS = 2.0**-52
_MAX_NEWTON = 60


def _log_sum_exp_derivatives(terms, beta: float) -> tuple[float, float, float]:
    """F, F' and F'' in u = log(beta/(1-beta)) of F = log sum_j exp(K_j +
    alpha_j log(1-beta) + gamma_j log beta) over finite (K, alpha, gamma).
    Term j has slope g_j = gamma_j (1-beta) - alpha_j beta in u and
    curvature -(alpha_j + gamma_j) beta (1-beta); with weights w_j =
    exp(term_j - F), F' = sum w_j g_j and F'' = sum w_j g_j^2 - F'^2 plus
    the weighted curvature."""
    log_1mb, log_b = math.log1p(-beta), math.log(beta)
    logs = [k + a * log_1mb + g * log_b for k, a, g in terms]
    top = max(logs)
    curv = beta * (1.0 - beta)
    s0 = s1 = s2 = 0.0
    for x, (_, a, g) in zip(logs, terms):
        w = math.exp(x - top)
        slope = g * (1.0 - beta) - a * beta
        s0 += w
        s1 += w * slope
        s2 += w * (slope * slope - (a + g) * curv)
    d1 = s1 / s0
    return top + math.log(s0), d1, s2 / s0 - d1 * d1


def _minimize_log_sum_exp_beta(terms, lo: float, hi: float) -> float:
    """The beta in [lo, hi], 0 < lo < hi < 1, minimizing the log-sum-exp
    over ``terms`` (K, alpha, gamma) of K + alpha log(1-beta) + gamma log
    beta with alpha, gamma <= 0: each term is convex in the logit u of
    beta, so their log-sum-exp is too.  An endpoint whose slope points
    outward is the minimizer; otherwise Newton in u runs inside a sign
    bracket of F' and bisects whenever a step leaves it.  Where a K is
    +inf or every K is -inf, the value does not depend on beta: lo."""
    if any(k == math.inf for k, _, _ in terms):
        return lo
    terms = [term for term in terms if term[0] > -math.inf]
    if not terms or _log_sum_exp_derivatives(terms, lo)[1] >= 0.0:
        return lo
    if _log_sum_exp_derivatives(terms, hi)[1] <= 0.0:
        return hi
    a, b = math.log(lo / (1.0 - lo)), math.log(hi / (1.0 - hi))
    u = 0.5 * (a + b)
    for _ in range(_MAX_NEWTON):
        beta = 1.0 / (1.0 + math.exp(-u))
        f, d1, d2 = _log_sum_exp_derivatives(terms, beta)
        if d1 * d1 <= d2 * _EPS * max(1.0, abs(f)):
            break
        if d1 < 0.0:
            a = u
        else:
            b = u
        u -= d1 / d2
        if not a < u < b:
            u = 0.5 * (a + b)
    return min(max(beta, lo), hi)
