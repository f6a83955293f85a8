"""Shared test helpers."""

import numpy as np

from rosenthal import MomentProfile, PQSchedule, VarianceEnvelope, required_exponents
from rosenthal.bounds import BETA_GRID, _aggregated
from rosenthal.constants import _log_balanced_beta_terms, _log_layers
from rosenthal.core import _log
from rosenthal.optimize import _minimize_log_sum_exp_beta


def increment_scale(space, x, y, t):
    """Natural float-error scale of the norm-power increment residual.

    The residual subtracts quantities of size ||x||^t and ||x+y||^t, so
    rounding noise is a few ulp of those magnitudes even where the true
    residual vanishes.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return 1.0 + space.norm(x) ** t + space.norm(y) ** t + space.norm(x + y) ** t


def smoothness_scale(space, x, y):
    """Float-error scale of the two-smoothness residual."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return 1.0 + space.norm(x) ** 2 + space.norm(y) ** 2


def make_valid_case(rng, t=None, n=None, max_n=30):
    """Random (profile, envelope) pair realizable by an actual martingale.

    Each increment is a finite-support symmetric scalar variable, so the
    stored values are exact absolute moments (hence log-convex in the
    exponent) and the envelope dominates the per-step second moments.
    Bounds proved under those hypotheses must hold on these inputs.
    """
    if t is None:
        t = float(rng.uniform(2.0001, 6.0))
    if n is None:
        n = int(rng.integers(1, max_n + 1))
    exps = required_exponents(t)
    moments = {s: np.empty(n) for s in exps}
    second = np.empty(n)
    for i in range(n):
        k = int(rng.integers(1, 4))
        vals = rng.uniform(0.05, 3.0, size=k)
        probs = rng.dirichlet(np.ones(k))
        for s in exps:
            moments[s][i] = float(np.sum(probs * vals**s))
        second[i] = float(np.sum(probs * vals**2))
    b = np.sqrt(second * (1.0 + rng.uniform(0.0, 0.5, size=n)))
    return MomentProfile(n, t, moments), VarianceEnvelope(b)


def scanned_corollary(t, D, A_t, B):
    """The scanned candidate of ``best_bound``: the aggregated bound at the
    beta its schedule scan picks, the Newton minimum of the balanced
    value's terms on the span of ``BETA_GRID``."""
    terms = _log_balanced_beta_terms(t, D, _log(A_t), t * _log(B))
    beta = _minimize_log_sum_exp_beta(terms, BETA_GRID[0], BETA_GRID[-1])
    return aggregated_report(t, D, PQSchedule.beta_family(beta), A_t, B)


def aggregated_report(t, D, schedule, A_t, B):
    """The report of ``bounds._aggregated`` at one schedule from the totals."""
    logs = _log_layers(t, D, schedule, int(t // 2))
    return _aggregated(t, schedule, A_t, B, logs)[1]()
