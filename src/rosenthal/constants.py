"""Per-layer constants of the subset-sum bound and their aggregation.

For exponent t with m = floor(t/2) layers, smoothness constant D, and a
weight schedule (p, q):

    c_j(t) = (t-2j-2+D^2)/(t-2j-1) * q(t-2j)
             * prod_{k<j} (t-2k)(t-2k-2+D^2) p(t-2k) / 2,

    c~_m(t) = prod_{j<m} (t-2j)(t-2j-2+D^2) p(t-2j) / 2.

Aggregating the layers with balancing parameters lambda_j > 0 gives the
two-term form C_A * A_n(t) + C_B * B_n^t with

    C_A = sum_{j<m} c_j (t-2j-2)/(t-2) / (lambda_j^{2j} j!),
    C_B = c~_m prod_{j=1..m} 1/(t/2 - m + j)
          + sum_{j<m} c_j (2j)/(t-2) lambda_j^{t-2j-2} / j!.

Each lambda_j trades the A-term against the B-term independently, and c_j
cancels from the balance: every balanced lambda_j is r^{1/(t-2)} with
r = A_n(t) / B_n^t.  The balanced value is then

    B_n^t (sum_{j<m} c_j r^{(t-2-2j)/(t-2)} / j! + c~_m prod_{j=1..m} 1/(t/2 - m + j)).

Every constant is computed in logs, from one recursion over the layers
(``_layer_recursion``) on terms free of the schedule parameter beta
(``_layer_terms``), and combined by log-sum-exp; D^2 enters as
2 log D + log1p(x / D^2).  Each c_j is then K_j + alpha_j log(1-beta) +
gamma_j log beta with alpha_j, gamma_j <= 0, so the log of the balanced
value is a log-sum-exp of such terms and convex in beta.  The beta scan
of ``best_bound`` takes (K, alpha, gamma) once per call
(``_log_balanced_beta_terms``) and minimizes by Newton on [0.02, 0.98];
``_log_balanced_in_beta`` evaluates the same value at one beta with the
IEEE operations of the one-schedule path, for the reference grid scan.
A value leaves the log domain only through ``core._exp``, so it is +inf
above the float range and never NaN.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from typing import Sequence

from .core import (
    DomainError,
    ValidationError,
    _exp,
    _log,
    _log_sum,
    half_layers,
    smoothness_value,
)
from .schedules import PQSchedule, default_schedule, pq_eval

__all__ = [
    "MAX_T",
    "c_j",
    "c_tilde",
    "C_A",
    "C_B",
    "optimize_lambdas",
    "ConstantSet",
    "compute_constants",
]

# The largest supported exponent: the advertised domain is 2 <= t <= MAX_T.
# The constants are computed in logs, so no t here overflows.
MAX_T = 60.0


def _check_t(t: float) -> float:
    t = float(t)
    if not math.isfinite(t) or t < 0.0:
        raise DomainError(f"exponent t must be finite and >= 0, got {t}")
    if t > MAX_T:
        raise DomainError(f"exponent t={t} exceeds the supported maximum {MAX_T}")
    return t


def _log_smooth(x: float, D: float) -> float:
    """log(x + D^2) for x >= 0 and D >= 1, finite for every finite D."""
    return 2.0 * math.log(D) + math.log1p(x / D / D)


def _layer_terms(t: float, D: float, schedule: PQSchedule, m: int) -> list[tuple]:
    """The terms of the first m layers free of the beta of a beta-family
    schedule.  Layer j, at s = t-2j, gives (log(s-2+D^2), log(s-1),
    log(s/2) + log(s-2+D^2), scale, fixed).  Above s = 3 the beta family's
    (log p(s), log q(s)) is scale * (log(1-beta), log beta), scale = 3-s,
    taken in logs where ``pq_eval``'s floats overflow for beta near 0 or 1
    at large s; every other pair is ``fixed`` and scale is None."""
    terms = []
    for j in range(m):
        s = t - 2.0 * j
        if schedule.kind == "beta_family" and s > 3.0:
            scale, fixed = 3.0 - s, None
        else:
            p, q = pq_eval(schedule, s)
            scale, fixed = None, (math.log(p), math.log(q))
        smooth = _log_smooth(t - 2 * j - 2, D)
        log_head = math.log((t - 2 * j) / 2.0) + smooth
        terms.append((smooth, math.log(t - 2 * j - 1), log_head, scale, fixed))
    return terms


def _layer_recursion(terms, beta: float | None) -> tuple[list[float], float]:
    """(log c_0, ..., log c_{m-1}) and log c~_m from the ``terms`` of
    :func:`_layer_terms` at one beta (None for a custom schedule), whose
    two logs are taken once: O(m) scalar work, the one recursion every
    constant uses."""
    log_1mb, log_b = (math.log1p(-beta), math.log(beta)) if beta is not None else (0.0, 0.0)
    log_c: list[float] = []
    shared = 0.0
    for smooth, log_odd, log_head, scale, fixed in terms:
        log_p, log_q = fixed if scale is None else (scale * log_1mb, scale * log_b)
        log_c.append(shared + smooth - log_odd + log_q)
        shared += log_head + log_p
    return log_c, shared


def _log_layers(t: float, D: float, schedule, m: int) -> tuple[list[float], float]:
    """(log c_0, ..., log c_{m-1}) and the log of the product of the first m
    layer factors (log c~_m when m = floor(t/2)).  Inputs are not checked.

    It runs in two parts: :func:`_layer_terms`, free of the beta of a
    beta-family schedule, then :func:`_layer_recursion` at that beta.  A
    scan over beta computes the first part once and repeats only the
    second; the split makes the same IEEE operations in the same order as
    one pass over the layers, so every value keeps its bits."""
    beta = schedule.beta if schedule.kind == "beta_family" else None
    return _layer_recursion(_layer_terms(t, D, schedule, m), beta)


def c_j(t: float, D, schedule: PQSchedule | None, j: int) -> float:
    """The j-th layer constant c_j(t), for 0 <= j <= m-1."""
    t = _check_t(t)
    D = smoothness_value(D)
    m = half_layers(t)
    if int(j) != j or not 0 <= j <= m - 1:
        raise DomainError(f"layer index j must lie in 0..{m - 1}, got {j}")
    return _exp(_log_layers(t, D, schedule or default_schedule(), int(j) + 1)[0][-1])


def c_tilde(t: float, D, schedule: PQSchedule | None = None) -> float:
    """The top-layer constant c~_m(t); 1 when m = 0."""
    t = _check_t(t)
    D = smoothness_value(D)
    return _exp(_log_layers(t, D, schedule or default_schedule(), half_layers(t))[1])


def _log_top_norm(t: float, m: int) -> float:
    """log prod_{j=1..m} (t/2 - m + j), which divides c~_m in C_B."""
    return math.fsum([math.log(t / 2.0 - m + j) for j in range(1, m + 1)])


def _coefficient_terms(t: float, log_c, log_top: float, log_lam):
    """The terms of log C_A and of log C_B as (log, layer) pairs, layer m
    for c~_m.  A term with a zero coefficient (t-2j-2 or 2j) is left out."""
    m = len(log_c)
    log_a, log_b = [], [(log_top - _log_top_norm(t, m), m)]
    for j, (lc, ll) in enumerate(zip(log_c, log_lam)):
        lc -= math.lgamma(j + 1)
        if t - 2 * j - 2 > 0.0:
            log_a.append((lc + math.log((t - 2 * j - 2) / (t - 2)) - 2 * j * ll, j))
        if j:
            log_b.append((lc + math.log(2 * j / (t - 2)) + (t - 2 * j - 2) * ll, j))
    return log_a, log_b


def _log_coefficients(t: float, log_c, log_top: float, log_lam) -> tuple[float, float]:
    """(log C_A, log C_B) from the log layer constants and log lambdas."""
    log_a, log_b = _coefficient_terms(t, log_c, log_top, log_lam)
    return _log_sum([x for x, _ in log_a]), _log_sum([x for x, _ in log_b])


def _balance_terms(t: float, m: int, log_A: float, log_Bt: float):
    """The schedule-free terms of :func:`_log_balanced` at one (t, m, log A_t,
    log B^t): (t, log A_t, log B^t, log prod_{j=1..m} (t/2-m+j), rows), with
    rows[j] = (log j!, x log A_t, (1-x) log B^t), x = (t-2-2j)/(t-2); rows is
    None where A_t or B^t is 0 or +inf."""
    if not (math.isfinite(log_A) and math.isfinite(log_Bt)):
        return t, log_A, log_Bt, None, None
    rows = []
    for j in range(m):
        x = (t - 2 - 2 * j) / (t - 2)
        rows.append((math.lgamma(j + 1), x * log_A, (1.0 - x) * log_Bt))
    return t, log_A, log_Bt, _log_top_norm(t, m), rows


def _balanced_terms(balance, log_c, log_top: float) -> list[tuple[float, int]]:
    """The terms of C_A A_t + C_B B^t at the lambdas of
    :func:`optimize_lambdas` as (log, layer) pairs, layer m for c~_m, from
    the ``balance`` of :func:`_balance_terms` and one schedule's log
    constants.  With A_t, B > 0 there is one term per layer, since at the
    balance B^t c_j r^{(t-2-2j)/(t-2)} / j! = c_j A_t^x (B^t)^{1-x} / j!;
    otherwise every lambda_j = 1 and they are the terms of C_A A_t and of
    C_B B^t."""
    t, log_A, log_Bt, log_norm, rows = balance
    if rows is None:
        log_a, log_b = _coefficient_terms(t, log_c, log_top, [0.0] * len(log_c))
        return [(x + log_A, j) for x, j in log_a] + [(x + log_Bt, j) for x, j in log_b]
    terms = [(log_top - log_norm + log_Bt, len(log_c))]
    terms += [(lc - f + a + b, j) for j, (lc, (f, a, b)) in enumerate(zip(log_c, rows))]
    return terms


def _balanced_sum(balance, log_c, log_top: float) -> float:
    """log of C_A A_t + C_B B^t at the lambdas of :func:`optimize_lambdas`:
    the log-sum-exp of :func:`_balanced_terms`, taken per coefficient where
    every lambda_j = 1."""
    t, log_A, log_Bt, _, rows = balance
    if rows is None:
        log_ca, log_cb = _log_coefficients(t, log_c, log_top, [0.0] * len(log_c))
        return _log_sum([log_ca + log_A, log_cb + log_Bt])
    return _log_sum([x for x, _ in _balanced_terms(balance, log_c, log_top)])


def _log_balanced(t: float, log_c, log_top: float, log_A: float, log_Bt: float) -> float:
    """:func:`_balanced_sum` of one schedule's log constants."""
    return _balanced_sum(_balance_terms(t, len(log_c), log_A, log_Bt), log_c, log_top)


def _log_balanced_in_beta(t: float, D: float, log_A: float, log_Bt: float):
    """beta -> :func:`_log_balanced` at ``PQSchedule.beta_family(beta)``, bit
    for bit.  The terms free of beta are computed once; each call runs only
    :func:`_layer_recursion` and :func:`_balanced_sum`, O(m) scalar work."""
    m = half_layers(t)
    terms = _layer_terms(t, D, default_schedule(), m)
    balance = _balance_terms(t, m, log_A, log_Bt)
    return lambda beta: _balanced_sum(balance, *_layer_recursion(terms, beta))


def _log_balanced_beta_terms(t: float, D: float, log_A: float, log_Bt: float):
    """The value of :func:`_log_balanced_in_beta` as the log-sum-exp of
    K + alpha log(1-beta) + gamma log beta over the returned (K, alpha,
    gamma), equal up to rounding.  Layer j's log c_j carries the scale of
    each layer k < j times log(1-beta) and its own scale times log beta,
    and log c~_m every scale times log(1-beta); the scales 3-s are < 0, so
    alpha, gamma <= 0 and the value is convex in beta and in its logit."""
    m = half_layers(t)
    terms = _layer_terms(t, D, default_schedule(), m)
    scales = [0.0 if scale is None else scale for *_, scale, _ in terms]
    alpha = list(itertools.accumulate(scales, initial=0.0))
    gamma = scales + [0.0]
    # beta = None sets both logs of beta to 0, leaving the K of each c_j.
    balanced = _balanced_terms(_balance_terms(t, m, log_A, log_Bt), *_layer_recursion(terms, None))
    return [(k, alpha[j], gamma[j]) for k, j in balanced]


def optimize_lambdas(
    t: float, D, schedule: PQSchedule | None, A_t: float, B: float
) -> tuple[float, ...]:
    """Per-layer balancing parameters minimizing C_A * A_t + C_B * B^t.

    Layer j contributes u_j lambda^{-2j} + v_j lambda^{t-2j-2} to the
    objective with u_j = c_j (t-2j-2)/(t-2) A_t / j! and
    v_j = c_j (2j)/(t-2) B^t / j!.  Its stationary point

        lambda_j = (2j u_j / ((t-2j-2) v_j))^(1/(t-2)) = (A_t / B^t)^(1/(t-2))

    does not depend on c_j.  Degenerate layers (j = 0 or a vanishing
    exponent t-2j-2) and a vanishing A_t or B default to lambda_j = 1.
    """
    if A_t < 0.0 or B < 0.0:
        raise ValidationError("moment totals must be >= 0")
    D = smoothness_value(D)
    log_A, log_Bt = _log(A_t), t * _log(B)
    return tuple(_aggregate(t, D, schedule or default_schedule(), log_A, log_Bt, "optimize")[2])


def _aggregate(
    t: float, D: float, schedule: PQSchedule, log_A: float, log_Bt: float, lambdas
) -> tuple[list[float], float, list[float], float, float]:
    """(log c, log c~_m, lambdas, log C_A, log C_B) at one (t, D, schedule)
    from the logs of A_t and B^t.  ``lambdas`` is a sequence, ``None`` for
    all ones or ``"optimize"`` (:func:`optimize_lambdas`); the returned
    lambdas are floats.  The caller has checked D and A_t, B >= 0."""
    if isinstance(lambdas, str) and lambdas != "optimize":
        raise ValidationError(f"unknown lambdas mode {lambdas!r}")
    t = _check_t(t)
    if t <= 2.0:
        raise DomainError(f"the aggregated constants need t > 2, got t={t}")
    m = half_layers(t)
    log_c, log_top = _log_layers(t, D, schedule, m)
    if isinstance(lambdas, str):
        # lambda_j = r^{1/(t-2)}, or 1 where A_t or B^t is 0 or +inf.
        balanced = math.isfinite(log_A) and math.isfinite(log_Bt)
        log_r = (log_A - log_Bt) / (t - 2) if balanced else 0.0
        log_lam = [log_r if j and t - 2 * j - 2 != 0.0 else 0.0 for j in range(m)]
        lam = [_exp(x) for x in log_lam]
    else:
        lam = [float(x) for x in ((1.0,) * m if lambdas is None else lambdas)]
        if len(lam) != m:
            raise ValidationError(f"need {m} balancing parameters, got {len(lam)}")
        if any(not math.isfinite(x) or x <= 0.0 for x in lam):
            raise ValidationError("balancing parameters must be finite and > 0")
        log_lam = [math.log(x) for x in lam]
    return log_c, log_top, lam, *_log_coefficients(t, log_c, log_top, log_lam)


def C_A(t: float, D, schedule: PQSchedule | None, lambdas: Sequence[float]) -> float:
    """Coefficient of A_n(t) in the aggregated bound (t > 2)."""
    return compute_constants(t, D, schedule, lambdas).C_A


def C_B(t: float, D, schedule: PQSchedule | None, lambdas: Sequence[float]) -> float:
    """Coefficient of B_n^t in the aggregated bound (t > 2)."""
    return compute_constants(t, D, schedule, lambdas).C_B


@dataclass(frozen=True)
class ConstantSet:
    """All constants of the bounds at one (t, D, schedule, lambdas) tuple."""

    t: float
    D: float
    c: tuple[float, ...]
    c_tilde: float
    C_A: float
    C_B: float
    lambdas: tuple[float, ...]

    def to_dict(self) -> dict:
        return dict(asdict(self), c=list(self.c), lambdas=list(self.lambdas))


def compute_constants(
    t: float, D, schedule: PQSchedule | None = None, lambdas: Sequence[float] | None = None
) -> ConstantSet:
    """Evaluate every constant at once (t > 2); lambdas default to ones."""
    t = float(t)
    D = smoothness_value(D)
    log_c, log_top, lam, log_ca, log_cb = _aggregate(
        t, D, schedule or default_schedule(), 0.0, 0.0, lambdas
    )
    return ConstantSet(
        t=t, D=D, c=tuple(_exp(x) for x in log_c), c_tilde=_exp(log_top),
        C_A=_exp(log_ca), C_B=_exp(log_cb), lambdas=tuple(lam),
    )
