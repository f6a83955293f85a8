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

Every constant is computed in logs and combined by log-sum-exp; D^2
enters as 2 log D + log1p(x / D^2).  The layer constants have one form
(``_layer_logs``): log c_j = K_j + alpha_j log(1-beta) + gamma_j log beta,
where a beta-family layer at s = t-2j > 3 puts its scale 3-s < 0 into its
own gamma_j and into the alpha of every later layer, and every other
weight pair is folded into K_j.  So alpha_j, gamma_j <= 0, and the log of
the balanced value is a log-sum-exp of such terms, convex in beta.  One
schedule's constants are this form at its beta (``_log_layers``); the beta
scan of ``best_bound`` takes the balanced value's terms once per call
(``_log_balanced_beta_terms``) and minimizes by Newton on [0.02, 0.98].
A value leaves the log domain only through ``core._exp``, so it is +inf
above the float range and never NaN.  Exponents are checked by
``core._check_t``, the one check of the exponent domain; ``MAX_T`` lives in
``core`` and is re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

from .core import (
    MAX_T,
    DomainError,
    ValidationError,
    _check_t,
    _checked_array,
    _checked_int,
    _checked_scalar,
    _exp,
    _log,
    _log_sum,
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

def _log_smooth(x: float, D: float) -> float:
    """log(x + D^2) for x >= 0 and D >= 1, finite for every finite D."""
    return 2.0 * math.log(D) + math.log1p(x / D / D)


def _layer_logs(t: float, D: float, schedule: PQSchedule, m: int) -> list[tuple]:
    """(K, alpha, gamma) of log c_0, ..., log c_{m-1} and of the log of the
    product of the first m layer factors, each log being K + alpha log(1-beta) +
    gamma log beta.  A beta-family layer at s = t-2j > 3 has (log p(s),
    log q(s)) = (3-s) (log(1-beta), log beta), taken in logs where
    ``pq_eval``'s floats overflow for beta near 0 or 1 at large s: its
    scale 3-s < 0 is the layer's own gamma and enters the alpha of every
    later layer.  Every other pair is folded into K."""
    logs = []
    K = alpha = 0.0
    for j in range(m):
        s = t - 2.0 * j
        if schedule.kind == "beta_family" and s > 3.0:
            scale, log_p, log_q = 3.0 - s, 0.0, 0.0
        else:
            p, q = pq_eval(schedule, s)
            scale, log_p, log_q = 0.0, math.log(p), math.log(q)
        smooth = _log_smooth(t - 2 * j - 2, D)
        logs.append((K + smooth - math.log(t - 2 * j - 1) + log_q, alpha, scale))
        K += math.log((t - 2 * j) / 2.0) + smooth + log_p
        alpha += scale
    logs.append((K, alpha, 0.0))
    return logs


def _log_layers(t: float, D: float, schedule, m: int) -> tuple[list[float], float]:
    """(log c_0, ..., log c_{m-1}) and the log of the product of the first m
    layer factors (log c~_m when m = floor(t/2)): :func:`_layer_logs` at the
    schedule's beta.  Inputs are not checked."""
    return _logs_at(_layer_logs(t, D, schedule, m), schedule.beta)


def _logs_at(layers, beta: float) -> tuple[list[float], float]:
    """The layer logs and the top log of :func:`_layer_logs` output at beta."""
    log_1mb, log_b = math.log1p(-beta), math.log(beta)
    logs = [k + a * log_1mb + g * log_b for k, a, g in layers]
    return logs[:-1], logs[-1]


def c_j(t: float, D, schedule: PQSchedule | None, j: int) -> float:
    """The j-th layer constant c_j(t), for 0 <= j <= m-1 (t >= 2)."""
    t = _check_t(t, "the layer constants need")
    D = smoothness_value(D)
    m = int(t // 2)
    j = _checked_int("layer index j", j, 0, error=DomainError)
    if j > m - 1:
        raise DomainError(f"layer index j must lie in 0..{m - 1}, got {j}")
    return _exp(_log_layers(t, D, schedule or default_schedule(), j + 1)[0][-1])


def c_tilde(t: float, D, schedule: PQSchedule | None = None) -> float:
    """The top-layer constant c~_m(t), m = floor(t/2) >= 1 (t >= 2)."""
    t = _check_t(t, "the layer constants need")
    D = smoothness_value(D)
    return _exp(_log_layers(t, D, schedule or default_schedule(), int(t // 2))[1])


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


def _log_balanced_beta_terms(t: float, D: float, log_A: float, log_Bt: float, layers=None):
    """(K, alpha, gamma) of the terms of log(C_A A_t + C_B B^t) at the
    lambdas of :func:`optimize_lambdas` and ``PQSchedule.beta_family(beta)``:
    the value is the log-sum-exp of K + alpha log(1-beta) + gamma log beta.
    With A_t, B > 0 there is one term per layer, since at the balance
    B^t c_j r^{(t-2-2j)/(t-2)} / j! = c_j A_t^x (B^t)^{1-x} / j!,
    x = (t-2-2j)/(t-2); otherwise every lambda_j = 1 and they are the terms
    of C_A A_t and of C_B B^t.  Each term keeps its layer's alpha, gamma <= 0
    from :func:`_layer_logs`, so the value is convex in the logit of beta.
    ``layers``, where given, is :func:`_layer_logs` of any beta-family
    schedule at (t, D), which does not depend on its beta."""
    m = int(t // 2)
    if layers is None:
        layers = _layer_logs(t, D, default_schedule(), m)
    log_c, log_top = [k for k, _, _ in layers[:-1]], layers[-1][0]
    if math.isfinite(log_A) and math.isfinite(log_Bt):
        terms = [(log_top - _log_top_norm(t, m) + log_Bt, m)]
        for j, lc in enumerate(log_c):
            x = (t - 2 - 2 * j) / (t - 2)
            terms.append((lc - math.lgamma(j + 1) + x * log_A + (1.0 - x) * log_Bt, j))
    else:
        log_a, log_b = _coefficient_terms(t, log_c, log_top, [0.0] * m)
        terms = [(x + log_A, j) for x, j in log_a] + [(x + log_Bt, j) for x, j in log_b]
    return [(k, *layers[j][1:]) for k, j in terms]


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
    t = _check_t(t, "the aggregated constants need", strict=True)
    D = smoothness_value(D)
    A_t = _checked_scalar("A_t", A_t)
    B = _checked_scalar("B", B)
    log_c, log_top = _log_layers(t, D, schedule or default_schedule(), int(t // 2))
    return tuple(_balance(t, log_c, log_top, _log(A_t), t * _log(B), "optimize")[0])


def _balance(
    t: float, log_c, log_top: float, log_A: float, log_Bt: float, lambdas
) -> tuple[list[float], float, float]:
    """(lambdas, log C_A, log C_B) at one (t, D, schedule) from its layer
    logs (:func:`_log_layers`) and the logs of A_t and B^t.  ``lambdas`` is
    a sequence, ``None`` for all ones or ``"optimize"``
    (:func:`optimize_lambdas`); the returned lambdas are floats.  Only
    ``lambdas`` is checked here: the caller has checked 2 < t <= MAX_T, D
    and A_t, B >= 0."""
    m = len(log_c)
    if isinstance(lambdas, str):
        if lambdas != "optimize":
            raise ValidationError(f"unknown lambdas mode {lambdas!r}")
        # lambda_j = r^{1/(t-2)}, or 1 where A_t or B^t is 0 or +inf.
        balanced = math.isfinite(log_A) and math.isfinite(log_Bt)
        log_r = (log_A - log_Bt) / (t - 2) if balanced else 0.0
        log_lam = [log_r if j and t - 2 * j - 2 != 0.0 else 0.0 for j in range(m)]
        lam = [_exp(x) for x in log_lam]
    else:
        lam = [1.0] * m if lambdas is None else _checked_array(
            "balancing parameters", lambdas, positive=True
        ).tolist()
        if len(lam) != m:
            raise ValidationError(f"need {m} balancing parameters, got {len(lam)}")
        log_lam = [math.log(x) for x in lam]
    return lam, *_log_coefficients(t, log_c, log_top, log_lam)


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
    t = _check_t(t, "the aggregated constants need", strict=True)
    D = smoothness_value(D)
    log_c, log_top = _log_layers(t, D, schedule or default_schedule(), int(t // 2))
    lam, log_ca, log_cb = _balance(t, log_c, log_top, 0.0, 0.0, lambdas)
    return ConstantSet(
        t=t, D=D, c=tuple(_exp(x) for x in log_c), c_tilde=_exp(log_top),
        C_A=_exp(log_ca), C_B=_exp(log_cb), lambdas=tuple(lam),
    )
