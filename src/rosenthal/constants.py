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

Each lambda_j trades the A-term against the B-term independently, so the
minimizing value has a closed form.

Every function here reads the layer constants c_j and c~_m of its
(t, D, schedule) from one pass, ``_layer_constants``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

from .core import DomainError, ValidationError, half_layers, smoothness_value
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

# Guards iterated products and factorials against float overflow.
MAX_T = 60.0


def _check_t(t: float) -> float:
    t = float(t)
    if not math.isfinite(t) or t < 0.0:
        raise DomainError(f"exponent t must be finite and >= 0, got {t}")
    if t > MAX_T:
        raise DomainError(f"exponent t={t} exceeds the supported maximum {MAX_T}")
    return t


def _layer_constants(t: float, D: float, schedule, m: int) -> tuple[list[float], float]:
    """(c_0, ..., c_{m-1}) and the product of the first m layer factors (c~_m
    when m = floor(t/2)), with one schedule evaluation per layer.  Each c_j
    multiplies its front factor by the shared factors k < j in the order of
    the defining product, so no value changes.  Inputs are not checked."""
    c: list[float] = []
    factors: list[float] = []
    for j in range(m):
        p, q = pq_eval(schedule, t - 2.0 * j)
        value = (t - 2 * j - 2 + D * D) / (t - 2 * j - 1) * q
        for f in factors:
            value *= f
        c.append(value)
        factors.append((t - 2 * j) * (t - 2 * j - 2 + D * D) * p / 2.0)
    top = 1.0
    for f in factors:
        top *= f
    return c, top


def c_j(t: float, D, schedule: PQSchedule | None, j: int) -> float:
    """The j-th layer constant c_j(t), for 0 <= j <= m-1."""
    t = _check_t(t)
    D = smoothness_value(D)
    m = half_layers(t)
    if int(j) != j or not 0 <= j <= m - 1:
        raise DomainError(f"layer index j must lie in 0..{m - 1}, got {j}")
    return _layer_constants(t, D, schedule or default_schedule(), int(j) + 1)[0][-1]


def c_tilde(t: float, D, schedule: PQSchedule | None = None) -> float:
    """The top-layer constant c~_m(t); 1 when m = 0."""
    t = _check_t(t)
    D = smoothness_value(D)
    return _layer_constants(t, D, schedule or default_schedule(), half_layers(t))[1]


def _check_lambdas(lambdas: Sequence[float], m: int) -> list[float]:
    lam = [float(x) for x in lambdas]
    if len(lam) != m:
        raise ValidationError(f"need {m} balancing parameters, got {len(lam)}")
    if any(not math.isfinite(x) or x <= 0.0 for x in lam):
        raise ValidationError("balancing parameters must be finite and > 0")
    return lam


def _check_aggregated_t(t: float) -> float:
    t = _check_t(t)
    if t <= 2.0:
        raise DomainError(f"the aggregated constants need t > 2, got t={t}")
    return t


def _coefficients(t: float, c, top: float, lam) -> tuple[float, float]:
    """(C_A, C_B) from the layer constants, c~_m and the balancing parameters.
    A term with a zero coefficient (t-2j-2 or 2j) adds nothing, even when c_j
    is +inf; a C_A term whose lambda_j^{2j} j! underflows to 0 is +inf."""
    m = len(c)
    ca, cb = 0.0, top
    for j in range(1, m + 1):
        cb /= t / 2.0 - m + j
    for j, cj in enumerate(c):
        if t - 2 * j - 2 != 0.0:
            den = lam[j] ** (2 * j) * math.factorial(j)
            ca += cj * (t - 2 * j - 2) / (t - 2) / den if den else math.inf
        if j:
            cb += cj * (2 * j) / (t - 2) * lam[j] ** (t - 2 * j - 2) / math.factorial(j)
    return ca, cb


def _checked_coefficients(t, D, schedule, lambdas) -> tuple[float, float]:
    t = _check_aggregated_t(t)
    m = half_layers(t)
    lam = _check_lambdas(lambdas, m)
    c, top = _layer_constants(t, smoothness_value(D), schedule or default_schedule(), m)
    return _coefficients(t, c, top, lam)


def C_A(t: float, D, schedule: PQSchedule | None, lambdas: Sequence[float]) -> float:
    """Coefficient of A_n(t) in the aggregated bound (t > 2)."""
    return _checked_coefficients(t, D, schedule, lambdas)[0]


def C_B(t: float, D, schedule: PQSchedule | None, lambdas: Sequence[float]) -> float:
    """Coefficient of B_n^t in the aggregated bound (t > 2)."""
    return _checked_coefficients(t, D, schedule, lambdas)[1]


def _balanced_lambdas(t: float, c, A_t: float, B: float) -> tuple[float, ...]:
    """:func:`optimize_lambdas` from the layer constants c."""
    out = []
    for j, cj in enumerate(c):
        expo = t - 2 * j - 2
        if j == 0 or expo == 0.0:
            out.append(1.0)
            continue
        u = cj * expo / (t - 2) * A_t / math.factorial(j)
        v = cj * (2 * j) / (t - 2) * B**t / math.factorial(j)
        if u == 0.0 or v == 0.0:
            out.append(1.0)
        else:
            out.append((2 * j * u / (expo * v)) ** (1.0 / (t - 2)))
    return tuple(out)


def optimize_lambdas(
    t: float, D, schedule: PQSchedule | None, A_t: float, B: float
) -> tuple[float, ...]:
    """Per-layer balancing parameters minimizing C_A * A_t + C_B * B^t.

    Layer j contributes u_j lambda^{-2j} + v_j lambda^{t-2j-2} to the
    objective with u_j = c_j (t-2j-2)/(t-2) A_t / j! and
    v_j = c_j (2j)/(t-2) B^t / j!, so the unique stationary point is

        lambda_j = (2j u_j / ((t-2j-2) v_j))^(1/(t-2)).

    Degenerate layers (j = 0, vanishing exponent t-2j-2, or a vanishing
    coefficient) default to lambda_j = 1.
    """
    t = _check_t(t)
    if t <= 2.0:
        raise DomainError(f"balancing applies for t > 2, got t={t}")
    if A_t < 0.0 or B < 0.0:
        raise ValidationError("moment totals must be >= 0")
    D = smoothness_value(D)
    c, _ = _layer_constants(t, D, schedule or default_schedule(), half_layers(t))
    return _balanced_lambdas(t, c, A_t, B)


def _aggregate(
    t: float, D: float, schedule: PQSchedule, A_t: float, B: float, lambdas
) -> tuple[list[float], float, list[float], float, float]:
    """(c, c~_m, lambdas, C_A, C_B) at one (t, D, schedule) from one pass over
    the layer constants.  ``lambdas`` is a sequence, ``None`` for all ones or
    ``"optimize"`` (:func:`optimize_lambdas`); either way it passes the checks
    of :func:`C_A`.  The caller has checked D and A_t, B >= 0."""
    if isinstance(lambdas, str) and lambdas != "optimize":
        raise ValidationError(f"unknown lambdas mode {lambdas!r}")
    t = _check_aggregated_t(t)
    m = half_layers(t)
    c, top = _layer_constants(t, D, schedule, m)
    if isinstance(lambdas, str):
        lambdas = _balanced_lambdas(t, c, A_t, B)
    elif lambdas is None:
        lambdas = (1.0,) * m
    lam = _check_lambdas(lambdas, m)
    return c, top, lam, *_coefficients(t, c, top, lam)


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
    t = _check_aggregated_t(t)
    D = smoothness_value(D)
    m = half_layers(t)
    lam = tuple(_check_lambdas(lambdas, m)) if lambdas is not None else (1.0,) * m
    c, top = _layer_constants(t, D, schedule or default_schedule(), m)
    ca, cb = _coefficients(t, c, top, lam)
    return ConstantSet(t=t, D=D, c=tuple(c), c_tilde=top, C_A=ca, C_B=cb, lambdas=lam)
