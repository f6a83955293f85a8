"""Central-moment bounds for separately Lipschitz functions of independent
variables.

Re-centering a function of independent inputs costs a multiplicative
constant C_t = max_{b in [0, 1/2]} R(t, b) on the t-th moment term, where

    R(t, b) = (b^(t-1) + (1-b)^(t-1)) * (b^(1/(t-1)) + (1-b)^(1/(t-1)))^(t-1).

Combining C_t with the aggregated martingale constants (C_A, C_B) at D = 1
bounds E|Y - E Y|^t by

    C_t C_A sum_i E rho_i(X_i, x_i)^t + C_B (sum_i E rho_i(X_i, y_i)^2)^(t/2)

for any separately Lipschitz Y = g(X_1, ..., X_n) with moduli rho_i and any
anchor points x_i, y_i.  Sums of independent Banach-space vectors are the
special case rho_i = norm difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .constants import _balance, _log_layers
from .core import (
    DomainError,
    ValidationError,
    _check_t,
    _checked_array,
    _checked_scalar,
    _exp,
    _log,
    _log_sum,
)
from .optimize import golden_section_minimize
from .schedules import PQSchedule, default_schedule

__all__ = [
    "recentering_ratio",
    "find_bt",
    "LipschitzMomentData",
    "separately_lipschitz_bound",
    "sum_norm_bound",
]

def recentering_ratio(t: float, b) -> float:
    """R(t, b) for t > 2 and b in [0, 1]; vectorized over b."""
    t = _check_t(t, "the re-centering ratio needs", strict=True)
    try:
        barr = np.asarray(b, dtype=float)
    except OverflowError:  # an integer beyond the float range
        raise DomainError("b must lie in [0, 1]") from None
    if not np.all((barr >= 0.0) & (barr <= 1.0)):  # NaN fails both
        raise DomainError("b must lie in [0, 1]")
    return _ratio(t, float(barr) if barr.ndim == 0 else barr)


def _ratio(t: float, b):
    """R(t, b) unchecked, in float arithmetic for a float b: the golden
    search of :func:`find_bt` evaluates it about 50 times, where numpy's
    per-operation cost on 0-d arrays would dominate."""
    return (b ** (t - 1) + (1 - b) ** (t - 1)) * (
        b ** (1 / (t - 1)) + (1 - b) ** (1 / (t - 1))
    ) ** (t - 1)


def find_bt(t: float) -> tuple[float, float]:
    """Maximizer b_t of R(t, .) on [0, 1/2] and the constant C_t = R(t, b_t).

    R(t, .) is unimodal on [0, 1/2], equal to 1 at both ends with one
    interior maximum, so golden-section search on the whole interval finds
    it; near t = 2 the top is flat, and b_t is only as sharp as R allows.
    """
    return _find_bt(_check_t(t, "the re-centering constant needs", strict=True))


def _find_bt(t: float) -> tuple[float, float]:
    """:func:`find_bt` at an already checked float t."""
    b_opt, neg = golden_section_minimize(lambda x: -_ratio(t, x), 0.0, 0.5, tol=1e-10)
    return float(b_opt), float(-neg)


@dataclass(frozen=True, eq=False)
class LipschitzMomentData:
    """Per-coordinate moments of the Lipschitz moduli.

    ``rho_t[i]`` is E rho_i(X_i, x_i)^t and ``rho_2[i]`` is
    E rho_i(X_i, y_i)^2 for the chosen anchor points.  Any sequences may
    be passed; the data stores read-only float64 copies, and compares by
    identity since arrays have no value equality.
    """

    t: float
    rho_t: np.ndarray
    rho_2: np.ndarray

    def __post_init__(self) -> None:
        try:
            _check_t(self.t, "Lipschitz moment data needs", strict=True)
        except DomainError as exc:
            raise ValidationError(str(exc)) from None
        rt = _checked_array("rho_t", self.rho_t)
        r2 = _checked_array("rho_2", self.rho_2)
        if rt.shape != r2.shape:
            raise ValidationError("rho_t and rho_2 must be equal-length sequences")
        object.__setattr__(self, "rho_t", rt)
        object.__setattr__(self, "rho_2", r2)


def separately_lipschitz_bound(
    data: LipschitzMomentData,
    schedule: PQSchedule | None = None,
    lambdas: Sequence[float] | str | None = "optimize",
) -> float:
    """Bound on E|Y - E Y|^t for separately Lipschitz Y (D = 1)."""
    t = data.t
    sum_t = float(np.sum(data.rho_t))
    sum_2 = float(np.sum(data.rho_2))
    return sum_norm_bound(t, sum_t, sum_2, schedule, lambdas)


def sum_norm_bound(
    t: float,
    moments_t: float,
    moments_2: float,
    schedule: PQSchedule | None = None,
    lambdas: Sequence[float] | str | None = "optimize",
) -> float:
    """Central-moment bound for a sum of independent vectors (D = 1).

    ``moments_t`` is sum_i E||X_i - x_i||^t and ``moments_2`` is
    sum_i E||X_i - y_i||^2; the value is
    C_t C_A moments_t + C_B moments_2^(t/2).
    """
    t = _check_t(t, "the central-moment bound needs", strict=True)
    moments_t = _checked_scalar("moments_t", moments_t)
    moments_2 = _checked_scalar("moments_2", moments_2)
    schedule = schedule or default_schedule()
    log_A, log_Bt = _log(moments_t), t / 2.0 * _log(moments_2)
    log_c, log_top = _log_layers(t, 1.0, schedule, int(t // 2))
    _, log_ca, log_cb = _balance(t, log_c, log_top, log_A, log_Bt, lambdas)
    _, c_t = _find_bt(t)
    return _exp(_log_sum([math.log(c_t) + log_ca + log_A, log_cb + log_Bt]))
