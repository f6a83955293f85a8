"""Absolute moments of the standard normal and the asymptotic-coefficient
comparison curve.

For the aggregated bound with small ratio A_n(t)/B_n^t the coefficient of
B_n^t tends to t - 1, while the central limit theorem forces at least
E|Z|^t.  The curve (t - 1)/E|Z|^t on (2, 4] measures how close t - 1 is to
that floor; it equals 1 exactly at t = 2 and t = 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import DomainError, _checked_int, _checked_scalar, _exp

__all__ = ["abs_moment_normal", "RatioCurvePoint", "ratio_curve"]

_LOG_SQRT_PI = 0.5 * math.log(math.pi)


def abs_moment_normal(t: float) -> float:
    """E|Z|^t = 2^(t/2) Gamma((t+1)/2) / sqrt(pi) for Z standard normal.

    Evaluated through the log-gamma function; relative error is a few ulp
    (far below 1e-12) for t up to 60.  The value leaves the log domain
    through ``core._exp``, so it is +inf beyond the float range.
    """
    t = _checked_scalar("moment order", t, error=DomainError)
    return _exp(0.5 * t * math.log(2.0) + math.lgamma((t + 1.0) / 2.0) - _LOG_SQRT_PI)


@dataclass(frozen=True)
class RatioCurvePoint:
    """One sample of the comparison curve: exponent, E|Z|^t, (t-1)/E|Z|^t."""

    t: float
    ez_t: float
    ratio: float


def ratio_curve(t_min: float, t_max: float, steps: int) -> list[RatioCurvePoint]:
    """Uniform grid of (t, E|Z|^t, (t-1)/E|Z|^t) on [t_min, t_max].

    Requires 2 <= t_min < t_max <= 4 and steps >= 2; both endpoints are
    included.
    """
    if not 2.0 <= t_min < t_max <= 4.0:
        raise DomainError(
            f"need 2 <= t_min < t_max <= 4, got t_min={t_min}, t_max={t_max}"
        )
    steps = _checked_int("steps", steps, 2, error=DomainError)
    out = []
    for i in range(steps):
        t = t_min + (t_max - t_min) * i / (steps - 1)
        ez = abs_moment_normal(t)
        out.append(RatioCurvePoint(t=t, ez_t=ez, ratio=(t - 1.0) / ez))
    return out
