"""Pointwise numerical checks of the geometric and scalar inequalities the
moment bounds rest on.

All residuals are oriented so that a nonnegative value means the
inequality holds at the sampled point.  Vector arguments may carry leading
batch axes; the space dimension is the trailing axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, ValidationError, pow00
from .schedules import PQSchedule, default_schedule, pq_eval

__all__ = [
    "HilbertSpace",
    "LpSpace",
    "check_norm_power_increment",
    "check_two_smoothness",
    "check_riemann_sum",
    "check_young",
]


@dataclass(frozen=True)
class HilbertSpace:
    """Euclidean R^dim; two-smooth with constant exactly 1."""

    dim: int

    def __post_init__(self) -> None:
        if int(self.dim) != self.dim or self.dim < 1:
            raise ValidationError(f"dimension must be an integer >= 1, got {self.dim}")

    @property
    def smoothness(self) -> float:
        return 1.0

    def norm(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        return np.sqrt((v * v).sum(axis=-1))

    def norm_sq_derivative(self, x, y) -> np.ndarray:
        """Directional derivative of ||.||^2 at x in direction y: 2 <x, y>."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return 2.0 * (x * y).sum(axis=-1)


@dataclass(frozen=True)
class LpSpace:
    """l_p^dim for p >= 2; two-smooth with constant sqrt(p - 1)."""

    p: float
    dim: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.p) and self.p >= 2.0):
            raise ValidationError(f"l_p exponent must satisfy p >= 2, got {self.p}")
        if int(self.dim) != self.dim or self.dim < 1:
            raise ValidationError(f"dimension must be an integer >= 1, got {self.dim}")

    @property
    def smoothness(self) -> float:
        return math.sqrt(self.p - 1.0)

    def norm(self, v) -> np.ndarray:
        a = np.abs(np.asarray(v, dtype=float))
        a **= self.p
        return a.sum(axis=-1) ** (1.0 / self.p)

    def norm_sq_derivative(self, x, y) -> np.ndarray:
        """2 ||x||_p^(2-p) sum_k |x_k|^(p-1) sgn(x_k) y_k, and 0 at x = 0."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        nx = self.norm(x)
        inner = (np.abs(x) ** (self.p - 1.0) * np.sign(x) * y).sum(axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = 2.0 * nx ** (2.0 - self.p) * inner
        return np.where(nx > 0.0, out, 0.0)


def check_norm_power_increment(space, x, y, t: float, schedule: PQSchedule | None = None):
    """Residual of the norm-power increment inequality at (x, y).

    For t >= 2 and admissible weights (p(t), q(t)) the inequality is

        ||x+y||^t - ||x||^t <= (t/2) ||x||^(t-2) Q'(x)(y)
            + (t (t-2+D^2) / 2) p(t) ||x||^(t-2) ||y||^2
            + ((t-2+D^2)/(t-1)) q(t) ||y||^t,

    with Q'(x)(y) the directional derivative of the squared norm.  The
    returned residual (right side minus left side) is >= 0 when it holds.
    """
    if t < 2.0:
        raise DomainError(f"the increment inequality needs t >= 2, got t={t}")
    schedule = schedule or default_schedule()
    p_t, q_t = pq_eval(schedule, t)
    D = space.smoothness
    nx = space.norm(x)
    ny = space.norm(y)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lhs = space.norm(x + y) ** t - nx**t
    xpow = pow00(nx, t - 2.0)
    rhs = (
        0.5 * t * xpow * space.norm_sq_derivative(x, y)
        + 0.5 * t * (t - 2 + D * D) * p_t * xpow * ny**2
        + (t - 2 + D * D) / (t - 1) * q_t * ny**t
    )
    return rhs - lhs


def check_two_smoothness(space, x, y):
    """Residual 2||x||^2 + 2 D^2 ||y||^2 - ||x+y||^2 - ||x-y||^2.

    Nonnegative for every x, y when D is the space's smoothness constant;
    identically zero in the Hilbert case (parallelogram identity).
    """
    D = space.smoothness
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return (
        2.0 * space.norm(x) ** 2
        + 2.0 * D * D * space.norm(y) ** 2
        - space.norm(x + y) ** 2
        - space.norm(x - y) ** 2
    )


def check_riemann_sum(b, s: float, *, rtol: float = 1e-12) -> bool:
    """Whether sum_{i<=k} b_i^2 B_{i-1}^s <= B_k^(s+2) / (s/2 + 1) for all k.

    The left side is a lower Riemann sum of the integral of u^(s/2) over
    [0, B_k^2], so the inequality holds for every positive envelope and
    s >= 0 (B_0^0 = 1 by the 0^0 convention).  The comparison allows a
    small relative slack for exact-equality cases in floating point.
    """
    if s < 0.0:
        raise DomainError(f"the Riemann-sum lemma needs s >= 0, got s={s}")
    b = np.asarray(b, dtype=float)
    if b.ndim != 1 or b.size == 0 or not np.all(np.isfinite(b)) or np.any(b <= 0):
        raise ValidationError("b must be a nonempty sequence of positive reals")
    sq = np.concatenate([[0.0], np.cumsum(b * b)])
    B = np.sqrt(sq)
    lhs = np.cumsum(b * b * pow00(B[:-1], s))
    rhs = B[1:] ** (s + 2.0) / (s / 2.0 + 1.0)
    return bool(np.all(lhs <= rhs * (1.0 + rtol)))


def check_young(x: float, y: float, p: float, q: float, *, rtol: float = 1e-12) -> bool:
    """Whether x^(1/p) y^(1/q) <= x/p + y/q within relative slack.

    Requires x, y >= 0 and conjugate weights p, q > 0 with 1/p + 1/q = 1.
    """
    if x < 0.0 or y < 0.0:
        raise DomainError("Young's inequality needs x, y >= 0")
    if p <= 0.0 or q <= 0.0 or abs(1.0 / p + 1.0 / q - 1.0) > 1e-12:
        raise DomainError(f"weights p={p}, q={q} are not conjugate")
    lhs = x ** (1.0 / p) * y ** (1.0 / q)
    rhs = x / p + y / q
    return lhs <= rhs + rtol * (1.0 + abs(rhs))
