"""Pointwise numerical checks of the geometric and scalar inequalities the
moment bounds rest on.

The spaces are l_p^dim (``LpSpace``) and the Euclidean space, which is
l_2^dim (``HilbertSpace``).  All residuals are oriented so that a
nonnegative value means the inequality holds at the sampled point.  Vector
arguments may carry leading batch axes; the space dimension is the
trailing axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DomainError, ValidationError, _check_t, _checked_array, _checked_int, _checked_scalar, pow00,
)
from .schedules import PQSchedule, default_schedule, pq_eval

__all__ = [
    "HilbertSpace",
    "LpSpace",
    "check_norm_power_increment",
    "check_two_smoothness",
    "check_riemann_sum",
    "check_young",
]


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_k u_k v_k over the trailing axis in one pass: ``.sum(axis=-1)``
    over a short trailing axis runs its inner loop once per row."""
    return np.einsum("...k,...k->...", u, v)


def _int_power(a: np.ndarray, m: int) -> np.ndarray:
    """a**m for an integer m >= 1 by repeated squaring.  Every intermediate
    lies between a and a**m, so none overflows or underflows unless a**m
    does, and the relative error is at most about (m - 1) units of rounding."""
    out = None
    while True:
        if m & 1:
            out = a if out is None else out * a
        m >>= 1
        if not m:
            return out
        a = a * a


@dataclass(frozen=True)
class LpSpace:
    """l_p^dim for p >= 2; two-smooth with constant sqrt(p - 1)."""

    p: float
    dim: int

    def __post_init__(self) -> None:
        if _checked_scalar("l_p exponent", self.p, None) < 2.0:
            raise ValidationError(f"l_p exponent must satisfy p >= 2, got {self.p}")
        object.__setattr__(self, "dim", _checked_int("dimension", self.dim, 1))

    @property
    def smoothness(self) -> float:
        return math.sqrt(self.p - 1.0)

    def norm(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        p = float(self.p)
        if not p.is_integer():
            return np.einsum("...k->...", np.abs(v) ** p) ** (1.0 / p)
        # |v_k|^p = h_k * r_k, multiplied out and never through libm pow; the
        # last product is taken inside the trailing-axis sum.  For even p,
        # h = v^(p/2) gives h * h = |v|^p without the absolute value, so
        # p = 2 is the Euclidean sqrt(<v, v>).
        h = _int_power(v, int(p) // 2)
        total = _dot(h, h if p % 2 == 0 else h * np.abs(v))
        if p == 2.0:
            return np.sqrt(total)
        if p == 3.0:
            return np.cbrt(total)
        if p == 4.0:
            return np.sqrt(np.sqrt(total))
        return total ** (1.0 / p)

    def norm_sq_derivative(self, x, y) -> np.ndarray:
        """2 ||x||_p^(2-p) sum_k |x_k|^(p-1) sgn(x_k) y_k, and 0 at x = 0."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        nx = self.norm(x)
        inner = (np.abs(x) ** (self.p - 1.0) * np.sign(x) * y).sum(axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = 2.0 * nx ** (2.0 - self.p) * inner
        return np.where(nx > 0.0, out, 0.0)


@dataclass(frozen=True)
class HilbertSpace(LpSpace):
    """Euclidean R^dim, which is l_2^dim: two-smooth with constant exactly 1,
    and ``norm_sq_derivative`` is 2 <x, y>."""

    p: float = field(default=2.0, init=False, repr=False)


def check_norm_power_increment(space, x, y, t: float, schedule: PQSchedule | None = None):
    """Residual of the norm-power increment inequality at (x, y).

    For t >= 2 and admissible weights (p(t), q(t)) the inequality is

        ||x+y||^t - ||x||^t <= (t/2) ||x||^(t-2) Q'(x)(y)
            + (t (t-2+D^2) / 2) p(t) ||x||^(t-2) ||y||^2
            + ((t-2+D^2)/(t-1)) q(t) ||y||^t,

    with Q'(x)(y) the directional derivative of the squared norm.  The
    returned residual (right side minus left side) is >= 0 when it holds.
    """
    _check_t(t, "the increment inequality needs")
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
    s = _checked_scalar("exponent s", s, error=DomainError)
    b = _checked_array("b", b, positive=True)
    if b.size == 0:
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
    x = _checked_scalar("x", x, error=DomainError)
    y = _checked_scalar("y", y, error=DomainError)
    p = _checked_scalar("weight p", p, 0.0, strict=True, error=DomainError)
    q = _checked_scalar("weight q", q, 0.0, strict=True, error=DomainError)
    if abs(1.0 / p + 1.0 / q - 1.0) > 1e-12:
        raise DomainError(f"weights p={p}, q={q} are not conjugate")
    lhs = x ** (1.0 / p) * y ** (1.0 / q)
    rhs = x / p + y / q
    return lhs <= rhs + rtol * (1.0 + abs(rhs))
