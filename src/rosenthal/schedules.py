"""Admissible exponent-splitting weights (p(s), q(s)).

Every constant in the layered bounds is built from a pair of weight
functions p, q subject to

    p(2) + q(2) >= 1,  p(2) > 0,  q(2) > 0,
    p(s) >= 1 and q(s) >= 1            for s in (2, 3],
    p(s)^(1/(3-s)) + q(s)^(1/(3-s)) <= 1   for s > 3.

The default one-parameter family indexed by beta in (0, 1) satisfies the
s > 3 constraint with equality and reproduces the closed forms on (2, 4]
(beta plays the role of the split point alpha there).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .core import (
    DomainError,
    MissingExponentError,
    ValidationError,
    _checked_scalar,
    exponent_key,
)

__all__ = ["PQSchedule", "pq_eval", "validate_pq", "DEFAULT_BETA"]

DEFAULT_BETA = 0.5

_PQ_RTOL = 1e-12


def validate_pq(p: float, q: float, s: float, *, rtol: float = _PQ_RTOL) -> bool:
    """Whether (p, q) is an admissible weight pair at exponent s.

    Pure predicate with a small relative slack so that pairs produced in
    floating point by the beta family validate at every s.  The s > 3
    criterion evaluates p^(1/(3-s)), which amplifies rounding in p by a
    factor 1/(s-3); the slack grows with that conditioning so the predicate
    stays meaningful arbitrarily close to s = 3.
    """
    s = _checked_scalar("exponent s", s, 2.0, error=DomainError)
    p = _checked_scalar("weight p", p, None, error=DomainError)
    q = _checked_scalar("weight q", q, None, error=DomainError)
    if s == 2.0:
        return p > 0.0 and q > 0.0 and p + q >= 1.0 - rtol
    if p < 1.0 - rtol or q < 1.0 - rtol:
        return False
    if s <= 3.0:
        return True
    u = 1.0 / (3.0 - s)  # negative
    tol = rtol * max(1.0, -u)
    return p**u + q**u <= 1.0 + tol


def _pair(s: float, entry) -> tuple[float, float]:
    """A custom table's entry at exponent s as two finite floats (p, q), or
    a :class:`ValidationError` that names s."""
    try:
        p, q = entry
    except (TypeError, ValueError):
        p = q = None
    if any(x is None or isinstance(x, (str, bytes)) for x in (p, q)):
        raise ValidationError(
            f"table entry at s={s} must be a pair of numbers (p, q), got {entry!r}"
        )
    name = f"table entry at s={s}"
    return _checked_scalar(name, p, None), _checked_scalar(name, q, None)


@dataclass(frozen=True)
class PQSchedule:
    """A concrete choice of the weight functions p and q.

    ``beta_family`` (the default) returns (1/2, 1/2) at s = 2, (1, 1) on
    (2, 3], and ((1-beta)^(3-s), beta^(3-s)) for s > 3.  ``custom``
    schedules carry an explicit table keyed by exponent.
    """

    kind: str = "beta_family"
    beta: float = DEFAULT_BETA
    table: Mapping[str, tuple[float, float]] | None = field(default=None)

    def __post_init__(self) -> None:
        if self.kind == "beta_family":
            if not 0.0 < self.beta < 1.0:
                raise ValidationError(f"beta must lie in (0, 1), got {self.beta}")
        elif self.kind == "custom":
            if not self.table:
                raise ValidationError("custom schedule needs a nonempty table")
            checked = {}
            for s, entry in dict(self.table).items():
                s = _checked_scalar("table exponent", s, None)
                p, q = _pair(s, entry)
                if not validate_pq(p, q, s):
                    raise ValidationError(
                        f"pair (p={p}, q={q}) is inadmissible at s={s}"
                    )
                checked[exponent_key(s)] = (p, q)
            object.__setattr__(self, "table", checked)
        else:
            raise ValidationError(f"unknown schedule kind {self.kind!r}")

    @classmethod
    def beta_family(cls, beta: float = DEFAULT_BETA) -> "PQSchedule":
        return cls(kind="beta_family", beta=beta)

    @classmethod
    def custom(cls, table: Mapping[float, tuple[float, float]]) -> "PQSchedule":
        return cls(kind="custom", beta=DEFAULT_BETA, table=table)

    def to_dict(self) -> dict:
        if self.kind == "beta_family":
            return {"kind": "beta_family", "beta": float(self.beta)}
        return {
            "kind": "custom",
            "table": {k: [p, q] for k, (p, q) in sorted(self.table.items())},
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "PQSchedule":
        kind = data["kind"]
        if kind == "beta_family":
            return cls.beta_family(float(data["beta"]))
        if kind == "custom":
            return cls.custom({float(k): v for k, v in data["table"].items()})
        return cls(kind=kind)  # names the unknown kind


def pq_eval(schedule: PQSchedule, s: float) -> tuple[float, float]:
    """The weight pair (p(s), q(s)) of a schedule at exponent s >= 2."""
    s = _checked_scalar("exponent s", s, 2.0, error=DomainError)
    if schedule.kind == "custom":
        try:
            return schedule.table[exponent_key(s)]
        except KeyError:
            raise MissingExponentError(
                f"custom schedule has no entry at s={s}"
            ) from None
    if s == 2.0:
        return (0.5, 0.5)
    if s <= 3.0:
        return (1.0, 1.0)
    return ((1.0 - schedule.beta) ** (3.0 - s), schedule.beta ** (3.0 - s))


def default_schedule() -> PQSchedule:
    return PQSchedule.beta_family(DEFAULT_BETA)
