"""Shared domain types: increment moment profiles, conditional-variance
envelopes, smoothness constants, and bound reports.

All types are immutable after construction and safe to share across
threads without synchronization.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "RosenthalError",
    "ValidationError",
    "DomainError",
    "MissingExponentError",
    "SmoothnessConstant",
    "smoothness_value",
    "MomentProfile",
    "VarianceEnvelope",
    "BoundReport",
    "BOUND_METHODS",
    "exponent_key",
    "required_exponents",
    "half_layers",
    "pow00",
    "moment_ratio",
]


class RosenthalError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(RosenthalError, ValueError):
    """An input object violates a structural invariant."""


class DomainError(RosenthalError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class MissingExponentError(RosenthalError, LookupError):
    """A table does not store an entry for the requested exponent."""


def exponent_key(s: float) -> str:
    """Canonical string key for a moment exponent (12 significant digits).

    Exponents are addressed through this representation so that values
    agreeing to 12 significant digits (e.g. ``4.1 - 2`` and ``2.1``) hit
    the same stored entry.  The same format is used for JSON keys.
    """
    return format(float(s), ".12g")


# The largest supported exponent: the advertised domain is 2 <= t <= MAX_T.
MAX_T = 60.0


def _check_t(t, need: str, *, strict: bool = False) -> float:
    """The one check of an exponent t: t as a float when it is finite,
    >= 2 (> 2 with ``strict``) and <= MAX_T, else a :class:`DomainError`.
    ``need`` names the operation in the message for t below 2
    ("verification needs t >= 2, got t=1.5").  Its siblings check the
    other inputs: :func:`_checked_scalar` a real number,
    :func:`_checked_int` a whole number, :func:`_checked_array` a
    per-index sequence."""
    t = _checked_scalar("exponent t", t, None, error=DomainError)
    if t <= 2.0 if strict else t < 2.0:
        raise DomainError(f"{need} t {'>' if strict else '>='} 2, got t={t}")
    if t > MAX_T:
        raise DomainError(f"exponent t={t} exceeds the supported maximum {MAX_T}")
    return t


def half_layers(t: float) -> int:
    """Number of full second-moment layers ``m = floor(t / 2)``, for
    2 <= t <= MAX_T."""
    return int(_check_t(t, "the layers need") // 2)


def required_exponents(t: float) -> tuple[float, ...]:
    """Moment exponents a profile must store to bound the t-th moment.

    These are ``t - 2j`` for ``j = 0 .. m-1`` together with ``2``, where
    ``m = floor(t/2) >= 1``, so t itself is always one of them.  Duplicates
    (exactly even ``t``) are removed.
    """
    return _required(_check_t(t, "the layers need"))


def _required(t: float) -> tuple[float, ...]:
    """:func:`required_exponents` of an already checked float t."""
    out: dict[str, float] = {}
    for s in [t - 2.0 * j for j in range(int(t // 2))] + [2.0]:
        out.setdefault(exponent_key(s), s)  # the first of equal keys
    return tuple(out.values())


def pow00(x, e: float):
    """``x ** e`` with the empty-product convention ``0 ** 0 := 1``.

    Vectorized over ``x``; the exponent is a scalar.
    """
    if e == 0.0:
        return np.ones_like(np.asarray(x, dtype=float))
    return np.asarray(x, dtype=float) ** e


@dataclass(frozen=True)
class SmoothnessConstant:
    """Two-smoothness constant of the ambient Banach space.

    The space satisfies ``|x+y|^2 + |x-y|^2 <= 2|x|^2 + 2 D^2 |y|^2`` for
    all vectors x, y.  Hilbert spaces have D = 1; l_p has D = sqrt(p - 1)
    for p >= 2.  Any nontrivial space forces D >= 1.
    """

    D: float

    def __post_init__(self) -> None:
        smoothness_value(self.D)

    def __float__(self) -> float:
        return self.D


def smoothness_value(D) -> float:
    """Coerce a number or :class:`SmoothnessConstant` to a validated float."""
    return _checked_scalar("smoothness constant", D, 1.0)


def _entries_ok(a: np.ndarray, positive: bool = False) -> bool:
    """Whether every entry of ``a`` is finite and >= 0 (> 0 with
    ``positive``), by one min and one max: NaN fails both comparisons,
    and -0.0 passes >= 0 but not > 0."""
    if not a.size:
        return True
    lo = a.min()
    return bool((lo > 0.0 if positive else lo >= 0.0) and a.max() < math.inf)


def _checked_scalar(
    name: str, x, lo: float | None = 0.0, *, strict: bool = False,
    error: type[RosenthalError] = ValidationError,
) -> float:
    """The one form of a scalar input: ``x`` as a float when it is a
    finite number >= ``lo`` (> ``lo`` with ``strict``, any finite number
    with ``lo=None``), else an ``error`` that names the input and the
    rule.  An integer beyond the float range is not finite, and a string
    is not a number."""
    try:
        if isinstance(x, (str, bytes)):
            raise TypeError
        v = float(x)
    except OverflowError:  # an integer beyond the float range
        v = math.inf if x > 0 else -math.inf
    except (TypeError, ValueError):
        raise error(f"{name} must be a number, got {x!r}") from None
    if not (math.isfinite(v) and (lo is None or (v > lo if strict else v >= lo))):
        rule = "finite" if lo is None else f"finite and {'>' if strict else '>='} {lo:g}"
        raise error(f"{name} must be {rule}, got {v}")
    return v


def _checked_int(
    name: str, x, lo: int, *, hi: int | None = sys.maxsize,
    error: type[RosenthalError] = ValidationError,
) -> int:
    """The one form of a whole-number input (a count, index, dimension or
    seed): ``x`` as an int when it is a whole number in [``lo``, ``hi``],
    else an ``error`` that names the input.  A size ends at the array index
    range ``sys.maxsize``; a seed passes ``hi=None``, since it is only
    hashed.  NaN, infinity and an integer beyond the float range fail
    :func:`_checked_scalar` first; an int keeps its exact value and is
    never rounded through float."""
    v = _checked_scalar(name, x, None, error=error)
    if not (v.is_integer() and v >= lo):
        raise error(f"{name} must be an integer >= {lo}, got {x}")
    n = int(x) if isinstance(x, (int, np.integer)) else int(v)
    if hi is not None and n > hi:
        raise error(f"{name} must be an integer <= {hi}, got {x}")
    return n


def _allocated(name: str, size: int, make):
    """``make()``, or a :class:`ValidationError` that names the input
    ``size`` when the array or list it asks for cannot be allocated."""
    try:
        return make()
    except (MemoryError, ValueError):  # numpy: a shape beyond its index range
        raise ValidationError(f"{name} is too large to allocate, got {size}") from None


def _checked_array(name: str, values, *, positive: bool = False) -> np.ndarray:
    """The one form of a per-index input: a read-only 1-d float64 copy of
    ``values`` whose entries are finite and >= 0 (> 0 with ``positive``),
    or a :class:`ValidationError` that names the input."""
    entries = f"{name} must be finite and {'> 0' if positive else '>= 0'}"
    try:
        a = np.array(values, dtype=float)
    except OverflowError:  # an integer beyond the float range
        raise ValidationError(entries) from None
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a sequence of numbers") from None
    if a.ndim != 1:
        raise ValidationError(f"{name} must be a flat sequence")
    if not _entries_ok(a, positive):
        raise ValidationError(entries)
    a.setflags(write=False)
    return a


class MomentProfile:
    """Per-increment absolute moments a_i(s) on a fixed exponent grid.

    ``moments`` maps each exponent s to the sequence (a_1(s), ..., a_n(s)).
    The sequences are copied, in one pass, into the rows of one read-only
    (k, n) float64 block with one check of its entries, so a later change
    to the caller's arrays changes nothing; where an exponent or a
    sequence fails, the sequences are checked one by one to name it.
    Exponents with the same :func:`exponent_key` keep the last sequence.
    A profile with target exponent ``t`` must store every exponent in
    :func:`required_exponents`; moments at unstored exponents are never
    inferred by interpolation.

    With ``exact=True`` the total A_n(s) is checked for log-convexity in s
    across the stored grid; a violation only warns, since Monte-Carlo
    estimates may break it within noise.
    """

    __slots__ = ("n", "t", "_arrays", "_exponents")

    def __init__(
        self,
        n: int,
        t: float,
        moments: Mapping[float, Sequence[float]],
        *,
        exact: bool = False,
    ) -> None:
        n = _checked_int("n", n, 0)
        t = _check_t(t, "a moment profile needs")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "t", t)

        try:
            exps_seq = [_checked_scalar("moment exponent", s) for s in moments]
            block = np.array(list(moments.values()), dtype=float)
        except (TypeError, ValueError, OverflowError):  # named by the one-by-one checks
            block = None
        if block is not None and block.shape == (len(exps_seq), self.n) and _entries_ok(block):
            block.setflags(write=False)
            keys = [exponent_key(s) for s in exps_seq]
            arrays = dict(zip(keys, block))
            exps = dict(zip(keys, exps_seq))
        else:
            arrays, exps = self._checked_rows(moments)
        object.__setattr__(self, "_arrays", arrays)
        object.__setattr__(self, "_exponents", exps)

        missing = [s for s in _required(t) if exponent_key(s) not in arrays]
        if missing:
            raise ValidationError(
                f"profile for t={t} is missing required exponents {missing}"
            )
        if exact:
            self._warn_if_not_log_convex()

    def _checked_rows(self, moments) -> tuple[dict[str, np.ndarray], dict[str, float]]:
        """The sequences checked one by one: the first bad exponent or
        sequence raises a :class:`ValidationError` that names it."""
        arrays: dict[str, np.ndarray] = {}
        exps: dict[str, float] = {}
        for s, seq in moments.items():
            s = _checked_scalar("moment exponent", s)
            a = _checked_array(f"moments at s={s}", seq)
            if a.shape[0] != self.n:
                raise ValidationError(
                    f"moments at s={s} must be a length-{self.n} sequence"
                )
            key = exponent_key(s)
            arrays[key] = a
            exps[key] = s
        return arrays, exps

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("MomentProfile is immutable")

    @property
    def exponents(self) -> tuple[float, ...]:
        """Stored exponents in increasing order."""
        return tuple(sorted(self._exponents.values()))

    def has_exponent(self, s: float) -> bool:
        return exponent_key(s) in self._arrays

    def moment_array(self, s: float) -> np.ndarray:
        """The stored sequence (a_1(s), ..., a_n(s))."""
        try:
            return self._arrays[exponent_key(s)]
        except KeyError:
            raise MissingExponentError(f"exponent {s!r} not in profile") from None

    def prefix_sums(self, s: float) -> np.ndarray:
        """Partial sums (A_0(s), A_1(s), ..., A_n(s)); A_0(s) = 0."""
        a = self.moment_array(s)
        out = np.zeros(self.n + 1)
        with np.errstate(over="ignore"):  # a sum beyond the float range is +inf
            np.cumsum(a, out=out[1:])
        return out

    def partial_sum(self, k: int, s: float) -> float:
        """A_k(s), the sum of the first k per-increment moments at s."""
        k = _checked_int("index k", k, 0, error=DomainError)
        if k > self.n:
            raise DomainError(f"index k must lie in 0..{self.n}, got {k}")
        a = self.moment_array(s)
        with np.errstate(over="ignore"):  # a sum beyond the float range is +inf
            return float(np.sum(a[:k]))

    def total(self, s: float) -> float:
        """A_n(s)."""
        return self.partial_sum(self.n, s)

    def log_convexity_gap(self) -> float:
        """Smallest slack of log A_n(s) below its chords on the stored grid.

        Positive values mean strictly log-convex; small negatives are
        expected from Monte-Carlo noise.  Undefined grids (fewer than three
        exponents with positive totals) return +inf.
        """
        pts = sorted(
            (s, self.total(s)) for s in self.exponents if self.total(s) > 0.0
        )
        if len(pts) < 3:
            return math.inf
        gap = math.inf
        for (s1, a1), (s2, a2), (s3, a3) in zip(pts, pts[1:], pts[2:]):
            chord = (
                math.log(a1) * (s3 - s2) + math.log(a3) * (s2 - s1)
            ) / (s3 - s1)
            gap = min(gap, chord - math.log(a2))
        return gap

    def _warn_if_not_log_convex(self) -> None:
        gap = self.log_convexity_gap()
        if gap < -1e-9:
            warnings.warn(
                f"total moments are not log-convex across the stored "
                f"exponents (gap {gap:.3e}); the aggregated bound may not "
                f"dominate the layered one",
                RuntimeWarning,
                stacklevel=3,
            )

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "t": self.t,
            "moments": {
                key: [float(v) for v in self._arrays[key]]
                for key in sorted(self._arrays, key=lambda k: self._exponents[k])
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping, *, exact: bool = False) -> "MomentProfile":
        moments = {float(k): v for k, v in data["moments"].items()}
        return cls(data["n"], data["t"], moments, exact=exact)

    def __repr__(self) -> str:
        return f"MomentProfile(n={self.n}, t={self.t}, exponents={self.exponents})"


class VarianceEnvelope:
    """Per-step conditional-variance bounds b_i with cumulative roots B_k.

    ``B_k = sqrt(b_1^2 + ... + b_k^2)`` is nondecreasing in k with B_0 = 0.
    """

    __slots__ = ("b",)

    def __init__(self, b: Sequence[float]) -> None:
        object.__setattr__(self, "b", _checked_array("envelope b", b, positive=True))

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("VarianceEnvelope is immutable")

    @property
    def n(self) -> int:
        return int(self.b.shape[0])

    def cumulative_array(self) -> np.ndarray:
        """(B_0, B_1, ..., B_n), summed in units of max b_i as in :meth:`total`."""
        top = float(self.b.max(initial=0.0))
        out = np.zeros(self.n + 1)
        np.cumsum((self.b / top) ** 2, out=out[1:])
        return top * np.sqrt(out)

    def total(self) -> float:
        """B_n, summed in units of max b_i so that no b_i^2 overflows."""
        top = float(self.b.max(initial=0.0))
        return top * math.sqrt(float(np.sum((self.b / top) ** 2)))

    def _log_total(self) -> float:
        """log B_n in units of max b_i, as in :meth:`total`: finite also where
        B_n itself is beyond the float range.  Needs n >= 1."""
        top = float(self.b.max())
        return math.log(top) + 0.5 * math.log(float(np.sum((self.b / top) ** 2)))

    def to_dict(self) -> dict:
        return {"b": [float(v) for v in self.b]}

    @classmethod
    def from_dict(cls, data: Mapping) -> "VarianceEnvelope":
        return cls(data["b"])

    def __repr__(self) -> str:
        return f"VarianceEnvelope(n={self.n}, B_n={self.total():.6g})"


# Every bound method, in the order best_bound prefers on an exact tie.
BOUND_METHODS = (
    "theorem",
    "t3",
    "closed_2_3",
    "closed_3_4",
    "closed_min",
    "hilbert_2_4",
    "corollary",
    "pin94",
)


@dataclass(frozen=True)
class BoundReport:
    """Value of a moment bound together with its provenance.

    ``constants`` holds the evaluated constants (C_A/C_B or the per-layer
    c_j list), ``parameters`` the chosen free parameters (lambdas, alpha,
    beta, c, K), and ``ratio_r`` the ratio A_n(t) / B_n^t when both sides
    are available and B_n > 0.
    """

    value: float
    method: str
    constants: Mapping[str, object] = field(default_factory=dict)
    parameters: Mapping[str, object] = field(default_factory=dict)
    ratio_r: float | None = None

    def __post_init__(self) -> None:
        if self.method not in BOUND_METHODS:
            raise ValidationError(f"unknown bound method {self.method!r}")
        if math.isnan(self.value) or self.value < 0.0:
            raise ValidationError(f"bound value must be >= 0, got {self.value}")

    def to_dict(self) -> dict:
        return {
            "value": float(self.value),
            "method": self.method,
            "constants": dict(self.constants),
            "parameters": dict(self.parameters),
            "ratio_r": None if self.ratio_r is None else float(self.ratio_r),
        }


_LOG_MAX = math.log(math.nextafter(math.inf, 0.0))  # the largest log exp maps to a float


def _log(x: float) -> float:
    """log x for x >= 0, with log 0 = -inf."""
    return math.log(x) if x > 0.0 else -math.inf


def _log_sum(logs) -> float:
    """log(sum(exp(x) for x in logs)); -inf for no or all-zero terms."""
    top = max(logs, default=-math.inf)
    if math.isinf(top):
        return top
    return top + math.log(math.fsum([math.exp(x - top) for x in logs]))


def _exp(x: float) -> float:
    """exp x as a float, the one exit from the log domain: +inf above the
    float range, the smallest positive float where a positive value
    underflows, and 0.0 only for x = -inf."""
    if x > _LOG_MAX:
        return math.inf
    return math.exp(x) or (math.ulp(0.0) if x > -math.inf else 0.0)


def _ratio_scalar(t: float, A_t: float, B: float, envelope=None) -> float | None:
    """A_t / B^t, evaluated in logs; None when B = 0.  Where B = B_n of
    ``envelope`` is beyond the float range, log B_n is taken from the
    envelope in units of max b_i, so a positive ratio below the float range
    reads the smallest positive float, not 0."""
    if B <= 0.0:
        return None
    log_B = envelope._log_total() if B == math.inf and envelope is not None else math.log(B)
    return _exp(_log(A_t) - t * log_B)


def moment_ratio(profile: MomentProfile, envelope: VarianceEnvelope) -> float | None:
    """A_n(t) / B_n^t, or None when B_n = 0 (no steps).  Every profile
    stores its own t (see :func:`required_exponents`)."""
    return _ratio_scalar(profile.t, profile.total(profile.t), envelope.total(), envelope)
