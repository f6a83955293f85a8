"""Upper bounds on E||S_n||^t for martingales with increment moment profile
(a_i(s)) and conditional-variance envelope (b_i) in a (2, D)-smooth space.

``theorem_bound`` evaluates the layered subset-sum inequality, the
strongest form.  ``corollary_bound`` evaluates its two-term aggregation
C_A * A_n(t) + C_B * B_n^t, with optional closed-form optimization of the
balancing parameters.  Closed forms specialize the aggregation on (2, 4],
and ``pin94_bound`` evaluates a classical comparison bound that carries an
unspecified absolute constant K.  ``best_bound`` scans every applicable
candidate and returns the smallest.

Each closed form is one row of the private table ``_CLOSED_FORMS``: its
t-interval, whether ``best_bound`` scans it, its leading factor and its
formula.  One evaluator, ``_closed_form``, makes the checks every form
shares, evaluates the form in logs and builds the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .constants import (
    _aggregate,
    _check_t,
    _log_balanced_beta_terms,
    _log_layers,
    _log_smooth,
)
from .core import (
    BOUND_METHODS,
    BoundReport,
    DomainError,
    MomentProfile,
    ValidationError,
    VarianceEnvelope,
    _exp,
    _log,
    _log_sum,
    _ratio_scalar,
    half_layers,
    pow00,
    smoothness_value,
)
from .optimize import _minimize_log_sum_exp_beta, golden_section_minimize
from .schedules import PQSchedule, default_schedule
from .subset_sums import _layer_sum, elementary_symmetric_suffix

__all__ = [
    "Pin94Config",
    "theorem_bound",
    "corollary_bound",
    "closed_form_2_3",
    "closed_form_3_4",
    "closed_form_min",
    "hilbert_2_4",
    "t3_bound",
    "pin94_bound",
    "best_bound",
    "BETA_GRID",
]

# 33 log-spaced points: their span is the interval of the schedule scan,
# and a grid-and-golden scan over them is its reference in tests and bench.
BETA_GRID: tuple[float, ...] = tuple(np.geomspace(0.02, 0.98, 33))

def _check_pair(profile: MomentProfile, envelope: VarianceEnvelope) -> None:
    if profile.n != envelope.n:
        raise ValidationError(
            f"profile has n={profile.n} increments but envelope has {envelope.n}"
        )


def _check_nonneg(name: str, x: float) -> float:
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise ValidationError(f"{name} must be finite and >= 0, got {x}")
    return x


def theorem_bound(
    profile: MomentProfile,
    envelope: VarianceEnvelope,
    D,
    schedule: PQSchedule | None = None,
    *,
    allow_small_t: bool = False,
) -> BoundReport:
    """The layered subset-sum bound on E||S_n||^t.

    Evaluates  sum_{j<m} c_j(t) T_j + c~_m(t) T~_m  where T_j groups the
    j-subsets of steps by their first element with prefix values
    A_{k}(t-2j), and the top layer uses (A_k(2))^(t/2-m) with 0^0 := 1.

    Exponents t < 2 degenerate (m = 0 leaves only (A_n(2))^(t/2) with no
    dependence on D) and are rejected unless ``allow_small_t`` is set.
    """
    _check_pair(profile, envelope)
    t = profile.t
    if t < 2.0 and not allow_small_t:
        raise DomainError(
            f"t={t} is below 2; pass allow_small_t=True to evaluate the "
            "degenerate m=0 form anyway"
        )
    D = smoothness_value(D)
    schedule = schedule or default_schedule()
    A_t = profile.total(t) if profile.has_exponent(t) else None
    return _layered(profile, envelope, D, schedule, A_t, envelope.total())


def _layered(profile, envelope, D: float, schedule: PQSchedule, A_t, B: float) -> BoundReport:
    """The layered bound's report from the totals A_n(t) (None when t is
    unstored) and B_n.  Layer j is homogeneous of degree j in the weights
    b_i^2, so the kernel runs on (b_i / B_n)^2, which sum to 1, and layer j
    carries B_n^{2j} in logs.  Where B_n itself is beyond the float range
    the unit is max b_i instead, and the weights sum to at most n."""
    t = profile.t
    m = half_layers(t)
    log_c, log_top = _log_layers(_check_t(t), D, schedule, m)
    unit = B or 1.0  # B_n = 0 only without steps
    if unit == math.inf:
        unit = float(envelope.b.max())
    w = (envelope.b / unit) ** 2
    table = elementary_symmetric_suffix(w, max(m - 1, 0))
    prefix = [profile.prefix_sums(t - 2.0 * j) for j in range(m)]
    prefix.append(pow00(profile.prefix_sums(2.0), t / 2.0 - m))

    logs = [
        log_cj + _log(_layer_sum(g, w, table, j)) + 2 * j * math.log(unit)
        for j, (log_cj, g) in enumerate(zip(log_c + [log_top], prefix))
    ]

    return BoundReport(
        value=_exp(_log_sum(logs)),
        method="theorem",
        constants={"c": [_exp(x) for x in log_c], "c_tilde": _exp(log_top)},
        parameters={"schedule": schedule.to_dict()},
        ratio_r=None if A_t is None else _ratio_scalar(t, A_t, B, envelope),
    )


def _two_coefficients(log_ca, log_cb, log_A, log_Bt) -> tuple[float, dict]:
    """log(C_A A_t + C_B B^t) and the report's {"C_A", "C_B"}."""
    return _log_sum([log_ca + log_A, log_cb + log_Bt]), {"C_A": _exp(log_ca), "C_B": _exp(log_cb)}


def corollary_bound(
    profile: MomentProfile,
    envelope: VarianceEnvelope,
    D,
    schedule: PQSchedule | None = None,
    lambdas: Sequence[float] | str | None = "optimize",
) -> BoundReport:
    """The aggregated bound C_A * A_n(t) + C_B * B_n^t (t > 2).

    ``lambdas`` may be an explicit sequence, ``None`` for all ones, or
    ``"optimize"`` (default) for the closed-form minimizers.
    """
    _check_pair(profile, envelope)
    t = profile.t
    D = smoothness_value(D)
    schedule = schedule or default_schedule()
    return _aggregated(t, D, schedule, profile.total(t), envelope.total(), lambdas, envelope)


def _aggregated(
    t: float, D: float, schedule: PQSchedule, A_t: float, B: float, lambdas="optimize",
    envelope: VarianceEnvelope | None = None,
) -> BoundReport:
    """The aggregated bound's report from the totals A_n(t) and B_n; the
    ``envelope`` of B_n, where given, gives the ratio where B_n is beyond
    the float range."""
    log_A, log_Bt = _log(A_t), t * _log(B)
    log_c, log_top, lam, log_ca, log_cb = _aggregate(t, D, schedule, log_A, log_Bt, lambdas)
    log_value, constants = _two_coefficients(log_ca, log_cb, log_A, log_Bt)
    return BoundReport(
        value=_exp(log_value),
        method="corollary",
        constants=dict(constants, c=[_exp(x) for x in log_c], c_tilde=_exp(log_top)),
        parameters={"lambdas": lam, "schedule": schedule.to_dict()},
        ratio_r=_ratio_scalar(t, A_t, B, envelope),
    )


def _smooth_front(t, D):
    return _log_smooth(t - 2, D) - math.log(t - 1)


def _hilbert_front(t, D):
    return max(0.0, t - 3.0) * math.log(2.0)


def _two_term(front, t, log_A, log_Bt):
    return _two_coefficients(front, front + math.log(t - 1), log_A, log_Bt)


def _split(front, t, log_A, log_Bt, alpha):
    log_ca = front - (t - 3) * math.log(alpha)
    log_cb = front + math.log(t - 1) - (t - 3) * math.log1p(-alpha)
    return _two_coefficients(log_ca, log_cb, log_A, log_Bt)


def _split_min(front, t, log_A, log_Bt):
    s = max(1.0, t - 2.0)
    core = _log_sum([log_A / s, (math.log(t - 1) + log_Bt) / s])
    return front + s * core, {"front": _exp(front), "s_t": s}


class _ClosedForm(NamedTuple):
    interval: str  # the t-interval, "(lo, hi]" or "[lo, hi]"
    scanned: bool  # a best_bound candidate; at D = 1 only, with hilbert
    hilbert: bool  # holds in the Hilbert case D = 1 only
    front: Callable[[float, float], float]  # (t, D) -> log of the leading factor
    # (log front, t, log A_t, log B^t, **params) -> (log value, report constants)
    formula: Callable[..., tuple[float, dict]]

    def covers(self, t) -> bool:
        lo, hi = (float(x) for x in self.interval[1:-1].split(","))
        return (lo <= t if self.interval[0] == "[" else lo < t) and t <= hi


# The closed forms, in the order of BOUND_METHODS.  t3 is closed_2_3 at
# t = 3 and closed_3_4 needs its split point, so best_bound scans neither.
_CLOSED_FORMS = {
    "t3": _ClosedForm("[3, 3]", False, False, _smooth_front, _two_term),
    "closed_2_3": _ClosedForm("(2, 3]", True, False, _smooth_front, _two_term),
    "closed_3_4": _ClosedForm("[3, 4]", False, False, _smooth_front, _split),
    "closed_min": _ClosedForm("(2, 4]", True, False, _smooth_front, _split_min),
    "hilbert_2_4": _ClosedForm("(2, 4]", True, True, _hilbert_front, _two_term),
}


def _check_interval(name: str, t) -> _ClosedForm:
    form = _CLOSED_FORMS[name]
    if not form.covers(t):
        raise DomainError(f"this closed form needs t in {form.interval}, got t={t}")
    return form


def _closed_form(name: str, t, D, A_t, B, a_name: str = "A_t", **params) -> BoundReport:
    """The report of one closed form; ``params`` go to its formula and, as
    floats, into the report's parameters."""
    form = _check_interval(name, t)
    D = smoothness_value(D)
    A_t = _check_nonneg(a_name, A_t)
    B = _check_nonneg("B", B)
    log_value, constants = form.formula(form.front(t, D), t, _log(A_t), t * _log(B), **params)
    return BoundReport(
        value=_exp(log_value),
        method=name,
        constants=constants,
        parameters={k: float(v) for k, v in params.items()},
        ratio_r=_ratio_scalar(t, A_t, B),
    )


def closed_form_2_3(t: float, D, A_t: float, B: float) -> BoundReport:
    """((t-2+D^2)/(t-1)) * (A + (t-1) B^t)  for t in (2, 3]."""
    return _closed_form("closed_2_3", t, D, A_t, B)


def closed_form_3_4(t: float, D, A_t: float, B: float, alpha: float) -> BoundReport:
    """((t-2+D^2)/(t-1)) * (A / alpha^(t-3) + (t-1) B^t / (1-alpha)^(t-3))
    for t in [3, 4] and alpha in (0, 1)."""
    _check_interval("closed_3_4", t)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    return _closed_form("closed_3_4", t, D, A_t, B, alpha=alpha)


def closed_form_min(t: float, D, A_t: float, B: float) -> BoundReport:
    """The split-point-optimized closed form on (2, 4]:

    ((t-2+D^2)/(t-1)) * [A^(1/s) + (t-1)^(1/s) B^(t/s)]^s,  s = max(1, t-2).
    """
    return _closed_form("closed_min", t, D, A_t, B)


def hilbert_2_4(t: float, A_t: float, B: float) -> BoundReport:
    """2^((t-3)_+) * (A + (t-1) B^t) for t in (2, 4]; Hilbert case D = 1."""
    return _closed_form("hilbert_2_4", t, 1.0, A_t, B)


def t3_bound(D, A_3: float, B: float) -> BoundReport:
    """The t = 3 specialization ((1+D^2)/2) * (A_n(3) + 2 B_n^3)."""
    return _closed_form("t3", 3.0, D, A_3, B, a_name="A_3")


@dataclass(frozen=True)
class Pin94Config:
    """Parameters of the comparison bound K^t (c^t A + c^(t/2) e^(t^2/c) D^t B^t).

    ``K`` is the unspecified absolute constant (a straightforward proof
    yields the large value 120).  ``c`` in [1, t] balances the two terms;
    ``None`` requests internal minimization by scalar search.
    """

    K: float = 120.0
    c: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.K) and self.K > 0.0):
            raise ValidationError(f"K must be finite and > 0, got {self.K}")


def _pin94_log(t: float, D: float, log_A: float, log_Bt: float, c: float) -> float:
    """log of c^t A + c^(t/2) e^(t^2/c) D^t B^t."""
    log_c = math.log(c)
    return _log_sum([t * log_c + log_A, 0.5 * t * log_c + t * t / c + t * math.log(D) + log_Bt])


def pin94_bound(
    t: float, D, A_t: float, B: float, config: Pin94Config | None = None
) -> BoundReport:
    """Comparison bound with unspecified constant, valid for all t >= 2.

    Unlike the layered bounds it does not require the conditional-variance
    envelope assumption, but its constants are far larger.
    """
    if t < 2.0:
        raise DomainError(f"the comparison bound needs t >= 2, got t={t}")
    config = config or Pin94Config()
    D = smoothness_value(D)
    A_t = _check_nonneg("A_t", A_t)
    B = _check_nonneg("B", B)
    log_A, log_Bt = _log(A_t), t * _log(B)
    if config.c is not None:
        c = float(config.c)
        if not 1.0 <= c <= t:
            raise DomainError(f"balancing parameter c must lie in [1, {t}], got {c}")
    else:
        c, _ = golden_section_minimize(
            lambda x: _pin94_log(t, D, log_A, log_Bt, x), 1.0, t, tol=1e-10
        )
    return BoundReport(
        value=_exp(t * math.log(config.K) + _pin94_log(t, D, log_A, log_Bt, c)),
        method="pin94",
        constants={"K": config.K},
        parameters={"c": c},
        ratio_r=_ratio_scalar(t, A_t, B),
    )


def _best_beta_corollary(
    t: float, D: float, A_t: float, B: float, envelope: VarianceEnvelope | None = None
) -> BoundReport:
    """Aggregated bound with the schedule parameter tuned on [0.02, 0.98],
    the span of ``BETA_GRID``.  The log of the balanced value is a
    log-sum-exp of terms linear in log beta and log(1-beta) with
    nonpositive slopes (:func:`_log_balanced_beta_terms`, computed once per
    call), hence convex, and a safeguarded Newton solve in the logit of
    beta minimizes it in about 8 O(m) steps.  One report is built, at the
    winning beta; the grid scan of ``grid_then_golden_minimize`` over
    ``BETA_GRID`` stays as the reference the tests and benchmark check it
    against."""
    terms = _log_balanced_beta_terms(t, D, _log(A_t), t * _log(B))
    beta = _minimize_log_sum_exp_beta(terms, BETA_GRID[0], BETA_GRID[-1])
    return _aggregated(t, D, PQSchedule.beta_family(beta), A_t, B, envelope=envelope)


def best_bound(
    profile: MomentProfile,
    envelope: VarianceEnvelope,
    D,
    schedule: PQSchedule | None = None,
    *,
    pin94: Pin94Config | None = None,
) -> BoundReport:
    """Smallest applicable bound with provenance (t > 2).

    Candidates: the layered bound, the aggregated bound with optimized
    balancing parameters (with a schedule-parameter scan on top when the
    schedule weights matter, i.e. t > 3), the closed forms on (2, 4], and
    optionally the comparison bound.  The closed forms are the scanned rows
    of ``_CLOSED_FORMS`` whose interval holds t.  Exact value ties go to the
    method listed first in ``BOUND_METHODS``: the layered bound, then closed
    forms, then the aggregation.  A_n(t) and B_n are summed once for every
    candidate.  The schedule scan minimizes the convex log of the balanced
    value over beta in [0.02, 0.98] by safeguarded Newton, in about 8
    O(m) steps, and builds one report, at the winning beta; the grid of
    ``BETA_GRID`` with golden-section refinement is the reference the
    tests and the benchmark check it against.
    """
    t = profile.t
    if t <= 2.0:
        raise DomainError(f"best_bound needs t > 2, got t={t}")
    D = smoothness_value(D)
    schedule = schedule or default_schedule()
    _check_pair(profile, envelope)
    A_t = profile.total(t)
    B = envelope.total()

    candidates = [
        _layered(profile, envelope, D, schedule, A_t, B),
        _aggregated(t, D, schedule, A_t, B, envelope=envelope),
    ]
    if t > 3.0:
        candidates.append(_best_beta_corollary(t, D, A_t, B, envelope))
    # The closed forms and pin94 take finite totals; where A_n(t) or B_n is
    # beyond the float range, the two bounds above are already +inf.
    finite = math.isfinite(A_t) and math.isfinite(B)
    candidates += [
        _closed_form(name, t, D, A_t, B)
        for name, form in _CLOSED_FORMS.items()
        if finite and form.scanned and form.covers(t) and (D == 1.0 or not form.hilbert)
    ]
    if pin94 is not None and finite:
        candidates.append(pin94_bound(t, D, A_t, B, pin94))
    return min(candidates, key=lambda r: (r.value, BOUND_METHODS.index(r.method)))
