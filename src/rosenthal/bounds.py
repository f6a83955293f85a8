"""Upper bounds on E||S_n||^t for martingales with increment moment profile
(a_i(s)) and conditional-variance envelope (b_i) in a (2, D)-smooth space.

``theorem_bound`` evaluates the layered subset-sum inequality, the
strongest form.  ``corollary_bound`` evaluates its two-term aggregation
C_A * A_n(t) + C_B * B_n^t, with optional closed-form optimization of the
balancing parameters.  Closed forms specialize the aggregation on (2, 4],
and ``pin94_bound`` evaluates a classical comparison bound that carries an
unspecified absolute constant K.  ``best_bound`` scans every applicable
candidate and returns the smallest.

Each bound form has one private evaluator: ``_layered`` (the theorem),
``_aggregated`` (the corollary) and ``_closed`` (a row of the table
``_CLOSED_FORMS``).  Each takes the totals A_n(t) and B_n, the layered
forms also a schedule's layer logs, and returns the value with a builder
of its report; the builder closes over the same logs, so a report prints
the value that was ranked.  The public bounds check their inputs and
build the report; ``best_bound`` ranks the values and builds only the
winner's report.

A closed form's row holds its t-interval, whether ``best_bound`` scans it,
and its formula.  t3, closed_2_3, closed_3_4 and hilbert_2_4 are the
aggregation at one layer, so they equal ``corollary_bound`` bit for bit
where it has one layer; closed_min minimizes that form over its split
point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .constants import (
    _balance,
    _layer_logs,
    _log_balanced_beta_terms,
    _log_coefficients,
    _log_layers,
    _log_smooth,
    _logs_at,
)
from .core import (
    BOUND_METHODS,
    BoundReport,
    DomainError,
    MomentProfile,
    ValidationError,
    VarianceEnvelope,
    _check_t,
    _checked_scalar,
    _exp,
    _log,
    _log_sum,
    _ratio_scalar,
    smoothness_value,
)
from .optimize import _minimize_log_sum_exp_beta, golden_section_minimize
from .schedules import DEFAULT_BETA, PQSchedule, default_schedule
from .subset_sums import _layer_sums

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

# A bound form's value and the builder of its report.
_Evaluated = tuple[float, Callable[[], BoundReport]]


def _check_pair(profile: MomentProfile, envelope: VarianceEnvelope) -> None:
    if profile.n != envelope.n:
        raise ValidationError(
            f"profile has n={profile.n} increments but envelope has {envelope.n}"
        )


def theorem_bound(
    profile: MomentProfile,
    envelope: VarianceEnvelope,
    D,
    schedule: PQSchedule | None = None,
) -> BoundReport:
    """The layered subset-sum bound on E||S_n||^t (t >= 2).

    Evaluates  sum_{j<m} c_j(t) T_j + c~_m(t) T~_m  where T_j groups the
    j-subsets of steps by their first element with prefix values
    A_{k}(t-2j), and the top layer uses (A_k(2))^(t/2-m) with 0^0 := 1.
    The profile has checked t, so m = floor(t/2) >= 1.
    """
    _check_pair(profile, envelope)
    D = smoothness_value(D)
    schedule = schedule or default_schedule()
    t = profile.t
    logs = _log_layers(t, D, schedule, int(t // 2))
    return _layered(profile, envelope, schedule, profile.total(t), envelope.total(), logs)[1]()


def _layered(profile, envelope, schedule: PQSchedule, A_t, B: float, logs) -> _Evaluated:
    """The layered bound from the totals A_n(t), B_n and the schedule's
    layer logs (log c_0, ..., log c_{m-1}; log c~_m) of `_log_layers`.
    The layers come from one pass of `_layer_sums`: T_0 = A_n(t);
    T_j = sum_i a_i(t-2j) e_j(w_{i+1}..w_n) for 0 < j < m, the min-grouped
    sum with its two sums swapped, so that no prefix sums are formed; the
    top layer is min-grouped over the prefix values (A_k(2))^(t/2-m).  They
    combine with the layer constants in logs.  Layer j is homogeneous of
    degree j in the weights b_i^2, so the kernel runs on w = (b_i / B_n)^2,
    which sum to 1, and layer j carries B_n^{2j} in logs.  Where B_n itself
    is beyond the float range the unit is max b_i instead, and the weights
    sum to at most n."""
    t = profile.t
    log_c, log_top = logs
    m = len(log_c)
    unit = B or 1.0  # B_n = 0 only without steps
    if unit == math.inf:
        unit = float(envelope.b.max())
    layers = _layer_sums(
        A_t,
        [profile.moment_array(t - 2.0 * j) for j in range(1, m)],
        profile.moment_array(2.0),
        envelope.b,
        unit,
        t / 2.0 - m,
    )
    value = _exp(_log_sum([
        log_cj + _log(layer) + 2 * j * math.log(unit)
        for j, (log_cj, layer) in enumerate(zip(log_c + [log_top], layers))
    ]))
    return value, lambda: BoundReport(
        value=value,
        method="theorem",
        constants={"c": [_exp(x) for x in log_c], "c_tilde": _exp(log_top)},
        parameters={"schedule": schedule.to_dict()},
        ratio_r=_ratio_scalar(t, A_t, B, envelope),
    )


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
    t = _check_t(profile.t, "the aggregated bound needs", strict=True)
    D = smoothness_value(D)
    schedule = schedule or default_schedule()
    logs = _log_layers(t, D, schedule, int(t // 2))
    return _aggregated(
        t, schedule, profile.total(t), envelope.total(), logs, lambdas, envelope
    )[1]()


def _aggregated(
    t: float, schedule: PQSchedule, A_t: float, B: float, logs, lambdas="optimize",
    envelope: VarianceEnvelope | None = None,
) -> _Evaluated:
    """The aggregated bound from the totals A_n(t), B_n and the schedule's
    layer logs (log c_0, ..., log c_{m-1}; log c~_m) of `_log_layers`;
    ``lambdas`` as for :func:`corollary_bound`.  The ``envelope`` of B_n,
    where given, gives the ratio where B_n is beyond the float range."""
    log_c, log_top = logs
    log_A, log_Bt = _log(A_t), t * _log(B)
    lam, log_ca, log_cb = _balance(t, log_c, log_top, log_A, log_Bt, lambdas)
    value = _exp(_log_sum([log_ca + log_A, log_cb + log_Bt]))
    return value, lambda: BoundReport(
        value=value,
        method="corollary",
        constants={
            "C_A": _exp(log_ca),
            "C_B": _exp(log_cb),
            "c": [_exp(x) for x in log_c],
            "c_tilde": _exp(log_top),
        },
        parameters={"lambdas": lam, "schedule": schedule.to_dict()},
        ratio_r=_ratio_scalar(t, A_t, B, envelope),
    )


def _one_layer(t, D, log_A, log_Bt, alpha=DEFAULT_BETA):
    """log(C_A A_t + C_B B^t) and {"C_A", "C_B"} of the aggregation at one
    layer (m = 1, also at t = 4) with unit lambda at beta_family(alpha)."""
    log_c, log_top = _log_layers(t, D, PQSchedule.beta_family(alpha), 1)
    log_ca, log_cb = _log_coefficients(t, log_c, log_top, [0.0])
    return _log_sum([log_ca + log_A, log_cb + log_Bt]), {"C_A": _exp(log_ca), "C_B": _exp(log_cb)}


def _split_min(t, D, log_A, log_Bt):
    """`_one_layer` minimized over its split point alpha in closed form."""
    front = _log_smooth(t - 2, D) - math.log(t - 1)
    s = max(1.0, t - 2.0)
    core = _log_sum([log_A / s, (math.log(t - 1) + log_Bt) / s])
    return front + s * core, {"front": _exp(front), "s_t": s}


class _ClosedForm(NamedTuple):
    interval: str  # the t-interval, "(lo, hi]" or "[lo, hi]"
    scanned: bool  # a best_bound candidate; at D = 1 only, with hilbert
    hilbert: bool  # holds in the Hilbert case D = 1 only
    # (t, D, log A_t, log B^t, **params) -> (log value, report constants)
    formula: Callable[..., tuple[float, dict]]

    def covers(self, t) -> bool:
        lo, hi = (float(x) for x in self.interval[1:-1].split(","))
        return (lo <= t if self.interval[0] == "[" else lo < t) and t <= hi


# The closed forms, in the order of BOUND_METHODS.  t3 is closed_2_3 at
# t = 3 and closed_3_4 needs its split point, so best_bound scans neither.
_CLOSED_FORMS = {
    "t3": _ClosedForm("[3, 3]", False, False, _one_layer),
    "closed_2_3": _ClosedForm("(2, 3]", True, False, _one_layer),
    "closed_3_4": _ClosedForm("[3, 4]", False, False, _one_layer),
    "closed_min": _ClosedForm("(2, 4]", True, False, _split_min),
    "hilbert_2_4": _ClosedForm("(2, 4]", True, True, _one_layer),
}


def _check_interval(name: str, t) -> None:
    form = _CLOSED_FORMS[name]
    if not form.covers(t):
        raise DomainError(f"this closed form needs t in {form.interval}, got t={t}")


def _closed(name: str, t: float, D: float, A_t: float, B: float, **params) -> _Evaluated:
    """The closed form ``name`` from the totals A_n(t) and B_n; ``params``
    go to its formula and, as floats, into the report's parameters.  Inputs
    are not checked."""
    log_value, constants = _CLOSED_FORMS[name].formula(t, D, _log(A_t), t * _log(B), **params)
    value = _exp(log_value)
    return value, lambda: BoundReport(
        value=value,
        method=name,
        constants=constants,
        parameters={k: float(v) for k, v in params.items()},
        ratio_r=_ratio_scalar(t, A_t, B),
    )


def _checked_closed(name: str, t, D, A_t, B, a_name: str = "A_t", **params) -> BoundReport:
    """The report of one closed form after the checks every form shares."""
    _check_interval(name, t)
    D = smoothness_value(D)
    A_t = _checked_scalar(a_name, A_t)
    B = _checked_scalar("B", B)
    return _closed(name, t, D, A_t, B, **params)[1]()


def closed_form_2_3(t: float, D, A_t: float, B: float) -> BoundReport:
    """((t-2+D^2)/(t-1)) * (A + (t-1) B^t)  for t in (2, 3]."""
    return _checked_closed("closed_2_3", t, D, A_t, B)


def closed_form_3_4(t: float, D, A_t: float, B: float, alpha: float) -> BoundReport:
    """((t-2+D^2)/(t-1)) * (A / alpha^(t-3) + (t-1) B^t / (1-alpha)^(t-3))
    for t in [3, 4] and alpha in (0, 1)."""
    _check_interval("closed_3_4", t)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    return _checked_closed("closed_3_4", t, D, A_t, B, alpha=alpha)


def closed_form_min(t: float, D, A_t: float, B: float) -> BoundReport:
    """The split-point-optimized closed form on (2, 4]:

    ((t-2+D^2)/(t-1)) * [A^(1/s) + (t-1)^(1/s) B^(t/s)]^s,  s = max(1, t-2).
    """
    return _checked_closed("closed_min", t, D, A_t, B)


def hilbert_2_4(t: float, A_t: float, B: float) -> BoundReport:
    """2^((t-3)_+) * (A + (t-1) B^t) for t in (2, 4]; Hilbert case D = 1."""
    return _checked_closed("hilbert_2_4", t, 1.0, A_t, B)


def t3_bound(D, A_3: float, B: float) -> BoundReport:
    """The t = 3 specialization ((1+D^2)/2) * (A_n(3) + 2 B_n^3)."""
    return _checked_closed("t3", 3.0, D, A_3, B, a_name="A_3")


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
        _checked_scalar("K", self.K, 0.0, strict=True)


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
    t = _check_t(t, "the comparison bound needs")
    config = config or Pin94Config()
    D = smoothness_value(D)
    A_t = _checked_scalar("A_t", A_t)
    B = _checked_scalar("B", B)
    log_A, log_Bt = _log(A_t), t * _log(B)
    if config.c is not None:
        c = _checked_scalar("balancing parameter c", config.c, None, error=DomainError)
        if not 1.0 <= c <= t:
            raise DomainError(f"balancing parameter c must lie in [1, {t}], got {c}")
    else:
        c, _ = golden_section_minimize(lambda x: _pin94_log(t, D, log_A, log_Bt, x), 1.0, t)
    return BoundReport(
        value=_exp(t * math.log(config.K) + _pin94_log(t, D, log_A, log_Bt, c)),
        method="pin94",
        constants={"K": config.K},
        parameters={"c": c},
        ratio_r=_ratio_scalar(t, A_t, B),
    )


def best_bound(
    profile: MomentProfile,
    envelope: VarianceEnvelope,
    D,
    schedule: PQSchedule | None = None,
    *,
    pin94: Pin94Config | None = None,
) -> BoundReport:
    """Smallest applicable bound with provenance (t > 2).

    Candidates: the layered bound and the aggregated bound with optimized
    balancing parameters at the caller's schedule, the aggregated bound at
    a scanned beta-family schedule when the schedule weights matter (t > 3),
    the closed forms on (2, 4], and optionally the comparison bound.  The
    closed forms are the scanned rows of ``_CLOSED_FORMS`` whose interval
    holds t.  Each candidate is a (value, report builder, method) triple
    from its form's own evaluator, ranked by value; exact ties go to the
    method listed first in ``BOUND_METHODS``: the layered bound, then
    closed forms, then the aggregation.  Only the winner's report is built,
    and it prints the value that was ranked.

    A_n(t) and B_n are summed once for every candidate, and a beta-family
    schedule's layer logs are formed once: they do not depend on beta.
    Another schedule's scan runs on the default schedule's layer logs.  The
    scan minimizes the convex log of the balanced value over beta in
    [0.02, 0.98] by safeguarded Newton, in about 8 O(m) steps; the grid of
    ``BETA_GRID`` with golden-section refinement is the reference the tests
    and the benchmark check it against.
    """
    t = _check_t(profile.t, "best_bound needs", strict=True)
    D = smoothness_value(D)
    schedule = schedule or default_schedule()
    _check_pair(profile, envelope)
    A_t = profile.total(t)
    B = envelope.total()

    m = int(t // 2)
    layers = _layer_logs(t, D, schedule, m)
    logs = _logs_at(layers, schedule.beta)
    candidates = [  # (value, report builder, method)
        (*_layered(profile, envelope, schedule, A_t, B, logs), "theorem"),
        (*_aggregated(t, schedule, A_t, B, logs, envelope=envelope), "corollary"),
    ]
    if t > 3.0:
        # A beta-family schedule's layer logs do not depend on its beta.
        if schedule.kind != "beta_family":
            layers = _layer_logs(t, D, default_schedule(), m)
        terms = _log_balanced_beta_terms(t, D, _log(A_t), t * _log(B), layers)
        beta = _minimize_log_sum_exp_beta(terms, BETA_GRID[0], BETA_GRID[-1])
        tuned = PQSchedule.beta_family(beta)
        candidates.append(
            (*_aggregated(t, tuned, A_t, B, _logs_at(layers, beta), envelope=envelope), "corollary")
        )
    # The closed forms and pin94 take finite totals; where A_n(t) or B_n is
    # beyond the float range, the bounds above are already +inf.
    if math.isfinite(A_t) and math.isfinite(B):
        for name, form in _CLOSED_FORMS.items():
            if form.scanned and form.covers(t) and (D == 1.0 or not form.hilbert):
                candidates.append((*_closed(name, t, D, A_t, B), name))
        if pin94 is not None:
            pin = pin94_bound(t, D, A_t, B, pin94)
            candidates.append((pin.value, lambda: pin, "pin94"))
    _, build, _ = min(candidates, key=lambda c: (c[0], BOUND_METHODS.index(c[2])))
    return build()
