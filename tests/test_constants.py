import math
import sys

import decimal_oracle as oracle
import numpy as np
import pytest
from conftest import make_valid_case, scanned_corollary
from hypothesis import given, settings
from hypothesis import strategies as st

from rosenthal import (
    C_A,
    C_B,
    DomainError,
    MinGroupedSumSpec,
    PQSchedule,
    RademacherModel,
    TwoPointModel,
    ValidationError,
    best_bound,
    c_j,
    c_tilde,
    compute_constants,
    corollary_bound,
    elementary_symmetric_suffix,
    optimize_lambdas,
    simulate,
    theorem_bound,
)
from rosenthal import bounds, checks, concentration, constants, core, verify
from rosenthal.bounds import (
    BETA_GRID,
    Pin94Config,
    closed_form_2_3,
    closed_form_3_4,
    closed_form_min,
    hilbert_2_4,
    pin94_bound,
    t3_bound,
)
from rosenthal.checks import LpSpace, check_norm_power_increment, check_riemann_sum, check_young
from rosenthal.concentration import (
    LipschitzMomentData,
    find_bt,
    recentering_ratio,
    sum_norm_bound,
)
from rosenthal.constants import MAX_T, _layer_logs
from rosenthal.core import (
    MomentProfile,
    RosenthalError,
    SmoothnessConstant,
    VarianceEnvelope,
    half_layers,
    required_exponents,
    smoothness_value,
)
from rosenthal.gaussian import abs_moment_normal, ratio_curve
from rosenthal.models import make_model
from rosenthal.optimize import grid_then_golden_minimize
from rosenthal.rng import stream_key, worker_count
from rosenthal.schedules import pq_eval, validate_pq
from rosenthal.verify import estimate_and_check


class TestLayerConstants:
    def test_c0_at_three(self):
        assert c_j(3.0, 1.0, None, 0) == pytest.approx(1.0, rel=1e-15)

    def test_c0_at_three_bigger_smoothness(self):
        assert c_j(3.0, math.sqrt(3.0), None, 0) == pytest.approx(2.0, rel=1e-14)

    def test_c0_at_two_with_half_weight(self):
        assert c_j(2.0, 1.0, None, 0) == pytest.approx(0.5, rel=1e-15)

    def test_layer_index_range(self):
        with pytest.raises(DomainError):
            c_j(3.0, 1.0, None, 1)
        with pytest.raises(DomainError):
            c_j(3.0, 1.0, None, -1)

    def test_c_tilde_at_three(self):
        assert c_tilde(3.0, 1.0) == pytest.approx(3.0, rel=1e-15)

    def test_c_tilde_empty_product(self):
        # c~_m is a product over m = floor(t/2) >= 1 layers: t >= 2.
        with pytest.raises(DomainError, match="need t >= 2, got t=1.5"):
            c_tilde(1.5, 7.0)

    def test_c_tilde_at_four(self):
        # layers j=0: 4*3*p(4)/2 with p(4)=2, j=1: 2*1*p(2)/2 with p(2)=1/2
        assert c_tilde(4.0, 1.0) == pytest.approx(6.0, rel=1e-14)

    def test_exponent_guard(self):
        with pytest.raises(DomainError):
            c_tilde(61.0, 1.0)


class TestAggregatedConstants:
    @pytest.mark.parametrize("D", [1.0, math.sqrt(2), math.sqrt(3), 2.0])
    def test_exact_values_at_three(self, D):
        ca = C_A(3.0, D, None, [1.0])
        cb = C_B(3.0, D, None, [1.0])
        assert abs(ca - (1 + D * D) / 2) <= 1e-14 * abs(ca)
        assert abs(cb - (1 + D * D)) <= 1e-14 * abs(cb)

    def test_matches_split_closed_form(self):
        # At t in (3, 4) with the schedule parameter alpha, the aggregation
        # must equal the alpha-split closed-form coefficients.
        t, alpha = 3.5, 0.3
        for D in (1.0, 1.4):
            sched = PQSchedule.beta_family(alpha)
            ca = C_A(t, D, sched, [1.0])
            cb = C_B(t, D, sched, [1.0])
            front = (t - 2 + D * D) / (t - 1)
            assert ca == pytest.approx(front * alpha ** (3 - t), rel=1e-13)
            assert cb == pytest.approx((t - 2 + D * D) * (1 - alpha) ** (3 - t), rel=1e-13)

    def test_domain_error_at_two(self):
        with pytest.raises(DomainError):
            C_A(2.0, 1.0, None, [])
        with pytest.raises(DomainError):
            C_B(2.0, 1.0, None, [])

    def test_lambda_validation(self):
        with pytest.raises(ValidationError):
            C_A(3.0, 1.0, None, [])
        with pytest.raises(ValidationError):
            C_A(3.0, 1.0, None, [-1.0])

    def test_positive_and_finite(self):
        for t in np.linspace(2.01, 10.0, 25):
            for D in (1.0, math.sqrt(2), 2.0):
                cs = compute_constants(float(t), D)
                assert 0 < cs.C_A < math.inf
                assert 0 < cs.C_B < math.inf
                assert all(c > 0 for c in cs.c)
                assert cs.c_tilde > 0


class TestOptimizeLambdas:
    def test_single_layer_defaults(self):
        assert optimize_lambdas(3.0, 1.0, None, 5.0, 2.0) == (1.0,)

    def test_degenerate_zero_a(self):
        assert optimize_lambdas(4.5, 1.0, None, 0.0, 3.0) == (1.0, 1.0)

    def test_even_exponent_layer_defaults(self):
        # at t = 4 the j = 1 layer has vanishing A-exponent
        assert optimize_lambdas(4.0, 1.0, None, 1.0, 1.0) == (1.0, 1.0)

    def test_matches_grid_search(self):
        t, D, A_t, B = 5.0, 1.0, 2.0, 0.7
        lam = optimize_lambdas(t, D, None, A_t, B)
        grid = np.logspace(-3, 3, 400001)
        for j in (1,):
            cj = c_j(t, D, None, j)
            u = cj * (t - 2 * j - 2) / (t - 2) * A_t / math.factorial(j)
            v = cj * (2 * j) / (t - 2) * B**t / math.factorial(j)
            obj = u * grid ** (-2 * j) + v * grid ** (t - 2 * j - 2)
            assert lam[j] == pytest.approx(grid[np.argmin(obj)], abs=1e-3)
            # closed form is a true stationary minimum
            f_opt = u * lam[j] ** (-2 * j) + v * lam[j] ** (t - 2 * j - 2)
            assert f_opt <= obj.min() * (1 + 1e-12)

    def test_never_worse_than_ones(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            t = float(rng.uniform(2.01, 9.0))
            A_t = float(rng.uniform(0, 10))
            B = float(rng.uniform(0, 10))
            lam = optimize_lambdas(t, 1.0, None, A_t, B)
            ones = (1.0,) * len(lam)
            obj_opt = C_A(t, 1.0, None, lam) * A_t + C_B(t, 1.0, None, lam) * B**t
            obj_one = C_A(t, 1.0, None, ones) * A_t + C_B(t, 1.0, None, ones) * B**t
            assert obj_opt <= obj_one * (1 + 1e-12)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValidationError):
            optimize_lambdas(3.0, 1.0, None, -1.0, 1.0)


# Reference: the constants in their per-function form, each c_j rebuilt from
# its own product, as the definitions in the module docstring read.  A term
# with a zero coefficient (t-2j-2 in C_A, 2j in C_B) is left out, so an
# overflowed c_j never turns 0 * inf into NaN.


def ref_c_j(t, D, schedule, j):
    _, q = pq_eval(schedule, t - 2.0 * j)
    value = (t - 2 * j - 2 + D * D) / (t - 2 * j - 1) * q
    for k in range(j):
        p, _ = pq_eval(schedule, t - 2.0 * k)
        value *= (t - 2 * k) * (t - 2 * k - 2 + D * D) * p / 2.0
    return value


def ref_c_tilde(t, D, schedule):
    value = 1.0
    for j in range(int(math.floor(t / 2.0))):
        p, _ = pq_eval(schedule, t - 2.0 * j)
        value *= (t - 2 * j) * (t - 2 * j - 2 + D * D) * p / 2.0
    return value


def ref_C_A(t, D, schedule, lam):
    total = 0.0
    for j in range(len(lam)):
        if t - 2 * j - 2 == 0.0:
            continue
        total += (
            ref_c_j(t, D, schedule, j) * (t - 2 * j - 2) / (t - 2)
            / (lam[j] ** (2 * j) * math.factorial(j))
        )
    return total


def ref_C_B(t, D, schedule, lam):
    m = len(lam)
    lead = ref_c_tilde(t, D, schedule)
    for j in range(1, m + 1):
        lead /= t / 2.0 - m + j
    total = lead
    for j in range(1, m):
        total += (
            ref_c_j(t, D, schedule, j) * (2 * j) / (t - 2)
            * lam[j] ** (t - 2 * j - 2) / math.factorial(j)
        )
    return total


def ref_optimize_lambdas(t, D, schedule, A_t, B):
    out = []
    for j in range(int(math.floor(t / 2.0))):
        expo = t - 2 * j - 2
        if j == 0 or expo == 0.0:
            out.append(1.0)
            continue
        cj = ref_c_j(t, D, schedule, j)
        u = cj * expo / (t - 2) * A_t / math.factorial(j)
        v = cj * (2 * j) / (t - 2) * B**t / math.factorial(j)
        out.append(1.0 if u == 0.0 or v == 0.0 else (2 * j * u / (expo * v)) ** (1.0 / (t - 2)))
    return tuple(out)


# The log path rounds each value within a few units of eps * |log value|,
# far below this tolerance; the float references round their products too.
REL = 1e-12


def close(got, want, rel=REL):
    """Equal (+inf included), or both finite and within rel relative."""
    if got == want:
        return True
    return math.isfinite(got) and math.isfinite(want) and abs(got - want) <= rel * max(
        abs(got), abs(want)
    )


def agree(got, want_call):
    """The public values agree with the float reference, entry by entry.

    Where the reference fails on its own floats, the public value is still
    a float >= 0: an OverflowError from a power, a NaN lambda from inf / inf
    (the reference corollary rejects it), and +inf or 0 from an
    intermediate product or quotient that overflows, where the log-domain
    value of these positive quantities may be finite (``test_log_domain``
    checks those values against a decimal oracle).
    """
    got = [float(x) for x in (got if isinstance(got, (list, tuple)) else [got])]
    assert not any(math.isnan(x) or x < 0.0 for x in got), got
    try:
        want = want_call()
    except (OverflowError, ValidationError):
        return
    want = [float(x) for x in (want if isinstance(want, (list, tuple)) else [want])]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert math.isnan(w) or (w in (0.0, math.inf) and g > 0.0) or close(g, w), (got, want)


def ref_corollary(t, D, schedule, A_t, B):
    lam = ref_optimize_lambdas(t, D, schedule, A_t, B)
    if any(not math.isfinite(x) or x <= 0.0 for x in lam):
        raise ValidationError("balancing parameters must be finite and > 0")
    ca, cb = ref_C_A(t, D, schedule, lam), ref_C_B(t, D, schedule, lam)
    return ca * A_t + cb * B**t, ca, cb, lam


def beta_table(t, beta):
    """A custom schedule at the exponents t, t-2, ... that a bound at t reads."""
    table = {}
    for j in range(int(math.floor(t / 2.0))):
        s = t - 2.0 * j
        table[s] = ((1 - beta) ** (3 - s), beta ** (3 - s)) if s > 3 else (1.25, 1.5)
    return PQSchedule.custom(table)


SCHEDULES = st.one_of(
    st.none(),
    st.floats(1e-6, 1 - 1e-6).map(PQSchedule.beta_family),
)


class TestConstantsParity:
    """Every public constant equals the per-function reference to REL."""

    def check_all(self, t, D, schedule):
        sched = schedule or PQSchedule.beta_family()
        m = int(math.floor(t / 2.0))
        for j in range(m):
            agree(c_j(t, D, schedule, j), lambda: ref_c_j(t, D, sched, j))
        agree(c_tilde(t, D, schedule), lambda: ref_c_tilde(t, D, sched))
        lam = [0.5 + 0.1 * j for j in range(m)]
        for ones in (lam, [1.0] * m):
            agree(C_A(t, D, schedule, ones), lambda: ref_C_A(t, D, sched, ones))
            agree(C_B(t, D, schedule, ones), lambda: ref_C_B(t, D, sched, ones))
        for A_t, B in ((2.0, 0.7), (0.0, 1.3), (5.0, 1.0)):
            agree(optimize_lambdas(t, D, schedule, A_t, B),
                  lambda: ref_optimize_lambdas(t, D, sched, A_t, B))
        cs = compute_constants(t, D, schedule, lam)
        agree([cs.t, cs.D, *cs.c, cs.c_tilde, cs.C_A, cs.C_B, *cs.lambdas], lambda: [
            t, D, *(ref_c_j(t, D, sched, j) for j in range(m)), ref_c_tilde(t, D, sched),
            ref_C_A(t, D, sched, lam), ref_C_B(t, D, sched, lam), *lam,
        ])
        assert (cs.t, cs.D, cs.lambdas) == (t, D, tuple(lam))
        assert cs.to_dict() == {
            "t": t, "D": D, "c": list(cs.c), "c_tilde": cs.c_tilde, "C_A": cs.C_A,
            "C_B": cs.C_B, "lambdas": lam,
        }

    @settings(max_examples=150, deadline=None)
    @given(t=st.floats(2.0, 60.0, exclude_min=True), D=st.floats(1.0, 10.0), schedule=SCHEDULES)
    def test_public_constants_match_reference(self, t, D, schedule):
        self.check_all(t, D, schedule)

    @pytest.mark.parametrize("t", [5.5, 6.5, 9.0])
    def test_custom_schedule_matches_reference(self, t):
        schedule = beta_table(t, 0.3)
        self.check_all(t, 1.7, schedule)
        # A custom table folds every (p, q) pair into K: no term in beta.
        layers = _layer_logs(t, 1.7, schedule, int(t // 2))
        assert all(alpha == gamma == 0.0 for _, alpha, gamma in layers)

    @settings(max_examples=40, deadline=None)
    @given(
        t=st.floats(2.0, 60.0, exclude_min=True),
        D=st.floats(1.0, 10.0),
        schedule=SCHEDULES,
        seed=st.integers(0, 2**32 - 1),
    )
    def test_corollary_bound_matches_reference(self, t, D, schedule, seed):
        prof, env = make_valid_case(np.random.default_rng(seed), t=t, max_n=6)
        sched = schedule or PQSchedule.beta_family()
        A_t, B = prof.total(t), env.total()
        rep = corollary_bound(prof, env, D, schedule)
        m = int(math.floor(t / 2.0))

        def want():
            value, ca, cb, lam = ref_corollary(t, D, sched, A_t, B)
            return [value, ca, cb, *lam, *(ref_c_j(t, D, sched, j) for j in range(m)),
                    ref_c_tilde(t, D, sched)]

        agree([rep.value, rep.constants["C_A"], rep.constants["C_B"], *rep.parameters["lambdas"],
               *rep.constants["c"], rep.constants["c_tilde"]], want)

    @settings(max_examples=15, deadline=None)
    @given(t=st.floats(3.0, 12.0, exclude_min=True), D=st.floats(1.0, 10.0),
           seed=st.integers(0, 2**32 - 1))
    def test_scanned_candidate_matches_reference_scan(self, t, D, seed):
        prof, env = make_valid_case(np.random.default_rng(seed), t=t, max_n=6)
        A_t, B = prof.total(t), env.total()
        _, value = grid_then_golden_minimize(
            lambda b: ref_corollary(t, D, PQSchedule.beta_family(b), A_t, B)[0],
            BETA_GRID, tol=1e-10,
        )
        scanned = scanned_corollary(t, D, A_t, B)
        # Values that differ by rounding may steer golden section to another
        # beta on the flat bottom; the minimum value is what must agree.
        assert close(scanned.value, value)
        beta = scanned.parameters["schedule"]["beta"]
        plain = corollary_bound(prof, env, D, PQSchedule.beta_family(beta))
        assert scanned.to_dict() == plain.to_dict()
        assert best_bound(prof, env, D).value <= scanned.value


# Each entry point that takes an exponent, called at t with otherwise valid
# arguments; the exponent domain is checked by core alone.
_EXPONENT_CALLS = {
    "c_j": lambda t: c_j(t, 1.0, None, 0),
    "c_tilde": lambda t: c_tilde(t, 1.0),
    "C_A": lambda t: C_A(t, 1.0, None, [1.0] * 30),
    "C_B": lambda t: C_B(t, 1.0, None, [1.0] * 30),
    "optimize_lambdas": lambda t: optimize_lambdas(t, 1.0, None, 1.0, 1.0),
    "compute_constants": lambda t: compute_constants(t, 1.0),
    "half_layers": lambda t: half_layers(t),
    "required_exponents": lambda t: required_exponents(t),
    "MomentProfile": lambda t: MomentProfile(1, t, {3.0: [1.0], 2.0: [1.0]}),
    "exact_profile": lambda t: make_model("rademacher", 3, 1.0).exact_profile(t),
    "pin94_bound": lambda t: pin94_bound(t, 1.0, 1.0, 1.0),
    "find_bt": lambda t: find_bt(t),
    "recentering_ratio": lambda t: recentering_ratio(t, 0.3),
    "sum_norm_bound": lambda t: sum_norm_bound(t, 1.0, 1.0),
    "LipschitzMomentData": lambda t: LipschitzMomentData(t, (1.0,), (1.0,)),
    "check_norm_power_increment": lambda t: check_norm_power_increment(
        LpSpace(3.0, 2), [1.0, 0.0], [0.5, 0.5], t
    ),
    "estimate_and_check": lambda t: estimate_and_check(
        make_model("rademacher", 3, 1.0), t, replications=16
    ),
}


# Each entry point that takes a whole number: the name its errors give, its
# lower bound, and the call with x in that input and otherwise valid arguments.
_INTEGER_CALLS = {
    "MomentProfile n": ("n", 0, lambda x: MomentProfile(x, 3.0, {3.0: [], 2.0: []})),
    "partial_sum k": (
        "index k", 0,
        lambda x: MomentProfile(1, 3.0, {3.0: [1.0], 2.0: [1.0]}).partial_sum(x, 3.0),
    ),
    "c_j j": ("layer index j", 0, lambda x: c_j(6.5, 1.0, None, x)),
    "ratio_curve steps": ("steps", 2, lambda x: ratio_curve(2.0, 4.0, x)),
    "model n": ("step count n", 1, lambda x: RademacherModel(x)),
    "simulate replications": ("replications", 1, lambda x: simulate(RademacherModel(2), 0, x)),
    "simulate seed": ("seed", 0, lambda x: simulate(RademacherModel(2), x, 16)),
    "simulate threads": (
        "worker count", 1, lambda x: simulate(RademacherModel(2), 0, 16, threads=x)
    ),
    "stream_key seed": ("seed", 0, lambda x: stream_key(x, "norms", 0)),
    "worker_count": ("worker count", 1, lambda x: worker_count(x)),
    "MinGroupedSumSpec j": ("cardinality j", 0, lambda x: MinGroupedSumSpec([1.0], [1.0, 1.0], x)),
    "elementary_symmetric_suffix order": (
        "order", 0, lambda x: elementary_symmetric_suffix([1.0, 2.0], x)
    ),
    "LpSpace dim": ("dimension", 1, lambda x: LpSpace(3.0, x)),
}

# The entries of _INTEGER_CALLS that allocate an array or list of x entries.
_ALLOCATING_CALLS = ("model n", "simulate replications", "elementary_symmetric_suffix order")


# Each entry point that takes a scalar, called with x in one scalar and
# otherwise valid arguments.
_SCALAR_CALLS = {
    "closed_form_2_3 A_t": lambda x: closed_form_2_3(3.0, 1.0, x, 1.0),
    "closed_form_3_4 B": lambda x: closed_form_3_4(3.5, 1.0, 1.0, x, 0.5),
    "closed_form_min A_t": lambda x: closed_form_min(3.5, 1.0, x, 1.0),
    "hilbert_2_4 B": lambda x: hilbert_2_4(3.5, 1.0, x),
    "t3_bound A_3": lambda x: t3_bound(1.0, x, 1.0),
    "pin94_bound A_t": lambda x: pin94_bound(3.0, 1.0, x, 1.0),
    "pin94_bound B": lambda x: pin94_bound(3.0, 1.0, 1.0, x),
    "Pin94Config K": lambda x: Pin94Config(K=x),
    "pin94_bound c": lambda x: pin94_bound(3.0, 1.0, 1.0, 1.0, Pin94Config(c=x)),
    "sum_norm_bound moments_t": lambda x: sum_norm_bound(3.0, x, 1.0),
    "sum_norm_bound moments_2": lambda x: sum_norm_bound(3.0, 1.0, x),
    "optimize_lambdas A_t": lambda x: optimize_lambdas(5.0, 1.0, None, x, 1.0),
    "optimize_lambdas B": lambda x: optimize_lambdas(5.0, 1.0, None, 1.0, x),
    "compute_constants lambda": lambda x: compute_constants(5.0, 1.0, None, [1.0, x]),
    "abs_moment_normal": lambda x: abs_moment_normal(x),
    "smoothness_value": lambda x: smoothness_value(x),
    "SmoothnessConstant": lambda x: SmoothnessConstant(x),
    "MomentProfile exponent": lambda x: MomentProfile(1, 3.0, {3.0: [1.0], 2.0: [1.0], x: [1.0]}),
    "custom table p": lambda x: PQSchedule.custom({3.0: (x, 1.0)}),
    "custom table q": lambda x: PQSchedule.custom({2.0: (1.0, x)}),
    "custom table key": lambda x: PQSchedule.custom({x: (1.0, 1.0)}),
    "LpSpace p": lambda x: LpSpace(x, 2),
    "TwoPointModel prob": lambda x: TwoPointModel(3, 1.0, prob=x),
    "model scale": lambda x: make_model("rademacher", 3, x),
    "recentering_ratio b": lambda x: recentering_ratio(3.0, x),
    "check_riemann_sum s": lambda x: check_riemann_sum([1.0, 2.0], x),
    "check_young x": lambda x: check_young(x, 1.0, 2.0, 2.0),
    "check_young y": lambda x: check_young(1.0, x, 2.0, 2.0),
    "check_young p": lambda x: check_young(1.0, 1.0, x, 2.0),
    "check_young q": lambda x: check_young(1.0, 1.0, 2.0, x),
    "validate_pq s": lambda x: validate_pq(1.0, 1.0, x),
    "validate_pq p": lambda x: validate_pq(x, 1.0, 2.5),
    "validate_pq q": lambda x: validate_pq(1.0, x, 2.5),
    "pq_eval s": lambda x: pq_eval(PQSchedule.beta_family(0.5), x),
    **{name: call for name, (_, _, call) in _INTEGER_CALLS.items()},
}


class TestConstantsErrors:
    def test_exponent_above_max_t(self):
        # One check in core owns the domain: every entry point raises a
        # RosenthalError outside it, never an OverflowError, a MemoryError or
        # a NaN value.  LipschitzMomentData keeps its ValidationError.
        assert constants.MAX_T is core.MAX_T == 60.0
        assert "MAX_T" in constants.__all__
        for name, call in _EXPONENT_CALLS.items():
            want = ValidationError if name == "LipschitzMomentData" else DomainError
            for t in (MAX_T + 0.5, 1e308):
                with pytest.raises(want, match="exceeds the supported maximum"):
                    call(t)
            for t in (math.nan, math.inf, 10**400, -(10**400)):
                with pytest.raises(want, match="must be finite"):
                    call(t)
            for t in (-1.0, 0.0, 1.5):  # the domain starts at t = 2 for every entry point
                with pytest.raises(want, match=r"t >=? 2, got t="):
                    call(t)

    def test_one_exponent_check_per_entry_point(self, monkeypatch):
        # Internal code takes the checked float on, so each entry point
        # checks its t once; a bound on a profile checks only the t > 2 its
        # profile does not guarantee.  The composites count the checks of
        # the entry points they call: exact_profile is required_exponents
        # and MomentProfile; estimate_and_check checks before it simulates,
        # then check_from_simulation, exact_profile and corollary_bound.
        calls = []

        def counted(t, need, *, strict=False):
            calls.append(t)
            return check(t, need, strict=strict)

        check = core._check_t
        for mod in (core, constants, bounds, concentration, checks, verify):
            monkeypatch.setattr(mod, "_check_t", counted)
        prof, env = make_valid_case(np.random.default_rng(5), t=6.5, n=4)
        composite = {"exact_profile": 2, "estimate_and_check": 5}
        for name, call in _EXPONENT_CALLS.items():
            calls.clear()
            try:
                call(MAX_T)  # the arguments of C_A and C_B fit t = MAX_T
            except ValidationError:  # MomentProfile's grid, after its check
                assert name == "MomentProfile"
            assert len(calls) == composite.get(name, 1), name
        for call, want in ((theorem_bound, 0), (corollary_bound, 1), (best_bound, 1)):
            calls.clear()
            call(prof, env, 1.5)
            assert len(calls) == want, call.__name__

    @pytest.mark.parametrize("x", [10**400, math.nan], ids=["beyond float range", "nan"])
    def test_scalar_inputs(self, x):
        # One helper in core converts and checks every scalar input: an
        # integer beyond the float range or a NaN is a RosenthalError that
        # names the input, never an OverflowError or a value.
        for name, call in _SCALAR_CALLS.items():
            with pytest.raises(RosenthalError):
                call(x)
                pytest.fail(f"{name} accepted {x}")

    @pytest.mark.parametrize("name", list(_INTEGER_CALLS))
    def test_integer_inputs(self, name):
        # One helper in core checks every whole-number input: a fraction, a
        # value below the lower bound, NaN, infinity, an integer beyond the
        # float range or a size beyond the array index range is a
        # RosenthalError that names the input, never a truncated value or a
        # bare OverflowError or numpy error.
        label, lo, call = _INTEGER_CALLS[name]
        for x in (2.5, lo - 1):
            with pytest.raises(RosenthalError, match=f"^{label} must be an integer >= {lo}, got {x}$"):
                call(x)
        for x in (math.nan, math.inf, 10**400):
            with pytest.raises(RosenthalError, match=f"^{label} must be finite, got"):
                call(x)
        # A size ends at the array index range; a seed is only hashed.
        if label != "seed":
            with pytest.raises(RosenthalError, match=f"^{label} must be an integer <= {sys.maxsize}, got"):
                call(10**300)
        # An array or list of sys.maxsize entries cannot be allocated; the
        # allocation fails at once, and its error names the input.
        if name in _ALLOCATING_CALLS:
            with pytest.raises(ValidationError, match=f"^{label} is too large to allocate, got {sys.maxsize}$"):
                call(sys.maxsize)

    def test_corollary_below_two_is_a_domain_error(self):
        prof = MomentProfile(1, 2.0, {2.0: [1.0]})
        with pytest.raises(DomainError, match="needs t > 2, got t=2.0"):
            corollary_bound(prof, VarianceEnvelope([1.0]), 1.0)

    @pytest.mark.parametrize("j", [-1, 3, 0.5, 1.5])
    def test_bad_layer_index(self, j):
        with pytest.raises(DomainError, match="layer index"):
            c_j(6.5, 1.0, None, j)

    def test_balanced_lambda_at_huge_D_is_finite(self):
        # At D = 1e200 every c_j exceeds the float range, but c_j cancels
        # from the balance: lambda_1 = (A_t / B^5)^(1/3), and the bound is +inf.
        prof, env = make_valid_case(np.random.default_rng(3), t=5.0, n=3)
        A_t, B = prof.total(5.0), env.total()
        lam = optimize_lambdas(5.0, 1e200, None, A_t, B)
        assert lam[0] == 1.0
        assert lam[1] == pytest.approx((A_t / B**5) ** (1.0 / 3.0), rel=REL)
        rep = corollary_bound(prof, env, 1e200)
        assert rep.value == math.inf and rep.parameters["lambdas"] == list(lam)
        assert C_A(5.0, 1e200, None, lam) == math.inf


class TestNoZeroTimesInf:
    """Overflowed layer constants never meet a zero factor as NaN."""

    @pytest.mark.parametrize("D", [1.0, 1e150, 1e200, 1e300])
    def test_constants_never_nan(self, D):
        for t in np.linspace(2.02, MAX_T, 300):
            cs = compute_constants(float(t), D)
            values = [*cs.c, cs.c_tilde, cs.C_A, cs.C_B]
            assert not any(math.isnan(v) for v in values), t
            assert cs.C_A > 0.0 and cs.C_B > 0.0

    def test_overflowed_constants_are_inf(self):
        # c_0 = inf at D = 1e200; its C_B coefficient 2j is 0 for j = 0.
        cs = compute_constants(3.0, 1e200)
        assert (cs.C_A, cs.C_B) == (math.inf, math.inf)
        # At t = 60 the last layer's C_A coefficient t-2j-2 is 0 and c_29 is
        # beyond the float range, while C_A itself is finite.
        assert c_j(MAX_T, 1.0, None, 29) == math.inf
        want = float(oracle.coefficients(MAX_T, 1.0, 0.5, [1.0] * 30)[0])
        assert C_A(MAX_T, 1.0, None, [1.0] * 30) == pytest.approx(want, rel=REL)

    def test_underflowed_lambda_power_is_inf(self):
        # lambda_1^2 underflows to 0: the C_A term is +inf, not ZeroDivisionError.
        assert C_A(5.0, 1.0, None, [1.0, 1e-200]) == math.inf
        assert C_B(5.0, 1.0, None, [1.0, 1e-200]) < math.inf

    def test_explicit_lambda_out_of_float_power_range_is_a_value(self):
        # c_1 = inf at D = 1e200 and lambda_1^3 underflows: C_B is inf, not NaN.
        cs = compute_constants(7.0, 1e200, None, [1.0, 1e-200, 1.0])
        assert (cs.C_A, cs.C_B) == (math.inf, math.inf)
        # lambda_2^4 * 2! is beyond the float range.
        cs = compute_constants(9.0, 1e200, None, [1.0, 1.0, 1.1e77, 1.0])
        assert (cs.C_A, cs.C_B) == (math.inf, math.inf)
        # lambda_1^2 and lambda_1^1 are beyond the float range, C_A and C_B are not.
        ca, cb = oracle.coefficients(5.0, 1.0, 0.5, [1.0, 1e200])
        assert C_A(5.0, 1.0, None, [1.0, 1e200]) == pytest.approx(float(ca), rel=REL)
        assert C_B(5.0, 1.0, None, [1.0, 1e200]) == pytest.approx(float(cb), rel=REL)

    @settings(max_examples=300, deadline=None)
    @given(
        t=st.floats(2.01, MAX_T),
        D=st.sampled_from([1.0, 1e150, 1e200, 1e300]),
        logs=st.lists(st.floats(-300.0, 300.0), min_size=30, max_size=30),
    )
    def test_explicit_lambdas_never_nan(self, t, D, logs):
        lam = [10.0**x for x in logs[: int(t // 2)]]
        try:
            cs = compute_constants(t, D, None, lam)
        except ValidationError as exc:
            assert "balancing parameter lambda_" in str(exc)
            return
        assert not math.isnan(cs.C_A) and not math.isnan(cs.C_B)

    def test_theorem_bound_at_max_t(self):
        # c~_30 = inf meets an empty top layer (j = 30 > n = 3).
        t = MAX_T
        prof = MomentProfile(3, t, {s: [1.0] * 3 for s in required_exponents(t)})
        value = theorem_bound(prof, VarianceEnvelope([1.0] * 3), 1.0).value
        assert 1e56 < value < 1e57
