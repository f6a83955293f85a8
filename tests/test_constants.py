import math
from dataclasses import astuple

import numpy as np
import pytest
from conftest import make_valid_case
from hypothesis import given, settings
from hypothesis import strategies as st

from rosenthal import (
    C_A,
    C_B,
    DomainError,
    PQSchedule,
    ValidationError,
    best_bound,
    c_j,
    c_tilde,
    compute_constants,
    corollary_bound,
    optimize_lambdas,
    theorem_bound,
)
from rosenthal.bounds import BETA_GRID, _best_beta_corollary
from rosenthal.constants import MAX_T
from rosenthal.core import MomentProfile, VarianceEnvelope, required_exponents
from rosenthal.optimize import grid_then_golden_minimize
from rosenthal.schedules import pq_eval


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
        assert c_tilde(1.5, 7.0) == 1.0

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


def outcome(f, *args):
    """The value's repr (exact for floats, NaN included) or the error raised."""
    try:
        return repr(f(*args))
    except (ArithmeticError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


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
    """Every public constant equals the per-function reference bit for bit."""

    def check_all(self, t, D, schedule):
        sched = schedule or PQSchedule.beta_family()
        m = int(math.floor(t / 2.0))
        for j in range(m):
            assert outcome(c_j, t, D, schedule, j) == outcome(ref_c_j, t, D, sched, j)
        assert outcome(c_tilde, t, D, schedule) == outcome(ref_c_tilde, t, D, sched)
        lam = [0.5 + 0.1 * j for j in range(m)]
        for ones in (lam, [1.0] * m):
            assert outcome(C_A, t, D, schedule, ones) == outcome(ref_C_A, t, D, sched, ones)
            assert outcome(C_B, t, D, schedule, ones) == outcome(ref_C_B, t, D, sched, ones)
        for A_t, B in ((2.0, 0.7), (0.0, 1.3), (5.0, 1.0)):
            assert outcome(optimize_lambdas, t, D, schedule, A_t, B) == outcome(
                ref_optimize_lambdas, t, D, sched, A_t, B
            )
        got = outcome(lambda: astuple(compute_constants(t, D, schedule, lam)))
        want = outcome(lambda: (
            t, D, tuple(ref_c_j(t, D, sched, j) for j in range(m)), ref_c_tilde(t, D, sched),
            ref_C_A(t, D, sched, lam), ref_C_B(t, D, sched, lam), tuple(lam),
        ))
        assert got == want
        if isinstance(got, tuple):
            return
        cs = compute_constants(t, D, schedule, lam)
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
        self.check_all(t, 1.7, beta_table(t, 0.3))

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
        want = outcome(ref_corollary, t, D, sched, A_t, B)
        try:
            rep = corollary_bound(prof, env, D, schedule)
        except (ArithmeticError, ValueError) as exc:
            assert (type(exc).__name__, str(exc)) == want
            return
        value, ca, cb, lam = ref_corollary(t, D, sched, A_t, B)
        assert repr((rep.value, rep.constants["C_A"], rep.constants["C_B"])) == repr(
            (value, ca, cb)
        )
        assert repr(rep.parameters["lambdas"]) == repr(list(lam))
        m = int(math.floor(t / 2.0))
        assert repr(rep.constants["c"]) == repr([ref_c_j(t, D, sched, j) for j in range(m)])
        assert repr(rep.constants["c_tilde"]) == repr(ref_c_tilde(t, D, sched))

    @settings(max_examples=15, deadline=None)
    @given(t=st.floats(3.0, 12.0, exclude_min=True), D=st.floats(1.0, 10.0),
           seed=st.integers(0, 2**32 - 1))
    def test_scanned_candidate_matches_reference_scan(self, t, D, seed):
        prof, env = make_valid_case(np.random.default_rng(seed), t=t, max_n=6)
        A_t, B = prof.total(t), env.total()
        beta, value = grid_then_golden_minimize(
            lambda b: ref_corollary(t, D, PQSchedule.beta_family(b), A_t, B)[0],
            BETA_GRID, tol=1e-10,
        )
        scanned = _best_beta_corollary(t, D, A_t, B)
        assert repr((scanned.value, scanned.parameters["schedule"]["beta"])) == repr(
            (value, beta)
        )
        plain = corollary_bound(prof, env, D, PQSchedule.beta_family(beta))
        assert scanned.to_dict() == plain.to_dict()
        assert best_bound(prof, env, D).value <= scanned.value


class TestConstantsErrors:
    def test_exponent_above_max_t(self):
        t = MAX_T + 0.5
        for call in (
            lambda: c_j(t, 1.0, None, 0),
            lambda: c_tilde(t, 1.0),
            lambda: C_A(t, 1.0, None, [1.0] * 30),
            lambda: C_B(t, 1.0, None, [1.0] * 30),
            lambda: optimize_lambdas(t, 1.0, None, 1.0, 1.0),
            lambda: compute_constants(t, 1.0),
        ):
            with pytest.raises(DomainError, match="exceeds the supported maximum"):
                call()

    @pytest.mark.parametrize("j", [-1, 3, 0.5, 1.5])
    def test_bad_layer_index(self, j):
        with pytest.raises(DomainError, match="layer index"):
            c_j(6.5, 1.0, None, j)

    def test_lambda_underflow_is_a_validation_error(self):
        # At D = 1e200 every c_j overflows, so the closed-form lambdas are
        # nan and the aggregated bound must reject them, not return a value.
        prof, env = make_valid_case(np.random.default_rng(3), t=5.0, n=3)
        assert math.isnan(optimize_lambdas(5.0, 1e200, None, prof.total(5.0), env.total())[1])
        with pytest.raises(ValidationError, match="balancing parameters must be finite"):
            corollary_bound(prof, env, 1e200)
        with pytest.raises(ValidationError, match="balancing parameters must be finite"):
            C_A(5.0, 1e200, None, optimize_lambdas(5.0, 1e200, None, 1.0, 1.0))


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
        # At t = 60 the last layer's C_A coefficient t-2j-2 is 0 and c_29 = inf.
        assert C_A(MAX_T, 1.0, None, [1.0] * 30) == math.inf

    def test_underflowed_lambda_power_is_inf(self):
        # lambda_1^2 underflows to 0: the C_A term is +inf, not ZeroDivisionError.
        assert C_A(5.0, 1.0, None, [1.0, 1e-200]) == math.inf
        assert C_B(5.0, 1.0, None, [1.0, 1e-200]) < math.inf

    def test_theorem_bound_at_max_t(self):
        # c~_30 = inf meets an empty top layer (j = 30 > n = 3).
        t = MAX_T
        prof = MomentProfile(3, t, {s: [1.0] * 3 for s in required_exponents(t)})
        value = theorem_bound(prof, VarianceEnvelope([1.0] * 3), 1.0).value
        assert 1e56 < value < 1e57
