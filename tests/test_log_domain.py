"""The log-domain constants path against a decimal oracle, a robustness
sweep over the advertised domain, the domain edges it mends, and the beta
scan: its objective against a one-pass reference per beta, and its Newton
solve against the grid-and-golden scan."""

import math
from unittest import mock

import decimal_oracle as oracle
import numpy as np
import pytest
from hypothesis import given, settings
from conftest import aggregated_report, make_valid_case, scanned_corollary
from hypothesis import strategies as st

from rosenthal import (
    C_A,
    C_B,
    MomentProfile,
    Pin94Config,
    PQSchedule,
    RosenthalError,
    VarianceEnvelope,
    best_bound,
    c_j,
    c_tilde,
    closed_form_2_3,
    closed_form_3_4,
    closed_form_min,
    compute_constants,
    corollary_bound,
    find_bt,
    hilbert_2_4,
    moment_ratio,
    optimize_lambdas,
    pin94_bound,
    required_exponents,
    sum_norm_bound,
    t3_bound,
    theorem_bound,
)
from rosenthal.bounds import BETA_GRID
from rosenthal.constants import (
    MAX_T,
    _log_balanced_beta_terms,
    _log_coefficients,
    _log_layers,
)
from rosenthal.core import BOUND_METHODS, _log, _log_sum
from rosenthal.optimize import (
    _log_sum_exp_derivatives,
    _minimize_log_sum_exp_beta,
    grid_then_golden_minimize,
)
from rosenthal.schedules import pq_eval

# Relative error of a value computed in logs: a few eps * |log value| (the
# oracle comparison below found at most 8e-16 * |log value|).
LOG_TOL = 4e-15
REL = 1e-12

EXPONENTS = [2.5, 3.0, 4.0, 7.3, 20.0, 41.7, MAX_T]
SMOOTHNESS = [1.0, math.sqrt(2.0), 10.0, 1e3, 1e200]
BETAS = [0.02, 0.5, 0.98]
TOTALS = [(2.0, 0.7), (1e-300, 1e-100), (1e300, 1e10), (3.0, math.sqrt(3.0))]


def assert_log_close(got, want):
    """got is log x for the decimal x = want, within LOG_TOL * |log x|."""
    ln = float(want.ln())
    assert abs(got - ln) <= LOG_TOL * max(1.0, abs(ln)), (got, ln)


def assert_float_close(got, want):
    """got is the float of the decimal want: +inf beyond the float range."""
    want = float(want)
    if math.isinf(want):
        assert got == math.inf
    else:
        assert got == pytest.approx(want, rel=REL, abs=0.0)


def unit_case(t, n=3, b=None):
    """n steps with every moment and b_i equal to 1, or the given b."""
    b = [1.0] * n if b is None else b
    moments = {s: [1.0] * len(b) for s in required_exponents(t)}
    return MomentProfile(len(b), t, moments), VarianceEnvelope(b)


@pytest.mark.parametrize("t", EXPONENTS)
@pytest.mark.parametrize("D", SMOOTHNESS)
class TestDecimalOracle:
    """Logs of c_j, c~_m, C_A, C_B and of the balanced aggregated value,
    also where the value is beyond the float range."""

    def test_layer_constants(self, t, D):
        m = int(t // 2)
        for beta in BETAS:
            log_c, log_top = _log_layers(t, D, PQSchedule.beta_family(beta), m)
            c, top = oracle.layers(t, D, beta)
            for got, want in zip(log_c + [log_top], c + [top]):
                assert_log_close(got, want)
            for j in range(m):
                assert_float_close(c_j(t, D, PQSchedule.beta_family(beta), j), c[j])
            assert_float_close(c_tilde(t, D, PQSchedule.beta_family(beta)), top)

    def test_coefficients(self, t, D):
        m = int(t // 2)
        for beta in BETAS:
            schedule = PQSchedule.beta_family(beta)
            for lam in ([0.3 + 0.2 * j for j in range(m)], [1e-100] + [1e100] * (m - 1)):
                log_c, log_top = _log_layers(t, D, schedule, m)
                logs = _log_coefficients(t, log_c, log_top, [math.log(x) for x in lam])
                want = oracle.coefficients(t, D, beta, lam)
                for got, w in zip(logs, want):
                    assert_log_close(got, w)
                assert_float_close(C_A(t, D, schedule, lam), want[0])
                assert_float_close(C_B(t, D, schedule, lam), want[1])

    def test_balanced_value(self, t, D):
        # The objective the beta scan minimizes, at each beta.
        for beta in BETAS:
            schedule = PQSchedule.beta_family(beta)
            for A_t, B in TOTALS:
                log_A, log_Bt = math.log(A_t), t * math.log(B)
                lam, value = oracle.balanced(t, D, beta, A_t, B)
                terms = _log_balanced_beta_terms(t, D, log_A, log_Bt)
                assert_log_close(log_value(terms, beta), value)
                for got, want in zip(optimize_lambdas(t, D, schedule, A_t, B), lam):
                    assert_float_close(got, want)


# Inputs over the advertised domain: a per-case scale k in 1e-150..1e150,
# b_i = k b0_i and a_i(s) = k^s a0_i(s), taken in logs and clipped to the
# float range (a clipped profile is still a valid input).
@st.composite
def domain_cases(draw):
    t = draw(st.floats(2.0, MAX_T))
    n = draw(st.integers(1, 64))
    D = draw(st.one_of(st.just(1.0), st.floats(1.0, 1e3)))
    log_k = math.log(10.0) * draw(st.floats(-150.0, 150.0))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    log_b0 = rng.uniform(-1.0, 1.0, n)
    b = np.exp(log_k + log_b0)
    moments = {}
    for s in required_exponents(t):
        log_a = s * (log_k + log_b0) + rng.uniform(-1.0, 0.0, n)
        moments[s] = np.exp(np.clip(log_a, -800.0, 709.0))
    return MomentProfile(n, t, moments), VarianceEnvelope(b), D, seed


def defined(call):
    """Run a public call: a RosenthalError is a defined answer; any other
    error fails the test.  Every float in the result is >= 0 or +inf."""
    try:
        result = call()
    except RosenthalError:
        return None
    data = result.to_dict() if hasattr(result, "to_dict") else result
    assert not any(math.isnan(x) or x < 0.0 for x in _floats(data)), data
    return result


def _floats(data):
    if isinstance(data, float):
        return [data]
    if isinstance(data, dict):
        return [x for v in data.values() for x in _floats(v)]
    if isinstance(data, (list, tuple)):
        return [x for v in data for x in _floats(v)]
    return []


class TestDomainSweep:
    """Every public bound gives a finite value, +inf or a RosenthalError:
    no NaN, no bare OverflowError or ZeroDivisionError, and no
    RuntimeWarning (tier-1 turns those into errors)."""

    @settings(max_examples=120, deadline=None)
    @given(domain_cases())
    def test_every_bound_is_defined(self, case):
        prof, env, D, seed = case
        t = prof.t
        A_t, B = prof.total(t), env.total()
        lam = 10.0 ** np.random.default_rng(seed).uniform(-300, 300, int(t // 2))
        calls = [
            lambda: theorem_bound(prof, env, D),
            lambda: corollary_bound(prof, env, D),
            lambda: corollary_bound(prof, env, D, lambdas=None),
            lambda: corollary_bound(prof, env, D, lambdas=list(lam)),
            lambda: best_bound(prof, env, D, pin94=Pin94Config()),
            lambda: closed_form_2_3(t, D, A_t, B),
            lambda: closed_form_3_4(t, D, A_t, B, 0.3),
            lambda: closed_form_min(t, D, A_t, B),
            lambda: hilbert_2_4(t, A_t, B),
            lambda: t3_bound(D, A_t, B),
            lambda: pin94_bound(t, D, A_t, B),
            lambda: sum_norm_bound(t, A_t, prof.total(2.0)),
            lambda: compute_constants(t, D, None, list(lam)),
            lambda: optimize_lambdas(t, D, None, A_t, B),
            lambda: moment_ratio(prof, env),
            lambda: find_bt(t),
        ]
        for call in calls:
            defined(call)
        report = defined(lambda: best_bound(prof, env, D))
        if report is not None:
            assert report.value <= defined(lambda: theorem_bound(prof, env, D)).value


class TestDomainEdges:
    """Inputs inside the domain where the float path failed."""

    def test_balanced_bounds_at_large_t(self):
        prof, env = unit_case(28.0)
        assert 0.0 < best_bound(prof, env, 1.0).value < math.inf
        # At t = 60 the aggregated value is 7.0e309, beyond the float range.
        prof, env = unit_case(MAX_T)
        theorem = theorem_bound(prof, env, 1.0).value
        assert 1.36e56 < theorem < 1.37e56
        value = corollary_bound(prof, env, 1.0).value
        assert value == float(oracle.balanced(MAX_T, 1.0, 0.5, 3.0, math.sqrt(3.0))[1])
        assert value == math.inf >= theorem

    def test_overflowing_envelope(self):
        prof, env = unit_case(3.0, b=[1e120, 1.0])
        assert corollary_bound(prof, env, 1.0).value == math.inf
        best = best_bound(prof, env, 1.0)
        assert best.method == "theorem"
        assert best.value == pytest.approx(5.0, rel=REL)
        # b_1^2 = 1e320 is beyond the float range; B_n is summed in units of b_1.
        prof, env = unit_case(2.5, b=[1e160, 1.0])
        assert 0.0 < theorem_bound(prof, env, 1.0).value < math.inf
        assert env.total() == 1e160

    def test_huge_smoothness(self):
        prof, env = unit_case(5.0)
        assert corollary_bound(prof, env, 1e200).value == math.inf
        assert C_A(5.0, 1.0, None, [1.0, 1e200]) < math.inf

    def test_underflow_is_the_smallest_float(self):
        # b^5 and b^3 underflow to exact zeros in the stored moments, so the
        # layered value is an exact 0; C_B B^5 is positive and below the
        # float range.
        b = 1e-150
        prof = MomentProfile(1, 5.0, {5.0: [b**5], 3.0: [b**3], 2.0: [b**2]})
        env = VarianceEnvelope([b])
        assert theorem_bound(prof, env, 1.0).value == 0.0
        assert corollary_bound(prof, env, 1.0).value == math.ulp(0.0)
        assert best_bound(prof, env, 1.0).value == 0.0
        # Two steps: the layered value itself is positive and below the range.
        prof = MomentProfile(2, 5.0, {5.0: [0.0] * 2, 3.0: [1e-300] * 2, 2.0: [b**2] * 2})
        env = VarianceEnvelope([b, b])
        assert theorem_bound(prof, env, 1.0).value == math.ulp(0.0)

    def test_sum_norm_bound_edges(self):
        assert sum_norm_bound(5.0, 1.0, 1e200) == math.inf
        assert 0.0 < sum_norm_bound(59.0, 1.0, 1.0) < math.inf

    @pytest.mark.parametrize("t", [3.0, 6.5])
    def test_envelope_total_beyond_float_range(self, t):
        # B_n = 2.1e308 is +inf; the layered kernel takes max b_i as its unit.
        prof, env = unit_case(t, b=[1.5e308, 1.5e308])
        assert env.total() == math.inf
        for bound in (theorem_bound, corollary_bound, best_bound):
            report = bound(prof, env, 1.0)
            assert report.value == math.inf
            # A_n(t) / B_n^t is about 1e-925: below the float range, not 0.
            assert report.ratio_r == math.ulp(0.0)
        assert moment_ratio(prof, env) == math.ulp(0.0)

    def test_moment_total_beyond_float_range(self):
        # A_n(3) = 2e308 is +inf: the closed forms, which take finite totals,
        # are left out of best_bound, and every other candidate is +inf.
        prof = MomentProfile(2, 3.0, {3.0: [1e308, 1e308], 2.0: [1.0, 1.0]})
        env = VarianceEnvelope([1.0, 1.0])
        assert best_bound(prof, env, 1.0, pin94=Pin94Config()).value == math.inf

    def test_extreme_beta_has_no_overflow(self):
        # q(s) = beta^(3-s) = 1e-6^(-57) is beyond the float range.
        schedule = PQSchedule.beta_family(1e-6)
        assert c_j(MAX_T, 1.0, schedule, 0) == math.inf
        assert 0.0 < c_j(4.0, 1.0, schedule, 0) < math.inf


# Totals over 1e-150..1e150, with A_t = 0, and with B = +inf, where the
# balanced value takes every lambda_j = 1; B^t itself is beyond the float
# range for t log10(B) > 308.
def _totals():
    scale = st.floats(-150.0, 150.0).map(lambda x: 10.0**x)
    return st.tuples(st.one_of(st.just(0.0), scale), st.one_of(st.just(math.inf), scale))


class TestScanParity:
    """The beta scan runs on terms computed once per call, whose value at
    each beta is the one-pass reference's up to rounding."""

    @settings(max_examples=300, deadline=None)
    @given(
        t=st.floats(3.0, MAX_T, exclude_min=True),
        D=st.one_of(st.just(1.0), st.floats(1.0, 1e200)),
        beta=st.floats(0.02, 0.98),
        totals=_totals(),
    )
    def test_scan_value_is_the_one_schedule_value(self, t, D, beta, totals):
        A_t, B = totals
        log_A, log_Bt = _log(A_t), t * _log(B)
        log_c, log_top = ref_log_layers(t, D, PQSchedule.beta_family(beta), int(t // 2))
        want = ref_log_balanced(t, log_c, log_top, log_A, log_Bt)
        got = log_value(_log_balanced_beta_terms(t, D, log_A, log_Bt), beta)
        if math.isinf(want):
            assert got == want
        else:
            # The two sum the same logs in different orders, so they agree to
            # rounding of the largest log, which can be 1e4 times the value:
            # log A_t and log B^t reach 2e4 and may cancel.
            logs = [x for x in (want, log_A, log_Bt, *log_c, log_top) if math.isfinite(x)]
            assert abs(got - want) <= LOG_TOL * max(1.0, *map(abs, logs)), (got, want)

    def test_best_bound_matches_one_pass_scan(self):
        # The Newton scan is never worse than the grid-and-golden scan beyond
        # rounding, stays on the grid's span, reports the schedule it
        # evaluated, and best_bound takes it as one of its candidates.
        rng = np.random.default_rng(2024)
        for k in range(500):
            t = float(rng.uniform(3.0, MAX_T)) if k % 5 else float(2 * rng.integers(2, 31))
            D = 1.0 if k % 3 == 0 else float(rng.uniform(1.0, 10.0))
            prof, env = make_valid_case(rng, t=t, max_n=6)
            A_t, B = prof.total(t), env.total()
            scanned = scanned_corollary(t, D, A_t, B)
            assert scanned.value <= ref_scan(t, D, A_t, B).value * (1.0 + REL)
            beta = scanned.parameters["schedule"]["beta"]
            assert BETA_GRID[0] <= beta <= BETA_GRID[-1]
            plain = corollary_bound(prof, env, D, PQSchedule.beta_family(beta), lambdas="optimize")
            assert scanned.to_dict() == plain.to_dict()
            candidates = [theorem_bound(prof, env, D), corollary_bound(prof, env, D), scanned]
            if t <= 4.0:
                candidates.append(closed_form_min(t, D, A_t, B))
                if D == 1.0:
                    candidates.append(hilbert_2_4(t, A_t, B))
            want = min(candidates, key=lambda r: (r.value, BOUND_METHODS.index(r.method)))
            assert best_bound(prof, env, D).to_dict() == want.to_dict()

    @pytest.mark.parametrize("t", [3.5, 5.0, 6.5, 11.0])
    @pytest.mark.parametrize("kind", ["beta_family", "custom"])
    def test_best_bound_with_a_schedule(self, t, kind):
        # The caller's schedule gives the layered and aggregated candidates;
        # the scan runs on beta-family layer logs whatever the schedule.  So
        # best_bound is the smallest of the public bounds at the schedule and
        # at the scanned beta, with the closed forms where t <= 4.
        if kind == "custom":
            schedule = PQSchedule.custom(custom_table(t))
        else:
            schedule = PQSchedule.beta_family(0.3)
        rng = np.random.default_rng(int(10 * t))
        winners = set()
        for k in range(40):
            D = 1.0 if k % 2 else float(rng.uniform(1.0, 3.0))
            prof, env = make_valid_case(rng, t=t, max_n=6)
            A_t, B = prof.total(t), env.total()
            beta = scanned_corollary(t, D, A_t, B).parameters["schedule"]["beta"]
            candidates = [
                theorem_bound(prof, env, D, schedule),
                corollary_bound(prof, env, D, schedule),
                corollary_bound(prof, env, D, PQSchedule.beta_family(beta)),
            ]
            if t <= 4.0:
                candidates.append(closed_form_min(t, D, A_t, B))
                if D == 1.0:
                    candidates.append(hilbert_2_4(t, A_t, B))
            want = min(candidates, key=lambda r: (r.value, BOUND_METHODS.index(r.method)))
            got = best_bound(prof, env, D, schedule)
            assert got.to_dict() == want.to_dict()
            winners.add(candidates.index(want))
        if kind == "custom" and t > 4.0:
            assert 2 in winners  # the scan wins some cases: its layer logs are checked


def custom_table(t):
    """An admissible custom table at every exponent t - 2j > 2 of t that
    no beta-family schedule has: slack in the s > 3 constraint, weights
    above 1 on (2, 3]."""
    return {
        s: (0.6 ** (3.0 - s), 0.3 ** (3.0 - s)) if s > 3.0 else (1.5, 1.2)
        for s in (t - 2.0 * j for j in range(int(t // 2)))
    }


def scan_case(rng):
    """(t, D, A_t, B) of a random valid case with t in (3, MAX_T)."""
    t = float(rng.uniform(3.0, MAX_T))
    D = float(rng.choice([1.0, rng.uniform(1.0, 10.0)]))
    prof, env = make_valid_case(rng, t=t, max_n=6)
    return t, D, prof.total(t), env.total()


class TestBetaNewton:
    """The safeguarded Newton solve of the beta scan on the convex log of the
    balanced value."""

    def test_linear_terms_are_the_objective(self):
        # F of the (K, alpha, gamma) terms is the reference's log value; F'
        # and F'' in the logit u match central differences of it; every
        # slope is <= 0, the premise of convexity.
        rng = np.random.default_rng(7)
        for _ in range(200):
            t, D, A_t, B = scan_case(rng)
            log_A, log_Bt = _log(A_t), t * _log(B)
            closure = ref_log_value_in_beta(t, D, log_A, log_Bt)
            terms = _log_balanced_beta_terms(t, D, log_A, log_Bt)
            assert all(alpha <= 0.0 and gamma <= 0.0 for _, alpha, gamma in terms)
            u = float(rng.uniform(-3.8, 3.8))
            f, d1, d2 = _log_sum_exp_derivatives(terms, expit(u))
            assert abs(f - closure(expit(u))) <= LOG_TOL * max(1.0, abs(f))
            h, size = 1e-4, max(1.0, abs(f))
            lo, mid, hi = (closure(expit(u + k * h)) for k in (-1, 0, 1))
            assert d1 == pytest.approx((hi - lo) / (2 * h), rel=1e-6, abs=1e-6 * size)
            assert d2 == pytest.approx((hi - 2 * mid + lo) / h**2, rel=1e-3, abs=1e-6 * size)

    def test_one_term_has_its_exact_minimizer(self):
        # alpha log(1-beta) + gamma log beta is least at beta = gamma/(alpha+gamma).
        rng = np.random.default_rng(8)
        lo, hi = BETA_GRID[0], BETA_GRID[-1]
        for _ in range(200):
            alpha, gamma = -(10.0 ** rng.uniform(-2.0, 3.0, 2))
            beta = _minimize_log_sum_exp_beta([(float(rng.normal()), alpha, gamma)], lo, hi)
            exact = min(max(gamma / (alpha + gamma), lo), hi)
            assert beta == pytest.approx(exact, rel=1e-7)

    def test_scanned_beta_is_optimal(self):
        # Interior: no nearby beta does better.  Endpoint: the slope in u
        # points out of [0.02, 0.98].
        rng = np.random.default_rng(9)
        for _ in range(300):
            t, D, A_t, B = scan_case(rng)
            log_A, log_Bt = _log(A_t), t * _log(B)
            closure = ref_log_value_in_beta(t, D, log_A, log_Bt)
            beta = scanned_corollary(t, D, A_t, B).parameters["schedule"]["beta"]
            value = closure(beta)
            if beta in (BETA_GRID[0], BETA_GRID[-1]):
                terms = _log_balanced_beta_terms(t, D, log_A, log_Bt)
                slope = _log_sum_exp_derivatives(terms, beta)[1]
                assert slope >= 0.0 if beta == BETA_GRID[0] else slope <= 0.0
                inward = beta * (1.0 + 1e-6 if beta == BETA_GRID[0] else 1.0 - 1e-6)
                assert closure(inward) >= value
            else:
                assert closure(beta * (1.0 - 1e-6)) >= value
                assert closure(beta * (1.0 + 1e-6)) >= value

    @pytest.mark.parametrize("A_t, end", [(0.0, 0), (1e10, -1)])
    def test_endpoint_minimum(self, A_t, end):
        # At m = 1 with A_t = 0 the value is C_B B^t, increasing in beta; with
        # A_t >> B^t the layer-0 term, decreasing in beta, dominates.
        t, B = 3.5, 1.3
        report = scanned_corollary(t, 1.0, A_t, B)
        assert report.parameters["schedule"]["beta"] == BETA_GRID[end]
        assert report.to_dict() == ref_scan(t, 1.0, A_t, B).to_dict()
        terms = _log_balanced_beta_terms(t, 1.0, _log(A_t), t * math.log(B))
        slope = _log_sum_exp_derivatives(terms, BETA_GRID[end])[1]
        assert slope > 0.0 if end == 0 else slope < 0.0

    @pytest.mark.parametrize("t", [4.5, 11.0, 37.2])
    def test_degenerate_totals(self, t):
        # A_t = 0 still scans; where A_t or B is +inf every beta gives +inf,
        # and the scan returns the low end, as the grid scan does.
        scanned = scanned_corollary(t, 2.0, 0.0, 1.7)
        assert scanned.value <= ref_scan(t, 2.0, 0.0, 1.7).value * (1.0 + REL)
        assert 0.0 < scanned.value < math.inf
        for A_t, B in ((math.inf, 1.7), (1.0, math.inf), (0.0, math.inf)):
            report = scanned_corollary(t, 2.0, A_t, B)
            assert report.parameters["schedule"]["beta"] == BETA_GRID[0]
            assert report.value == math.inf
            assert ref_scan(t, 2.0, A_t, B).parameters["schedule"]["beta"] == BETA_GRID[0]

    def test_evaluation_cost(self):
        calls = []

        def counting(terms, beta):
            calls.append(beta)
            return _log_sum_exp_derivatives(terms, beta)

        rng = np.random.default_rng(10)
        with mock.patch("rosenthal.optimize._log_sum_exp_derivatives", counting):
            for _ in range(300):
                t, D, A_t, B = scan_case(rng)
                calls.clear()
                scanned_corollary(t, D, A_t, B)
                assert 1 <= len(calls) <= 20, (t, D, len(calls))


def expit(u):
    return 1.0 / (1.0 + math.exp(-u))


def log_value(terms, beta):
    """The log-sum-exp of K + alpha log(1-beta) + gamma log beta."""
    return _log_sum([k + a * math.log1p(-beta) + g * math.log(beta) for k, a, g in terms])


# The grid-and-golden scan as one pass per beta: a PQSchedule, every log of
# every layer and the whole balanced sum at each point.  It is the reference
# the Newton scan is checked against.


def ref_log_layers(t, D, schedule, m):
    log_c, shared = [], 0.0
    for j in range(m):
        s = t - 2.0 * j
        if s > 3.0:
            log_p = (3.0 - s) * math.log1p(-schedule.beta)
            log_q = (3.0 - s) * math.log(schedule.beta)
        else:
            p, q = pq_eval(schedule, s)
            log_p, log_q = math.log(p), math.log(q)
        smooth = 2.0 * math.log(D) + math.log1p((t - 2 * j - 2) / D / D)
        log_c.append(shared + smooth - math.log(t - 2 * j - 1) + log_q)
        shared += math.log((t - 2 * j) / 2.0) + smooth + log_p
    return log_c, shared


def ref_log_balanced(t, log_c, log_top, log_A, log_Bt):
    if not (math.isfinite(log_A) and math.isfinite(log_Bt)):
        log_ca, log_cb = _log_coefficients(t, log_c, log_top, [0.0] * len(log_c))
        return _log_sum([log_ca + log_A, log_cb + log_Bt])
    m = len(log_c)
    terms = [log_top - math.fsum([math.log(t / 2.0 - m + j) for j in range(1, m + 1)]) + log_Bt]
    for j, lc in enumerate(log_c):
        x = (t - 2 - 2 * j) / (t - 2)
        terms.append(lc - math.lgamma(j + 1) + x * log_A + (1.0 - x) * log_Bt)
    return _log_sum(terms)


def ref_log_value_in_beta(t, D, log_A, log_Bt):
    """beta -> the log of the balanced value at PQSchedule.beta_family(beta)."""
    m = int(t // 2)

    def log_value_at(beta):
        log_c, log_top = ref_log_layers(t, D, PQSchedule.beta_family(beta), m)
        return ref_log_balanced(t, log_c, log_top, log_A, log_Bt)

    return log_value_at


def ref_scan(t, D, A_t, B):
    log_value_at = ref_log_value_in_beta(t, D, _log(A_t), t * _log(B))
    beta, _ = grid_then_golden_minimize(log_value_at, BETA_GRID, tol=1e-10)
    return aggregated_report(t, D, PQSchedule.beta_family(beta), A_t, B)
