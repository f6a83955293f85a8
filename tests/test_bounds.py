import math
import sys

import numpy as np
import pytest
from conftest import make_valid_case, scanned_corollary
from hypothesis import given, settings
from hypothesis import strategies as st

from rosenthal import (
    BoundReport,
    DomainError,
    MinGroupedSumSpec,
    MomentProfile,
    PQSchedule,
    Pin94Config,
    ValidationError,
    VarianceEnvelope,
    best_bound,
    brute_force_min_grouped_sum,
    c_j,
    c_tilde,
    closed_form_2_3,
    closed_form_3_4,
    closed_form_min,
    corollary_bound,
    hilbert_2_4,
    pin94_bound,
    t3_bound,
    theorem_bound,
)
from rosenthal.cli import build_parser
from rosenthal.core import _ratio_scalar, pow00, required_exponents, smoothness_value


def case(t, a_by_s, b):
    n = len(b)
    return MomentProfile(n, t, a_by_s), VarianceEnvelope(b)


class TestTheoremBound:
    def test_empty_martingale(self):
        prof = MomentProfile(0, 3.0, {3.0: [], 2.0: []})
        env = VarianceEnvelope([])
        assert theorem_bound(prof, env, 1.0).value == 0.0

    def test_sharp_single_step(self):
        prof, env = case(3.0, {3.0: [1.0], 2.0: [1.0]}, [1.0])
        rep = theorem_bound(prof, env, 1.0)
        assert rep.value == 1.0
        assert rep.method == "theorem"

    def test_two_steps_hand_value(self):
        prof, env = case(3.0, {3.0: [1, 1], 2.0: [1, 1]}, [1, 1])
        # layer 0: 1 * A_2(3) = 2; top layer: 3 * (sqrt(A_0) + sqrt(A_1)) = 3
        assert theorem_bound(prof, env, 1.0).value == pytest.approx(5.0, rel=1e-14)

    def test_small_t_gated(self):
        # The layered bound needs t >= 2, and so does every moment profile.
        with pytest.raises(DomainError, match="needs t >= 2, got t=1.5"):
            MomentProfile(1, 1.5, {2.0: [1.0]})

    def test_boundary_t2_is_sharp_for_tight_envelope(self):
        # at t = 2 with default weights the bound is (A_n(2) + B_n^2) / 2,
        # which equals E||S_n||^2 exactly when the envelope is tight
        prof, env = case(2.0, {2.0: [1.0, 1.0]}, [1.0, 1.0])
        assert theorem_bound(prof, env, 1.0).value == pytest.approx(2.0, rel=1e-14)

    def test_even_t_zero_second_moment_convention(self):
        # t = 4 with vanishing A_k(2): the top layer prefix is 0^0 = 1.
        prof, env = case(4.0, {4.0: [0.0, 0.0], 2.0: [0.0, 0.0]}, [1.0, 1.0])
        rep = theorem_bound(prof, env, 1.0)
        # top term: c~_2 * e_2(w) = 6 * 1 = 6; layers vanish except the
        # j=1 layer, which also uses A(2) prefixes equal to zero.
        assert rep.value == pytest.approx(6.0, rel=1e-14)

    def test_overflow_is_inf(self):
        # Layer 3 overflows; an overflowed table entry meets A_0 = 0.
        t = 7.0
        prof = MomentProfile(4, t, {s: [1.0] * 4 for s in required_exponents(t)})
        rep = theorem_bound(prof, VarianceEnvelope([1e120] * 4), 1.0)
        assert rep.value == math.inf
        # A_n / B_n^7 = 4 / (2e120)^7 underflows: the smallest positive float.
        assert rep.ratio_r == math.ulp(0.0)

    def test_length_mismatch(self):
        from rosenthal import ValidationError

        prof = MomentProfile(1, 3.0, {3.0: [1.0], 2.0: [1.0]})
        with pytest.raises(ValidationError):
            theorem_bound(prof, VarianceEnvelope([1.0, 1.0]), 1.0)


class TestCorollaryBound:
    def test_t3_formula(self):
        prof, env = case(3.0, {3.0: [1.0], 2.0: [1.0]}, [1.0])
        rep = corollary_bound(prof, env, 1.0)
        assert rep.value == pytest.approx(3.0, rel=1e-14)
        assert rep.constants["C_A"] == pytest.approx(1.0)
        assert rep.constants["C_B"] == pytest.approx(2.0)

    def test_weaker_than_theorem_on_sharp_case(self):
        prof, env = case(3.0, {3.0: [1.0], 2.0: [1.0]}, [1.0])
        assert corollary_bound(prof, env, 1.0).value >= theorem_bound(prof, env, 1.0).value

    def test_zero_a_term(self):
        prof, env = case(2.5, {2.5: [0.0, 0.0], 2.0: [0.0, 0.0]}, [1.0, 1.0])
        rep = corollary_bound(prof, env, 1.0)
        B = env.total()
        assert rep.value == pytest.approx(rep.constants["C_B"] * B**2.5, rel=1e-14)

    def test_t_at_most_two_rejected(self):
        prof, env = case(2.0, {2.0: [1.0]}, [1.0])
        with pytest.raises(DomainError):
            corollary_bound(prof, env, 1.0)


class TestClosedForms:
    def test_boundary_t3_all_agree(self):
        v23 = closed_form_2_3(3.0, 1.0, 1.0, 1.0).value
        assert v23 == pytest.approx(3.0, rel=1e-15)
        for alpha in (0.1, 0.5, 0.9):
            assert closed_form_3_4(3.0, 1.0, 1.0, 1.0, alpha).value == pytest.approx(
                3.0, rel=1e-13
            )
        assert t3_bound(1.0, 1.0, 1.0).value == pytest.approx(3.0, rel=1e-15)

    def test_unit_a_coefficient(self):
        assert closed_form_2_3(2.5, 1.0, 1.0, 0.0).value == pytest.approx(1.0, rel=1e-15)

    def test_alpha_half_at_four(self):
        assert closed_form_3_4(4.0, 1.0, 0.0, 1.0, 0.5).value == pytest.approx(6.0, rel=1e-14)
        assert hilbert_2_4(4.0, 0.0, 1.0).value == pytest.approx(6.0, rel=1e-14)

    def test_min_form_collapses_below_three(self):
        for t in (2.1, 2.5, 3.0):
            a, b = 0.7, 1.3
            assert closed_form_min(t, 1.0, a, b).value == pytest.approx(
                closed_form_2_3(t, 1.0, a, b).value, rel=1e-14
            )

    def test_min_form_at_four(self):
        expect = (1.0 + math.sqrt(3.0)) ** 2
        assert closed_form_min(4.0, 1.0, 1.0, 1.0).value == pytest.approx(expect, rel=1e-14)

    def test_min_form_dominated_by_every_alpha(self):
        for t in (3.2, 3.5, 3.9, 4.0):
            for alpha in np.linspace(0.01, 0.99, 99):
                assert (
                    closed_form_min(t, 1.0, 0.8, 1.1).value
                    <= closed_form_3_4(t, 1.0, 0.8, 1.1, float(alpha)).value * (1 + 1e-12)
                )

    def test_min_form_equals_alpha_minimum(self):
        alphas = np.linspace(1e-4, 1 - 1e-4, 4001)
        for t in (3.3, 3.7, 4.0):
            vals = [closed_form_3_4(t, 1.0, 0.8, 1.1, float(a)).value for a in alphas]
            assert closed_form_min(t, 1.0, 0.8, 1.1).value == pytest.approx(
                min(vals), rel=1e-6
            )

    def test_hilbert_form(self):
        assert hilbert_2_4(3.0, 1.0, 1.0).value == pytest.approx(3.0, rel=1e-15)
        assert hilbert_2_4(2.2, 2.0, 0.0).value == pytest.approx(2.0, rel=1e-15)

    def test_range_validation(self):
        with pytest.raises(DomainError):
            closed_form_2_3(3.5, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            closed_form_3_4(2.9, 1.0, 1.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            closed_form_3_4(3.5, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            closed_form_min(4.2, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            hilbert_2_4(2.0, 1.0, 1.0)


class TestEquivalences:
    def test_corollary_matches_2_3_form(self):
        rng = np.random.default_rng(5)
        for t in np.linspace(2.02, 3.0, 50):
            t = float(t)
            a_t = rng.uniform(0, 2, size=3)
            a_2 = rng.uniform(0, 2, size=3)
            prof = MomentProfile(3, t, {t: a_t, 2.0: a_2})
            env = VarianceEnvelope(rng.uniform(0.2, 2, size=3))
            rep = corollary_bound(prof, env, 1.3, lambdas=None)
            ref = closed_form_2_3(t, 1.3, prof.total(t), env.total())
            assert rep.value == pytest.approx(ref.value, rel=1e-12)

    def test_corollary_matches_3_4_form(self):
        rng = np.random.default_rng(6)
        for t in np.linspace(3.0, 4.0, 50, endpoint=False):
            t = float(t)
            alpha = float(rng.uniform(0.05, 0.95))
            prof = MomentProfile(
                2, t, {t: rng.uniform(0, 2, size=2), 2.0: rng.uniform(0, 2, size=2)}
            )
            env = VarianceEnvelope(rng.uniform(0.2, 2, size=2))
            rep = corollary_bound(
                prof, env, 1.0, PQSchedule.beta_family(alpha), lambdas=None
            )
            ref = closed_form_3_4(t, 1.0, prof.total(t), env.total(), alpha)
            assert rep.value == pytest.approx(ref.value, rel=1e-12)


class TestPin94:
    def test_hand_value(self):
        cfg = Pin94Config(K=1.0, c=1.0)
        rep = pin94_bound(2.0, 1.0, 0.0, 1.0, cfg)
        assert rep.value == pytest.approx(math.exp(4.0), rel=1e-13)

    def test_large_constant_dwarfs_aggregated_bound(self):
        rep = pin94_bound(3.0, 1.0, 1.0, 1.0, Pin94Config(K=120.0))
        assert rep.value > 100 * 3.0  # aggregated bound gives exactly 3 here
        assert 1.0 <= rep.parameters["c"] <= 3.0

    def test_zero_inputs(self):
        assert pin94_bound(3.0, 1.0, 0.0, 0.0, Pin94Config(K=120.0, c=2.0)).value == 0.0

    def test_c_range(self):
        with pytest.raises(DomainError):
            pin94_bound(3.0, 1.0, 1.0, 1.0, Pin94Config(c=5.0))
        with pytest.raises(DomainError):
            pin94_bound(1.5, 1.0, 1.0, 1.0)

    def test_minimization_beats_endpoints(self):
        t, D, A, B = 4.0, 1.0, 3.0, 0.5
        auto = pin94_bound(t, D, A, B).value
        for c in (1.0, 2.0, t):
            assert auto <= pin94_bound(t, D, A, B, Pin94Config(c=c)).value * (1 + 1e-12)


class TestBestBound:
    def test_sharp_case_prefers_theorem(self):
        prof, env = case(3.0, {3.0: [1.0], 2.0: [1.0]}, [1.0])
        rep = best_bound(prof, env, 1.0)
        assert rep.method == "theorem"
        assert rep.value == 1.0

    def test_never_above_t3_form(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            prof, env = make_valid_case(rng, t=3.0, n=int(rng.integers(1, 8)))
            rep = best_bound(prof, env, 1.0)
            ref = prof.total(3.0) + 2.0 * env.total() ** 3
            assert rep.value <= ref * (1 + 1e-12)

    def test_vanishing_envelope_leaves_a_term(self):
        t = 2.5
        prof = MomentProfile(2, t, {t: [1.0, 1.0], 2.0: [1.0, 1.0]})
        env = VarianceEnvelope([1e-9, 1e-9])
        rep = best_bound(prof, env, 1.0)
        # coefficient of A_n(t) at D = 1 is exactly 1
        assert rep.value / prof.total(t) == pytest.approx(1.0, abs=1e-6)

    def test_tie_break_prefers_closed_form(self):
        # An inconsistent profile (huge second moments) makes the layered
        # bound lose; the aggregated value then ties the (2,3] closed form
        # exactly and the tie must resolve to the closed form.
        t = 2.5
        prof = MomentProfile(2, t, {t: [0.0, 0.0], 2.0: [100.0, 100.0]})
        env = VarianceEnvelope([1.0, 1.0])
        rep = best_bound(prof, env, 1.0)
        assert rep.method == "closed_2_3"

    def test_beta_scan_helps_above_three(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            prof, env = make_valid_case(rng, t=5.0, n=6)
            best = best_bound(prof, env, 1.0)
            default = corollary_bound(prof, env, 1.0)
            assert best.value <= default.value * (1 + 1e-12)

    def test_scanned_candidate_is_corollary_at_its_beta(self):
        rng = np.random.default_rng(10)
        for t in (3.5, 6.5, 11.0):
            prof, env = make_valid_case(rng, t=t, n=9)
            scanned = scanned_corollary(t, 2.0, prof.total(t), env.total())
            beta = scanned.parameters["schedule"]["beta"]
            plain = corollary_bound(prof, env, 2.0, PQSchedule.beta_family(beta))
            assert scanned.to_dict() == plain.to_dict()
            assert best_bound(prof, env, 2.0).value <= scanned.value

    def test_includes_pin94_only_on_request(self):
        prof, env = case(3.0, {3.0: [1.0], 2.0: [1.0]}, [1.0])
        rep = best_bound(prof, env, 1.0, pin94=Pin94Config(K=1e-9))
        assert rep.method == "pin94"  # absurdly small K wins on purpose

    def test_requires_t_above_two(self):
        prof, env = case(2.0, {2.0: [1.0]}, [1.0])
        with pytest.raises(DomainError):
            best_bound(prof, env, 1.0)

    def test_rejects_length_mismatch(self):
        prof, _ = case(3.5, {3.5: [1.0, 1.0], 2.0: [1.0, 1.0]}, [1.0, 1.0])
        with pytest.raises(ValidationError, match="increments but envelope"):
            best_bound(prof, VarianceEnvelope([1.0, 1.0, 1.0]), 1.0)


class TestStructuralProperties:
    def test_dominance_on_valid_inputs(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            prof, env = make_valid_case(rng, n=int(rng.integers(1, 12)))
            th = theorem_bound(prof, env, 1.0).value
            for lambdas in ("optimize", None):
                co = corollary_bound(prof, env, 1.0, lambdas=lambdas).value
                assert th <= co + 1e-12 * (1.0 + co)

    def test_scaling_covariance(self):
        rng = np.random.default_rng(10)
        lam = 2.0
        for _ in range(10):
            prof, env = make_valid_case(rng, n=5)
            t = prof.t
            scaled_moments = {
                s: prof.moment_array(s) * lam**s for s in prof.exponents
            }
            prof2 = MomentProfile(prof.n, t, scaled_moments)
            env2 = VarianceEnvelope(env.b * lam)
            for fn in (theorem_bound, corollary_bound, best_bound):
                v1 = fn(prof, env, 1.0).value
                v2 = fn(prof2, env2, 1.0).value
                assert v2 == pytest.approx(lam**t * v1, rel=1e-12)

    def test_report_ratio(self):
        prof, env = case(3.0, {3.0: [2.0], 2.0: [1.0]}, [2.0])
        rep = theorem_bound(prof, env, 1.0)
        assert rep.ratio_r == pytest.approx(2.0 / 8.0)


@st.composite
def small_cases(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    t = draw(st.floats(min_value=2.0, max_value=12.0, exclude_min=True))
    D = draw(st.sampled_from([1.0, math.sqrt(2.0), 2.0]))
    b = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)))
    unit = st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
    moments = {s: np.array(draw(unit)) * b**s for s in required_exponents(t)}
    return MomentProfile(n, t, moments), VarianceEnvelope(b), D


@given(small_cases())
@settings(max_examples=80, deadline=None)
def test_theorem_matches_brute_force_layers(case_):
    prof, env, D = case_
    t = prof.t
    m = int(t // 2)
    w = tuple(env.b**2)
    prefix = [prof.prefix_sums(t - 2.0 * j) for j in range(m)]
    prefix.append(pow00(prof.prefix_sums(2.0), t / 2.0 - m))
    consts = [c_j(t, D, None, j) for j in range(m)] + [c_tilde(t, D)]
    expect = sum(
        c * brute_force_min_grouped_sum(MinGroupedSumSpec(w, tuple(g), j))
        for j, (c, g) in enumerate(zip(consts, prefix))
    )
    assert theorem_bound(prof, env, D).value == pytest.approx(expect, rel=1e-12, abs=0.0)


class TestClosedFormOverflow:
    """B^t beyond the float range gives +inf, never a bare OverflowError."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda B: closed_form_2_3(3.0, 1.0, 1.0, B),
            lambda B: closed_form_3_4(3.5, 1.5, 1.0, B, 0.5),
            lambda B: closed_form_min(3.0, 1.0, 1.0, B),  # B^(t/s) overflows
            lambda B: closed_form_min(4.0, 1.0, 1.0, B),  # core^s overflows
            lambda B: hilbert_2_4(3.0, 1.0, B),
            lambda B: t3_bound(1.0, 1.0, B),
        ],
        ids=["closed_2_3", "closed_3_4", "closed_min_power", "closed_min_core", "hilbert_2_4",
             "t3"],
    )
    def test_huge_envelope_is_inf(self, call):
        rep = call(1e120)
        assert rep.value == math.inf
        assert rep.ratio_r == math.ulp(0.0)  # A_t / B^t underflows
        assert call(1.0).value < math.inf


# Reference: the closed forms as separate functions, each with its own checks,
# and best_bound's candidate list and tie-break dict, as they read before the
# closed forms became one table.


def ref_nonneg(name, x):
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise ValidationError(f"{name} must be finite and >= 0, got {x}")
    return x


def ref_closed_2_3(t, D, A_t, B):
    if not 2.0 < t <= 3.0:
        raise DomainError(f"this closed form needs t in (2, 3], got t={t}")
    D = smoothness_value(D)
    A_t = ref_nonneg("A_t", A_t)
    B = ref_nonneg("B", B)
    front = (t - 2 + D * D) / (t - 1)
    return BoundReport(front * (A_t + (t - 1) * B**t), "closed_2_3",
                       {"C_A": front, "C_B": front * (t - 1)}, {}, _ratio_scalar(t, A_t, B))


def ref_closed_3_4(t, D, A_t, B, alpha):
    if not 3.0 <= t <= 4.0:
        raise DomainError(f"this closed form needs t in [3, 4], got t={t}")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    D = smoothness_value(D)
    A_t = ref_nonneg("A_t", A_t)
    B = ref_nonneg("B", B)
    front = (t - 2 + D * D) / (t - 1)
    return BoundReport(
        front * (A_t / alpha ** (t - 3) + (t - 1) * B**t / (1 - alpha) ** (t - 3)),
        "closed_3_4",
        {"C_A": front / alpha ** (t - 3), "C_B": front * (t - 1) / (1 - alpha) ** (t - 3)},
        {"alpha": float(alpha)},
        _ratio_scalar(t, A_t, B),
    )


def ref_closed_min(t, D, A_t, B):
    if not 2.0 < t <= 4.0:
        raise DomainError(f"this closed form needs t in (2, 4], got t={t}")
    D = smoothness_value(D)
    A_t = ref_nonneg("A_t", A_t)
    B = ref_nonneg("B", B)
    s = max(1.0, t - 2.0)
    front = (t - 2 + D * D) / (t - 1)
    core = A_t ** (1.0 / s) + (t - 1) ** (1.0 / s) * B ** (t / s)
    return BoundReport(front * core**s, "closed_min", {"front": front, "s_t": s}, {},
                       _ratio_scalar(t, A_t, B))


def ref_hilbert_2_4(t, A_t, B):
    if not 2.0 < t <= 4.0:
        raise DomainError(f"this closed form needs t in (2, 4], got t={t}")
    A_t = ref_nonneg("A_t", A_t)
    B = ref_nonneg("B", B)
    front = 2.0 ** max(0.0, t - 3.0)
    return BoundReport(front * (A_t + (t - 1) * B**t), "hilbert_2_4",
                       {"C_A": front, "C_B": front * (t - 1)}, {}, _ratio_scalar(t, A_t, B))


def ref_t3(D, A_3, B):
    D = smoothness_value(D)
    A_3 = ref_nonneg("A_3", A_3)
    B = ref_nonneg("B", B)
    front = (1 + D * D) / 2.0
    return BoundReport(front * (A_3 + 2.0 * B**3), "t3", {"C_A": front, "C_B": 2.0 * front},
                       {}, _ratio_scalar(3.0, A_3, B))


REF_PRIORITY = {
    "theorem": 0, "t3": 1, "closed_2_3": 2, "closed_3_4": 3, "closed_min": 4,
    "hilbert_2_4": 5, "corollary": 6, "pin94": 7,
}


def ref_best(prof, env, D, pin94=None):
    t = prof.t
    A_t, B = prof.total(t), env.total()
    candidates = [theorem_bound(prof, env, D), corollary_bound(prof, env, D)]
    if t > 3.0:
        candidates.append(scanned_corollary(t, D, A_t, B))
    # The public closed forms, which test_public_forms_match_reference checks
    # against the float ref_closed_* formulas: a float reference can land an
    # ulp off an exact tie that best_bound breaks by BOUND_METHODS order.
    if 2.0 < t <= 3.0:
        candidates.append(closed_form_2_3(t, D, A_t, B))
    if 2.0 < t <= 4.0:
        candidates.append(closed_form_min(t, D, A_t, B))
        if D == 1.0:
            candidates.append(hilbert_2_4(t, A_t, B))
    if pin94 is not None:
        candidates.append(pin94_bound(t, D, A_t, B, pin94))
    return min(candidates, key=lambda r: (r.value, REF_PRIORITY[r.method]))


# The closed forms are now evaluated in logs, so they differ from these float
# references by rounding: a few units of eps * |log value|.
REL = 1e-12


def close(got, want):
    """Equal (inf and None included), or finite floats within REL relative,
    or both below the normal range: there the float reference rounds B^t
    to 0 or a subnormal, and the log path gives the smallest positive float."""
    if got == want:
        return True
    if not all(isinstance(x, float) and math.isfinite(x) for x in (got, want)):
        return False
    tol = max(REL * max(abs(got), abs(want)), sys.float_info.min)
    return abs(got - want) < tol


def report_outcome(call):
    """The report's to_dict() or the error raised."""
    try:
        return call().to_dict()
    except (ArithmeticError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


def reports_agree(got, want):
    """Same error, or the same method, keys and parameters with every float
    within REL."""
    if isinstance(want, tuple) or isinstance(got, tuple):
        return got == want
    flat = [(got, want)] + [(got[k], want[k]) for k in ("constants", "parameters")]
    if got["method"] != want["method"] or any(g.keys() != w.keys() for g, w in flat):
        return False
    pairs = [(got[k], want[k]) for k in ("value", "ratio_r")]
    pairs += [(g[k], w[k]) for g, w in flat[1:] for k in g]
    return all(close(g, w) for g, w in pairs)


class TestClosedFormTable:
    @settings(max_examples=400, deadline=None)
    @given(
        t=st.one_of(st.sampled_from([2.0, 3.0, 4.0]), st.floats(1.9, 4.3)),
        D=st.floats(1.0, 10.0),
        A=st.floats(0.0, 5.0),
        B=st.floats(0.0, 5.0),
        alpha=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(-0.1, 1.1)),
    )
    def test_public_forms_match_reference(self, t, D, A, B, alpha):
        pairs = [
            (lambda: closed_form_2_3(t, D, A, B), lambda: ref_closed_2_3(t, D, A, B)),
            (lambda: closed_form_3_4(t, D, A, B, alpha),
             lambda: ref_closed_3_4(t, D, A, B, alpha)),
            (lambda: closed_form_min(t, D, A, B), lambda: ref_closed_min(t, D, A, B)),
            (lambda: hilbert_2_4(t, A, B), lambda: ref_hilbert_2_4(t, A, B)),
            (lambda: t3_bound(D, A, B), lambda: ref_t3(D, A, B)),
        ]
        for got, want in pairs:
            assert reports_agree(report_outcome(got), report_outcome(want))

    @pytest.mark.parametrize("t", [2.5, 3.0, 3.5, 4.0, 4.5, 7.0])
    @pytest.mark.parametrize("D", [1.0, 2.0])
    def test_best_bound_matches_reference(self, t, D):
        rng = np.random.default_rng(int(10 * t + D))
        cases = [make_valid_case(rng, t=t, max_n=8) for _ in range(3)]
        # Huge second moments make the layered bound lose to exact ties.
        cases.append(case(t, {s: [0.0, 0.0] if s != 2.0 else [100.0, 100.0]
                              for s in required_exponents(t)}, [1.0, 1.0]))
        for prof, env in cases:
            for pin94 in (None, Pin94Config(), Pin94Config(K=0.05)):
                got = best_bound(prof, env, D, pin94=pin94).to_dict()
                assert reports_agree(got, ref_best(prof, env, D, pin94).to_dict())

    def test_one_layer_forms_are_the_corollary(self):
        # Where the aggregation has one layer (2 < t < 4), t3, closed_2_3,
        # closed_3_4 and hilbert_2_4 are the corollary at the beta-family
        # schedule of their split point, bit for bit.
        rng = np.random.default_rng(41)
        for _ in range(300):
            t = float(rng.choice([3.0, rng.uniform(2.0001, 3.0), rng.uniform(3.0, 3.9999)]))
            D = float(rng.choice([1.0, rng.uniform(1.0, 10.0)]))
            alpha = float(rng.uniform(0.01, 0.99))
            prof, env = make_valid_case(rng, t=t, max_n=4)
            A_t, B = prof.total(t), env.total()
            pairs = []
            for lambdas in (None, "optimize"):
                def coro(beta):
                    return corollary_bound(prof, env, D, PQSchedule.beta_family(beta), lambdas)
                if t <= 3.0:
                    pairs += [(closed_form_2_3(t, D, A_t, B), coro(b)) for b in (0.5, alpha)]
                if t == 3.0:
                    pairs.append((t3_bound(D, A_t, B), coro(0.5)))
                if t >= 3.0:
                    pairs.append((closed_form_3_4(t, D, A_t, B, alpha), coro(alpha)))
                if D == 1.0:
                    pairs.append((hilbert_2_4(t, A_t, B), coro(0.5)))
            for form, want in pairs:
                for key in ("C_A", "C_B"):
                    assert form.constants[key] == want.constants[key], (t, D, form.method)
                assert form.value == want.value, (t, D, form.method)

    def test_cli_offers_five_methods(self):
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        method = next(a for a in sub.choices["bound"]._actions if a.dest == "method")
        assert list(method.choices) == ["best", "theorem", "corollary", "closed", "pin94"]
