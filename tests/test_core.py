import json
import math
import warnings

import numpy as np
import pytest

from rosenthal import (
    BoundReport,
    DomainError,
    LipschitzMomentData,
    MinGroupedSumSpec,
    MissingExponentError,
    MomentProfile,
    RademacherModel,
    SmoothnessConstant,
    ValidationError,
    VarianceEnvelope,
    check_riemann_sum,
    moment_ratio,
    required_exponents,
)
from rosenthal.core import _ratio_scalar, exponent_key, pow00


def profile_t3(a3, a2):
    return MomentProfile(len(a3), 3.0, {3.0: a3, 2.0: a2})


# Every per-index input of the package as a function of a length-2 array,
# with the name its errors give and whether it must be > 0 rather than >= 0.
PER_INDEX_INPUTS = {
    "moments": (lambda v: profile_t3(v, [1.0, 1.0]), "moments at s=3.0", False),
    "envelope": (VarianceEnvelope, "envelope b", True),
    "scale": (lambda v: RademacherModel(2, v), "scale", True),
    "weights": (lambda v: MinGroupedSumSpec(v, [1.0, 1.0, 1.0], 1), "weights", False),
    "prefix values": (lambda v: MinGroupedSumSpec([1.0], v, 1), "prefix values", False),
    "rho_t": (lambda v: LipschitzMomentData(3.0, v, [1.0, 1.0]), "rho_t", False),
    "rho_2": (lambda v: LipschitzMomentData(3.0, [1.0, 1.0], v), "rho_2", False),
    "riemann b": (lambda v: check_riemann_sum(v, 1.0), "b", True),
}


class TestPartialMomentSum:
    def test_empty_sum(self):
        p = profile_t3([1, 1, 1], [1, 1, 1])
        assert p.partial_sum(0, 3.0) == 0.0

    def test_prefix(self):
        p = profile_t3([1, 2, 3], [1, 1, 1])
        assert p.partial_sum(2, 3.0) == 3.0

    def test_at_two(self):
        p = profile_t3([1, 1], [4, 4])
        assert p.partial_sum(2, 2.0) == 8.0

    def test_missing_exponent(self):
        p = profile_t3([1], [1])
        with pytest.raises(MissingExponentError):
            p.partial_sum(1, 2.5)

    def test_bad_index(self):
        p = profile_t3([1], [1])
        with pytest.raises(DomainError):
            p.partial_sum(2, 3.0)

    def test_nondecreasing_in_k(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(0, 5, size=12)
        p = MomentProfile(12, 3.0, {3.0: a, 2.0: rng.uniform(0, 5, size=12)})
        sums = [p.partial_sum(k, 3.0) for k in range(13)]
        assert all(x <= y + 1e-15 for x, y in zip(sums, sums[1:]))


class TestCumulativeB:
    def test_three_four_five(self):
        env = VarianceEnvelope([3, 4])
        assert env.cumulative_array()[2] == pytest.approx(5.0, abs=1e-15)
        assert env.total() == pytest.approx(5.0, abs=1e-15)

    def test_empty_prefix(self):
        assert VarianceEnvelope([1]).cumulative_array()[0] == 0.0

    def test_four_ones(self):
        env = VarianceEnvelope([1, 1, 1, 1])
        assert env.cumulative_array()[4] == pytest.approx(2.0)
        assert env.total() == pytest.approx(2.0)

    def test_cumulative_array_monotone(self):
        env = VarianceEnvelope(np.random.default_rng(1).uniform(0.1, 2, size=20))
        B = env.cumulative_array()
        assert B[0] == 0.0
        assert np.all(np.diff(B) >= 0)

    def test_cumulative_array_without_overflow(self):
        # b_1^2 = 1e320 is beyond the float range; B_k is summed in units of b_1.
        env = VarianceEnvelope([1e160, 1.0])
        assert list(env.cumulative_array()) == [0.0, 1e160, 1e160]
        assert env.cumulative_array()[-1] == env.total()


class TestValidation:
    def test_smoothness_below_one(self):
        with pytest.raises(ValidationError):
            SmoothnessConstant(0.5)

    def test_smoothness_float_coercion(self):
        assert float(SmoothnessConstant(2.0)) == 2.0

    def test_negative_moment(self):
        with pytest.raises(ValidationError):
            profile_t3([1, -1], [1, 1])

    def test_missing_required_exponent(self):
        with pytest.raises(ValidationError):
            MomentProfile(1, 3.0, {3.0: [1.0]})

    def test_required_exponents_even_t(self):
        assert required_exponents(4.0) == (4.0, 2.0)
        assert required_exponents(5.0) == (5.0, 3.0, 2.0)
        with pytest.raises(DomainError, match="need t >= 2, got t=1.5"):
            required_exponents(1.5)

    def test_nonpositive_envelope(self):
        with pytest.raises(ValidationError):
            VarianceEnvelope([1.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            MomentProfile(2, 3.0, {3.0: [1], 2.0: [1, 1]})

    @pytest.mark.parametrize(
        "bad",
        [[1.0, math.nan], [1.0, math.inf], [1.0, -1.0], [1.0, 0.0], [1.0, -0.0], [1.0, 5e-324],
         [[1.0], [1.0]], [{}, 1.0]],
        ids=["nan", "inf", "negative", "zero", "negative zero", "subnormal", "2-d", "not a number"],
    )
    @pytest.mark.parametrize("kind", PER_INDEX_INPUTS)
    def test_per_index_inputs(self, kind, bad):
        build, name, positive = PER_INDEX_INPUTS[kind]
        # -0.0 == 0.0: it passes >= 0 and fails > 0; the smallest subnormal passes both.
        if bad == [1.0, 5e-324] or (bad == [1.0, 0.0] and not positive):
            build(bad)
            return
        with pytest.raises(ValidationError, match=f"^{name} must be"):
            build(bad)
        with pytest.raises(ValidationError, match=f"^{name} must be"):
            build(np.array(bad, dtype=object))

    def test_immutable(self):
        p = profile_t3([1], [1])
        with pytest.raises(AttributeError):
            p.n = 5
        env = VarianceEnvelope([1])
        with pytest.raises(AttributeError):
            env.b = None
        assert not env.b.flags.writeable


class TestMomentBlock:
    def test_rows_are_views_of_one_read_only_block(self):
        p = MomentProfile(3, 5.0, {5.0: [1.0, 2.0, 3.0], 3.0: (4, 5, 6), 2.0: np.ones(3)})
        rows = [p.moment_array(s) for s in (5.0, 3.0, 2.0)]
        block = rows[0].base
        assert block is not None and block.shape == (3, 3)
        assert all(row.base is block for row in rows)
        assert not block.flags.writeable and not any(row.flags.writeable for row in rows)
        assert [row.tolist() for row in rows] == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [1.0] * 3]

    def test_later_writes_change_nothing(self):
        a3, a2 = np.array([1.0, 2.0]), [3.0, 4.0]
        p = MomentProfile(2, 3.0, {3.0: a3, 2.0: a2})
        a3[:] = 99.0
        a2[0] = 99.0
        assert p.moment_array(3.0).tolist() == [1.0, 2.0]
        assert p.moment_array(2.0).tolist() == [3.0, 4.0]

    def test_duplicate_keys_keep_the_last_sequence(self):
        p = MomentProfile(1, 4.1, {4.1: [1.0], 2.1: [2.0], 4.1 - 2.0: [3.0], 2.0: [1.0]})
        assert p.moment_array(2.1).tolist() == [3.0]
        assert p.exponents == (2.0, 4.1 - 2.0, 4.1)

    @pytest.mark.parametrize(
        "moments, named",
        [
            ({3.0: [math.nan], -1.0: [1.0], 2.0: [1.0]}, "moments at s=3.0 must be finite"),
            ({-1.0: [1.0], 3.0: [math.nan], 2.0: [1.0]}, "moment exponent must be finite"),
            ({3.0: [1.0, 1.0], 2.0: [-1.0]}, "moments at s=3.0 must be a length-1"),
            ({3.0: [1.0], 2.0: [[1.0]]}, "moments at s=2.0 must be a flat"),
        ],
    )
    def test_first_failure_is_named(self, moments, named):
        # A failing block is checked one sequence at a time, in the given order.
        with pytest.raises(ValidationError, match=f"^{named}"):
            MomentProfile(1, 3.0, moments)


class TestExponentKeys:
    def test_twelve_digit_canonicalization(self):
        # 4.1 - 2 and the literal 2.1 differ in the last bits but must
        # address the same stored moments.
        assert exponent_key(4.1 - 2.0) == exponent_key(2.1)
        p = MomentProfile(1, 4.1, {4.1: [1.0], 4.1 - 2.0: [1.0], 2.0: [1.0]})
        assert p.moment_array(2.1)[0] == 1.0

    def test_json_round_trip(self):
        p = MomentProfile(2, 4.1, {4.1: [1, 2], 2.1: [0.5, 0.25], 2.0: [1, 1]})
        blob = json.dumps(p.to_dict())
        q = MomentProfile.from_dict(json.loads(blob))
        assert q.n == p.n and q.t == p.t
        for s in (4.1, 2.1, 2.0):
            assert np.array_equal(q.moment_array(s), p.moment_array(s))
        env = VarianceEnvelope([0.5, 2.5])
        env2 = VarianceEnvelope.from_dict(json.loads(json.dumps(env.to_dict())))
        assert np.array_equal(env2.b, env.b)

    @pytest.mark.parametrize("n", [2.7, math.nan, math.inf])
    def test_from_dict_rejects_non_integer_n(self, n):
        # n is not truncated to 2: the constructor's integer check names it.
        data = {"n": n, "t": 3.0, "moments": {"3": [1.0, 1.0], "2": [1.0, 1.0]}}
        rule = "an integer >= 0" if math.isfinite(n) else "finite"
        with pytest.raises(ValidationError, match=f"^n must be {rule}, got {n}$"):
            MomentProfile.from_dict(data)


class TestLogConvexity:
    def test_exact_moments_are_log_convex(self):
        # Moments of |X| for a genuine distribution are log-convex in s.
        rng = np.random.default_rng(2)
        vals = rng.uniform(0.1, 3.0, size=(5, 4))
        probs = rng.dirichlet(np.ones(4), size=5)
        moments = {
            s: (probs * vals**s).sum(axis=1) for s in (5.0, 3.0, 2.0)
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = MomentProfile(5, 5.0, moments, exact=True)
        assert p.log_convexity_gap() > -1e-12

    def test_violation_warns(self):
        moments = {5.0: [1e-6], 3.0: [100.0], 2.0: [1e-6]}
        with pytest.warns(RuntimeWarning):
            MomentProfile(1, 5.0, moments, exact=True)

    def test_sampled_profile_log_convex_within_noise(self):
        rng = np.random.default_rng(3)
        x = np.abs(rng.standard_normal((20000, 4)))
        moments = {s: (x**s).mean(axis=0) for s in (5.0, 3.0, 2.0)}
        p = MomentProfile(4, 5.0, moments)
        assert p.log_convexity_gap() > -1e-3


class TestBoundReport:
    def test_negative_value_rejected(self):
        with pytest.raises(ValidationError):
            BoundReport(value=-1.0, method="theorem")

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError):
            BoundReport(value=1.0, method="magic")

    def test_to_dict(self):
        r = BoundReport(value=2.0, method="corollary", constants={"C_A": 1.0})
        d = r.to_dict()
        assert d["value"] == 2.0 and d["method"] == "corollary"
        assert d["constants"]["C_A"] == 1.0


class TestMomentRatio:
    def test_defined(self):
        p = profile_t3([1.0], [1.0])
        env = VarianceEnvelope([2.0])
        assert moment_ratio(p, env) == pytest.approx(1.0 / 8.0)

    def test_ratio_when_power_overflows(self):
        # A_n / B_n^3 = 2 / 1e360 is below the float range: the log path
        # gives the smallest positive float, not None.
        p = profile_t3([1.0, 1.0], [1.0, 1.0])
        assert moment_ratio(p, VarianceEnvelope([1e120, 1.0])) == math.ulp(0.0)
        assert _ratio_scalar(3.0, 1.0, 1e120) == math.ulp(0.0)

    def test_ratio_when_power_underflows(self):
        # B^t = (1e-150)^5 underflows in floats, and so does A_n(5) = b^5:
        # the stored total is an exact 0, so the ratio is 0.0.  A positive
        # A_t over that B^t is 1e-300 / 1e-750, beyond the float range.
        b = 1e-150
        p = MomentProfile(1, 5.0, {5.0: [b**5], 3.0: [b**3], 2.0: [b**2]})
        assert moment_ratio(p, VarianceEnvelope([b])) == 0.0
        assert _ratio_scalar(5.0, 0.0, b) == 0.0
        assert _ratio_scalar(5.0, 1e-300, b) == math.inf
        assert _ratio_scalar(5.0, 1.0, 0.0) is None

    def test_none_when_t_unstored(self):
        # Every profile stores its own t >= 2, so t is never unstored.
        with pytest.raises(DomainError, match="needs t >= 2, got t=1.0"):
            MomentProfile(1, 1.0, {2.0: [1.0]})


def test_pow00_convention():
    assert pow00(0.0, 0.0) == 1.0
    assert pow00(0.0, 0.5) == 0.0
    assert np.array_equal(pow00([0.0, 4.0], 0.5), [0.0, 2.0])
    assert np.array_equal(pow00([0.0, 4.0], 0.0), [1.0, 1.0])


def test_half_layer_edges():
    assert required_exponents(2.0) == (2.0,)
    for t in (0.0, -1.0):
        with pytest.raises(DomainError):
            required_exponents(t)
