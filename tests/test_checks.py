import numpy as np
import pytest
from conftest import increment_scale, smoothness_scale

from rosenthal import (
    DomainError,
    HilbertSpace,
    LpSpace,
    ValidationError,
    check_norm_power_increment,
    check_riemann_sum,
    check_two_smoothness,
    check_young,
)
from rosenthal.schedules import PQSchedule


def random_pairs(rng, dim, count, spread=2.0):
    # log-uniform radii exercise very unequal |x|, |y| scales
    x = rng.standard_normal((count, dim)) * 10 ** rng.uniform(-spread, spread, (count, 1))
    y = rng.standard_normal((count, dim)) * 10 ** rng.uniform(-spread, spread, (count, 1))
    return x, y


class TestNormPowerIncrement:
    def test_zero_base_point_equality(self):
        space = HilbertSpace(3)
        y = np.array([0.3, -0.7, 1.1])
        res = check_norm_power_increment(space, np.zeros(3), y, 3.0)
        assert res == pytest.approx(0.0, abs=1e-14)

    def test_scalar_equality_point(self):
        space = HilbertSpace(1)
        res = check_norm_power_increment(space, np.array([1.0]), np.array([1.0]), 3.0)
        assert res == pytest.approx(0.0, abs=1e-12)

    def test_hilbert_random_sweep(self):
        rng = np.random.default_rng(12)
        for dim in (1, 3):
            space = HilbertSpace(dim)
            x, y = random_pairs(rng, dim, 20000)
            for t in (2.0, 2.5, 3.0, 3.7):
                res = check_norm_power_increment(space, x, y, t)
                assert np.all(res >= -1e-12 * increment_scale(space, x, y, t))

    def test_lp_random_sweep(self):
        rng = np.random.default_rng(13)
        for p in (2.0, 3.0, 4.0):
            space = LpSpace(p, 4)
            x, y = random_pairs(rng, 4, 20000)
            for t in (2.5, 3.0, 3.7):
                res = check_norm_power_increment(space, x, y, t)
                assert np.all(res >= -1e-12 * increment_scale(space, x, y, t))

    def test_zero_base_point_lp(self):
        space = LpSpace(3.0, 2)
        res = check_norm_power_increment(
            space, np.zeros(2), np.array([1.0, -2.0]), 2.5
        )
        assert np.isfinite(res)

    def test_t_below_two_rejected(self):
        with pytest.raises(DomainError):
            check_norm_power_increment(HilbertSpace(1), np.ones(1), np.ones(1), 1.5)

    def test_custom_schedule_respected(self):
        # a larger q(t) only loosens the right side
        space = HilbertSpace(2)
        rng = np.random.default_rng(14)
        x, y = random_pairs(rng, 2, 100)
        t = 2.5
        loose = PQSchedule.custom({t: (1.0, 2.0)})
        tight = PQSchedule.custom({t: (1.0, 1.0)})
        assert np.all(
            check_norm_power_increment(space, x, y, t, loose)
            >= check_norm_power_increment(space, x, y, t, tight) - 1e-12
        )


class TestTwoSmoothness:
    def test_parallelogram_identity(self):
        rng = np.random.default_rng(15)
        for dim in (1, 3, 10):
            space = HilbertSpace(dim)
            x, y = random_pairs(rng, dim, 5000)
            res = check_two_smoothness(space, x, y)
            assert np.all(np.abs(res) <= 1e-12 * smoothness_scale(space, x, y))

    def test_lp_nonnegative(self):
        rng = np.random.default_rng(16)
        for p in (2.0, 3.0, 4.0):
            for dim in (2, 8):
                space = LpSpace(p, dim)
                x, y = random_pairs(rng, dim, 20000)
                res = check_two_smoothness(space, x, y)
                assert np.all(res >= -1e-12 * smoothness_scale(space, x, y))

    def test_lp_two_reduces_to_hilbert(self):
        rng = np.random.default_rng(17)
        x, y = random_pairs(rng, 5, 2000)
        space = LpSpace(2.0, 5)
        res = check_two_smoothness(space, x, y)
        assert np.all(np.abs(res) <= 1e-12 * smoothness_scale(space, x, y))

    def test_space_validation(self):
        with pytest.raises(ValidationError):
            LpSpace(1.5, 3)
        with pytest.raises(ValidationError):
            HilbertSpace(0)


class TestSpaceNorms:
    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0, 7.0])
    def test_lp_norm_matches_power_formula(self, p):
        # The formula's own pow and its rounded exponent 1/p cost it up to
        # about 6 ulp at radii 1e+-3, so the bound is 8 ulp of its value.
        rng = np.random.default_rng(31)
        for shape in [(1,), (7,), (500, 1), (500, 2), (50, 10, 3), (4, 25, 8)]:
            v = rng.standard_normal(shape) * 10 ** rng.uniform(-3, 3, (*shape[:-1], 1))
            ref = (np.abs(v) ** p).sum(axis=-1) ** (1.0 / p)
            got = LpSpace(p, shape[-1]).norm(v)
            assert np.shape(got) == np.shape(ref)
            assert np.all(np.abs(got - ref) <= 8 * np.spacing(ref))
        zeros = LpSpace(p, 3).norm(np.zeros((2, 3)))
        assert np.array_equal(zeros, [0.0, 0.0])
        assert LpSpace(p, 1).norm([-2.5]) == pytest.approx(2.5, rel=4e-16)

    def test_lp_two_is_the_hilbert_norm(self):
        # HilbertSpace and l_2 give the Euclidean norm and derivative
        # expressions bit for bit, batch axes and a zero row included.
        rng = np.random.default_rng(32)
        for dim in (1, 3, 8):
            v = rng.standard_normal((200, 6, dim))
            w = rng.standard_normal((200, 6, dim))
            v[0, 0] = 0.0
            for space in (HilbertSpace(dim), LpSpace(2.0, dim)):
                want = np.sqrt(np.einsum("...k,...k->...", v, v))
                assert space.norm(v).tobytes() == want.tobytes()
                want = 2 * (v * w).sum(-1)
                assert space.norm_sq_derivative(v, w).tobytes() == want.tobytes()
                assert space.norm_sq_derivative(v, w)[0, 0] == 0.0

    def test_hilbert_space_is_lp_two(self):
        space = HilbertSpace(3)
        assert isinstance(space, LpSpace)
        assert (space.p, space.dim, space.smoothness) == (2.0, 3, 1.0)
        assert repr(space) == "HilbertSpace(dim=3)"
        with pytest.raises(ValidationError, match="dimension must be an integer >= 1, got 0"):
            HilbertSpace(0)

    @pytest.mark.parametrize("p", [2.0, 4.0, 6.0])
    def test_even_p_norm_needs_no_absolute_value(self, p):
        rng = np.random.default_rng(33)
        v = rng.standard_normal((50, 4, 5)) * 10 ** rng.uniform(-3, 3, (50, 4, 1))
        v[0, 0] = 0.0
        space = LpSpace(p, 5)
        assert space.norm(v).tobytes() == space.norm(np.abs(v)).tobytes()


class TestRiemannSum:
    def test_single_step_equality_with_zero_power(self):
        # B_0^0 = 1 by convention: both sides equal 1 exactly
        assert check_riemann_sum([1.0], 0.0)

    def test_four_ones_hand_value(self):
        # LHS at k=4: 0 + 1 + 2 + 3 = 6 <= B_4^4 / 2 = 8
        assert check_riemann_sum([1.0, 1.0, 1.0, 1.0], 2.0)

    def test_random_sweep(self):
        rng = np.random.default_rng(18)
        for _ in range(500):
            n = int(rng.integers(1, 30))
            b = 10 ** rng.uniform(-2, 2, size=n)
            s = float(rng.uniform(0.0, 5.0))
            assert check_riemann_sum(b, s)

    def test_validation(self):
        with pytest.raises(DomainError):
            check_riemann_sum([1.0], -0.5)
        with pytest.raises(ValidationError):
            check_riemann_sum([0.0], 1.0)
        with pytest.raises(ValidationError):
            check_riemann_sum([], 1.0)


class TestYoung:
    def test_equal_arguments_equality(self):
        assert check_young(3.7, 3.7, 2.0, 2.0)

    def test_hand_value(self):
        # sqrt(4 * 1) = 2 <= 4/2 + 1/2 = 2.5
        assert check_young(4.0, 1.0, 2.0, 2.0)

    def test_random_sweep(self):
        rng = np.random.default_rng(19)
        for _ in range(2000):
            x = 10 ** float(rng.uniform(-3, 3))
            y = 10 ** float(rng.uniform(-3, 3))
            p = float(rng.uniform(1.01, 20.0))
            q = p / (p - 1.0)
            assert check_young(x, y, p, q)

    def test_non_conjugate_rejected(self):
        with pytest.raises(DomainError):
            check_young(1.0, 1.0, 2.0, 3.0)
        with pytest.raises(DomainError):
            check_young(-1.0, 1.0, 2.0, 2.0)
