import numpy as np
import pytest

from rosenthal import (
    DomainError,
    LipschitzMomentData,
    ValidationError,
    find_bt,
    recentering_ratio,
    separately_lipschitz_bound,
    sum_norm_bound,
)
from rosenthal.optimize import golden_section_minimize


class TestRecenteringRatio:
    def test_endpoint(self):
        assert recentering_ratio(3.0, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_symmetric_point(self):
        assert recentering_ratio(3.0, 0.5) == pytest.approx(1.0, rel=1e-14)

    def test_hand_value(self):
        # (0.01 + 0.81) * (sqrt(.1) + sqrt(.9))^2 = 0.82 * 1.6 = 1.312
        assert recentering_ratio(3.0, 0.1) == pytest.approx(1.312, rel=1e-12)

    def test_symmetry(self):
        for t in (2.5, 3.0, 4.7):
            for b in np.linspace(0.0, 1.0, 41):
                assert recentering_ratio(t, float(b)) == pytest.approx(
                    recentering_ratio(t, float(1.0 - b)), rel=1e-13
                )

    def test_one_at_zero_for_all_t(self):
        for t in np.linspace(2.01, 8.0, 30):
            assert recentering_ratio(float(t), 0.0) == pytest.approx(1.0, abs=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            recentering_ratio(2.0, 0.1)
        with pytest.raises(DomainError):
            recentering_ratio(3.0, 1.1)
        with pytest.raises(DomainError):
            recentering_ratio(3.0, float("nan"))
        with pytest.raises(DomainError):
            recentering_ratio(3.0, [0.2, float("nan")])
        with pytest.raises(DomainError, match=r"b must lie in \[0, 1\]"):
            recentering_ratio(3.0, [0.2, 10**400])


class TestFindBt:
    @pytest.mark.parametrize("t", [2.05, 3.0, 4.5, 11.0, 60.0])
    def test_equals_search_over_public_ratio(self, t):
        b_opt, neg = golden_section_minimize(
            lambda x: -recentering_ratio(t, x), 0.0, 0.5, tol=1e-10
        )
        assert find_bt(t) == (b_opt, -neg)

    def test_third_moment_constant_brackets(self):
        b_opt, c3 = find_bt(3.0)
        assert 1.31 < c3 < 1.316
        assert 0.0 < b_opt < 0.5

    def test_dominates_sample_point(self):
        _, c3 = find_bt(3.0)
        assert c3 > recentering_ratio(3.0, 0.1)

    def test_dominates_random_points(self):
        rng = np.random.default_rng(11)
        for t in (2.3, 3.0, 4.5, 6.0):
            _, c_t = find_bt(t)
            bs = rng.uniform(0.0, 0.5, size=200)
            assert c_t >= float(np.max(recentering_ratio(t, bs))) - 1e-12

    def test_at_least_one(self):
        for t in np.linspace(2.05, 6.0, 25):
            _, c_t = find_bt(float(t))
            assert c_t >= 1.0 - 1e-13

    def test_agrees_with_dense_grid(self):
        grid = np.linspace(0.0, 0.5, 100001)
        for t in (2.5, 3.0, 5.0):
            vals = recentering_ratio(t, grid)
            _, c_t = find_bt(t)
            assert abs(c_t - float(np.max(vals))) <= 1e-8
        # Near t = 2 the top is flat, and C_60 is about 3.4e16, so these are
        # relative: never below the grid's best beyond rounding.
        for t in (2.001, 2.05, 11.0, 20.0, 40.0, 60.0):
            top = float(np.max(recentering_ratio(t, grid)))
            _, c_t = find_bt(t)
            assert top * (1.0 - 1e-14) <= c_t <= top * (1.0 + 1e-7), (t, c_t, top)

    def test_domain(self):
        with pytest.raises(DomainError):
            find_bt(2.0)


class TestLipschitzBounds:
    def test_third_moment_single_coordinate(self):
        data = LipschitzMomentData(3.0, (1.0,), (1.0,))
        val = separately_lipschitz_bound(data)
        _, c3 = find_bt(3.0)
        assert val == pytest.approx(c3 + 2.0, rel=1e-12)
        assert 3.0 < val < 3.316

    def test_pure_second_moment_part(self):
        data = LipschitzMomentData(3.0, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        assert separately_lipschitz_bound(data) == pytest.approx(
            2.0 * 3.0**1.5, rel=1e-13
        )

    def test_empty_data(self):
        assert separately_lipschitz_bound(LipschitzMomentData(3.0, (), ())) == 0.0

    def test_sum_norm_matches_lipschitz_aggregation(self):
        data = LipschitzMomentData(3.4, (0.3, 0.4), (0.2, 0.9))
        assert separately_lipschitz_bound(data) == pytest.approx(
            sum_norm_bound(3.4, 0.7, 1.1), rel=1e-13
        )

    def test_sum_norm_values_at_three(self):
        _, c3 = find_bt(3.0)
        v = sum_norm_bound(3.0, 1.0, 1.0)
        assert 3.0 < v < 3.316 and v == pytest.approx(c3 + 2.0, rel=1e-12)
        assert sum_norm_bound(3.0, 0.0, 4.0) == pytest.approx(16.0, rel=1e-13)
        assert sum_norm_bound(3.0, 5.0, 0.0) == pytest.approx(5.0 * c3, rel=1e-12)

    def test_monotone_in_moments(self):
        base = sum_norm_bound(3.5, 1.0, 1.0)
        assert sum_norm_bound(3.5, 1.5, 1.0) > base
        assert sum_norm_bound(3.5, 1.0, 1.5) > base

    def test_fields_are_read_only_copies(self):
        rho_t, rho_2 = np.array([0.3, 0.4]), np.array([0.2, 0.9])
        data = LipschitzMomentData(3.4, rho_t, rho_2)
        for field in (data.rho_t, data.rho_2, LipschitzMomentData(3.0, (1,), (2,)).rho_t):
            assert type(field) is np.ndarray and field.dtype == np.float64
            assert not field.flags.writeable
        before = separately_lipschitz_bound(data)
        rho_t[:], rho_2[:] = 5.0, 5.0
        assert (data.rho_t.tolist(), data.rho_2.tolist()) == ([0.3, 0.4], [0.2, 0.9])
        assert separately_lipschitz_bound(data) == before
        from_tuples = LipschitzMomentData(3.4, (0.3, 0.4), (0.2, 0.9))
        assert separately_lipschitz_bound(from_tuples) == before
        assert data == data and data != LipschitzMomentData(3.4, rho_t, rho_2)  # identity

    def test_validation(self):
        with pytest.raises(ValidationError):
            LipschitzMomentData(3.0, (1.0,), (1.0, 2.0))
        with pytest.raises(ValidationError):
            LipschitzMomentData(3.0, (-1.0,), (1.0,))
        with pytest.raises(ValidationError):
            LipschitzMomentData(2.0, (1.0,), (1.0,))
        with pytest.raises(DomainError):
            sum_norm_bound(2.0, 1.0, 1.0)
        with pytest.raises(ValidationError):
            sum_norm_bound(3.0, -1.0, 1.0)
