import math

import numpy as np
import pytest
from scipy.integrate import quad

from rosenthal import DomainError, abs_moment_normal, ratio_curve


class TestAbsMomentNormal:
    def test_second_moment(self):
        assert abs_moment_normal(2.0) == pytest.approx(1.0, rel=1e-14)

    def test_fourth_moment(self):
        assert abs_moment_normal(4.0) == pytest.approx(3.0, rel=1e-14)

    def test_third_moment_closed_form(self):
        assert abs_moment_normal(3.0) == pytest.approx(
            2.0 * math.sqrt(2.0 / math.pi), rel=1e-14
        )

    @pytest.mark.parametrize("t", [0.0, 0.7, 2.5, 3.0, 3.9, 7.3, 20.0])
    def test_against_quadrature(self, t):
        # independent oracle: direct numerical integration of |z|^t phi(z)
        val, err = quad(
            lambda z: 2.0 * z**t * math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi),
            0.0,
            np.inf,
        )
        assert abs_moment_normal(t) == pytest.approx(val, rel=1e-10)

    def test_zeroth_moment(self):
        assert abs_moment_normal(0.0) == pytest.approx(1.0, rel=1e-14)

    def test_beyond_float_range_is_inf(self):
        # log E|Z|^400 is about 997, beyond the float range; no OverflowError
        assert abs_moment_normal(400.0) == math.inf

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            abs_moment_normal(-0.1)

    def test_log_convex_on_grid(self):
        # Lyapunov: log E|Z|^t is convex in t
        grid = [2.0, 2.5, 3.0, 3.5, 4.0]
        logs = [math.log(abs_moment_normal(t)) for t in grid]
        for i in range(1, len(grid) - 1):
            chord = 0.5 * (logs[i - 1] + logs[i + 1])
            assert logs[i] <= chord + 1e-10


class TestRatioCurve:
    def test_endpoints(self):
        pts = ratio_curve(2.0, 4.0, 3)
        assert pts[0].ratio == pytest.approx(1.0, abs=1e-12)
        assert pts[-1].ratio == pytest.approx(1.0, abs=1e-12)

    def test_midpoint_value(self):
        pts = ratio_curve(2.0, 4.0, 3)
        assert pts[1].t == 3.0
        assert pts[1].ratio == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-13)

    def test_two_rows(self):
        pts = ratio_curve(2.0, 4.0, 2)
        assert len(pts) == 2
        assert pts[0].t == 2.0 and pts[1].t == 4.0

    def test_bad_range(self):
        with pytest.raises(DomainError):
            ratio_curve(4.0, 2.0, 10)
        with pytest.raises(DomainError):
            ratio_curve(1.5, 4.0, 10)
        with pytest.raises(DomainError):
            ratio_curve(2.0, 4.0, 1)

    def test_at_least_one_everywhere(self):
        pts = ratio_curve(2.0, 4.0, 2001)
        ratios = np.array([p.ratio for p in pts])
        assert np.all(ratios >= 1.0 - 1e-12)
        assert np.all(np.array([p.ez_t for p in pts]) > 0)

    def test_single_interior_maximum(self):
        pts = ratio_curve(2.0, 4.0, 2001)
        ratios = np.array([p.ratio for p in pts])
        d = np.diff(ratios)
        sign_changes = np.sum(np.diff(np.sign(d[d != 0])) != 0)
        assert sign_changes == 1
        assert 0 < int(np.argmax(ratios)) < len(ratios) - 1
