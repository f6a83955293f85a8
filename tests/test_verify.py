import json
import math
import tracemalloc

import numpy as np
import pytest

from rosenthal import (
    DependentModel,
    DomainError,
    HilbertModel,
    LpModel,
    MomentProfile,
    RademacherModel,
    TwoPointModel,
    UniformModel,
    ValidationError,
    VarianceEnvelope,
    corollary_bound,
    estimate_and_check,
    simulate,
    theorem_bound,
)
from rosenthal import models, verify
from rosenthal.core import required_exponents
from rosenthal.models import _TILE_ELEMS
from rosenthal.verify import _stream_means, check_from_simulation, empirical_profile


class TestSharpCase:
    def test_unit_rademacher_is_exact(self):
        rep = estimate_and_check(RademacherModel(1, 1.0), 3.0, replications=2000)
        assert rep.estimate == 1.0
        assert rep.std_error == 0.0
        assert rep.bound.value == 1.0
        assert rep.slack == 1.0
        assert rep.passed
        assert rep.z is None


class TestCltScale:
    def test_rademacher_fifty_steps(self):
        n = 50
        rep = estimate_and_check(RademacherModel(n, 1.0), 3.0, seed=0, replications=30000)
        # aggregated bound has the exact closed value n + 2 n^(3/2)
        expect_coro = n + 2.0 * n**1.5
        assert rep.corollary.value == pytest.approx(expect_coro, rel=1e-12)
        # CLT: estimate ~ E|Z|^3 n^(3/2) ~ 564.2
        assert rep.estimate == pytest.approx(
            2.0 * math.sqrt(2 / math.pi) * n**1.5, rel=0.05
        )
        assert rep.bound.value <= rep.corollary.value
        assert rep.slack is not None and 1.2 < rep.slack < 1.5
        assert rep.passed
        assert rep.profile == "exact"
        assert rep.z == (rep.estimate - rep.bound.value) / rep.std_error

    def test_vector_model_passes(self):
        model = LpModel(20, 1.0, p=3.0, dim=8)
        rep = estimate_and_check(model, 3.0, seed=0, replications=20000)
        assert rep.passed
        assert rep.slack is not None and rep.slack > 1.0
        assert rep.model["kind"] == "lp"


class TestHeavyTailedSharpness:
    def test_a_coefficient_binds_as_mass_vanishes(self):
        # Exact two-point moments: as the point mass p drops, the moment
        # ratio A_n(t)/B_n^t blows up and the aggregated bound approaches
        # C_A * A_n(t), pinning the A-coefficient.  The excess over
        # C_A * A_n(t) shrinks like sqrt(p) at t = 3.
        t, n = 3.0, 3
        excesses = []
        for p in (0.1, 0.01, 0.001):
            mag = 1.0 / math.sqrt(2 * p)
            a = {
                t: [2 * p * mag**t] * n,
                2.0: [1.0] * n,
            }
            prof = MomentProfile(n, t, a)
            env = VarianceEnvelope([1.0] * n)
            rep = corollary_bound(prof, env, 1.0)
            c_a = rep.constants["C_A"]
            excesses.append(rep.value / (c_a * prof.total(t)) - 1.0)
        assert all(e > 0.0 for e in excesses)
        assert excesses[1] < 0.45 * excesses[0]
        assert excesses[2] < 0.45 * excesses[1]
        assert excesses[2] < 0.2

    def test_two_point_simulation_passes(self):
        rep = estimate_and_check(
            TwoPointModel(5, 1.0, prob=0.1), 3.5, seed=1, replications=30000
        )
        assert rep.passed


class TestEmpiricalProfile:
    def test_exact_for_constant_norms(self):
        model = RademacherModel(4, [0.5, 1.0, 1.5, 2.0])
        sim = simulate(model, seed=2, replications=100)
        prof = empirical_profile(model, 3.0, sim.increment_norms)
        assert np.allclose(prof.moment_array(3.0), np.array(model.scale) ** 3, rtol=1e-12)
        assert np.allclose(prof.moment_array(2.0), np.array(model.scale) ** 2, rtol=1e-12)

    def test_required_exponents_present(self):
        model = RademacherModel(2, 1.0)
        sim = simulate(model, seed=3, replications=100)
        prof = empirical_profile(model, 4.7, sim.increment_norms)
        for s in (4.7, 2.7, 2.0):
            assert prof.has_exponent(s)


def _reference_profile(model, t, increment_norms):
    """The moment estimate as one (reps x n) power and mean per exponent."""
    x = np.ascontiguousarray(increment_norms, dtype=float)
    return MomentProfile(model.n, t, {s: (x**s).mean(axis=0) for s in required_exponents(t)})


def _whole_array_means(x, exponents):
    return {s: (x**s).mean(axis=0) for s in exponents}


class TestTiledMoments:
    EXPONENTS = (2.0, 2.5, 3.0, 4.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 50])
    @pytest.mark.parametrize("reps", ["1", "rows-1", "rows", "rows+1", "3rows+7"])
    def test_bits_equal_whole_array_mean(self, n, reps):
        # rows is the tile height at n >= 2; at n = 1 the column is one
        # tile, so reps > rows there too.
        rows = _TILE_ELEMS // n
        R = {"1": 1, "rows-1": rows - 1, "rows": rows, "rows+1": rows + 1,
             "3rows+7": 3 * rows + 7}[reps]
        rng = np.random.default_rng(n * 7 + R)
        x = rng.uniform(0.0, 3.0, (R, n))
        x[rng.random((R, n)) < 0.1] = 0.0
        got = _stream_means(x, self.EXPONENTS)
        for s in self.EXPONENTS:
            want = (x**s).mean(axis=0)
            assert np.array_equal(got[s], want), (n, R, s)
            assert got[s].tobytes() == want.tobytes()

    def test_profile_bits(self):
        model = DependentModel(50, 1.0)
        x = np.random.default_rng(1).uniform(0.0, 2.0, (3 * 1310 + 7, 50))
        got = empirical_profile(model, 4.5, x)
        want = _reference_profile(model, 4.5, x)
        for s in required_exponents(4.5):
            assert got.moment_array(s).tobytes() == want.moment_array(s).tobytes()

    def test_fortran_order_gives_c_order_bits(self):
        model = DependentModel(7, 1.0)
        x = np.random.default_rng(2).uniform(0.0, 2.0, (20_000, 7))
        c_order = empirical_profile(model, 3.5, x)
        f_order = empirical_profile(model, 3.5, np.asfortranarray(x))
        for s in required_exponents(3.5):
            assert f_order.moment_array(s).tobytes() == c_order.moment_array(s).tobytes()

    def test_scratch_is_about_one_tile(self):
        # The whole-array power was a 12.5 MB temporary at this shape.
        model = DependentModel(50, 1.0)
        x = np.random.default_rng(3).uniform(0.0, 2.0, (32_768, 50))
        tracemalloc.start()
        try:
            empirical_profile(model, 4.0, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("t", [2.5, 4.0])
    def test_dependent_report_matches_whole_array_estimate(self, monkeypatch, t):
        model = DependentModel(50, np.linspace(0.5, 2.0, 50))
        sims = [simulate(model, seed=11, replications=5000, threads=k) for k in (1, 2)]
        reports = [check_from_simulation(model, sim, t).to_dict() for sim in sims]
        assert reports[0] == reports[1]
        assert reports[0]["profile"] == "estimated"
        # A fresh simulation, so that no column mean is already kept.
        monkeypatch.setattr(verify, "_stream_means", _whole_array_means)
        fresh = simulate(model, seed=11, replications=5000)
        assert check_from_simulation(model, fresh, t).to_dict() == reports[0]


class TestMomentMeanCache:
    """Checks on one simulation reduce its stored moment stream once per
    exponent, and each profile keeps the bits of ``empirical_profile``."""

    @staticmethod
    def run_checks(monkeypatch, model, sim, ts):
        seen, profiles = [], {}

        def counting(x, exponents):
            seen.extend(exponents)
            return _stream_means(x, exponents)

        def capturing(profile, *args):
            profiles[profile.t] = profile
            return theorem_bound(profile, *args)

        monkeypatch.setattr(verify, "_stream_means", counting)
        monkeypatch.setattr(verify, "theorem_bound", capturing)
        for t in ts:
            assert check_from_simulation(model, sim, t).profile == "estimated"
        monkeypatch.undo()
        return seen, profiles

    @staticmethod
    def assert_profile_bits(model, sim, profiles):
        for t, got in profiles.items():
            want = empirical_profile(model, t, sim.increment_norms)
            assert got.exponents == want.exponents
            for s in want.exponents:
                assert got.moment_array(s).tobytes() == want.moment_array(s).tobytes(), (t, s)

    def test_each_exponent_is_reduced_once(self, monkeypatch):
        model = DependentModel(50, np.linspace(0.5, 2.0, 50))
        sim = simulate(model, seed=12, replications=3000)
        ts = (2.5, 3.0, 3.5, 4.0)
        seen, profiles = self.run_checks(monkeypatch, model, sim, ts + ts)
        assert sorted(seen) == [2.0, 2.5, 3.0, 3.5, 4.0]
        assert sorted(profiles) == list(ts)
        self.assert_profile_bits(model, sim, profiles)
        with pytest.raises(ValueError, match="read-only"):
            sim.increment_norms[0, 0] = 0.0

    def test_exponents_sharing_a_key_keep_their_own_powers(self, monkeypatch):
        # t = 4.1 needs 4.1 - 2 = 2.0999999999999996, whose key is that of
        # 2.1; the later check at t = 2.1 must still raise to 2.1 itself.
        model = DependentModel(6, 1.0)
        sim = simulate(model, seed=13, replications=2000)
        seen, profiles = self.run_checks(monkeypatch, model, sim, (4.1, 2.1))
        assert sorted(seen) == [2.0, 4.1 - 2.0, 2.1, 4.1]
        self.assert_profile_bits(model, sim, profiles)


class TestEmpiricalProfileInput:
    def test_accepts_nested_lists(self):
        model = DependentModel(3, 1.0)
        x = np.random.default_rng(4).uniform(0.0, 1.0, (50, 3))
        got = empirical_profile(model, 3.0, x.tolist())
        want = empirical_profile(model, 3.0, x)
        for s in required_exponents(3.0):
            assert got.moment_array(s).tobytes() == want.moment_array(s).tobytes()

    @pytest.mark.parametrize(
        "norms",
        [np.ones(3), np.ones((2, 3, 1)), np.empty((0, 3)), np.ones((5, 4)), [[1.0, 2.0], [1.0]],
         [["a", "b", "c"]]],
        ids=["1d", "3d", "no-rows", "wrong-width", "ragged", "strings"],
    )
    def test_bad_shape_names_the_input(self, norms):
        with pytest.raises(ValidationError, match="increment_norms"):
            empirical_profile(DependentModel(3, 1.0), 3.0, norms)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, -0.5])
    @pytest.mark.parametrize("t", [3.0, 4.0])
    def test_bad_entry_names_the_input(self, bad, t):
        # The bad entry sits in the last tile; t = 4 has only even exponents.
        x = np.ones((3 * (_TILE_ELEMS // 3) + 7, 3))
        x[-1, 1] = bad
        with pytest.raises(ValidationError, match="increment_norms must be finite and >= 0"):
            empirical_profile(DependentModel(3, 1.0), t, x)


SCALE = [0.5, 1.0, 1.5, 2.0]


class TestExactProfile:
    @pytest.mark.parametrize(
        "model",
        [
            RademacherModel(4, SCALE),
            HilbertModel(4, SCALE, dim=3),
            LpModel(4, SCALE, p=3.0, dim=4),
        ],
        ids=lambda m: m.kind,
    )
    @pytest.mark.parametrize("t", [3.0, 4.7])
    def test_deterministic_norms_match_estimate(self, model, t):
        sim = simulate(model, seed=6, replications=100)
        exact = model.exact_profile(t)
        est = empirical_profile(model, t, sim.increment_norms)
        for s in required_exponents(t):
            np.testing.assert_allclose(
                exact.moment_array(s), est.moment_array(s), rtol=1e-12
            )

    @pytest.mark.parametrize(
        "model",
        [UniformModel(4, SCALE), TwoPointModel(4, SCALE, prob=0.1)],
        ids=lambda m: m.kind,
    )
    @pytest.mark.parametrize("t", [3.5, 4.7])
    def test_random_norms_within_four_se(self, model, t):
        reps = 40_000
        x = simulate(model, seed=7, replications=reps).increment_norms
        exact = model.exact_profile(t)
        for s in required_exponents(t):
            samples = x**s
            mean = samples.mean(axis=0)
            se = samples.std(axis=0, ddof=1) / math.sqrt(reps)
            assert np.all(np.abs(exact.moment_array(s) - mean) <= 4.0 * se)

    def test_dependent_is_estimated(self):
        model = DependentModel(4, SCALE)
        assert model.exact_profile(3.0) is None
        rep = estimate_and_check(model, 3.0, seed=8, replications=5000)
        assert rep.profile == "estimated"
        assert rep.passed


class TestReports:
    def test_shared_simulation_matches_direct_call(self):
        model = RademacherModel(5, 1.0)
        sim = simulate(model, seed=4, replications=5000)
        a = check_from_simulation(model, sim, 3.0, seed=4)
        b = estimate_and_check(model, 3.0, seed=4, replications=5000)
        assert a.to_dict() == b.to_dict()

    def test_simulation_of_another_model_is_rejected(self):
        # A scale-100 model checked against a scale-1 simulation would compare
        # an estimate near 47 with a bound near 6.8e7 and pass; both
        # directions are errors, as a different seed is.
        small, large = RademacherModel(10, 1.0), RademacherModel(10, 100.0)
        for model, simulated in ((large, small), (small, large)):
            sim = simulate(simulated, seed=3, replications=4096)
            with pytest.raises(ValidationError, match="is not the simulated model"):
                check_from_simulation(model, sim, 3.0)
            assert check_from_simulation(simulated, sim, 3.0).model == simulated.describe()

    def test_report_records_the_simulation_seed(self):
        model = RademacherModel(3, 1.0)
        sim = simulate(model, seed=9, replications=500)
        assert check_from_simulation(model, sim, 3.0).seed == 9
        assert check_from_simulation(model, sim, 3.0, seed=9).seed == 9
        with pytest.raises(ValidationError, match="seed 0 is not the simulation's seed 9"):
            check_from_simulation(model, sim, 3.0, seed=0)

    def test_deterministic_across_threads(self):
        model = LpModel(5, 1.0, p=3.0, dim=2)
        a = estimate_and_check(model, 2.5, seed=5, replications=8000, threads=1)
        b = estimate_and_check(model, 2.5, seed=5, replications=8000, threads=4)
        assert a.to_dict() == b.to_dict()

    def test_json_serializable(self):
        rep = estimate_and_check(RademacherModel(2, 1.0), 2.0, replications=500)
        blob = json.dumps(rep.to_dict())
        back = json.loads(blob)
        assert back["passed"] is True
        assert back["corollary"] is None  # t = 2 has no aggregated bound

    def test_t_below_two_rejected(self):
        with pytest.raises(DomainError):
            estimate_and_check(RademacherModel(1, 1.0), 1.5, replications=10)

    @pytest.mark.parametrize("t", [math.nan, 61.0, 1e7])
    def test_t_outside_domain_draws_nothing(self, monkeypatch, t):
        def no_stream(*args, **kwargs):
            raise AssertionError("drew a stream for a rejected t")

        monkeypatch.setattr(models, "_run_stream", no_stream)
        with pytest.raises(DomainError):
            estimate_and_check(RademacherModel(3, 1.0), t, replications=1000)

    def test_zero_estimate_has_no_slack(self):
        # seed 1 leaves every replication of this sparse walk at the origin
        rep = estimate_and_check(
            TwoPointModel(1, 1.0, prob=0.01), 3.0, seed=1, replications=50
        )
        assert rep.estimate == 0.0
        assert rep.slack is None
        assert rep.passed
