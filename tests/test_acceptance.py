"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured runtime (run with ``pytest -s`` to see
the lines as they complete)."""

import math
import os
import subprocess
import sys
import time

import numpy as np
from conftest import increment_scale, make_valid_case, smoothness_scale

from rosenthal import (
    C_A,
    C_B,
    HilbertSpace,
    LpSpace,
    MinGroupedSumSpec,
    MomentProfile,
    PQSchedule,
    RademacherModel,
    VarianceEnvelope,
    brute_force_min_grouped_sum,
    builtin_models,
    check_norm_power_increment,
    check_riemann_sum,
    check_two_smoothness,
    check_young,
    closed_form_2_3,
    closed_form_3_4,
    closed_form_min,
    corollary_bound,
    estimate_and_check,
    find_bt,
    min_grouped_sum,
    ratio_curve,
    recentering_ratio,
    simulate,
    theorem_bound,
)
from rosenthal.verify import check_from_simulation

REPLICATIONS = 100_000


class _Criterion:
    def __init__(self, number, description, limit_seconds):
        self.number = number
        self.description = description
        self.limit = limit_seconds
        self.start = time.perf_counter()

    def finish(self, ok, detail=""):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if ok and elapsed < self.limit else "FAIL"
        line = (
            f"[criterion {self.number:02d}] {status} ({elapsed:.2f}s / "
            f"limit {self.limit:.0f}s) {self.description}"
        )
        if detail and status == "FAIL":
            line += f" :: {detail}"
        print(line)
        assert ok, f"criterion {self.number}: {detail or self.description}"
        assert elapsed < self.limit, (
            f"criterion {self.number} exceeded its runtime limit: "
            f"{elapsed:.2f}s >= {self.limit}s"
        )


def test_criterion_01_constants_reproduction():
    crit = _Criterion(1, "(C_A, C_B) at t=3 equals ((1+D^2)/2, 1+D^2)", 1.0)
    bad = []
    for D in (1.0, math.sqrt(2.0), math.sqrt(3.0), 2.0):
        ca = C_A(3.0, D, None, [1.0])
        cb = C_B(3.0, D, None, [1.0])
        want_a = (1.0 + D * D) / 2.0
        want_b = 1.0 + D * D
        if abs(ca - want_a) > 1e-12 * abs(want_a):
            bad.append(("C_A", D, ca, want_a))
        if abs(cb - want_b) > 1e-12 * abs(want_b):
            bad.append(("C_B", D, cb, want_b))
    crit.finish(not bad, str(bad))


def test_criterion_02_closed_form_equivalences():
    crit = _Criterion(2, "aggregated bound reproduces the closed forms", 5.0)
    rng = np.random.default_rng(20)
    bad = []

    # (2, 3]: default schedule
    for k in range(1, 51):
        t = 2.0 + k / 50.0
        for D in (1.0, math.sqrt(2.0)):
            a_t = rng.uniform(0.0, 2.0, size=2)
            a_2 = rng.uniform(0.0, 2.0, size=2)
            prof = MomentProfile(2, t, {t: a_t, 2.0: a_2})
            env = VarianceEnvelope(rng.uniform(0.2, 2.0, size=2))
            got = corollary_bound(prof, env, D, lambdas=None).value
            want = closed_form_2_3(t, D, prof.total(t), env.total()).value
            if abs(got - want) > 1e-10 * abs(want):
                bad.append(("(2,3]", t, D, got, want))

    # [3, 4): schedule parameter playing the split point (the aggregation
    # switches to a two-layer decomposition exactly at t = 4, see ledger)
    for k in range(50):
        t = 3.0 + k / 50.0
        for alpha in np.arange(0.1, 0.95, 0.1):
            alpha = float(round(alpha, 1))
            a_t = rng.uniform(0.0, 2.0, size=2)
            a_2 = rng.uniform(0.0, 2.0, size=2)
            prof = MomentProfile(2, t, {t: a_t, 2.0: a_2})
            env = VarianceEnvelope(rng.uniform(0.2, 2.0, size=2))
            got = corollary_bound(
                prof, env, 1.0, PQSchedule.beta_family(alpha), lambdas=None
            ).value
            want = closed_form_3_4(t, 1.0, prof.total(t), env.total(), alpha).value
            if abs(got - want) > 1e-10 * abs(want):
                bad.append(("[3,4)", t, alpha, got, want))

    # split-point optimum: closed_form_min equals the alpha-grid minimum
    alphas = np.linspace(1e-4, 1.0 - 1e-4, 4001)
    for t in np.linspace(3.05, 4.0, 20):
        t = float(t)
        for A_t, B in ((0.8, 1.1), (2.0, 0.3), (0.05, 1.7)):
            front = (t - 2.0 + 1.0) / (t - 1.0)
            grid_vals = front * (
                A_t / alphas ** (t - 3.0) + (t - 1.0) * B**t / (1.0 - alphas) ** (t - 3.0)
            )
            # the vectorized grid matches the public function
            i_spot = 1234
            spot = closed_form_3_4(t, 1.0, A_t, B, float(alphas[i_spot])).value
            if abs(spot - grid_vals[i_spot]) > 1e-12 * abs(spot):
                bad.append(("vectorization", t, spot, grid_vals[i_spot]))
            got = closed_form_min(t, 1.0, A_t, B).value
            want = float(grid_vals.min())
            if abs(got - want) > 1e-6 * abs(want):
                bad.append(("min", t, A_t, B, got, want))
    crit.finish(not bad, f"{len(bad)} mismatches, first: {bad[:2]}")


def test_criterion_03_combinatorial_oracle():
    crit = _Criterion(3, "grouped subset sums match enumeration (n <= 12)", 10.0)
    rng = np.random.default_rng(21)
    bad = []
    for draw in range(200):
        n = int(rng.integers(1, 13))
        w = tuple(rng.uniform(0.0, 3.0, size=n))
        g = tuple(rng.uniform(0.0, 3.0, size=n + 1))
        for j in range(n + 1):
            spec = MinGroupedSumSpec(w, g, j)
            fast = min_grouped_sum(spec)
            slow = brute_force_min_grouped_sum(spec)
            if abs(fast - slow) > 1e-10 * (1.0 + abs(slow)):
                bad.append((draw, n, j, fast, slow))
    crit.finish(not bad, str(bad[:3]))


def test_criterion_04_theorem_dominates_corollary():
    crit = _Criterion(4, "layered bound <= aggregated bound on valid inputs", 10.0)
    rng = np.random.default_rng(22)
    bad = []
    for _ in range(500):
        t = float(rng.uniform(2.0001, 6.0))
        prof, env = make_valid_case(rng, t=t, n=int(rng.integers(1, 31)))
        th = theorem_bound(prof, env, 1.0).value
        co = corollary_bound(prof, env, 1.0, lambdas="optimize").value
        if th > co + 1e-12 * (1.0 + co):
            bad.append((t, prof.n, th, co))
    crit.finish(not bad, str(bad[:3]))


def test_criterion_05_concentration_constant():
    crit = _Criterion(5, "C_3 in (1.31, 1.316); search matches dense grid", 2.0)
    _, c3 = find_bt(3.0)
    grid = np.linspace(0.0, 0.5, 1_000_000)
    c3_grid = float(np.max(recentering_ratio(3.0, grid)))
    ok = 1.31 < c3 < 1.316 and abs(c3 - c3_grid) <= 1e-8
    crit.finish(ok, f"c3={c3!r}, grid={c3_grid!r}")


def test_criterion_06_ratio_curve():
    crit = _Criterion(6, "comparison curve: endpoints 1, >= 1 on (2,4]", 1.0)
    pts = ratio_curve(2.0, 4.0, 2001)
    ratios = np.array([p.ratio for p in pts])
    mid = pts[1000]
    ok = (
        abs(pts[0].ratio - 1.0) <= 1e-9
        and abs(pts[-1].ratio - 1.0) <= 1e-9
        and bool(np.all(ratios >= 1.0 - 1e-12))
        and mid.t == 3.0
        and abs(mid.ratio - math.sqrt(math.pi / 2.0)) <= 1e-9
    )
    crit.finish(ok, f"endpoints {pts[0].ratio}, {pts[-1].ratio}; mid {mid.ratio}")


def test_criterion_07_monte_carlo_bound_validity():
    crit = _Criterion(
        7, "MC estimate - 3 SE <= layered bound over the model matrix", 300.0
    )
    failures = []
    checked = 0
    for n in (1, 5, 50):
        for model in builtin_models(n, 1.0):
            for seed in range(5):
                sim = simulate(model, seed, REPLICATIONS)
                for t in (2.5, 3.0, 3.5, 4.0):
                    rep = check_from_simulation(model, sim, t, seed=seed)
                    checked += 1
                    if rep.estimate - 3.0 * rep.std_error > rep.bound.value:
                        failures.append(
                            (model.kind, n, seed, t, rep.estimate,
                             rep.std_error, rep.bound.value)
                        )
    detail = f"{len(failures)}/{checked} violations: {failures[:4]}"
    crit.finish(not failures, detail)


def test_criterion_08_sharpness_witness():
    crit = _Criterion(8, "unit single-step case: bound = moment = 1 exactly", 1.0)
    rep = estimate_and_check(RademacherModel(1, 1.0), 3.0, seed=0, replications=10_000)
    ok = (
        rep.estimate == 1.0
        and rep.std_error == 0.0
        and rep.bound.value == 1.0
        and rep.slack == 1.0
        and rep.passed
    )
    crit.finish(ok, f"estimate={rep.estimate}, bound={rep.bound.value}")


def test_criterion_09_pointwise_lemma_suites():
    crit = _Criterion(9, "pointwise inequality sweeps (10^5 points/config)", 30.0)
    rng = np.random.default_rng(23)
    bad = []

    spaces = [HilbertSpace(d) for d in (1, 3, 10)]
    spaces += [LpSpace(float(p), d) for p in (2, 3, 4) for d in (2, 8)]
    for space in spaces:
        dim = space.dim
        x = rng.standard_normal((REPLICATIONS, dim)) * 10 ** rng.uniform(
            -2, 2, (REPLICATIONS, 1)
        )
        y = rng.standard_normal((REPLICATIONS, dim)) * 10 ** rng.uniform(
            -2, 2, (REPLICATIONS, 1)
        )
        for t in (2.5, 3.0, 3.7):
            res = check_norm_power_increment(space, x, y, t)
            viol = res < -1e-12 * increment_scale(space, x, y, t)
            if np.any(viol):
                bad.append(("increment", space, t, int(viol.sum())))
        res = check_two_smoothness(space, x, y)
        viol = res < -1e-12 * smoothness_scale(space, x, y)
        if np.any(viol):
            bad.append(("two-smooth", space, int(viol.sum())))

    for draw in range(10_000):
        n = int(rng.integers(1, 31))
        b = 10 ** rng.uniform(-2.0, 2.0, size=n)
        s = float(rng.uniform(0.0, 5.0))
        if not check_riemann_sum(b, s):
            bad.append(("riemann", draw, n, s))
    for draw in range(10_000):
        xv = 10 ** float(rng.uniform(-3, 3))
        yv = 10 ** float(rng.uniform(-3, 3))
        p = float(rng.uniform(1.01, 20.0))
        if not check_young(xv, yv, p, p / (p - 1.0)):
            bad.append(("young", draw, xv, yv, p))
    crit.finish(not bad, str(bad[:4]))


def test_criterion_10_cli_determinism(tmp_path):
    crit = _Criterion(10, "verify JSON bitwise identical across thread counts", 60.0)
    configs = [
        ["--model", "rademacher", "--n", "50", "--t", "3", "--seed", "0",
         "--reps", str(REPLICATIONS)],
        ["--model", "hilbert", "--dim", "3", "--n", "5", "--t", "3.5",
         "--seed", "1", "--reps", "20000"],
        ["--model", "lp", "--dim", "8", "--n", "5", "--t", "3.5",
         "--seed", "2", "--reps", "20000"],
        ["--model", "two_point", "--p", "0.1", "--n", "20", "--t", "3.5",
         "--seed", "3", "--reps", "20000"],
        ["--model", "dependent", "--n", "50", "--t", "3", "--seed", "4",
         "--reps", "20000"],
    ]
    bad = []
    for k, config in enumerate(configs):
        blobs = []
        for threads in ("1", "4"):
            out = tmp_path / f"det_{k}_{threads}.json"
            env = dict(os.environ, ROSENTHAL_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "rosenthal.cli", "verify", *config,
                 "--output", out],
                env=env,
                capture_output=True,
                text=True,
            )
            if proc.returncode != 0:
                bad.append((config, threads, proc.stderr))
                continue
            with open(out, "rb") as fh:
                blobs.append(fh.read())
        if len(blobs) == 2 and blobs[0] != blobs[1]:
            bad.append((config, "bytes differ"))
    crit.finish(not bad, str(bad)[:500])
