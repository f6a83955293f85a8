"""The three benchmark workloads: input generation, the timed item, the
output checks and the traced layer probes.

Load is one client in a closed loop: the next item starts only after the
previous one has returned.  Every input is drawn from the workload seed;
the package only ever sees the generated inputs, and drawn inputs are never
filtered after the fact.

Traffic ranges stay inside what the ROADMAP names as user traffic:
2 < t <= 12 and per-step scales within 1e-3 .. 1e3.  The domain-edge
defects (a)-(f) listed in the ROADMAP (overflow at extreme scales, NaN at
t near MAX_T = 60, unchecked a_i(2) > b_i^2, ...) are the robustness item's
tests, not benchmark traffic: with t drawn uniformly from (2, 60) instead
of (2, 12], and n and scales as in bound_many_short, 62% of 400 `best_bound`
calls raise at commit 9c2629d, so timings would be timings of error paths.

The criterion-09 lemma sweeps (`rosenthal.checks`) are not user traffic and
no workload measures them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from pathlib import Path

import numpy as np

import rosenthal as r
from rosenthal import cli
from rosenthal.bounds import BETA_GRID
from rosenthal.core import required_exponents
from rosenthal.optimize import grid_then_golden_minimize
from rosenthal.rng import iter_blocks

from tracing import NullTracer

NULL_TRACER = NullTracer()

REFERENCE_FILE = Path(__file__).resolve().parent / "reference_bound_long.json"

# Relative tolerance of the oracle comparisons (bound values are sums of
# up to 1e5 positive terms, so honest reorderings differ by ~1e-13).
REL_TOL = 1e-9
CHECK_EXPONENTS = (2.5, 3.0, 3.5, 4.0)


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rel * max(abs(a), abs(b))


def _two_point_moments(b: np.ndarray, p: np.ndarray, t: float, sigma=None) -> dict:
    """Exact absolute moments of steps that are 0 or +-sigma_i/sqrt(2 p_i).

    ``sigma`` defaults to ``b`` (a tight envelope); a_i(2) is then stored as
    b_i^2 exactly, so the inputs satisfy a_i(2) <= b_i^2 bit for bit.
    """
    sigma = b if sigma is None else sigma
    out = {}
    for s in required_exponents(t):
        if s == 2.0:
            out[s] = sigma * sigma
        else:
            out[s] = 2.0 * p * (sigma / np.sqrt(2.0 * p)) ** s
    return out


def _scales(gen: np.random.Generator, n: int) -> np.ndarray:
    """Per-step scales: a log-uniform case level in 1e-2.5..1e2.5 with a
    per-step spread of half a decade, so every entry lies in 1e-3..1e3."""
    level = gen.uniform(-2.5, 2.5)
    return 10.0 ** (level + gen.uniform(-0.5, 0.5, n))


def _model_scales(gen: np.random.Generator, n: int) -> np.ndarray:
    """Per-step model scales in 1e-1..1e1 around a fixed level.  The
    dependent model calls cos, which is about 3x slower on large arguments,
    so a seed-drawn level would make simulation time depend on the seed."""
    return 10.0 ** gen.uniform(-1.0, 1.0, n)


def output_digest(obj) -> str:
    """SHA-256 of an item's output in canonical JSON."""
    blob = json.dumps(obj, sort_keys=True, allow_nan=True).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# Probes shared by all workloads: every bound-layer function, timed on its own.


def probe_bound_layers(tracer, profile, envelope, D, schedule=None) -> None:
    """Time the layers under the bound evaluators on one input.

    Spans: core.prefix_sums, subset_sums.esp_table, subset_sums.min_grouped_sum,
    bounds.theorem, bounds.corollary, bounds.closed_forms, bounds.pin94,
    bounds.beta_scan, constants.compute, constants.optimize_lambdas.
    Counters: subset_sums.kernel_ops and subset_sums.table_bytes (computed
    from the table shape), bounds.beta_scan_evals.
    """
    t = profile.t
    m = int(math.floor(t / 2.0))
    schedule = schedule or r.default_schedule()
    with tracer.span("core.prefix_sums"):
        prefix = [profile.prefix_sums(t - 2.0 * j) for j in range(m)]
        prefix.append(profile.prefix_sums(2.0))
        envelope.cumulative_array()
        A_t = profile.total(t)
        B = envelope.total()
    w = tuple(float(x * x) for x in envelope.b)
    with tracer.span("subset_sums.esp_table"):
        table = r.elementary_symmetric_suffix(w, max(m - 1, 0))
    n = envelope.n
    tracer.count("subset_sums.kernel_ops", n * max(m - 1, 0) + n * m)
    tracer.peak("subset_sums.table_bytes", table.nbytes)
    with tracer.span("subset_sums.min_grouped_sum"):
        for j in range(m):
            r.min_grouped_sum(r.MinGroupedSumSpec(w, tuple(prefix[j]), j), esp_table=table)
        top = np.asarray(prefix[m]) ** (t / 2.0 - m) if t / 2.0 - m else np.ones(n + 1)
        r.min_grouped_sum(r.MinGroupedSumSpec(w, tuple(top), m), esp_table=table)
    with tracer.span("bounds.theorem"):
        r.theorem_bound(profile, envelope, D, schedule)
    with tracer.span("bounds.corollary"):
        r.corollary_bound(profile, envelope, D, schedule, lambdas="optimize")
    with tracer.span("bounds.closed_forms"):
        _closed_forms(t, D, A_t, B)
    with tracer.span("bounds.pin94"):
        r.pin94_bound(t, D, A_t, B)
    with tracer.span("constants.compute"):
        r.compute_constants(t, D, schedule)
    with tracer.span("constants.optimize_lambdas"):
        r.optimize_lambdas(t, D, schedule, A_t, B)
    if t > 3.0:
        evals = 0

        def value_at(beta):
            nonlocal evals
            evals += 1
            return r.corollary_bound(
                profile, envelope, D, r.PQSchedule.beta_family(beta), lambdas="optimize"
            ).value

        with tracer.span("bounds.beta_scan"):
            grid_then_golden_minimize(value_at, BETA_GRID, tol=1e-10)
        tracer.count("bounds.beta_scan_evals", evals)


def _closed_forms(t: float, D: float, A_t: float, B: float) -> list:
    """Every closed form applicable at (t, D), as ``best_bound`` picks them."""
    out = []
    if t <= 3.0:
        out.append(r.closed_form_2_3(t, D, A_t, B))
    if t <= 4.0:
        out.append(r.closed_form_min(t, D, A_t, B))
        if D == 1.0:
            out.append(r.hilbert_2_4(t, A_t, B))
    if t == 3.0:
        out.append(r.t3_bound(D, A_t, B))
    return out


def layered_reference(profile, envelope, D, schedule=None) -> float:
    """Independent evaluation of the layered bound (oracle for bound_long).

    The suffix elementary symmetric polynomials come from one reversed
    cumulative sum per order, e_r(w_k..) = sum_{i>=k} w_i e_{r-1}(w_{i+1}..),
    instead of the package's row recursion, and every layer is reduced with
    ``math.fsum``.  Only the scalar constants are taken from the package.
    """
    t = profile.t
    m = int(math.floor(t / 2.0))
    schedule = schedule or r.default_schedule()
    w = np.asarray(envelope.b, dtype=float) ** 2
    n = w.shape[0]
    esp = [np.ones(n + 1)]
    for _ in range(max(m - 1, 0)):
        prev = esp[-1]
        nxt = np.zeros(n + 1)
        nxt[:n] = np.cumsum((w * prev[1:])[::-1])[::-1]
        esp.append(nxt)

    def layer(g: np.ndarray, j: int) -> float:
        if j == 0:
            return float(g[n])
        return math.fsum(g[:n] * w * esp[j - 1][1:])

    total = 0.0
    for j in range(m):
        total += r.c_j(t, D, schedule, j) * layer(profile.prefix_sums(t - 2.0 * j), j)
    expo = t / 2.0 - m
    g_top = profile.prefix_sums(2.0) ** expo if expo else np.ones(n + 1)
    return total + r.c_tilde(t, D, schedule) * layer(g_top, m)


def brute_force_layered(profile, envelope, D, schedule=None) -> float:
    """The layered bound with every layer enumerated by
    ``brute_force_min_grouped_sum`` (n <= 20)."""
    t = profile.t
    m = int(math.floor(t / 2.0))
    schedule = schedule or r.default_schedule()
    w = tuple(float(x * x) for x in envelope.b)
    total = 0.0
    for j in range(m):
        spec = r.MinGroupedSumSpec(w, tuple(profile.prefix_sums(t - 2.0 * j)), j)
        total += r.c_j(t, D, schedule, j) * r.brute_force_min_grouped_sum(spec)
    expo = t / 2.0 - m
    g_top = profile.prefix_sums(2.0) ** expo if expo else np.ones(profile.n + 1)
    spec = r.MinGroupedSumSpec(w, tuple(g_top), m)
    return total + r.c_tilde(t, D, schedule) * r.brute_force_min_grouped_sum(spec)


# ---------------------------------------------------------------------------
# mc_verify


class McVerify:
    """Monte-Carlo verification in the criterion-07 shape.

    Why: `rng`, `models` and `verify` do nearly all the work, while
    `subset_sums` does almost none (n <= 500), so a change to the bound
    kernel should show no change here.  Exercises rng, models, verify;
    touches core, subset_sums, bounds and constants only at small n;
    bypasses cli and concentration.

    Item: one `simulate` of a built-in model at fixed replications with
    threads = max(1, nproc - 1), then `check_from_simulation` at t in
    {2.5, 3, 3.5, 4}.  One CPU is left to the rest of the machine: on a
    2-vCPU VM with a single competing busy thread, 2-thread `simulate`
    times swung by 42% between 6 s windows and 1-thread times by 4%, so
    a timed pass at nproc threads measures the scheduler.  The traced
    probe still times 1 and nproc threads (`models.thread_speedup`).
    Items: the 6 built-in models at n in {5, 50}, plus one long uniform walk
    at n = 500 so the (reps x n) buffers dominate memory.  Per-step scales
    and each item's simulation seed are drawn from the workload seed.
    """

    name = "mc_verify"
    LAYERS = ("rng.", "models.", "verify.", "core.", "subset_sums.", "bounds.", "constants.")
    SIZES = {
        "full": {"ns": (5, 50), "reps": 32_768, "long_n": 500, "long_reps": 16_384},
        "tiny": {"ns": (3,), "reps": 1_024, "long_n": 20, "long_reps": 1_024},
    }
    TAIL_PASSES = 4

    def __init__(self, seed: int, nproc: int, size: str = "full", work_dir=None) -> None:
        cfg = self.SIZES[size]
        self.nproc = nproc
        self.threads = max(1, nproc - 1)
        gen = _rng(seed, 7)
        self.items = []
        for n in cfg["ns"]:
            for model in r.builtin_models(n, _model_scales(gen, n)):
                self.items.append(
                    {"model": model, "reps": cfg["reps"], "seed": int(gen.integers(2**31))}
                )
        long_model = r.UniformModel(cfg["long_n"], _model_scales(gen, cfg["long_n"]))
        self.items.append(
            {"model": long_model, "reps": cfg["long_reps"], "seed": int(gen.integers(2**31))}
        )

    @staticmethod
    def units(item) -> int:
        """Simulated increments: 2 streams x reps x n."""
        return 2 * item["reps"] * item["model"].n

    def run(self, item, tracer, threads=None):
        model, seed = item["model"], item["seed"]
        with tracer.span(f"models.simulate.{model.kind}"):
            sim = r.simulate(model, seed, item["reps"], threads=threads or self.threads)
        with tracer.span("verify.check"):
            reports = [
                r.check_from_simulation(model, sim, t, seed=seed).to_dict()
                for t in CHECK_EXPONENTS
            ]
        return reports, sim

    def check(self, item, output) -> str | None:
        for rep in output:
            if not rep["passed"]:
                return f"{rep['model']['kind']} n={rep['model']['n']} t={rep['t']}: check failed"
            if not (math.isfinite(rep["estimate"]) and math.isfinite(rep["bound"]["value"])):
                return f"{rep['model']['kind']} t={rep['t']}: non-finite output"
        return None

    def probe(self, item, output, sim, tracer) -> None:
        model, seed, reps = item["model"], item["seed"], item["reps"]
        for span, threads in (("models.simulate_1thread", 1), ("models.simulate_nproc", self.nproc)):
            with tracer.span(span):
                other = r.simulate(model, seed, reps, threads=threads)
            tracer.count("models.thread_mismatch", int(
                other.final_norms.tobytes() != sim.final_norms.tobytes()
                or other.increment_norms.tobytes() != sim.increment_norms.tobytes()
            ))
            del other
        tracer.count("models.increments", self.units(item))
        tracer.peak("models.buffer_mb_computed", sim.increment_norms.nbytes / 2**20)
        with tracer.span("rng.block_generator"):
            blocks = 0
            for label in ("norms", "moments"):
                for blk, _, _ in iter_blocks(reps):
                    r.rng.block_generator(seed, label, blk)
                    blocks += 1
        tracer.count("rng.blocks", blocks)
        envelope = model.envelope()
        for t in CHECK_EXPONENTS:
            with tracer.span("verify.empirical_profile"):
                profile = r.empirical_profile(model, t, sim.increment_norms)
            with tracer.span("verify.bounds"):
                r.theorem_bound(profile, envelope, model.smoothness)
                r.corollary_bound(profile, envelope, model.smoothness, lambdas="optimize")
            with tracer.span("core.profile_build"):
                r.MomentProfile(profile.n, t, {s: profile.moment_array(s) for s in profile.exponents})
            with tracer.span("bounds.best"):
                r.best_bound(profile, envelope, model.smoothness)
            probe_bound_layers(tracer, profile, envelope, model.smoothness)

    def thread_determinism(self) -> dict:
        """Criterion 10 on one item: the report JSON at 1 thread and at
        nproc threads (at least 2) must hash identically."""
        item = next(i for i in self.items if i["model"].kind == "hilbert")
        digests = {}
        for threads in (1, max(self.nproc, 2)):
            reports, _ = self.run(item, NULL_TRACER, threads=threads)
            digests[str(threads)] = output_digest(reports)
        return {
            "item": item["model"].describe() | {"reps": item["reps"], "seed": item["seed"]},
            "sha256_by_threads": digests,
            "identical": len(set(digests.values())) == 1,
        }


# ---------------------------------------------------------------------------
# bound_long


class BoundLong:
    """`best_bound` on long seeded profiles.

    Why: the O(n m) `subset_sums` table and the `core` prefix sums dominate;
    the beta scan is a small share and the `models` layer is idle.
    Exercises core, subset_sums, bounds, constants; bypasses rng, models,
    verify, cli and concentration.

    Item: build the profile and envelope from the drawn arrays, then call
    `best_bound`.  Items: n in {1e4, 1e5} x t in {3, 6.5, 11} x D in
    {1, sqrt 2}, with scales and point masses drawn per item.  Moments are exact two-point moments
    a_i(s) = 2 p_i (b_i / sqrt(2 p_i))^s, so every input is realizable and
    a_i(2) = b_i^2.
    """

    name = "bound_long"
    LAYERS = ("core.", "subset_sums.", "bounds.", "constants.")
    SIZES = {"full": (10_000, 100_000), "tiny": (40, 200)}
    TAIL_PASSES = 7
    TS = (3.0, 6.5, 11.0)
    DS = (1.0, math.sqrt(2.0))

    def __init__(self, seed: int, nproc: int, size: str = "full", work_dir=None) -> None:
        gen = _rng(seed, 11)
        self.items = []
        for n in self.SIZES[size]:
            for t in self.TS:
                for D in self.DS:
                    b = _scales(gen, n)
                    p = gen.uniform(0.02, 0.5, n)
                    self.items.append({"index": len(self.items), "n": n, "t": t, "D": D,
                                       "b": b, "moments": _two_point_moments(b, p, t)})
        # Values stored with the benchmark, for the seeds they were made for.
        self.reference = None
        if size == "full" and REFERENCE_FILE.is_file():
            self.reference = json.loads(REFERENCE_FILE.read_text())["seeds"].get(str(seed))

    @staticmethod
    def units(item) -> int:
        """Profile entries x layers: n (floor(t/2) + 1)."""
        return item["n"] * (int(item["t"] // 2) + 1)

    def run(self, item, tracer):
        with tracer.span("core.profile_build"):
            profile = r.MomentProfile(item["n"], item["t"], item["moments"])
            envelope = r.VarianceEnvelope(item["b"])
        with tracer.span("bounds.best"):
            report = r.best_bound(profile, envelope, item["D"])
        return report.to_dict(), (profile, envelope)

    def input_digest(self, item) -> str:
        h = hashlib.sha256(repr((item["n"], item["t"], item["D"])).encode())
        h.update(item["b"].tobytes())
        for s in sorted(item["moments"]):
            h.update(item["moments"][s].tobytes())
        return h.hexdigest()

    def check(self, item, output) -> str | None:
        """Finite value; layered <= aggregated (criterion 04 on realizable
        inputs); best <= every candidate and equal to the smallest, with
        the layered value from the independent oracle."""
        best = output["value"]
        if not math.isfinite(best):
            return f"best value {best} is not finite"
        if self.reference is not None:
            stored = self.reference[item["index"]]
            if stored["inputs"] != self.input_digest(item):
                return "stored reference was made from other inputs; regenerate it"
            if not _close(best, stored["best"]):
                return f"best {best!r} != stored reference {stored['best']!r}"
        profile = r.MomentProfile(item["n"], item["t"], item["moments"])
        envelope = r.VarianceEnvelope(item["b"])
        t, D = item["t"], item["D"]
        theorem = r.theorem_bound(profile, envelope, D).value
        oracle = layered_reference(profile, envelope, D)
        if not _close(theorem, oracle):
            return f"layered bound {theorem!r} != oracle {oracle!r}"
        corollary = r.corollary_bound(profile, envelope, D, lambdas="optimize").value
        if not theorem <= corollary * (1.0 + REL_TOL):
            return f"layered {theorem!r} exceeds aggregated {corollary!r}"
        candidates = [oracle, corollary]
        candidates += [c.value for c in _closed_forms(t, D, profile.total(t), envelope.total())]
        if t > 3.0:
            _, scanned = grid_then_golden_minimize(
                lambda beta: r.corollary_bound(
                    profile, envelope, D, r.PQSchedule.beta_family(beta), lambdas="optimize"
                ).value,
                BETA_GRID,
                tol=1e-10,
            )
            candidates.append(scanned)
        if not all(math.isfinite(c) for c in candidates):
            return f"non-finite candidate in {candidates}"
        if best > min(candidates) * (1.0 + REL_TOL):
            return f"best {best!r} exceeds a candidate ({min(candidates)!r})"
        if not _close(best, min(candidates)):
            return f"best {best!r} != smallest candidate {min(candidates)!r}"
        return None

    def probe(self, item, output, built, tracer) -> None:
        profile, envelope = built
        probe_bound_layers(tracer, profile, envelope, item["D"])


# ---------------------------------------------------------------------------
# bound_many_short


class BoundManyShort:
    """A few hundred in-process `rosenthal.cli.main` requests.

    Why: the same bound layer used differently.  Fixed per-call costs
    dominate: the 78-evaluation beta scan, `constants`, the
    `MinGroupedSumSpec` tuple round-trips and JSON I/O; the kernel is
    negligible, so a kernel that wins at n = 1e5 but adds a fixed cost per
    call loses here.  Exercises cli, bounds, constants, concentration, core
    and subset_sums at small n; bypasses rng, models and verify.

    Requests: mostly `bound` on case files with n in [2, 64], t in (2, 12],
    scales within 1e+-3, D in {1, sqrt 2, 2} and a mix of `--method`
    values, plus a few `constants` and `ratio-curve` requests.  The draws
    are stratified so that the work of a pass hardly depends on the seed:
    t takes one value per stratum of (2, 12]; each block of 20 consecutive
    t strata gets n values spread over the whole range and the fixed method
    mix of METHOD_BLOCK, both in random order.  `closed` only applies on
    (2, 4]; its slots above t = 4 go to `best`.
    """

    name = "bound_many_short"
    LAYERS = ("cli.", "core.", "subset_sums.", "bounds.", "constants.", "concentration.")
    SIZES = {
        "full": {"bound": 280, "constants": 10, "curve": 10},
        "tiny": {"bound": 20, "constants": 1, "curve": 1},
    }
    TAIL_PASSES = 1
    DS = (1.0, math.sqrt(2.0), 2.0)
    METHOD_BLOCK = (("best",) * 9 + ("theorem",) * 4 + ("corollary",) * 3
                    + ("closed",) * 2 + ("pin94",) * 2)

    def __init__(self, seed: int, nproc: int, size: str = "full", work_dir=None) -> None:
        cfg = self.SIZES[size]
        gen = _rng(seed, 13)
        case_dir = os.path.join(work_dir, "cases")
        os.makedirs(case_dir, exist_ok=True)
        self.items = []
        k, width = cfg["bound"], len(self.METHOD_BLOCK)
        blocks = k // width
        ts = 12.0 - 10.0 * (np.arange(k) + gen.random(k)) / k
        n_strata = 2 + np.floor(63 * (np.arange(k) + gen.random(k)) / k).astype(int)
        for blk in range(blocks):
            ns = n_strata[blk + blocks * gen.permutation(width)]
            methods = gen.permutation(self.METHOD_BLOCK)
            for q in range(width):
                i = blk * width + q
                method = str(methods[q])
                if method == "closed" and ts[i] > 4.0:
                    method = "best"
                self.items.append(
                    self._bound_request(gen, int(ns[q]), float(ts[i]), method, case_dir, i)
                )
        kc = cfg["constants"]
        for t in 12.0 - 10.0 * (gen.permutation(kc) + gen.random(kc)) / kc:
            argv = ["constants", "--t", repr(float(t)), "--D", repr(float(gen.choice(self.DS)))]
            if gen.random() < 0.5:
                argv += ["--beta", repr(float(gen.uniform(0.1, 0.9)))]
            argv += ["--format", str(gen.choice(["json", "csv"]))]
            self.items.append({"kind": "constants", "argv": argv, "t": float(t)})
        for _ in range(cfg["curve"]):
            lo = float(gen.uniform(2.0, 3.0))
            hi = float(min(4.0, lo + gen.uniform(0.5, 2.0)))
            argv = ["ratio-curve", "--t-min", repr(lo), "--t-max", repr(hi),
                    "--steps", str(int(gen.integers(21, 202))),
                    "--format", str(gen.choice(["json", "csv"]))]
            self.items.append({"kind": "ratio-curve", "argv": argv})
        order = gen.permutation(len(self.items))
        self.items = [self.items[i] for i in order]

    def _bound_request(self, gen, n: int, t: float, method: str, case_dir: str, index: int) -> dict:
        b = _scales(gen, n)
        p = gen.uniform(0.05, 0.5, n)
        sigma = b / np.sqrt(1.0 + gen.uniform(0.0, 0.5, n))
        D = float(gen.choice(self.DS))
        moments = _two_point_moments(b, p, t, sigma=sigma)
        case = {
            "profile": {"n": n, "t": t, "moments": {repr(s): a.tolist() for s, a in moments.items()}},
            "envelope": {"b": b.tolist()},
            "D": D,
        }
        if gen.random() < 0.5:
            case["schedule"] = {"kind": "beta_family", "beta": float(gen.uniform(0.1, 0.9))}
        path = os.path.join(case_dir, f"case{index:04d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(case, fh)
        argv = ["bound", "--input", path, "--method", method]
        if gen.random() < 0.25:
            argv += ["--beta", repr(float(gen.uniform(0.1, 0.9)))]
        argv += ["--format", "csv" if gen.random() < 0.2 else "json"]
        return {"kind": "bound", "argv": argv, "method": method, "path": path}

    @staticmethod
    def units(item) -> int:
        """One request."""
        return 1

    def run(self, item, tracer):
        buf = io.StringIO()
        with tracer.span("cli.request"), contextlib.redirect_stdout(buf):
            try:
                code = cli.main(item["argv"])
            except SystemExit as exc:  # argparse rejects the request
                code = exc.code
        text = buf.getvalue()
        tracer.count("cli.bytes_out", len(text.encode()))
        return {"exit": code, "stdout": text}, None

    def _library_call(self, item, tracer):
        """The direct library call a request stands for, on prebuilt inputs."""
        argv = item["argv"]
        opt = {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}
        if item["kind"] == "bound":
            with open(item["path"], encoding="utf-8") as fh:
                case = json.load(fh)
            profile = r.MomentProfile.from_dict(case["profile"])
            envelope = r.VarianceEnvelope.from_dict(case["envelope"])
            D = float(case["D"])
            schedule = r.PQSchedule.from_dict(case["schedule"]) if "schedule" in case else None
            if "--beta" in opt:
                schedule = r.PQSchedule.beta_family(float(opt["--beta"]))
            method = item["method"]
            t, A_t, B = profile.t, profile.total(profile.t), envelope.total()
            calls = {
                "best": ("bounds.best", lambda: r.best_bound(profile, envelope, D, schedule)),
                "theorem": ("bounds.theorem", lambda: r.theorem_bound(profile, envelope, D, schedule)),
                "corollary": ("bounds.corollary",
                              lambda: r.corollary_bound(profile, envelope, D, schedule, lambdas="optimize")),
                "closed": ("bounds.closed_forms", lambda: r.closed_form_min(t, D, A_t, B)),
                "pin94": ("bounds.pin94", lambda: r.pin94_bound(t, D, A_t, B, r.Pin94Config())),
            }
            span, call = calls[method]
            return span, call, (profile, envelope, D, schedule)
        if item["kind"] == "constants":
            t, D = float(opt["--t"]), float(opt["--D"])
            schedule = (r.PQSchedule.beta_family(float(opt["--beta"])) if "--beta" in opt
                        else r.default_schedule())

            def call():
                with tracer.span("constants.compute"):
                    cs = r.compute_constants(t, D, schedule)
                with tracer.span("concentration.find_bt"):
                    bt = r.find_bt(t)
                return cs, bt

            return "constants.request", call, None
        lo, hi, steps = float(opt["--t-min"]), float(opt["--t-max"]), int(opt["--steps"])
        return "gaussian.ratio_curve", lambda: r.ratio_curve(lo, hi, steps), None

    def check(self, item, output) -> str | None:
        """Exit 0, parseable output, value equal to the direct library call
        to 12 significant digits; for n <= 12 the layered value also equals
        the brute-force enumeration of every layer."""
        if output["exit"] != 0:
            return f"{item['argv'][:1]} exited {output['exit']}"
        fmt = item["argv"][item["argv"].index("--format") + 1]
        try:
            parsed = _parse_output(output["stdout"], fmt, item["kind"])
        except (ValueError, KeyError, IndexError) as exc:
            return f"unparseable output: {exc}"
        _, call, inputs = self._library_call(item, NULL_TRACER)
        direct = call()
        if item["kind"] == "bound":
            want = [("value", direct.value)]
        elif item["kind"] == "constants":
            cs, (b_t, c_t) = direct
            want = [("C_A", cs.C_A), ("C_B", cs.C_B), ("c_tilde", cs.c_tilde), ("b_t", b_t), ("C_t", c_t)]
        else:
            want = [(f"{i}.ratio", p.ratio) for i, p in enumerate(direct)]
            want += [(f"{i}.t", p.t) for i, p in enumerate(direct)]
        for key, value in want:
            got = parsed.get(key)
            if got is None or format(float(got), ".12g") != format(value, ".12g"):
                return f"{key}: output {got!r} != library {value!r}"
        if item["kind"] == "bound" and inputs[0].n <= 12:
            profile, envelope, D, schedule = inputs
            lib = r.theorem_bound(profile, envelope, D, schedule).value
            brute = brute_force_layered(profile, envelope, D, schedule)
            if not _close(lib, brute):
                return f"layered {lib!r} != brute force {brute!r}"
        return None

    def probe(self, item, output, _unused, tracer) -> None:
        span, call, inputs = self._library_call(item, tracer)
        with tracer.span("cli.direct"), tracer.span(span):
            call()
        if inputs is not None:
            profile, envelope, D, schedule = inputs
            with tracer.span("core.profile_build"):
                r.MomentProfile(profile.n, profile.t, {s: profile.moment_array(s) for s in profile.exponents})
            probe_bound_layers(tracer, profile, envelope, D, schedule)


def _parse_output(text: str, fmt: str, kind: str) -> dict:
    """Flatten a CLI report to {dotted key: value}."""
    if kind == "ratio-curve":
        if fmt == "json":
            rows = json.loads(text)
        else:
            lines = text.strip().splitlines()
            header = lines[0].split(",")
            rows = [dict(zip(header, map(float, ln.split(",")))) for ln in lines[1:]]
        return {f"{i}.{k}": v for i, row in enumerate(rows) for k, v in row.items()}
    if fmt == "json":
        return json.loads(text)
    header, values = text.strip().splitlines()
    return {k: float(v) if _is_number(v) else v
            for k, v in zip(header.split(","), values.split(","))}


def _is_number(v: str) -> bool:
    try:
        float(v)
    except ValueError:
        return False
    return True


WORKLOADS = {w.name: w for w in (McVerify, BoundLong, BoundManyShort)}
ALL_LAYERS = ("rng.", "models.", "verify.", "core.", "subset_sums.", "bounds.",
              "constants.", "concentration.", "cli.")

