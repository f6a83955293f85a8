"""Benchmark of the rosenthal package, measured from outside through its
public functions.

    python3 bench/run.py --workload {mc_verify,bound_long,bound_many_short} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.
One client drives a closed loop over the workload's fixed item list (one
pass) until ``--seconds`` is used up.  With ``--trace 0`` the last line of
stdout is a JSON object with the end-to-end metrics; with ``--trace 1``
untraced and traced passes alternate and the line carries the per-layer
metrics.  A full report (provenance, digests, tail definition, failures
and, when traced, every span) goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# Set-up is repeated in fresh interpreters and the median reported.
SETUP_REPEATS = 5
# Seed kept out of every tuning run, for the "claim holds on an unseen seed"
# rule; seeds 0-9 were used while the benchmark was written.
HELD_OUT_SEED = 7919

SPAN_METRICS = (
    "rng.block_generator", "verify.empirical_profile", "verify.check",
    "core.profile_build", "core.prefix_sums", "subset_sums.esp_table",
    "subset_sums.min_grouped_sum", "bounds.theorem", "bounds.corollary",
    "bounds.closed_forms", "bounds.pin94", "bounds.best", "bounds.beta_scan",
    "constants.compute", "constants.optimize_lambdas", "concentration.find_bt",
    "cli.request",
)
COUNT_METRICS = {
    "rng.blocks": "count", "models.increments": "count",
    "models.buffer_mb_computed": "MB", "subset_sums.kernel_ops": "count",
    "subset_sums.table_bytes": "bytes", "bounds.beta_scan_evals": "count",
    "cli.bytes_out": "bytes",
}
MODEL_KINDS = ("rademacher", "uniform", "two_point", "hilbert", "lp", "dependent")


class BenchError(Exception):
    """The benchmark cannot run here (no package source, failed set-up)."""


def import_library():
    init = SRC / "rosenthal" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"package source not found at {init.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    import rosenthal

    if Path(rosenthal.__file__).resolve() != init.resolve():
        raise BenchError(f"imported rosenthal from {rosenthal.__file__}, not from src/")
    return rosenthal


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def provenance(seed: int, threads: int) -> dict:
    import numpy as np
    import rosenthal
    from rosenthal.rng import BLOCK_SIZE

    return {
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "nproc": nproc(),
        "threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "rosenthal": rosenthal.__version__,
        "block_size": BLOCK_SIZE,
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


def measure_setup(args) -> float:
    """Median wall time of fresh interpreters that import the package and
    generate the workload's inputs (the time from process start to the
    first timed item)."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-only"]
    walls = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"set-up run failed: {proc.stderr.strip()[-500:]}")
    return statistics.median(walls)


def run_pass(w, tracer, index: int, keep_outputs: bool) -> dict:
    """One closed-loop pass over the item list.  Probes (traced passes
    only) run between items and are excluded from the pass wall time."""
    from workloads import output_digest

    if tracer.enabled:
        tracer.begin_pass(index)
    times, outputs, errors = [], [], {}
    probe_s = 0.0
    start = time.perf_counter()
    for i, item in enumerate(w.items):
        if tracer.enabled:
            tracer.begin_item(i)
        t0 = time.perf_counter()
        try:
            out, aux = w.run(item, tracer)
        except Exception as exc:  # a raising item is a failed item, not a crash
            out, aux = None, None
            errors[i] = f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - t0)
        outputs.append(out)
        if tracer.enabled and i not in errors:
            p0 = time.perf_counter()
            try:
                w.probe(item, out, aux, tracer)
            except Exception as exc:  # a layer that raises fails its item
                errors[i] = f"probe {type(exc).__name__}: {exc}"
            probe_s += time.perf_counter() - p0
        aux = None
    wall = time.perf_counter() - start - probe_s
    digests = [None if o is None else output_digest(o) for o in outputs]
    return {
        "wall": wall,
        "times": times,
        "digests": digests,
        "errors": errors,
        "outputs": outputs if keep_outputs else None,
    }


def run_canaries(canaries) -> None:
    """Layers this workload never calls get the smallest items of a
    workload that does, so every per-layer figure is a measured time."""
    for other, sub in canaries:
        sub.begin_item(f"canary:{other.name}")
        for item in other.items:
            out, aux = other.run(item, sub)
            other.probe(item, out, aux, sub)


def measure(w, args, work_dir: Path) -> dict:
    from tracing import NullTracer, Tracer
    from workloads import ALL_LAYERS, WORKLOADS

    null = NullTracer()
    tracer = Tracer() if args.trace else null
    canaries = []
    if args.trace:
        idle = tuple(p for p in ALL_LAYERS if p not in w.LAYERS)
        for cls in WORKLOADS.values():
            prefixes = tuple(p for p in idle if p in cls.LAYERS)
            if cls.name != w.name and prefixes:
                canaries.append((cls(args.seed, nproc(), "tiny", str(work_dir / cls.name)),
                                 tracer.restricted(prefixes)))
    # The warm-up pass lets lazy first-call costs finish before timing; its
    # outputs are the reference that later passes must reproduce.
    warmup = run_pass(w, null, -1, keep_outputs=True)
    untraced, traced = [], []
    # An untraced run always times the passes its tail statistic needs.
    min_passes = 1 if args.trace else w.TAIL_PASSES
    begin = time.perf_counter()
    while True:
        untraced.append(run_pass(w, null, len(untraced), keep_outputs=False))
        if args.trace:
            traced.append(run_pass(w, tracer, len(traced), keep_outputs=False))
            run_canaries(canaries)
        elapsed = time.perf_counter() - begin
        if len(untraced) >= min_passes and elapsed + elapsed / len(untraced) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"warmup": warmup, "untraced": untraced, "traced": traced, "tracer": tracer,
            "peak_rss_mb": peak_rss_mb}


def check_outputs(w, runs: dict) -> tuple[int, int, list[str]]:
    """Count attempted and failed items over every pass.  An item fails if
    it raised, if its output check fails, or if its output differs from the
    warm-up pass (same inputs must give the same bytes)."""
    first = runs["warmup"]
    passes = [first] + runs["untraced"] + runs["traced"]
    verdict = []
    for i, item in enumerate(w.items):
        if i in first["errors"]:
            verdict.append(first["errors"][i])
        else:
            try:
                verdict.append(w.check(item, first["outputs"][i]))
            except Exception as exc:  # the check itself hit a library error
                verdict.append(f"check raised {type(exc).__name__}: {exc}")
    attempted = failed = 0
    problems = []
    for p in passes:
        for i in range(len(w.items)):
            attempted += 1
            why = p["errors"].get(i) or verdict[i]
            if why is None and p["digests"][i] != first["digests"][i]:
                why = "output differs from the warm-up pass"
            if why is not None:
                failed += 1
                if len(problems) < 20:
                    problems.append(f"item {i}: {why}")
    return attempted, failed, problems


TAIL_BEYOND = 10


def tail_stat(times: list[float]) -> tuple[float, float, int]:
    """The latency at the highest nearest-rank percentile that still has
    TAIL_BEYOND latencies beyond it (the 11th largest), that percentile
    and the count beyond it."""
    ordered = sorted(times)
    rank = max(len(ordered) - TAIL_BEYOND, 1)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def end_to_end(w, runs: dict, setup_s: float) -> tuple[dict, dict]:
    passes = runs["untraced"]
    wall = statistics.median(p["wall"] for p in passes)
    units = sum(w.units(item) for item in w.items)
    # The tail is taken in windows of a fixed number of passes, so its rank
    # falls on the same items whatever the speed of the machine; TAIL_PASSES
    # puts it inside a block of equally costly items, not on a class
    # boundary, and keeps the rare slow outliers (a few per 300 latencies)
    # fewer than the 10 latencies beyond it.
    k = w.TAIL_PASSES
    windows = [[x for p in passes[i:i + k] for x in p["times"]]
               for i in range(0, len(passes) - k + 1, k)]
    tails = [tail_stat(window) for window in windows]
    _, percentile, beyond = tails[0]
    # The median is taken over each item's own median across passes, which
    # keeps one noisy pass from moving it between neighbouring item classes.
    # The upper median is the latency of an actual item: with an even item
    # count the mean of the two middle items would straddle two classes.
    per_item = [statistics.median(p["times"][i] for p in passes) for i in range(len(w.items))]
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "work_per_s": (units / wall, "1/s"),
        "item_p50_s": (statistics.median_high(per_item), "s"),
        "item_tail_s": (statistics.median(t[0] for t in tails), "s"),
        "peak_rss_mb": (runs["peak_rss_mb"], "MB"),
    }
    detail = {
        "units_per_pass": units,
        "passes": len(passes),
        "pass_walls_s": [p["wall"] for p in passes],
        "item_tail": {
            "percentile": percentile,
            "window_passes": k,
            "windows": len(windows),
            "items_per_window": len(windows[0]),
            "items_beyond": beyond,
        },
    }
    return metrics, detail


def per_layer(runs: dict) -> tuple[dict, dict]:
    tracer = runs["tracer"]
    rows = []
    for k in range(len(runs["traced"])):
        spans = tracer.span_seconds(k)
        counts = tracer.counters(k)
        row = {f"{name}_s": (spans.get(name, 0.0), "s") for name in SPAN_METRICS}
        for kind in MODEL_KINDS:
            row[f"models.simulate.{kind}_s"] = (spans.get(f"models.simulate.{kind}", 0.0), "s")
        nproc_s = spans.get("models.simulate_nproc", 0.0)
        row["models.thread_speedup"] = (
            spans.get("models.simulate_1thread", 0.0) / nproc_s if nproc_s else 0.0, "x")
        row["verify.reduce_self_s"] = (
            spans.get("verify.check", 0.0) - spans.get("verify.empirical_profile", 0.0)
            - spans.get("verify.bounds", 0.0), "s")
        row["cli.overhead_s"] = (spans.get("cli.request", 0.0) - spans.get("cli.direct", 0.0), "s")
        for name, unit in COUNT_METRICS.items():
            row[name] = (counts.get(name, 0.0), unit)
        rows.append(row)
    metrics = {name: (statistics.median(r[name][0] for r in rows), unit)
               for name, (_, unit) in rows[0].items()}
    overhead = (statistics.median(p["wall"] for p in runs["traced"])
                - statistics.median(p["wall"] for p in runs["untraced"]))
    metrics["trace.overhead_s"] = (overhead, "s")
    mismatches = sum(tracer.counters(k).get("models.thread_mismatch", 0.0)
                     for k in range(len(runs["traced"])))
    detail = {
        "traced_passes": len(runs["traced"]),
        "traced_pass_walls_s": [p["wall"] for p in runs["traced"]],
        "untraced_pass_walls_s": [p["wall"] for p in runs["untraced"]],
        "thread_mismatches": mismatches,
    }
    return metrics, detail


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["mc_verify", "bound_long", "bound_many_short"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny inputs for the smoke test")
    parser.add_argument("--setup-only", action="store_true",
                        help="import and generate inputs, then exit (set-up timing)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def run(args) -> dict:
    """Run one benchmark invocation and return the result line's object."""
    import_library()
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    work_dir = OUT_DIR / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        w = WORKLOADS[args.workload](args.seed, nproc(), args.size, str(work_dir))
        if args.setup_only:
            return {}
        determinism = w.thread_determinism() if hasattr(w, "thread_determinism") else None
        runs = measure(w, args, work_dir)
        attempted, failed, problems = check_outputs(w, runs)
        pass_digests = [hashlib.sha256("".join(map(str, p["digests"])).encode()).hexdigest()
                        for p in [runs["warmup"]] + runs["untraced"] + runs["traced"]]
        report = {
            "workload": args.workload, "size": args.size, "seconds": args.seconds,
            "trace": args.trace, "provenance": provenance(args.seed, getattr(w, "threads", 1)),
            "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
            "failures": problems, "output_digest": pass_digests[0],
            "output_digest_identical_across_passes": len(set(pass_digests)) == 1,
            "thread_determinism": determinism,
        }
        if args.trace:
            metrics, detail = per_layer(runs)
        else:
            metrics, detail = end_to_end(w, runs, measure_setup(args))
        report["detail"] = detail
        correct = (
            failed == 0
            and report["output_digest_identical_across_passes"]
            and (determinism is None or determinism["identical"])
            and not detail.get("thread_mismatches")
        )
        result = {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        }
        report["result"] = result
        if args.trace:
            report["spans"] = runs["tracer"].spans
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(report, indent=1))
        return result
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        return 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
