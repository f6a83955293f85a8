"""Fast smoke test of the benchmark: every workload at tiny size, untraced
and traced, passes its output checks and emits every metric that
BENCHMARK.json names.

    python3 -m pytest bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _args(workload: str, trace: int):
    return run.parse_args(["--workload", workload, "--seed", "3", "--seconds", "0",
                           "--trace", str(trace), "--size", "tiny"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_is_correct_and_complete(workload, trace):
    result = run.run(_args(workload, trace))
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_checks_reject_a_corrupted_output(workload, tmp_path):
    run.import_library()
    from tracing import NullTracer
    from workloads import WORKLOADS as CLASSES

    w = CLASSES[workload](3, 1, "tiny", str(tmp_path))
    item = w.items[0]
    out, _ = w.run(item, NullTracer())
    assert w.check(item, out) is None
    if workload == "mc_verify":
        out[0]["passed"] = False
    elif workload == "bound_long":
        out["value"] *= 1.0 + 1e-6
    else:
        out["exit"] = 2
    assert w.check(item, out) is not None


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
