import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from conftest import make_valid_case

from rosenthal import cli, models
from rosenthal.cli import build_parser, main

SHARP_CASE = {
    "profile": {"n": 1, "t": 3.0, "moments": {"3": [1.0], "2": [1.0]}},
    "envelope": {"b": [1.0]},
    "D": 1.0,
}


@pytest.fixture
def sharp_case_file(tmp_path):
    path = tmp_path / "case.json"
    path.write_text(json.dumps(SHARP_CASE))
    return str(path)


def run_main(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBoundCommand:
    def test_best_method_on_sharp_case(self, sharp_case_file, capsys):
        code, out, _ = run_main(["bound", "--input", sharp_case_file], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["method"] == "theorem"
        assert data["value"] == 1.0

    def test_explicit_methods(self, sharp_case_file, capsys):
        for method, value in [("theorem", 1.0), ("corollary", 3.0), ("closed", 3.0)]:
            code, out, _ = run_main(
                ["bound", "--input", sharp_case_file, "--method", method], capsys
            )
            assert code == 0
            assert json.loads(out)["value"] == pytest.approx(value, rel=1e-11)

    def test_closed_means_closed_min(self, sharp_case_file, capsys):
        code, out, _ = run_main(
            ["bound", "--input", sharp_case_file, "--method", "closed"], capsys
        )
        assert code == 0
        assert json.loads(out)["method"] == "closed_min"

    def test_pin94_method(self, sharp_case_file, capsys):
        code, out, _ = run_main(
            ["bound", "--input", sharp_case_file, "--method", "pin94", "--K", "120"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["value"] > 1e5

    def test_corollary_rejects_t_two(self, tmp_path, capsys):
        case = {
            "profile": {"n": 1, "t": 2.0, "moments": {"2": [1.0]}},
            "envelope": {"b": [1.0]},
            "D": 1.0,
        }
        path = tmp_path / "t2.json"
        path.write_text(json.dumps(case))
        code, _, err = run_main(
            ["bound", "--input", str(path), "--method", "corollary"], capsys
        )
        assert code == 2
        assert "t" in err

    def test_overflowing_envelope_exits_zero(self, tmp_path, capsys):
        # B_n^3 = 1e360 is beyond the float range: the layered bound is 5
        # (c_0 A_2(3) + c~_1 A_1(2)^(1/2) b_2^2 = 1 * 2 + 3 * 1) and wins,
        # while the aggregated bound is +inf.
        case = {
            "profile": {"n": 2, "t": 3.0, "moments": {"3": [1.0, 1.0], "2": [1.0, 1.0]}},
            "envelope": {"b": [1e120, 1.0]},
            "D": 1.0,
        }
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(case))
        code, out, _ = run_main(["bound", "--input", str(path)], capsys)
        assert code == 0
        report = json.loads(out)
        assert (report["value"], report["method"]) == (5.0, "theorem")
        code, out, _ = run_main(["bound", "--input", str(path), "--method", "corollary"], capsys)
        assert code == 0
        assert json.loads(out)["value"] == math.inf

    @pytest.mark.parametrize(
        "moments_3, b, named",
        [
            ([1.0, -1.0], [1.0, 1.0], "moments at s=3.0"),
            ([math.nan, 1.0], [1.0, 1.0], "moments at s=3.0"),
            ([[1.0], [1.0]], [1.0, 1.0], "moments at s=3.0"),
            ([{}, 1.0], [1.0, 1.0], "moments at s=3.0"),
            ([1.0, 1.0], [1.0, 0.0], "envelope b"),
        ],
        ids=["negative moment", "NaN moment", "nested moments", "object moment", "zero b"],
    )
    def test_invalid_per_index_input(self, tmp_path, capsys, moments_3, b, named):
        case = {
            "profile": {"n": 2, "t": 3.0, "moments": {"3": moments_3, "2": [1.0, 1.0]}},
            "envelope": {"b": b},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(case))
        code, out, err = run_main(["bound", "--input", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {named} must be") and "Traceback" not in err

    @pytest.mark.parametrize(
        "case, named",
        [
            ([SHARP_CASE], "case file must be a JSON object"),
            (dict(SHARP_CASE, profile=None), "profile must be a JSON object"),
            (dict(SHARP_CASE, envelope=None), "envelope must be a JSON object"),
            (dict(SHARP_CASE, schedule=None), "schedule must be a JSON object"),
            (dict(SHARP_CASE, D=None), "D must be a number"),
            (
                dict(SHARP_CASE, profile=dict(SHARP_CASE["profile"], moments=[[1.0], [1.0]])),
                "profile.moments must be a JSON object",
            ),
            (
                dict(SHARP_CASE, profile=dict(SHARP_CASE["profile"], n=None)),
                "profile.n must be a number",
            ),
            (
                dict(SHARP_CASE, schedule={"kind": "beta_family", "beta": None}),
                "schedule.beta must be a number",
            ),
            (dict(SHARP_CASE, schedule={"kind": "custom"}), "schedule.table is missing"),
            (
                dict(SHARP_CASE, schedule={"kind": "custom", "table": {"abc": [1, 1]}}),
                "schedule.table keys must be numbers, got 'abc'",
            ),
            (
                dict(SHARP_CASE, profile=dict(SHARP_CASE["profile"],
                                              moments={"x": [1.0], "2": [1.0]})),
                "profile.moments keys must be numbers, got 'x'",
            ),
            (dict(SHARP_CASE, schedule={"beta": 0.5}), "schedule.kind is missing"),
            (dict(SHARP_CASE, schedule={"kind": "foo"}), "unknown schedule kind 'foo'"),
            (dict(SHARP_CASE, schedule={"kind": "beta_family"}), "schedule.beta is missing"),
            (
                dict(SHARP_CASE, profile={"t": 3.0, "moments": {"3": [1.0], "2": [1.0]}}),
                "profile.n is missing",
            ),
            (
                dict(SHARP_CASE, profile={"n": 1, "moments": {"3": [1.0], "2": [1.0]}}),
                "profile.t is missing",
            ),
            (dict(SHARP_CASE, profile={"n": 1, "t": 3.0}), "profile.moments is missing"),
            ({"envelope": SHARP_CASE["envelope"]}, "profile is missing"),
            ({"profile": SHARP_CASE["profile"]}, "envelope is missing"),
            (dict(SHARP_CASE, envelope={}), "envelope.b is missing"),
            (
                dict(SHARP_CASE, profile=dict(SHARP_CASE["profile"], n=2.7,
                                              moments={"3": [1.0, 1.0], "2": [1.0, 1.0]})),
                "n must be an integer >= 0, got 2.7",
            ),
            # An integer beyond the float range (10^400) names its field.
            (dict(SHARP_CASE, envelope={"b": [10**400]}), "envelope b must be finite and > 0"),
            (dict(SHARP_CASE, D=10**400), "D must be within the float range"),
            (
                dict(SHARP_CASE, profile=dict(SHARP_CASE["profile"], n=10**400)),
                "profile.n must be within the float range",
            ),
            (
                dict(SHARP_CASE, profile=dict(SHARP_CASE["profile"], t=10**400)),
                "profile.t must be within the float range",
            ),
            (
                dict(SHARP_CASE, profile=dict(SHARP_CASE["profile"],
                                              moments={"3": [10**400], "2": [1.0]})),
                "moments at s=3.0 must be finite and >= 0",
            ),
            (
                dict(SHARP_CASE, schedule={"kind": "beta_family", "beta": 10**400}),
                "schedule.beta must be within the float range",
            ),
        ],
        ids=["list", "null profile", "null envelope", "null schedule", "null D",
             "list moments", "null n", "null beta", "custom without table",
             "table key", "moments key", "schedule without kind", "unknown kind",
             "beta_family without beta", "no n", "no t", "no moments", "no profile",
             "no envelope", "no b", "fractional n", "huge b", "huge D", "huge n",
             "huge t", "huge moment", "huge beta"],
    )
    @pytest.mark.parametrize("method", ["best", "theorem", "corollary", "closed", "pin94"])
    def test_malformed_case_file(self, tmp_path, capsys, case, named, method):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(case))
        code, out, err = run_main(["bound", "--input", str(path), "--method", method], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {named}\n"

    @pytest.mark.parametrize("entry", [5, [None, 1], [1, 2, 3], "ab"],
                             ids=["number", "null", "triple", "string"])
    def test_custom_table_entry_not_a_pair(self, tmp_path, capsys, entry):
        case = dict(SHARP_CASE, schedule={"kind": "custom", "table": {"3": entry}})
        path = tmp_path / "table.json"
        path.write_text(json.dumps(case))
        code, out, err = run_main(["bound", "--input", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: table entry at s=3.0 must be a pair of numbers")
        assert "Traceback" not in err

    def test_missing_file(self, capsys):
        code, _, err = run_main(["bound", "--input", "/nonexistent.json"], capsys)
        assert code == 2
        assert err

    def test_output_file(self, sharp_case_file, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, _, _ = run_main(
            ["bound", "--input", sharp_case_file, "--output", str(out_path)], capsys
        )
        assert code == 0
        assert json.loads(out_path.read_text())["value"] == 1.0


class TestConstantsCommand:
    def test_t3_values(self, capsys):
        code, out, _ = run_main(["constants", "--t", "3", "--D", "1"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["C_A"] == 1.0
        assert data["C_B"] == 2.0
        assert data["C_t"] < 1.316
        assert data["c_tilde"] == 3.0

    def test_t4_finite(self, capsys):
        code, out, _ = run_main(["constants", "--t", "4", "--D", "1"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["c_tilde"] == 6.0
        assert all(c > 0 for c in data["c"])

    def test_t2_rejected(self, capsys):
        code, _, err = run_main(["constants", "--t", "2"], capsys)
        assert code == 2 and err

    def test_csv_format(self, capsys):
        code, out, _ = run_main(
            ["constants", "--t", "3", "--D", "1", "--format", "csv"], capsys
        )
        assert code == 0
        header, row = out.strip().splitlines()
        record = dict(zip(header.split(","), row.split(",")))
        assert float(record["C_A"]) == 1.0
        assert float(record["C_B"]) == 2.0


class TestRatioCurveCommand:
    def test_csv_endpoints(self, capsys):
        code, out, _ = run_main(
            ["ratio-curve", "--t-min", "2", "--t-max", "4", "--steps", "201"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,ez_t,ratio"
        assert len(lines) == 202
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert float(first[2]) == pytest.approx(1.0, abs=1e-9)
        assert float(last[2]) == pytest.approx(1.0, abs=1e-9)

    def test_two_rows(self, capsys):
        code, out, _ = run_main(["ratio-curve", "--steps", "2"], capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    def test_bad_range(self, capsys):
        code, _, err = run_main(
            ["ratio-curve", "--t-min", "4", "--t-max", "2", "--steps", "10"], capsys
        )
        assert code == 2 and err

    def test_json_format(self, capsys):
        code, out, _ = run_main(
            ["ratio-curve", "--steps", "3", "--format", "json"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert len(data) == 3 and data[0]["ratio"] == pytest.approx(1.0, abs=1e-9)

    def test_twelve_significant_digits(self, capsys):
        _, out, _ = run_main(["ratio-curve", "--steps", "5"], capsys)
        for line in out.strip().splitlines()[1:]:
            for fieldval in line.split(","):
                assert fieldval == format(float(fieldval), ".12g")


class TestVerifyCommand:
    def test_sharp_case_passes(self, capsys):
        code, out, _ = run_main(
            ["verify", "--model", "rademacher", "--n", "1", "--t", "3",
             "--seed", "0", "--reps", "500"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["slack"] == 1.0
        assert data["passed"] is True
        assert data["profile"] == "exact"
        assert data["z"] is None  # std_error is 0

    def test_profile_and_z_in_json_and_csv(self, capsys):
        args = ["verify", "--model", "dependent", "--n", "3", "--t", "3",
                "--seed", "0", "--reps", "2000"]
        code, out, _ = run_main(args, capsys)
        assert code == 0
        data = json.loads(out)
        assert data["profile"] == "estimated"
        assert data["z"] < 0.0
        code, out, _ = run_main(args + ["--format", "csv"], capsys)
        assert code == 0
        header, row = out.strip().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["profile"] == "estimated"
        assert float(cells["z"]) == pytest.approx(data["z"], rel=1e-11)

    def test_zero_replications_rejected(self, capsys):
        code, _, err = run_main(
            ["verify", "--model", "rademacher", "--reps", "0"], capsys
        )
        assert code == 2 and err

    def test_dump_norms(self, tmp_path, capsys):
        norms = tmp_path / "norms.csv"
        code, out, _ = run_main(
            ["verify", "--model", "rademacher", "--n", "2", "--t", "3",
             "--reps", "64", "--dump-norms", str(norms)],
            capsys,
        )
        assert code == 0
        lines = norms.read_text().strip().splitlines()
        assert lines[0] == "replication,final_norm"
        assert len(lines) == 65

    @pytest.mark.parametrize("dump", [False, True], ids=["report", "dump-norms"])
    def test_small_t_rejected_before_simulating(self, tmp_path, capsys, monkeypatch, dump):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated for a rejected t")

        monkeypatch.setattr(cli, "simulate", no_simulation)
        args = ["verify", "--t", "1.5"]
        if dump:
            args += ["--dump-norms", str(tmp_path / "norms.csv")]
        code, out, err = run_main(args, capsys)
        assert (code, out, err) == (2, "", "error: verification needs t >= 2, got t=1.5\n")

    @pytest.mark.parametrize("t", ["nan", "61", "1e7"])
    def test_t_outside_domain_rejected_before_drawing(self, capsys, monkeypatch, t):
        def no_stream(*args, **kwargs):
            raise AssertionError("drew a stream for a rejected t")

        monkeypatch.setattr(models, "_run_stream", no_stream)
        start = time.perf_counter()
        code, out, err = run_main(
            ["verify", "--model", "rademacher", "--t", t, "--reps", "1000"], capsys
        )
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err.startswith("error: exponent t") and err.count("\n") == 1

    def test_two_point_model_flag(self, capsys):
        code, out, _ = run_main(
            ["verify", "--model", "two_point", "--n", "3", "--t", "2.5",
             "--p", "0.25", "--reps", "2000"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["model"]["prob"] == 0.25


class TestParserReuse:
    """``main`` keeps one parser per process; no request may see another's options."""

    @pytest.fixture
    def requests(self, tmp_path):
        prof, env = make_valid_case(np.random.default_rng(21), t=5.0, n=4)
        path = tmp_path / "case5.json"
        path.write_text(json.dumps(
            {"profile": prof.to_dict(), "envelope": env.to_dict(), "D": 1.5}
        ))
        case = str(path)
        return [
            ["bound", "--input", case, "--method", "corollary", "--beta", "0.3"],
            ["bound", "--input", case],
            ["constants", "--t", "5", "--D", "1.5", "--beta", "0.2", "--format", "csv"],
            ["constants", "--t", "5", "--D", "1.5"],
            ["bound", "--input", case, "--method", "pin94", "--c", "2", "--format", "csv"],
            ["bound", "--input", case, "--method", "pin94"],
            ["bound", "--input", case, "--method", "theorem", "--beta", "0.8"],
            ["ratio-curve", "--steps", "5", "--format", "json"],
            ["ratio-curve", "--steps", "5"],
        ]

    def test_consecutive_calls_match_calls_alone(self, requests, capsys):
        alone = []
        for argv in requests:
            cli._parser.cache_clear()
            alone.append(run_main(argv, capsys))
        assert all(code == 0 and out and not err for code, out, err in alone)
        assert alone[0][1] != alone[1][1] and alone[2][1] != alone[3][1]
        for order in (requests, requests[::-1], requests[1::2] + requests[::2]):
            for argv in order:
                assert run_main(argv, capsys) == alone[requests.index(argv)]

    def test_parser_built_once_per_process(self):
        assert build_parser() is not build_parser()
        assert cli._parser() is cli._parser()


class TestDeterminism:
    def test_verify_bytes_identical_across_thread_counts(self, tmp_path):
        outputs = []
        for threads in ("1", "4"):
            out_path = tmp_path / f"t{threads}.json"
            env = dict(os.environ, ROSENTHAL_THREADS=threads)
            proc = subprocess.run(
                [
                    sys.executable, "-m", "rosenthal.cli", "verify",
                    "--model", "hilbert", "--dim", "3", "--n", "5",
                    "--t", "3", "--seed", "0", "--reps", "4000",
                    "--output", str(out_path),
                ],
                env=env,
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1]
