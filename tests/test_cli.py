import contextlib
import copy
import csv
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapcert import chsh_operator, ideal_scenario, noisy_scenario
from swapcert import blocks
from swapcert.cli import MAX_STEPS, build_parser, main
from swapcert.linalg import hermitian_deviation
from swapcert.protocol import MAX_N_PER_SETTING, estimate_report, sample_counts
from swapcert.serialize import (_writer_counts, counts_to_csv, json_dumps, matrix_to_json, report_to_json,
                               scenario_to_json)
from support import skewed_observable

SQRT2 = math.sqrt(2.0)
TSIRELSON = 2.0 * SQRT2
GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def settings_file(tmp_path, name="settings.json"):
    sc = ideal_scenario()
    payload = {
        "a0": matrix_to_json(sc.alice[0].matrix),
        "a1": matrix_to_json(sc.alice[1].matrix),
        "b0": matrix_to_json(sc.bob[0].matrix),
        "b1": matrix_to_json(sc.bob[1].matrix),
    }
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def cli_child(*argv: str, **popen_args) -> subprocess.Popen:
    """``python -m swapcert.cli`` in a child process, with this checkout's ``src`` on its path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.Popen([sys.executable, "-m", "swapcert.cli", *argv], env=env, text=True, **popen_args)


class TestIdeal:
    def test_values_and_exit(self, capsys):
        code, out, _ = run(capsys, "ideal")
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["s_ac"] == pytest.approx(TSIRELSON, abs=1e-7)
        assert payload["report"]["s_bc"] == pytest.approx(TSIRELSON, abs=1e-7)
        for value in payload["report"]["s_ab_given_c"]:
            assert value == pytest.approx(TSIRELSON, abs=1e-7)
        assert [v["passed"] for v in payload["verdicts"]] == [True, True]
        assert payload["distance_bounds"]["upper"] == pytest.approx(0.0, abs=1e-7)

    def test_byte_identical_runs(self, capsys):
        _, out1, _ = run(capsys, "ideal")
        _, out2, _ = run(capsys, "ideal")
        assert out1 == out2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "ideal", "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["report"]["s_ac"] > 2.8

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "ideal", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "key,value"
        assert any(line.startswith("report.s_ac,") for line in out.splitlines())


class TestNoisy:
    def test_noiseless_matches_ideal(self, capsys):
        _, out_ideal, _ = run(capsys, "ideal")
        _, out_noisy, _ = run(capsys, "noisy", "--v-ac", "1", "--v-bc", "1", "--theta", "0")
        assert out_ideal == out_noisy

    def test_rotation_value(self, capsys):
        code, out, _ = run(capsys, "noisy", "--theta", "0.2618")
        assert code == 0
        payload = json.loads(out)
        values = payload["report"]["s_ab_given_c"]
        assert min(values) == pytest.approx(TSIRELSON * math.cos(2 * 0.2618), abs=1e-6)

    def test_lost_visibility_fails_crit2(self, capsys):
        code, out, _ = run(capsys, "noisy", "--v-ac", "0.9")
        assert code == 0
        payload = json.loads(out)
        crit2 = [v for v in payload["verdicts"] if v["criterion"] == "crit2"][0]
        assert not crit2["passed"]
        assert not crit2["witness"]["s_ac_hit"]

    def test_out_of_range_is_usage_error(self, capsys):
        code, _, err = run(capsys, "noisy", "--v-ac", "1.5")
        assert code == 2
        assert "v-ac" in err

    @pytest.mark.parametrize("command", [["noisy"], ["sample", "--n-per-setting", "10", "--seed", "1"]])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_theta_is_usage_error(self, capsys, command, value):
        code, out, err = run(capsys, *command, f"--theta={value}")
        assert code == 2 and out == "" and "--theta" in err


class TestBoundsCurve:
    def test_rows(self, capsys):
        code, out, _ = run(capsys, "bounds-curve", "--s-min", "2", "--s-max", "2", "--steps", "1")
        assert code == 0
        header, row = out.splitlines()
        assert header == "S,lower,upper"
        s, lower, upper = (float(v) for v in row.split(","))
        assert upper == pytest.approx(math.sqrt(1 - 2 / TSIRELSON), abs=1e-7)

    def test_ceiling_row_vanishes(self, capsys):
        code, out, _ = run(
            capsys, "bounds-curve",
            "--s-min", f"{TSIRELSON:.12f}", "--s-max", f"{TSIRELSON:.12f}", "--steps", "1",
        )
        assert code == 0
        _, row = out.splitlines()
        _, lower, upper = (float(v) for v in row.split(","))
        assert lower == pytest.approx(0.0, abs=1e-6)
        assert upper == pytest.approx(0.0, abs=1e-6)

    def test_threshold_row(self, capsys):
        from swapcert import threshold_for_distance

        s_star = threshold_for_distance(0.05)
        code, out, _ = run(
            capsys, "bounds-curve",
            "--s-min", f"{s_star:.12f}", "--s-max", f"{s_star:.12f}", "--steps", "1",
        )
        _, row = out.splitlines()
        assert float(row.split(",")[2]) == pytest.approx(0.05, abs=1e-4)

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "bounds-curve", "--steps", "3", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 3 and {"S", "lower", "upper"} <= set(rows[0])

    def test_invalid_range(self, capsys):
        code, _, err = run(capsys, "bounds-curve", "--s-min", "3", "--s-max", "1")
        assert code == 2

    @pytest.mark.parametrize("steps", [MAX_STEPS + 1, 10**12])
    def test_steps_above_the_cap_is_usage_error(self, capsys, steps):
        # the cap is checked before the grid is allocated, so 1e12 costs nothing
        code, out, err = run(capsys, "bounds-curve", "--steps", str(steps))
        assert code == 2 and out == ""
        assert err == f"error: --steps must be at most {MAX_STEPS}\n"

    def test_steps_at_the_cap_stay_within_budget(self, tmp_path):
        # a child at the cap, measured at about 0.8 s and 60 MB; the budget is 10 s and 1 GB
        out_path = tmp_path / "curve.csv"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.Popen([sys.executable, "-m", "swapcert.cli", "bounds-curve", "--steps", str(MAX_STEPS),
                                 "--out", str(out_path)], stdout=subprocess.DEVNULL, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        assert proc.returncode == 0
        assert usage.ru_utime + usage.ru_stime < 10.0
        assert usage.ru_maxrss < 2**20  # kilobytes on Linux
        assert len(out_path.read_text().splitlines()) == MAX_STEPS + 1

    @pytest.mark.parametrize("flags,steps", [((), 100), (("--steps", "200"), 200)])
    def test_csv_bytes_match_csv_writer(self, capsys, flags, steps):
        from swapcert import distance_bounds

        code, out, _ = run(capsys, "bounds-curve", *flags)
        assert code == 0
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["S", "lower", "upper"])
        for s in np.linspace(2.0, TSIRELSON, steps):
            bounds = distance_bounds([float(s)] * 4)
            writer.writerow([f"{float(s):.9g}", f"{bounds.lower:.9g}", f"{bounds.upper:.9g}"])
        assert out == buf.getvalue()


class TestSampleAndCertify:
    def test_sample_then_certify(self, capsys, tmp_path):
        counts_path = tmp_path / "counts.csv"
        code, _, _ = run(
            capsys, "sample", "--n-per-setting", "20000", "--seed", "42",
            "--out", str(counts_path),
        )
        assert code == 0
        text = counts_path.read_text()
        assert text.splitlines()[0] == "x,y,z,a,b,c,count"
        code, out, _ = run(capsys, "certify", str(counts_path), "--tol-sigma", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdicts"][0]["passed"]

    def test_sample_deterministic(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "sample", "--n-per-setting", "500", "--seed", "7", "--out", str(p1))
        run(capsys, "sample", "--n-per-setting", "500", "--seed", "7", "--out", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_sample_requires_seed(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sample", "--n-per-setting", "10"])
        assert excinfo.value.code == 2

    def test_sample_from_scenario_file(self, capsys, tmp_path):
        from swapcert.serialize import json_dumps, scenario_to_json

        sc_path = tmp_path / "scenario.json"
        sc_path.write_text(json_dumps(scenario_to_json(ideal_scenario())))
        out_path = tmp_path / "counts.csv"
        code, _, _ = run(
            capsys, "sample", "--scenario", str(sc_path),
            "--n-per-setting", "100", "--seed", "3", "--out", str(out_path),
        )
        assert code == 0
        assert out_path.exists()

    @pytest.mark.parametrize("flags,named", [
        (("--theta", "0.7", "--v-ac", "0.5"), "--v-ac, --theta"),
        (("--v-bc", "1"), "--v-bc"),  # the default value, given explicitly, is refused too
        (("--theta", "0"), "--theta"),
        (("--v-ac", "0.9", "--v-bc", "0.8", "--theta", "0.3"), "--v-ac, --v-bc, --theta"),
    ])
    def test_sample_scenario_file_refuses_noise_flags(self, capsys, tmp_path, flags, named):
        # the file fixes the state and the joint measurement, so a noise flag beside it would be dropped
        from swapcert.serialize import json_dumps, scenario_to_json

        sc_path = tmp_path / "scenario.json"
        sc_path.write_text(json_dumps(scenario_to_json(ideal_scenario())))
        code, out, err = run(capsys, "sample", "--scenario", str(sc_path),
                             "--n-per-setting", "100", "--seed", "1", *flags)
        assert (code, out) == (2, "")
        assert err == f"error: {named} cannot be combined with --scenario\n"

    def test_sample_from_nine_digit_scenario_with_rotated_joint_measurement(self, capsys, tmp_path):
        # a Haar-rotated joint measurement written at 9 digits no longer sums to
        # the identity within 1e-9; it is snapped back on load
        from dataclasses import replace

        from support import rotated_bell_measurement

        sc_path = tmp_path / "scenario.json"
        for seed in range(6):
            sc = replace(ideal_scenario(), charlie3=rotated_bell_measurement(np.random.default_rng(seed)))
            sc_path.write_text(json_dumps(scenario_to_json(sc)))
            code, out, err = run(capsys, "sample", "--scenario", str(sc_path),
                                 "--n-per-setting", "20", "--seed", "1")
            assert (code, err) == (0, "")
            assert out.startswith("x,y,z,a,b,c,count\n")

    def test_sample_from_nine_digit_noisy_scenario(self, capsys, tmp_path):
        # written at 9 digits, this state's trace reads back 2e-9 off 1; it is snapped back on load
        from swapcert import noisy_scenario

        sc_path = tmp_path / "scenario.json"
        sc_path.write_text(json_dumps(scenario_to_json(noisy_scenario(0.803, 0.865, 0.427))))
        code, out, err = run(capsys, "sample", "--scenario", str(sc_path), "--n-per-setting", "10", "--seed", "1")
        assert (code, err) == (0, "")
        assert out.startswith("x,y,z,a,b,c,count\n")

    @pytest.mark.parametrize("field,value", [
        (("dims",), "abcd"),
        (("alice",), 5),
        (("charlie12", 0, "bit_for_A"), 3),
        # counts hold raw outcomes, which certify bins with the canonical maps only
        (("charlie12", 0, "bit_for_A"), [-1, -1, 1, 1]),
        (("charlie12", 1, "bit_for_B"), [-1, 1, -1, 1]),
        (("charlie3", "dims"), ["x", 2]),
        (("state", "data", 0), ["x", 0]),
        (("state", "rows"), math.inf),
    ])
    def test_malformed_scenario_is_validation_error(self, capsys, tmp_path, field, value):
        from swapcert.serialize import json_dumps, scenario_to_json

        obj = json.loads(json_dumps(scenario_to_json(ideal_scenario())))
        target = obj
        for key in field[:-1]:
            target = target[key]
        target[field[-1]] = value
        sc_path = tmp_path / "scenario.json"
        sc_path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "sample", "--scenario", str(sc_path),
                             "--n-per-setting", "5", "--seed", "1")
        assert code == 3
        assert out == ""
        assert err.startswith("validation error: ") and err.count("\n") == 1

    def test_counts_path_output_is_pinned(self, capsys, tmp_path):
        # sampled bytes of one default_rng(7) over the 12 triples, and their certify output
        code, out, _ = run(capsys, "sample", "--n-per-setting", "50", "--seed", "7",
                           "--v-ac", "0.9", "--v-bc", "0.8", "--theta", "0.3")
        assert code == 0
        assert out.encode() == (GOLDEN / "sample_n50_seed7.csv").read_bytes()
        counts_path = tmp_path / "counts.csv"
        counts_path.write_text(out)
        code, out, _ = run(capsys, "certify", str(counts_path), "--tol-sigma", "3")
        assert code == 0
        assert out.encode() == (GOLDEN / "certify_n50_seed7_tol_sigma3.json").read_bytes()

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_counts_read_row_by_row_certify_to_the_same_bytes(self, capsys, tmp_path, newline):
        # reversed rows miss the writer's layout whatever the line ends, so the row reader reads them
        header, *rows = (GOLDEN / "sample_n50_seed7.csv").read_text().splitlines()
        counts_path = tmp_path / "reversed.csv"
        counts_path.write_bytes(newline.join([header, *reversed(rows), ""]).encode())
        assert _writer_counts(counts_path.read_text()) is None
        code, out, _ = run(capsys, "certify", str(counts_path), "--tol-sigma", "3")
        assert code == 0
        assert out.encode() == (GOLDEN / "certify_n50_seed7_tol_sigma3.json").read_bytes()

    def test_sample_negative_seed_is_usage_error_before_the_file_is_read(self, capsys, tmp_path):
        code, out, err = run(capsys, "sample", "--n-per-setting", "10", "--seed", "-1",
                             "--scenario", str(tmp_path / "missing.json"))
        assert code == 2 and out == "" and "--seed" in err

    @pytest.mark.parametrize("n", [str(10**19), str(MAX_N_PER_SETTING + 1)])
    def test_sample_n_above_int64_total_is_usage_error(self, capsys, n):
        code, out, err = run(capsys, "sample", "--n-per-setting", n, "--seed", "1")
        assert code == 2
        assert out == ""
        assert err == f"error: --n-per-setting must be at most {MAX_N_PER_SETTING}\n"

    def test_certify_report_json(self, capsys, tmp_path):
        from swapcert.protocol import exact_report
        from swapcert.serialize import json_dumps, report_to_json

        report_path = tmp_path / "report.json"
        report_path.write_text(json_dumps(report_to_json(exact_report(ideal_scenario()))))
        # 9-significant-digit files resolve |S - ceiling| only to ~5e-9, so the
        # maximal-violation window must be at least that wide for file input
        code, out, _ = run(capsys, "certify", str(report_path), "--tol", "1e-7")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdicts"][0]["passed"] and payload["verdicts"][1]["passed"]

    def test_certify_zero_report_fails(self, capsys, tmp_path):
        report_path = tmp_path / "zero.json"
        report_path.write_text(json.dumps({
            "s_ac": 0.0, "s_bc": 0.0,
            "s_ab_given_c": [0.0, 0.0, 0.0, 0.0],
            "outcome_probs": [0.25, 0.25, 0.25, 0.25],
            "relabeling": [1, 2, 3, 4],
            "stderr": None,
        }))
        code, out, _ = run(capsys, "certify", str(report_path))
        assert code == 1
        payload = json.loads(out)
        assert not payload["verdicts"][0]["passed"]
        assert not payload["verdicts"][1]["passed"]

    def test_certify_missing_value_names_outcome(self, capsys, tmp_path):
        report_path = tmp_path / "partial.json"
        report_path.write_text(json.dumps({
            "s_ac": 2.8, "s_bc": 2.8,
            "s_ab_given_c": [2.8, 2.8, None, 2.8],
            "outcome_probs": [0.25, 0.25, 0.25, 0.25],
            "relabeling": [1, 2, 3, 4],
            "stderr": None,
        }))
        code, _, err = run(capsys, "certify", str(report_path))
        assert code == 3
        assert "outcome 3" in err

    def test_certify_impossible_report_is_validation_error(self, capsys, tmp_path):
        report_path = tmp_path / "impossible.json"
        report_path.write_text(json.dumps({
            "s_ac": TSIRELSON, "s_bc": TSIRELSON,
            "s_ab_given_c": [5.0, 5.0, 5.0, 5.0],
            "outcome_probs": [0.9, 0.9, 0.9, 0.9],
            "relabeling": [1, 1, 1, 1],
            "stderr": None,
        }))
        code, out, err = run(capsys, "certify", str(report_path), "--tol", "1")
        assert code == 3 and out == "" and "validation error" in err

    def test_certify_exact_report_above_quantum_ceiling_is_validation_error(self, capsys, tmp_path):
        # without stderr a report is exact, and no exact CHSH value exceeds 2*sqrt(2)
        report_path = tmp_path / "above.json"
        report_path.write_text(json.dumps({
            "s_ac": 2.82842712, "s_bc": 2.82842712,
            "s_ab_given_c": [3.9, 3.9, 3.9, 3.9],
            "outcome_probs": [0.25, 0.25, 0.25, 0.25],
            "relabeling": [1, 2, 3, 4],
            "stderr": None,
        }))
        code, out, err = run(capsys, "certify", str(report_path), "--tol", "1e-6")
        assert code == 3 and out == ""
        assert err == "validation error: report: CHSH value 3.9 exceeds the quantum ceiling\n"

    def test_certify_partial_stderr_is_validation_error(self, capsys, tmp_path):
        from swapcert.protocol import exact_report
        from swapcert.serialize import report_to_json

        obj = report_to_json(exact_report(ideal_scenario()))
        obj["stderr"] = {"s_ac": 0.01}
        report_path = tmp_path / "partial_stderr.json"
        report_path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "certify", str(report_path), "--tol-sigma", "5")
        assert code == 3 and out == "" and "stderr" in err

    def test_certify_malformed_csv_reports_line(self, capsys, tmp_path):
        counts_path = tmp_path / "bad.csv"
        counts_path.write_text("x,y,z,a,b,c,count\n1,1,1,1,1,1,not_a_number\n")
        code, _, err = run(capsys, "certify", str(counts_path))
        assert code == 3
        assert "line 2" in err

    @pytest.mark.parametrize("extra,message", [
        (["1,1,1,1,1,1,100000000000000000000"], "line 194: count 100000000000000000000 does not fit in int64"),
        ([f"1,1,1,1,1,1,{2**62}"] * 2, "total count does not fit in int64"),
    ])
    def test_certify_counts_overflowing_int64_is_validation_error(self, capsys, tmp_path, extra, message):
        text = (GOLDEN / "sample_n50_seed7.csv").read_text() + "\n".join(extra) + "\n"
        counts_path = tmp_path / "huge.csv"
        counts_path.write_text(text)
        code, out, err = run(capsys, "certify", str(counts_path))
        assert code == 3 and out == ""
        assert err == f"validation error: {message}\n"

    def test_certify_tol_flags_exclusive(self, capsys, tmp_path):
        from swapcert.protocol import exact_report
        from swapcert.serialize import json_dumps, report_to_json

        report_path = tmp_path / "report.json"
        report_path.write_text(json_dumps(report_to_json(exact_report(ideal_scenario()))))
        code, _, err = run(capsys, "certify", str(report_path), "--tol", "1e-9", "--tol-sigma", "5")
        assert code == 2

    @pytest.mark.parametrize("flag", ["--tol", "--tol-sigma"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_certify_non_finite_tolerance_is_usage_error(self, capsys, tmp_path, flag, value):
        counts_path = tmp_path / "counts.csv"
        run(capsys, "sample", "--n-per-setting", "200", "--seed", "1", "--out", str(counts_path))
        code, out, err = run(capsys, "certify", str(counts_path), flag, value)
        assert code == 2 and out == "" and "finite" in err

    @pytest.mark.parametrize("command", [["ideal"], ["noisy", "--v-ac", "0.95"]])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_tol_flag_is_usage_error(self, capsys, command, value):
        code, out, err = run(capsys, *command, f"--tol={value}")
        assert code == 2 and out == "" and "finite" in err

    @pytest.mark.parametrize("command", [["ideal"], ["noisy", "--v-ac", "0.95"]])
    def test_negative_tol_flag_is_usage_error(self, capsys, command):
        code, out, err = run(capsys, *command, "--tol=-1")
        assert code == 2 and out == "" and "nonnegative" in err

    @pytest.mark.parametrize("flag", ["--tol", "--tol-sigma"])
    def test_certify_negative_tolerance_is_usage_error(self, capsys, tmp_path, flag):
        counts_path = tmp_path / "counts.csv"
        run(capsys, "sample", "--n-per-setting", "200", "--seed", "1", "--out", str(counts_path))
        code, out, err = run(capsys, "certify", str(counts_path), flag, "-1")
        assert code == 2 and out == "" and "nonnegative" in err

    @pytest.mark.parametrize("flags, env, message", [
        (["--tol", "-1"], None, "--tol must be finite and nonnegative"),
        (["--tol", "1", "--tol-sigma", "1"], None, "--tol and --tol-sigma are mutually exclusive"),
        (["--tol-sigma", "nan"], None, "--tol-sigma must be finite and nonnegative"),
        ([], "-1", "SWAPCERT_TOL='-1' is not finite and nonnegative"),
    ])
    def test_certify_checks_flags_before_reading_input(self, capsys, monkeypatch, tmp_path, flags, env, message):
        if env is not None:
            monkeypatch.setenv("SWAPCERT_TOL", env)
        code, out, err = run(capsys, "certify", str(tmp_path / "missing.csv"), *flags)
        assert code == 2 and out == "" and message in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_tol_env_var_is_usage_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("SWAPCERT_TOL", value)
        code, out, err = run(capsys, "ideal")
        assert code == 2 and out == "" and "SWAPCERT_TOL" in err

    def test_negative_tol_env_var_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("SWAPCERT_TOL", "-1")
        code, out, err = run(capsys, "ideal")
        assert code == 2 and out == "" and "SWAPCERT_TOL" in err

    def test_tol_env_var(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("SWAPCERT_TOL", "0.5")
        code, out, _ = run(capsys, "noisy", "--v-ac", "0.95")
        assert code == 0
        payload = json.loads(out)
        # generous tolerance from the environment lets crit2 pass despite noise
        crit2 = [v for v in payload["verdicts"] if v["criterion"] == "crit2"][0]
        assert crit2["tolerance"] == pytest.approx(0.5)
        assert crit2["passed"]


class TestDecompose:
    def test_ideal_settings(self, capsys, tmp_path):
        path = settings_file(tmp_path)
        code, out, _ = run(capsys, "decompose", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["lambda"] == pytest.approx(TSIRELSON, abs=1e-8)
        assert payload["sep_bound"] == pytest.approx(SQRT2, abs=1e-8)
        assert len(payload["a_blocks"]) == 1 and len(payload["b_blocks"]) == 1

    def test_commuting_settings(self, capsys, tmp_path):
        sc = ideal_scenario()
        payload = {
            "a0": matrix_to_json(sc.alice[0].matrix),
            "a1": matrix_to_json(sc.alice[0].matrix),
            "b0": matrix_to_json(sc.bob[0].matrix),
            "b1": matrix_to_json(sc.bob[0].matrix),
        }
        path = tmp_path / "commuting.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "decompose", str(path))
        assert code == 0
        result = json.loads(out)
        assert result["sep_bound"] == pytest.approx(2.0, abs=1e-9)

    def test_missing_observable(self, capsys, tmp_path):
        path = tmp_path / "incomplete.json"
        path.write_text(json.dumps({"a0": matrix_to_json(ideal_scenario().alice[0].matrix)}))
        code, _, err = run(capsys, "decompose", str(path))
        assert code == 3
        assert "a1" in err

    def test_invalid_observable(self, capsys, tmp_path):
        import numpy as np

        path = tmp_path / "invalid.json"
        payload = {key: matrix_to_json(np.diag([1.0, 0.5])) for key in ("a0", "a1", "b0", "b1")}
        path.write_text(json.dumps(payload))
        code, _, _ = run(capsys, "decompose", str(path))
        assert code == 3

    @pytest.mark.parametrize("edge", [0.0, math.pi])
    def test_edge_block_beside_near_edge_block_decomposes(self, capsys, tmp_path, edge):
        # A 1x1 block at the edge and a 2x2 block 5e-8 from it form one group
        # of three phases: the 1x1 block splits off, and the other two pair.
        from support import planted_layout

        one = (1.0, 1.0) if edge == 0.0 else (1.0, -1.0)
        a0, a1 = planted_layout((one,), (abs(edge - 5e-8), 0.7), np.random.default_rng(8))
        sc = ideal_scenario()
        path = tmp_path / "mixed_edge.json"
        path.write_text(json.dumps({
            "a0": matrix_to_json(a0.matrix), "a1": matrix_to_json(a1.matrix),
            "b0": matrix_to_json(sc.bob[0].matrix), "b1": matrix_to_json(sc.bob[1].matrix),
        }))
        code, out, err = run(capsys, "decompose", str(path))
        assert code == 0 and err == ""
        a_blocks = json.loads(out)["a_blocks"]
        assert sorted(b["basis"]["cols"] for b in a_blocks) == [1, 2, 2]
        (single,) = [b for b in a_blocks if b["basis"]["cols"] == 1]
        assert [single["a0"]["data"][0][0], single["a1"]["data"][0][0]] == list(one)

    def test_nine_digit_settings_with_edge_blocks_decompose(self, capsys, tmp_path):
        # 1x1 blocks at 0 and pi beside repeated-phase 2x2 blocks, d = 8, written
        # at 9 digits: A1 -/+ A0 is about 1e-9 on the 1x1 blocks, the rounding
        # level of the file, so the edge split must follow the file's rounding.
        from support import planted_layout

        a0, a1 = planted_layout(((1.0, 1.0), (1.0, -1.0)), (0.9, 2.1, 0.9), np.random.default_rng(28))
        sc = ideal_scenario()
        path = tmp_path / "nine_digits.json"
        path.write_text(json_dumps({k: o.matrix for k, o in zip(("a0", "a1", "b0", "b1"), (a0, a1, *sc.bob))}))
        code, out, err = run(capsys, "decompose", str(path))
        assert code == 0 and err == ""
        a_blocks = json.loads(out)["a_blocks"]
        assert sorted(b["basis"]["cols"] for b in a_blocks) == [1, 1, 2, 2, 2]
        labels = [(round(b["a0"]["data"][0][0]), round(b["a1"]["data"][0][0]))
                  for b in a_blocks if b["basis"]["cols"] == 1]
        assert sorted(labels) == [(1.0, -1.0), (1.0, 1.0)]

    def test_huge_entry_is_one_validation_line(self, tmp_path):
        # numpy's overflow warnings would name the source path on stderr
        payload = json.loads(settings_file(tmp_path).read_text())
        payload["a0"]["data"][0][0] = 1e200
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(payload))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "swapcert.cli", "decompose", str(path)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == "validation error: observable does not square to the identity within tolerance\n"


class TestSepBound:
    def test_ideal_settings(self, capsys, tmp_path):
        path = settings_file(tmp_path)
        code, out, _ = run(capsys, "sep-bound", str(path), "--seed", "11")
        assert code == 0
        payload = json.loads(out)
        assert payload["oracle_value"] == pytest.approx(SQRT2, abs=1e-6)
        assert payload["difference"] <= 1e-4

    def test_planted_four_dim_instance(self, capsys, tmp_path):
        import numpy as np

        from support import planted_observables

        rng = np.random.default_rng(23)
        a0, a1 = planted_observables((1.2, 0.6), rng=rng)
        b0, b1 = planted_observables((0.8, 1.5), rng=rng)
        path = tmp_path / "planted.json"
        path.write_text(json.dumps({
            "a0": matrix_to_json(a0.matrix), "a1": matrix_to_json(a1.matrix),
            "b0": matrix_to_json(b0.matrix), "b1": matrix_to_json(b1.matrix),
        }))
        code, out, _ = run(capsys, "sep-bound", str(path), "--seed", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["difference"] <= 1e-4

    @pytest.mark.parametrize("flag", ["--restarts", "--iters"])
    def test_see_saw_flags_are_usage_errors(self, capsys, tmp_path, flag):
        path = settings_file(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["sep-bound", str(path), "--seed", "1", flag, "1"])
        captured = capsys.readouterr()
        assert excinfo.value.code == 2 and captured.out == ""
        assert captured.err.startswith("usage: swapcert ")
        assert captured.err.endswith(f"error: unrecognized arguments: {flag} 1\n")

    def test_negative_seed_is_usage_error_before_the_file_is_read(self, capsys, tmp_path):
        code, out, err = run(capsys, "sep-bound", str(tmp_path / "missing.json"), "--seed", "-1")
        assert code == 2 and out == "" and "--seed" in err

    def test_commuting_settings_keep_the_sign(self, capsys, tmp_path):
        # A0 = A1 = I, B0 = -I, B1 = I: beta = -2 I, so every state scores -2
        eye = np.eye(2)
        path = tmp_path / "commuting.json"
        settings = dict(zip(("a0", "a1", "b0", "b1"), (eye, eye, -eye, eye)))
        path.write_text(json.dumps({k: matrix_to_json(m) for k, m in settings.items()}))
        code, out, _ = run(capsys, "sep-bound", str(path), "--seed", "0")
        payload = json.loads(out)
        assert code == 0
        assert (payload["sep_bound"], payload["oracle_value"], payload["difference"]) == (2.0, -2.0, 4.0)

    def test_runs_jordan_blocks_once_per_party(self, capsys, monkeypatch):
        # one QR per jordan_blocks; no principal-angle SVD, as no party has a 1x1 block, and one SVD in block_witness
        calls, svds, qrs = [], [], []
        jordan_blocks, svd, qr = blocks.jordan_blocks, np.linalg.svd, np.linalg.qr
        monkeypatch.setattr(blocks, "jordan_blocks", lambda *args: calls.append(args) or jordan_blocks(*args))
        monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: svds.append(args) or svd(*args, **kwargs))
        monkeypatch.setattr(np.linalg, "qr", lambda *args, **kwargs: qrs.append(args) or qr(*args, **kwargs))
        code, _, _ = run(capsys, "sep-bound", str(GOLDEN / "planted_d4_settings.json"), "--seed", "7")
        assert code == 0 and len(calls) == 2 and len(svds) == 1 and len(qrs) == 2

    @pytest.mark.parametrize("command", ["decompose", "sep-bound"])
    def test_common_eigenvector_count_mismatch_is_one_validation_line(self, capsys, monkeypatch, command):
        # the principal-angle split made to drop one of the 1x1 blocks that the eig of A0 A1 marks
        split = blocks._common_eigenvectors

        def drop_one(*args):
            at_zero, at_pi = split(*args)
            return at_zero[:, 1:], at_pi

        monkeypatch.setattr(blocks, "_common_eigenvectors", drop_one)
        code, out, err = run(capsys, command, str(GOLDEN / "mixed_edge_settings.json"))
        assert code == 3 and out == ""
        assert err == ("validation error: 2 eigenvalues of A0*A1 lie at +/-1, but principal angles find 1 "
                       "common eigenvectors of A0 and A1\n")

    @pytest.mark.parametrize("argv", [("decompose",), ("sep-bound", "--seed", "7")], ids=["decompose", "sep-bound"])
    def test_reads_the_eigenphases_once_per_party(self, capsys, monkeypatch, argv):
        # lambda, sep_bound and alpha all come from the one block_chsh over the two parties' blocks
        calls, eigvals = [], []
        jordan_blocks, eigvals_solver = blocks.jordan_blocks, np.linalg.eigvals
        monkeypatch.setattr(blocks, "jordan_blocks", lambda *args: calls.append(args) or jordan_blocks(*args))
        monkeypatch.setattr(np.linalg, "eigvals", lambda *args: eigvals.append(args) or eigvals_solver(*args))
        code, _, _ = run(capsys, argv[0], str(GOLDEN / "planted_d4_settings.json"), *argv[1:])
        assert code == 0 and len(calls) == 2 and eigvals == []

    def test_settings_with_an_off_hermitian_operator(self, capsys, tmp_path):
        # each observable is within 4e-10 of Hermitian, their CHSH operator is not within 1e-9
        rng = np.random.default_rng(0)
        settings = [skewed_observable(4, rng) for _ in range(4)]
        assert hermitian_deviation(chsh_operator(*settings)) > 1e-9
        path = tmp_path / "skewed.json"
        path.write_text(json.dumps({k: matrix_to_json(o.matrix) for k, o in zip(("a0", "a1", "b0", "b1"), settings)}))
        code, _, _ = run(capsys, "decompose", str(path))
        assert code == 0
        code, out, err = run(capsys, "sep-bound", str(path), "--seed", "7")
        assert code == 0 and err == ""
        assert json.loads(out)["difference"] <= 1e-9


BLOCK_GOLDENS = [
    (None, "ideal"),
    ("planted_d4_settings.json", "planted_d4"),
    # A: 1x1 blocks at 0 and pi beside a 2x2 block 5e-8 from 0 and one at 0.7;
    # B: a 1x1 block at pi beside a 2x2 block at 1.2 (support.planted_layout).
    ("mixed_edge_settings.json", "mixed_edge"),
]


@pytest.mark.parametrize("settings,name", BLOCK_GOLDENS)
def test_blocks_output_is_pinned(capsys, tmp_path, settings, name):
    # alpha, lambda and sep_bound come from the block eigenphases that jordan_blocks
    # records; oracle_value is the block-wise separable maximum of the first best block pair in row-major
    # order, and oracle_state the product state built from its top singular
    # vectors. difference, |sep_bound - oracle_value| at rounding level, holds
    # the closed form's value.
    path = settings_file(tmp_path) if settings is None else GOLDEN / settings
    code, out, _ = run(capsys, "decompose", str(path))
    assert code == 0
    assert out.encode() == (GOLDEN / f"decompose_{name}.json").read_bytes()
    code, out, _ = run(capsys, "sep-bound", str(path), "--seed", "7")
    assert code == 0
    assert out.encode() == (GOLDEN / f"sep_bound_{name}_seed7.json").read_bytes()


@pytest.mark.parametrize("settings,name", BLOCK_GOLDENS)
def test_sep_bound_without_seed_prints_the_seeded_bytes(capsys, tmp_path, settings, name):
    # --seed is optional and changes nothing: the block-wise maximum draws no random numbers
    path = settings_file(tmp_path) if settings is None else GOLDEN / settings
    code, out, err = run(capsys, "sep-bound", str(path))
    assert code == 0 and err == ""
    assert out.encode() == (GOLDEN / f"sep_bound_{name}_seed7.json").read_bytes()


@pytest.mark.parametrize("argv,name", [
    (("ideal",), "ideal.json"),
    (("ideal", "--format", "csv"), "ideal.csv"),
    (("noisy", "--v-ac", "0.95", "--v-bc", "0.97", "--theta", "0.26"), "noisy_095_097_026.json"),
    (("noisy", "--v-ac", "0.95", "--v-bc", "0.97", "--theta", "0.26", "--format", "csv"), "noisy_095_097_026.csv"),
])
def test_exact_path_output_is_pinned(capsys, argv, name):
    # bytes of the exact path before the projector checks and relabeling were batched
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert out.encode() == (GOLDEN / name).read_bytes()


IDEAL_SCENARIO_JSON = json.loads(json_dumps(scenario_to_json(ideal_scenario())))
SCENARIO_MATRICES = ([("charlie3", "projectors", k) for k in range(4)]
                     + [("charlie12", z, "projectors", k) for z in range(2) for k in range(4)]
                     + [("state",), ("alice", 0), ("bob", 1)])
SCENARIO_MEASUREMENTS = [("charlie3",), ("charlie12", 0), ("charlie12", 1)]
ENTRY_VALUES = st.one_of(st.floats(), st.sampled_from([0.0, 0.5, -0.5, 1.0, 1e-9, 1e200, -1e308]))
SCENARIO_MUTATIONS = st.one_of(
    st.tuples(st.just("entry"), st.sampled_from(SCENARIO_MATRICES), st.integers(0, 255),
              st.integers(0, 1), ENTRY_VALUES),
    st.tuples(st.just("nudge"), st.sampled_from(SCENARIO_MATRICES), st.integers(0, 255),
              st.integers(0, 1), st.floats(-1e-6, 1e-6)),
    st.tuples(st.just("shape"), st.sampled_from(SCENARIO_MATRICES), st.sampled_from(["rows", "cols"]),
              st.integers(-1, 17)),
    st.tuples(st.just("dims"), st.sampled_from([()] + SCENARIO_MEASUREMENTS), st.lists(st.integers(-1, 5), max_size=5)),
    st.tuples(st.just("bits"), st.integers(0, 1), st.sampled_from(["bit_for_A", "bit_for_B"]),
              st.lists(st.integers(-2, 2), max_size=5)),
    st.tuples(st.just("count"), st.sampled_from(SCENARIO_MEASUREMENTS), st.integers(0, 6)),
)


def _mutate(obj, mutation):
    kind, *args = mutation

    def at(path):
        node = obj
        for key in path:
            node = node[key]
        return node

    if kind in ("entry", "nudge"):
        path, index, part, value = args
        data = at(path)["data"]
        cell = data[index % len(data)]
        cell[part] = value if kind == "entry" else cell[part] + value
    elif kind == "shape":
        path, field, value = args
        at(path)[field] = value
    elif kind == "dims":
        path, value = args
        at(path)["dims"] = value
    elif kind == "bits":
        z, field, value = args
        obj["charlie12"][z][field] = value
    elif kind == "set":
        path, value = args
        at(path[:-1])[path[-1]] = copy.deepcopy(value)  # never share a drawn value between examples
    elif kind == "drop":
        path, = args
        del at(path[:-1])[path[-1]]
    else:  # the number of projectors: truncated, or padded with repeats of the first
        path, count = args
        projectors = at(path)["projectors"]
        at(path)["projectors"] = (projectors * 2)[:count]


@given(st.lists(SCENARIO_MUTATIONS, min_size=1, max_size=3))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_mutated_scenario_file_never_crashes(tmp_path_factory, mutations):
    obj = copy.deepcopy(IDEAL_SCENARIO_JSON)
    for mutation in mutations:
        with contextlib.suppress(LookupError, TypeError):  # an earlier mutation removed the target
            _mutate(obj, mutation)
    path = tmp_path_factory.mktemp("fuzz") / "scenario.json"
    path.write_text(json.dumps(obj))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["sample", "--scenario", str(path), "--n-per-setting", "5", "--seed", "1"])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue() and "internal error" not in err.getvalue()


def _run_fuzzed(command, path, *flags):
    """Run ``main`` on one fuzzed input file: a verdict or a clean error, never a crash."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(path), *flags])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue() and "internal error" not in err.getvalue()


JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 5), st.sampled_from([2**70, -(2**70)]), st.floats(),
    st.text(max_size=3), st.lists(st.floats(-5, 5), max_size=5), st.builds(dict),
)
CERTIFY_FLAGS = st.sampled_from([(), ("--tol-sigma", "3"), ("--tol", "0.01"), ("--format", "csv")])

IDEAL_COUNTS_CSV = counts_to_csv(sample_counts(ideal_scenario(), 50, 1))
COUNTS_FIELDS = st.one_of(
    st.sampled_from(["", "x", "1.5", " 1", "+1", "01", "nan", "1e3", "-0", "5", '"1"',
                     str(2**63 - 1), str(2**63)]),
    st.integers(-10, 10**20).map(str),
)
COUNTS_MUTATIONS = st.one_of(
    st.tuples(st.just("field"), st.integers(0, 192), st.integers(0, 6), COUNTS_FIELDS),
    st.tuples(st.just("drop"), st.integers(0, 192)),
    st.tuples(st.just("dup"), st.integers(0, 192)),
    st.tuples(st.just("blank"), st.integers(0, 192)),
    st.tuples(st.just("fields"), st.integers(0, 192), st.integers(0, 9)),
)


def _mutate_counts(lines, mutation):
    kind, index, *args = mutation
    index %= len(lines)
    if kind == "field":
        field, value = args
        cells = lines[index].split(",")
        cells[field % len(cells)] = value
        lines[index] = ",".join(cells)
    elif kind == "drop":
        del lines[index]
    elif kind == "dup":
        lines.insert(index, lines[index])
    elif kind == "blank":
        lines.insert(index, "")
    else:  # the number of fields: truncated, or padded with repeats of the last
        count, = args
        cells = lines[index].split(",")
        lines[index] = ",".join((cells + cells[-1:] * 9)[:count])


@given(st.lists(COUNTS_MUTATIONS, min_size=1, max_size=3), CERTIFY_FLAGS)
@settings(max_examples=200, derandomize=True, deadline=None)
def test_mutated_counts_file_never_crashes(tmp_path_factory, mutations, flags):
    lines = IDEAL_COUNTS_CSV.splitlines()
    for mutation in mutations:
        if lines:
            _mutate_counts(lines, mutation)
    path = tmp_path_factory.mktemp("fuzz") / "counts.csv"
    path.write_text("\n".join(lines) + "\n")
    _run_fuzzed("certify", path, *flags)


IDEAL_REPORT_JSON = json.loads(json_dumps(report_to_json(estimate_report(sample_counts(ideal_scenario(), 500, 2)))))
REPORT_PATHS = ([(key,) for key in ("s_ac", "s_bc", "s_ab_given_c", "outcome_probs", "relabeling", "stderr")]
                + [(key, k) for key in ("s_ab_given_c", "outcome_probs", "relabeling") for k in range(5)]
                + [("stderr", key) for key in ("s_ac", "s_bc", "s_ab_given_c")]
                + [("stderr", "s_ab_given_c", k) for k in range(4)])
REPORT_MUTATIONS = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(REPORT_PATHS), JSON_VALUES),
    st.tuples(st.just("drop"), st.sampled_from(REPORT_PATHS)),
)


@given(st.lists(REPORT_MUTATIONS, min_size=1, max_size=3), CERTIFY_FLAGS)
@settings(max_examples=200, derandomize=True, deadline=None)
def test_mutated_report_file_never_crashes(tmp_path_factory, mutations, flags):
    obj = copy.deepcopy(IDEAL_REPORT_JSON)
    for mutation in mutations:
        with contextlib.suppress(LookupError, TypeError):  # an earlier mutation removed the target
            _mutate(obj, mutation)
    path = tmp_path_factory.mktemp("fuzz") / "report.json"
    path.write_text(json.dumps(obj))
    _run_fuzzed("certify", path, *flags)


SETTINGS_KEYS = ("a0", "a1", "b0", "b1")
SETTINGS_JSON = {key: matrix_to_json(obs.matrix)
                 for key, obs in zip(SETTINGS_KEYS, (*ideal_scenario().alice, *ideal_scenario().bob))}
SETTINGS_MUTATIONS = st.one_of(
    st.tuples(st.just("entry"), st.sampled_from(SETTINGS_KEYS).map(lambda k: (k,)), st.integers(0, 15),
              st.integers(0, 1), ENTRY_VALUES),
    st.tuples(st.just("nudge"), st.sampled_from(SETTINGS_KEYS).map(lambda k: (k,)), st.integers(0, 15),
              st.integers(0, 1), st.floats(-1e-5, 1e-5)),
    st.tuples(st.just("shape"), st.sampled_from(SETTINGS_KEYS).map(lambda k: (k,)),
              st.sampled_from(["rows", "cols"]), st.integers(-1, 5)),
    st.tuples(st.just("set"), st.sampled_from(SETTINGS_KEYS).map(lambda k: (k,)),
              st.sampled_from([matrix_to_json(np.eye(1)), matrix_to_json(np.eye(3)), matrix_to_json(np.eye(4)),
                               matrix_to_json(-np.eye(2)), matrix_to_json(np.zeros((2, 2))), [], "x", None])),
    st.tuples(st.just("drop"), st.sampled_from([(key,) for key in SETTINGS_KEYS]
                                               + [(key, field) for key in SETTINGS_KEYS
                                                  for field in ("rows", "cols", "data")])),
)


@given(st.lists(SETTINGS_MUTATIONS, min_size=1, max_size=3))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_mutated_settings_file_never_crashes(tmp_path_factory, mutations):
    obj = copy.deepcopy(SETTINGS_JSON)
    for mutation in mutations:
        with contextlib.suppress(LookupError, TypeError):  # an earlier mutation removed the target
            _mutate(obj, mutation)
    path = tmp_path_factory.mktemp("fuzz") / "settings.json"
    path.write_text(json.dumps(obj))
    _run_fuzzed("decompose", path)
    _run_fuzzed("sep-bound", path, "--seed", "1")


NUMBER_TOKEN = re.compile(rb"-?[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?")
ODD_TOKENS = (b"1e400", b"NaN", b"-0", b"9" * 400, b"[]", b'""')


def _mutate_bytes(text: bytes, rng: random.Random) -> bytes:
    """One to three edits: a number token swapped for an odd value, a span deleted, a line doubled, a byte replaced."""
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(4)
        if kind == 0 and (tokens := list(NUMBER_TOKEN.finditer(text))):
            token = rng.choice(tokens)
            text = text[:token.start()] + rng.choice(ODD_TOKENS) + text[token.end():]
        elif kind == 1:
            start = rng.randrange(len(text) + 1)
            text = text[:start] + text[start + rng.randint(1, 40):]
        elif kind == 2 and text:
            lines = text.splitlines(keepends=True)
            k = rng.randrange(len(lines))
            text = b"".join(lines[:k + 1] + lines[k:])
        elif text:
            k = rng.randrange(len(text))
            text = text[:k] + bytes([rng.randrange(256)]) + text[k + 1:]
    return text


def _fuzz_flags(command: str, rng: random.Random) -> list[str]:
    """Flags of one command, each value valid four times in five, else a boundary or malformed one."""
    def value(valid, odd):
        return rng.choice(valid if rng.random() < 0.8 else odd)

    if command == "sep-bound":
        return ["--seed", value(["0", "7", str(2**70)], ["-1", "2.5"])]
    if command == "certify":
        tol = rng.choice([[], ["--tol", value(["0", "1e-9", "0.1"], ["nan", "-1", "inf", "1e400", "x"])],
                          ["--tol-sigma", value(["3", "0"], ["nan", "-3"])], ["--tol", "0.01", "--tol-sigma", "3"]])
        return tol + rng.choice([[], ["--format", value(["json", "csv"], ["xml"])]])
    if command == "sample":
        return ["--n-per-setting", value(["1", "5"], ["0", "-1", str(MAX_N_PER_SETTING + 1)]),
                "--seed", value(["0", "3"], ["-1", "x"])]
    return []


FUZZ_INPUTS = [
    ("decompose", "settings.json", (GOLDEN / "planted_d4_settings.json").read_bytes()),
    ("sep-bound", "settings.json", (GOLDEN / "planted_d4_settings.json").read_bytes()),
    ("decompose", "settings.json", (GOLDEN / "mixed_edge_settings.json").read_bytes()),
    ("sep-bound", "settings.json", (GOLDEN / "mixed_edge_settings.json").read_bytes()),
    ("certify", "report.json", json_dumps(json.loads((GOLDEN / "ideal.json").read_text())["report"]).encode()),
    ("certify", "counts.csv", (GOLDEN / "sample_n50_seed7.csv").read_bytes()),
    ("sample", "scenario.json", json_dumps(scenario_to_json(noisy_scenario(0.95, 0.97, 0.26))).encode()),
]


def test_seeded_mutations_keep_the_exit_contract(tmp_path):
    # every run ends in 0-3, only a verdict exits 1, and stderr is empty or one
    # error line, apart from argparse's own usage text on a rejected flag value
    rng = random.Random(15)
    broken = []
    for _ in range(215):
        for command, name, text in FUZZ_INPUTS:
            path = tmp_path / name
            path.write_bytes(_mutate_bytes(text, rng))
            argv = [command, *(["--scenario"] if command == "sample" else []), str(path),
                    *_fuzz_flags(command, rng)]
            out, err = io.StringIO(), io.StringIO()
            parsed = True
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    parsed, code = False, exc.code
            err = err.getvalue()
            if parsed:
                clean = err == "" or (err.count("\n") == 1 and err.startswith(("error: ", "validation error: ")))
            else:
                clean = code == 2 and err.startswith("usage: ") and ": error: " in err.splitlines()[-1]
            if code not in (0, 1, 2, 3) or (code == 1 and command != "certify") or not clean:
                broken.append((argv, code, err[:200], path.read_bytes()[:200]))
    assert broken == []


@pytest.mark.parametrize("field,value", [("rows", 2.0), ("rows", 1.9), ("cols", "2"), ("cols", True)])
def test_non_integer_matrix_shape_is_validation_error(capsys, tmp_path, field, value):
    payload = json.loads(settings_file(tmp_path).read_text())
    payload["b1"][field] = value
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(payload))
    for argv in (("decompose", str(path)), ("sep-bound", str(path), "--seed", "1")):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("validation error: ") and "rows/cols: expected a list of integers" in err


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; a cold command must not pay for scipy
    code = ("import swapcert.cli, sys; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"


class TestOutputFaults:
    """A fault in writing the output is never read as a crash (exit 4)."""

    @pytest.mark.parametrize("argv", [
        ("ideal",),
        ("ideal", "--format", "csv"),
        ("bounds-curve", "--steps", "3"),
        ("bounds-curve", "--steps", "3", "--format", "json"),
        ("sample", "--n-per-setting", "5", "--seed", "1"),
    ])
    @pytest.mark.parametrize("target", ["missing/x.out", "."])
    def test_unwritable_out_is_usage_error(self, tmp_path, argv, target):
        proc = cli_child(*argv, "--out", str(tmp_path / target), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 2 and out == ""
        assert err.startswith("error: cannot write --out ") and err.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("command,code", [("ideal", 0), ("certify", 1)])
    def test_closed_stdout_keeps_the_exit_code(self, tmp_path, fmt, command, code):
        # The reader is gone before the child writes its payload; the command
        # still returns its own code: 0 for ideal, 1 for certify on an all-zero report.
        zero = tmp_path / "zero.json"
        zero.write_text(json.dumps({
            "s_ac": 0.0, "s_bc": 0.0, "s_ab_given_c": [0.0] * 4,
            "outcome_probs": [0.25] * 4, "relabeling": [1, 2, 3, 4], "stderr": None,
        }))
        argv = [command] if command == "ideal" else [command, str(zero)]
        with cli_child(*argv, "--format", fmt, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            proc.stdout.close()
            err = proc.stderr.read()
        assert proc.returncode == code
        assert err == ""


class TestInputFaults:
    """Every input that cannot be used ends in one usage (2) or validation (3) line."""

    @pytest.mark.parametrize("argv,name", [
        (("decompose", "{}"), "bin.json"),
        (("sep-bound", "{}", "--seed", "1"), "bin.json"),
        (("certify", "{}"), "bin.json"),
        (("certify", "{}"), "bin.csv"),
        (("sample", "--n-per-setting", "5", "--seed", "1", "--scenario", "{}"), "bin.json"),
    ], ids=["decompose", "sep-bound", "certify json", "certify csv", "sample scenario"])
    def test_non_utf8_input_is_validation_error(self, capsys, tmp_path, argv, name):
        path = tmp_path / name
        path.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, *(arg.format(path) for arg in argv))
        assert code == 3 and out == ""
        assert err == (f"validation error: {name}: 'utf-8' codec can't decode byte 0xff in position 0: "
                       "invalid start byte\n")

    @pytest.mark.parametrize("argv,code,message", [
        (("bounds-curve", "--steps", "0"), 2, "error: --steps must be at least 1"),
        (("sample", "--n-per-setting", "0", "--seed", "1"), 2, "error: --n-per-setting must be at least 1"),
        (("certify", "{tmp}"), 3, "validation error: [Errno 21] Is a directory: '{tmp}'"),
        (("decompose", "{text}"), 3, "validation error: text.json: Expecting value: line 1 column 1 (char 0)"),
        (("decompose", "{array}"), 3, "validation error: array.json: expected a JSON object"),
    ], ids=["steps 0", "n-per-setting 0", "input is a directory", "input not JSON",
            "settings a JSON array"])
    def test_unusable_input_is_one_error_line(self, capsys, tmp_path, argv, code, message):
        paths = {"settings": settings_file(tmp_path), "tmp": tmp_path,
                 "text": tmp_path / "text.json", "array": tmp_path / "array.json"}
        paths["text"].write_text("not json\n")
        paths["array"].write_text("[1, 2]\n")
        got, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
        assert got == code and out == ""
        assert err == message.format(**paths) + "\n"

    @pytest.mark.parametrize("argv,message", [
        (("certify", "{report}"), "report: s_ac must be a finite number, got 10000000000000000000... (401 digits)"),
        (("decompose", "{settings}"), "b1: non-finite entries"),
        (("sep-bound", "{settings}", "--seed", "1"), "b1: non-finite entries"),
        (("sample", "--n-per-setting", "5", "--seed", "1", "--scenario", "{scenario}"), "state: non-finite entries"),
    ], ids=["certify", "decompose", "sep-bound", "sample scenario"])
    def test_integer_past_float_range_is_validation_error(self, capsys, tmp_path, argv, message):
        # json.loads keeps 1 followed by 400 zeros as an int, on which float() raises OverflowError
        big = 10**400
        report = report_to_json(estimate_report(sample_counts(ideal_scenario(), 100, seed=2)))
        report["s_ac"] = big
        settings = json.loads(settings_file(tmp_path).read_text())
        settings["b1"]["data"][2][1] = big
        scenario = json.loads(json_dumps(scenario_to_json(ideal_scenario())))
        scenario["state"]["data"][5][0] = -big
        paths = {"report": tmp_path / "report.json", "settings": tmp_path / "big.json",
                 "scenario": tmp_path / "scenario.json"}
        for key, obj in (("report", report), ("settings", settings), ("scenario", scenario)):
            paths[key].write_text(json.dumps(obj))
        code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
        assert code == 3 and out == ""
        assert err == f"validation error: {message}\n"

    @pytest.mark.parametrize("text,message", [
        ('{"s_ac": 1' + "0" * 5000 + "}", "Exceeds the limit (4300 digits) for integer string conversion"),
        ("[" * 100_000, "maximum recursion depth exceeded"),
    ], ids=["integer past 4300 digits", "nested past the recursion limit"])
    def test_json_past_a_parser_limit_is_validation_error(self, capsys, tmp_path, text, message):
        path = tmp_path / "limit.json"
        path.write_text(text)
        code, out, err = run(capsys, "certify", str(path))
        assert code == 3 and out == ""
        assert err.startswith(f"validation error: limit.json: {message}") and err.count("\n") == 1

    def test_csv_field_past_the_size_limit_is_validation_error(self, capsys, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("x,y,z,a,b,c,count\n1,1,1,1,1,1," + "9" * 200_000 + "\n")
        code, out, err = run(capsys, "certify", str(path))
        assert code == 3 and out == ""
        assert err == "validation error: line 2: field larger than field limit (131072)\n"

    def test_non_numeric_tol_env_var_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("SWAPCERT_TOL", "abc")
        code, out, err = run(capsys, "ideal")
        assert code == 2 and out == ""
        assert err == "error: SWAPCERT_TOL='abc' is not a number\n"


def test_unexpected_exception_is_internal_error(capsys, monkeypatch):
    # exit 1 is a certification verdict, so a crash must not produce it
    from swapcert import cli

    def crash(args):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(cli, "cmd_ideal", crash)
    code, out, err = run(capsys, "ideal")
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert err == "internal error: RuntimeError: boom second line\n"


@pytest.mark.parametrize("command,formats", [
    ("ideal", ["json", "csv"]),
    ("noisy", ["json", "csv"]),
    ("certify", ["json", "csv"]),
    ("bounds-curve", ["csv", "json"]),
    ("decompose", None),
    ("sep-bound", None),
    ("sample", None),
])
def test_every_command_shares_the_out_flag(command, formats):
    # --out is described alike everywhere; --format, where offered, defaults to its first choice
    sub = next(a for a in build_parser()._actions if a.dest == "command").choices[command]
    flags = {a.dest: a for a in sub._actions}
    assert flags["out"].default is None and flags["out"].help == "output path (default: stdout)"
    if formats is None:
        assert "format" not in flags
    else:
        assert flags["format"].choices == formats and flags["format"].default == formats[0]


def test_every_option_has_help():
    # every flag of every command is described in --help, not shown as a bare metavar
    commands = next(a for a in build_parser()._actions if a.dest == "command").choices
    bare = [f"{name} {action.option_strings[-1]}" for name, sub in commands.items() for action in sub._actions
            if action.option_strings and action.dest != "help" and not action.help]
    assert bare == []


@pytest.mark.parametrize("command", ["noisy", "sample"])
def test_noise_flags_are_shared(command):
    # both commands build a noisy scenario from the same three flags, described alike
    sub = next(a for a in build_parser()._actions if a.dest == "command").choices[command]
    flags = {a.dest: a for a in sub._actions}
    # the defaults are filled in when the scenario is built, so that sample can tell a given flag apart
    assert [(flags[d].type, flags[d].default, flags[d].help) for d in ("v_ac", "v_bc", "theta")] == [
        (float, None, "visibility of the first pair (default 1)"),
        (float, None, "visibility of the second pair (default 1)"),
        (float, None, "joint-basis rotation angle in radians (default 0)"),
    ]


@pytest.mark.parametrize("command", ["ideal", "noisy", "certify"])
def test_tol_flag_is_shared(command):
    # every command that applies a verdict tolerance declares --tol alike
    sub = next(a for a in build_parser()._actions if a.dest == "command").choices[command]
    tol = next(a for a in sub._actions if a.dest == "tol")
    assert (tol.type, tol.default, tol.help) == (
        float, None, "tolerance for the maximal-violation tests (default SWAPCERT_TOL or 1e-9)")
