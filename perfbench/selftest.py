"""Smoke test of the benchmark itself; exits 0 when every check holds.

    python3 perfbench/selftest.py

1. Runs every workload for one second, untraced and traced, and checks that
   the last line has exactly the result keys, that the run was correct, and
   that every metric named in BENCHMARK.json is emitted with its unit.
2. Checks that each output oracle accepts a real output and flags a
   deliberately wrong expected value.
3. Checks the `-X importtime` parser on a fixed sample.
4. Checks that the benchmark fails, without a result, in a directory that
   holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_emitted(spec: dict) -> None:
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        for workload in (w["name"] for w in spec["workloads"]):
            proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                                   "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                                  cwd=ROOT, capture_output=True, text=True, timeout=180)
            assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == RESULT_KEYS, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            metrics = result["metrics"]
            assert set(metrics) == {m["name"] for m in spec[group]}, (
                f"{workload} trace={trace}: metric names differ from BENCHMARK.json: "
                f"{sorted(set(metrics) ^ {m['name'] for m in spec[group]})}")
            for m in spec[group]:
                got = metrics[m["name"]]
                assert got["unit"] == m["unit"], (m["name"], got)
                assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), (m["name"], got)
            if trace and workload == "exact_grid":
                # tensor is imported by name into protocol: these counts only
                # show up when every namespace holding it is patched.
                assert metrics["protocol.joint_distribution.calls_per_op"]["value"] == 12, metrics
                assert metrics["linalg.tensor.calls_per_op"]["value"] >= 240, metrics
            print(f"ok  {workload} trace={trace}: {len(metrics)} metrics, {result['attempted']} operations")


def check_oracles(workdir: Path) -> None:
    def flagged(wl, state, out, what: str) -> None:
        assert wl.check(state, 0, out) is not None, f"{wl.name}: oracle missed {what}"

    wl = WORKLOADS["exact_grid"]
    state = wl.setup(5, workdir)
    out = wl.op(state, 0)
    assert wl.check(state, 0, out) is None
    s_ac, s_bc, values = state["expected"][0]
    flagged(wl, {**state, "expected": [(s_ac + 1e-7, s_bc, values)]}, out, "a wrong swap-side value")
    flagged(wl, {**state, "expected": [(s_ac, s_bc, (values[0] + 1e-7, *values[1:]))]}, out,
            "a wrong conditional value")

    wl = WORKLOADS["sample_certify"]
    state = wl.setup(5, workdir)
    out = wl.op(state, 0)
    assert wl.check(state, 0, out) is None
    s_ac, s_bc, values = state["exact"]
    flagged(wl, {**state, "exact": (s_ac + 10 * out[3].stderr.s_ac, s_bc, values)}, out,
            "an estimate 10 sigma off")
    counts = out[2].counts.copy()
    counts[0, 0, 0, 0, 0, 0] += 1
    bad_parse = dataclasses.replace(out[2], counts=counts)
    flagged(wl, state, (out[0], out[1], bad_parse, *out[3:]), "a CSV round trip that changed a count")

    wl = WORKLOADS["sep_bound_mix"]
    state = wl.setup(5, workdir)
    result = wl.op(state, 0)
    assert wl.check(state, 0, result) is None
    for gap in (1e-3, -1e-6):
        flagged(wl, state, dataclasses.replace(result, oracle_value=result.formula_value - gap),
                f"a formula-oracle gap of {gap}")

    wl = WORKLOADS["cli_cold"]
    state = wl.setup(5, workdir / "cli")
    for i, (args, expect) in enumerate(state["commands"]):
        out = wl.op(state, i)
        assert wl.check(state, i, out) is None, wl.check(state, i, out)
        wrong = dict(expect, code=1)
        flagged(wl, {**state, "commands": [(args, wrong)]}, out, f"a wrong exit code for {args[0]}")
        for key, value in expect.items():
            wrong = dict(expect, **{key: [value[0] + 1, *value[1:]] if isinstance(value, list) else value + 1})
            flagged(wl, {**state, "commands": [(args, wrong)]}, out, f"a wrong {key} for {args[0]}")
    print("ok  every oracle accepts real outputs and flags wrong expected values")


def check_importtime_parser() -> None:
    sample = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:       500 |       2000 |     numpy",
        "import time:        50 |        300 |       scipy",
        "import time:      1000 |       4000 |     scipy.linalg",
        "import time:       200 |       7000 |   swapcert.blocks",
        "import time:       100 |       7200 | swapcert",
    ])
    rows = run.parse_importtime(sample)
    assert run.outermost_ms(rows, "numpy") == 2.0
    assert run.outermost_ms(rows, "scipy") == 4.0
    assert run.outermost_ms(rows, "swapcert", exact=True) == 7.2
    print("ok  -X importtime parser")


def check_fails_without_sources(workdir: Path) -> None:
    bare = workdir / "bare"
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "exact_grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc
    print("ok  fails without a result when the sources are missing")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workdir = ROOT / ".perfbench_work" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    os.environ.update(run.worker_env(workdir))  # the cli oracle checks start swapcert children
    try:
        check_importtime_parser()
        check_oracles(workdir)
        check_fails_without_sources(workdir)
        check_emitted(spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
