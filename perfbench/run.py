"""swapcert benchmark: closed-loop workloads measured end to end or per layer.

    python3 perfbench/run.py --workload exact_grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 5        # every workload, one table

Run from the root of a source checkout; the package is imported from its
``src/``. Every measured process is a fresh interpreter with BLAS pinned to
one thread. With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are
reported, with ``--trace 1`` the per-layer ones. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Lines before it print each metric with its unit, and the run metadata.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
import tomllib
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5  # setup_s is the median over this many fresh processes
IMPORT_PROBES = 3
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def worker_env(workdir: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=f"{SRC}{os.pathsep}{BENCH_DIR}",
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
        TMPDIR=str(workdir),
    )
    return env


def run_child(argv: list[str], workdir: Path) -> subprocess.CompletedProcess:
    """Run a child in its own process group; on timeout kill the group and reap the child."""
    with subprocess.Popen(argv, env=worker_env(workdir), cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{' '.join(argv[1:3])} did not finish in {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise BenchError(f"{' '.join(argv[1:3])} exited {proc.returncode}")
    return subprocess.CompletedProcess(argv, proc.returncode, stdout, stderr)


def run_worker(workload: str, seed: int, seconds: float, mode: str, workdir: Path) -> dict:
    workdir.mkdir(parents=True)
    spawned = time.monotonic()
    proc = run_child([sys.executable, str(BENCH_DIR / "worker.py"), workload, str(seed),
                      str(seconds), mode, str(workdir)], workdir)
    sys.stderr.write(proc.stderr)  # the first failed operations, if any
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = (result["setup_done"] - spawned) * result["setup_scale"]
    return result


def import_metrics(workdir: Path) -> dict[str, float]:
    """Cold-import costs: wall time of `import swapcert.cli`, and -X importtime's breakdown."""
    code = ("import time; t = time.perf_counter(); import swapcert.cli; "
            "print(1e3 * (time.perf_counter() - t))")
    cli_ms, numpy_ms, scipy_ms, swapcert_ms = [], [], [], []
    for _ in range(IMPORT_PROBES):
        cli_ms.append(float(run_child([sys.executable, "-c", code], workdir).stdout))
        rows = parse_importtime(run_child([sys.executable, "-X", "importtime", "-c", code], workdir).stderr)
        numpy_ms.append(outermost_ms(rows, "numpy"))
        scipy_ms.append(outermost_ms(rows, "scipy"))
        swapcert_ms.append(outermost_ms(rows, "swapcert", exact=True))
    return {
        "cli.import_ms": statistics.median(cli_ms),
        "import.numpy_ms": statistics.median(numpy_ms),
        "import.scipy_ms": statistics.median(scipy_ms),
        "import.swapcert_ms": statistics.median(swapcert_ms),
    }


def parse_importtime(stderr: str) -> list[tuple[int, float, str]]:
    """(nesting depth, cumulative ms, module) for each `-X importtime` line."""
    rows = []
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \| ( *)(\S+)$", line)
        if m:
            rows.append((len(m.group(2)) // 2, int(m.group(1)) / 1e3, m.group(3)))
    return rows


def outermost_ms(rows: list[tuple[int, float, str]], package: str, exact: bool = False) -> float:
    """Cumulative import time of the package's entries that no entry of it encloses.

    A module is printed after the modules it imports, one level deeper, so an
    entry's enclosing entries are the later ones of smaller depth.
    """
    def member(name: str) -> bool:
        return name == package or (not exact and name.startswith(package + "."))

    total = 0.0
    for k, (depth, cumulative, name) in enumerate(rows):
        if not member(name):
            continue
        enclosing, level = [], depth
        for later_depth, _, later_name in rows[k + 1:]:
            if later_depth < level:
                enclosing.append(later_name)
                level = later_depth
        if not any(member(n) for n in enclosing):
            total += cumulative
    return total


def metadata() -> dict:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    deps = [re.split(r"[<>=!~ ;\[]", d, maxsplit=1)[0] for d in project.get("dependencies", [])]
    return {
        "python": sys.version.split()[0],
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py")),
        "runtime_dependencies": deps,
    }


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def measure(workload: str, seed: int, seconds: float, trace: bool, units: dict[str, str],
            workdir: Path) -> dict:
    """One run of one workload; ``units`` names the metrics to report, with their units."""
    if trace:
        result = run_worker(workload, seed, seconds, "trace", workdir / "trace")
        # The run's work directory is removed at the end; the spans are kept.
        shutil.copy(workdir / "trace" / "spans.csv", ROOT / ".perfbench_work" / f"spans-{workload}.csv")
        print(f"# {workload}: spans written to .perfbench_work/spans-{workload}.csv")
        metrics = {**result["metrics"], **import_metrics(workdir)}
    else:
        setups = [run_worker(workload, seed, seconds, "setup", workdir / f"setup{k}")["setup_s"]
                  for k in range(SETUP_REPEATS - 1)]
        result = run_worker(workload, seed, seconds, "run", workdir / "run")
        setups.append(result["setup_s"])
        metrics = {key: result[key] for key in ("ops_per_s", "latency_p50_ms", "latency_p90_ms",
                                                "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(setups)
        print(f"# {workload}: {result['latency_samples']} latency samples, "
              f"setup_s over {len(setups)} processes")
        print(f"# {workload}: blas {result['blas']}")
        print(f"# {workload}: unscaled latency p50 {result['raw_latency_p50_ms']:.6g} ms, "
              f"p90 {result['raw_latency_p90_ms']:.6g} ms; reference kernel median "
              f"{result['reference_ms']:.6g} ms")
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise BenchError(f"{workload}: the worker reported no {', '.join(missing)}")
    if not all(math.isfinite(metrics[name]) for name in units):
        raise BenchError(f"{workload}: no operation succeeded, so there is nothing to measure")
    attempted = result["attempted"] + 1  # the warm-up operation is checked too
    failed = result["failed"] + int(result["warmup_failed"])
    for name, unit in units.items():
        print(f"{workload:16s} {name:42s} {metrics[name]:14.6g} {unit}")
    print(f"{workload:16s} {'failed_ratio':42s} {failed / attempted:14.6g} ratio")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "swapcert" / "__init__.py").is_file():
        print(f"error: no swapcert sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be nonnegative and --seconds positive", file=sys.stderr)
        return 2
    print(f"# meta {json.dumps(metadata())}")
    names = workloads if args.workload == "all" else [args.workload]
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        results = {name: measure(name, args.seed, args.seconds, bool(args.trace), units, workdir / name)
                   for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
