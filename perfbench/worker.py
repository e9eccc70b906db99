"""One workload in one fresh process; prints one JSON line for run.py.

    python worker.py <workload> <seed> <seconds> <mode> <workdir>

``mode`` is ``setup`` (set up, run the warm-up operation, report when done),
``run`` (then a closed loop of operations for ``seconds``) or ``trace`` (an
untraced loop for half the time, then a traced loop for the other half).
Operations run one after another from a single caller, so nothing queues.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import reference
import tracing
from workloads import WORKLOADS


def closed_loop(wl, state, seconds: float, tracer=None) -> dict:
    """Run operations back to back until ``seconds`` have passed.

    The workload's reference kernel is timed after every ``wl.block``
    operations (see reference.py). The loop stops only at the end of a cycle
    of ``wl.cycle`` operations, a whole number of blocks. Operation 0 is the
    warm-up, so the loop starts at operation 1.
    """
    blocks: list[tuple[list[float], float, float]] = []  # (latencies, wall, reference)
    failed = 0
    start = time.perf_counter()
    i = 1
    while True:
        for _ in range(wl.cycle // wl.block):
            block_start = time.perf_counter()
            latencies = []
            for _ in range(wl.block):
                if tracer is not None:
                    tracer.op = i
                t0 = time.perf_counter()
                try:
                    out = wl.op(state, i)
                    elapsed = time.perf_counter() - t0
                    problem = wl.check(state, i, out)
                except Exception:
                    problem = traceback.format_exc()
                if problem is None:
                    latencies.append(elapsed)
                else:
                    failed += 1
                    if failed <= 3:
                        print(f"{wl.name} operation {i} failed: {problem}", file=sys.stderr)
                i += 1
            wall = time.perf_counter() - block_start
            blocks.append((latencies, wall, wl.reference()))
        if time.perf_counter() - start >= seconds:
            break
    return {"blocks": blocks, "failed": failed, "attempted": i - 1,
            "nominal_s": wl.nominal_s, "ref_window": wl.ref_window}


def summary(loop: dict) -> dict:
    """Scaled throughput and latency percentiles over the correct operations.

    Block k is scaled by ``nominal / r_k``, where ``r_k`` is the median of the
    reference times of blocks k-w .. k+w, with ``w = wl.ref_window``. That
    damps the jitter of a single reference timing. Throughput is the correct
    operations over the scaled wall time of all blocks.
    """
    blocks, w = loop["blocks"], loop["ref_window"]
    refs = [ref for _, _, ref in blocks]
    scales = [loop["nominal_s"] / statistics.median(refs[max(0, k - w):k + w + 1]) for k in range(len(blocks))]
    raw = [t for lat, _, _ in blocks for t in lat]
    scaled = [t * scale for (lat, _, _), scale in zip(blocks, scales) for t in lat]
    scaled_wall = sum(wall * scale for (_, wall, _), scale in zip(blocks, scales))

    def percentiles(lat: list[float]) -> tuple[float, float]:
        if len(lat) < 2:
            return (1e3 * lat[0],) * 2 if lat else (math.nan, math.nan)
        return 1e3 * statistics.median(lat), 1e3 * statistics.quantiles(lat, n=10)[8]

    p50, p90 = percentiles(scaled)
    raw_p50, raw_p90 = percentiles(raw)
    return {
        "ops_per_s": len(scaled) / scaled_wall,
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "raw_latency_p50_ms": raw_p50,
        "raw_latency_p90_ms": raw_p90,
        "reference_ms": 1e3 * statistics.median(refs),
        "latency_samples": len(scaled),
    }


def traced_loop(wl, state, seconds: float, workdir: Path) -> tuple[dict, dict]:
    """Closed loop with spans recorded around every call into a swapcert layer."""
    if wl.name == "cli_cold":
        span_dir = workdir / "cli_spans"
        span_dir.mkdir(parents=True)
        shim = Path(__file__).with_name("cli_shim.py")
        loop = closed_loop(wl, dict(state, argv=[sys.executable, str(shim), str(span_dir)]), seconds)
        spans: list[list] = []
        in_child_ms: list[float] = []
        for child_id, path in enumerate(sorted(span_dir.glob("*.csv"))):
            child = tracing.read_spans(path)
            offset = len(spans)
            for rec in child:
                rec[tracing.OP] = child_id
                if rec[tracing.PARENT] >= 0:
                    rec[tracing.PARENT] += offset
            spans.extend(child)
            in_child_ms.append(float(path.with_suffix(".ms").read_text(encoding="utf-8")))
        tracing.write_spans(spans, workdir / "spans.csv")
        metrics = tracing.layer_metrics(spans, loop["attempted"])
        wall_ms = [1e3 * t for lat, _, _ in loop["blocks"] for t in lat]
        metrics["cli.interp_ms"] = statistics.fmean(wall_ms) - statistics.fmean(in_child_ms)
        return metrics, loop
    tracer = tracing.Tracer()
    tracer.install()
    try:
        loop = closed_loop(wl, state, seconds, tracer)
    finally:
        tracer.uninstall()
    tracing.write_spans(tracer.spans, workdir / "spans.csv")
    metrics = tracing.layer_metrics(tracer.spans, loop["attempted"])
    metrics["cli.interp_ms"] = 0.0
    return metrics, loop


def main() -> int:
    name, seed, seconds, mode, workdir = sys.argv[1:6]
    seed, seconds, workdir = int(seed), float(seconds), Path(workdir)
    # One CPU for the worker, its reference kernels and its children, so
    # that they all see the same share of the machine.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    wl = WORKLOADS[name]
    state = wl.setup(seed, workdir)
    problem = wl.check(state, 0, wl.op(state, 0))  # warm-up operation
    if problem is not None:
        print(f"{name} warm-up operation failed: {problem}", file=sys.stderr)
    result: dict = {"setup_done": time.monotonic(), "warmup_failed": problem is not None,
                    "setup_scale": reference.SPAWN_NOMINAL_S / reference.spawn()}
    if mode == "run":
        loop = closed_loop(wl, state, seconds)
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        result.update(summary(loop), attempted=loop["attempted"], failed=loop["failed"],
                      blas=blas.get("openblas configuration", f"{blas.get('name')} {blas.get('version')}"))
    elif mode == "trace":
        plain = closed_loop(wl, state, seconds / 2)
        metrics, traced = traced_loop(wl, state, seconds / 2, workdir)
        metrics["trace.overhead_pct"] = 100.0 * (
            summary(plain)["ops_per_s"] / summary(traced)["ops_per_s"] - 1.0)
        result.update(metrics=metrics, attempted=plain["attempted"] + traced["attempted"],
                      failed=plain["failed"] + traced["failed"])
    who = resource.RUSAGE_CHILDREN if name == "cli_cold" else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
