"""The four benchmark workloads: seeded inputs, one operation, its output oracle.

Each workload has ``setup(seed, workdir)`` returning its state (inputs and the
expected values the oracle compares against), ``op(state, i)`` doing the
timed library work of operation ``i``, and ``check(state, i, out)`` returning
``None`` or a one-line reason the output is wrong. Checks use only values
prepared in setup, so they add no library calls to a traced operation.
``block`` operations run between two timings of the workload's reference
kernel (see reference.py), and a block is scaled by the median of the
timings of the ``ref_window`` blocks on each side of it. A run ends only
after a whole ``cycle`` of operations.
Library functions are looked up on their module at call time so that the
tracer's wrappers are seen.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

import reference
from swapcert import blocks, certify, measurements, protocol, serialize
from swapcert.linalg import ValidationError

TSIRELSON = 2.0 * math.sqrt(2.0)


def _round9(x: float) -> float:
    return float(f"{x:.9g}")


class ExactGrid:
    """`swapcert noisy` without process start or I/O, over a seeded parameter grid."""

    name = "exact_grid"
    block = cycle = 5
    ref_window = 1
    POOL = 64

    def __init__(self) -> None:
        self.reference, self.nominal_s = reference.Kernels().interpreter, reference.INTERPRETER_NOMINAL_S

    def setup(self, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng([seed, 1])
        params = [(float(rng.uniform(0.8, 1.0)), float(rng.uniform(0.8, 1.0)),
                   float(rng.uniform(0.0, math.pi / 4))) for _ in range(self.POOL)]
        expected = []
        for v_ac, v_bc, theta in params:
            meas = measurements.perturbed_bell_measurement(theta, pair=1)
            _, values = certify.relabel(v_ac * v_bc * certify.overlap_version_matrix(meas))
            expected.append((TSIRELSON * v_ac, TSIRELSON * v_bc, values))
        return {"params": params, "expected": expected}

    def op(self, state: dict, i: int):
        v_ac, v_bc, theta = state["params"][i % self.POOL]
        report = protocol.exact_report(protocol.noisy_scenario(v_ac, v_bc, theta))
        verdicts = (certify.certify_crit1(report.s_ac, report.s_bc, report.s_ab_given_c, 1e-9),
                    certify.certify_crit2(report.s_ac, report.s_bc, report.s_ab_given_c, 1e-9))
        return report, verdicts, certify.distance_bounds(report.s_ab_given_c)

    def check(self, state: dict, i: int, out) -> str | None:
        report = out[0]
        s_ac, s_bc, values = state["expected"][i % self.POOL]
        if abs(report.s_ac - s_ac) > 1e-9 or abs(report.s_bc - s_bc) > 1e-9:
            return f"swap-side values {report.s_ac}, {report.s_bc} != {s_ac}, {s_bc}"
        if abs(sum(report.outcome_probs) - 1.0) > 1e-9:
            return f"outcome probabilities sum to {sum(report.outcome_probs)}"
        worst = max(abs(a - b) for a, b in zip(report.s_ab_given_c, values))
        if not worst <= 1e-9:
            return f"relabeled conditional values off the overlap prediction by {worst:.3g}"
        return None


class SampleCertify:
    """Sampled counts through the CSV format, the estimator and both criteria."""

    name = "sample_certify"
    block = cycle = 1
    ref_window = 1
    N_PER_SETTING = 250_000
    SIGMAS = 5.0
    POOL = 16
    SCENARIO = (0.95, 0.97, 0.26)

    def __init__(self) -> None:
        self.reference, self.nominal_s = reference.Kernels().numeric, reference.NUMERIC_NOMINAL_S

    def setup(self, seed: int, workdir: Path) -> dict:
        exact = protocol.exact_report(protocol.noisy_scenario(*self.SCENARIO))
        rng = np.random.default_rng([seed, 2])
        return {
            "scenario": protocol.noisy_scenario(*self.SCENARIO),
            "exact": (exact.s_ac, exact.s_bc, tuple(exact.s_ab_given_c)),
            "sample_seeds": [int(s) for s in rng.integers(0, 2**31, size=self.POOL)],
        }

    def op(self, state: dict, i: int):
        table = protocol.sample_counts(state["scenario"], self.N_PER_SETTING,
                                       state["sample_seeds"][i % self.POOL])
        text = serialize.counts_to_csv(table)
        parsed = serialize.counts_from_csv(text)
        est = protocol.estimate_report(parsed)
        tol = self.SIGMAS * max(est.stderr.s_ac, est.stderr.s_bc)
        verdicts = (certify.certify_crit1(est.s_ac, est.s_bc, est.s_ab_given_c, tol),
                    certify.certify_crit2(est.s_ac, est.s_bc, est.s_ab_given_c, tol))
        try:
            bounds = certify.distance_bounds(est.s_ab_given_c)
        except ValidationError:
            bounds = None  # as the CLI does: an estimate above the ceiling has no bounds
        return table, text, parsed, est, verdicts, bounds

    def check(self, state: dict, i: int, out) -> str | None:
        table, _, parsed, est, _, _ = out
        if not np.array_equal(parsed.counts, table.counts) or parsed.n_per_setting != table.n_per_setting:
            return "counts CSV round trip changed the counts"
        s_ac, s_bc, values = state["exact"]
        pairs = [(est.s_ac, s_ac, est.stderr.s_ac), (est.s_bc, s_bc, est.stderr.s_bc)]
        pairs += zip(est.s_ab_given_c, values, est.stderr.s_ab_given_c)
        for k, (got, want, se) in enumerate(pairs):
            if not abs(got - want) <= self.SIGMAS * se:
                return f"estimate {k} = {got} lies more than {self.SIGMAS} sigma ({se:.3g}) from {want}"
        return None


def _observable_pair(kind: str, d: int, rng: np.random.Generator, layout: int):
    """A pair of +/-1 observables on dimension ``d``, Haar-conjugated.

    ``generic``: balanced spectra in independent Haar bases. ``planted``: a
    direct sum of exact degeneracies; layout 0 repeats two eigenphases over
    all 2x2 blocks, layout 1 mixes 1x1 blocks at phases 0 and pi with
    repeated-phase 2x2 blocks (at d = 2 only the 1x1 blocks).
    """
    def haar(n: int) -> np.ndarray:
        q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        return q * (np.diag(r) / np.abs(np.diag(r))).conj()

    if kind == "generic":
        signs = np.diag([1.0] * (d // 2) + [-1.0] * (d // 2))
        u0, u1 = haar(d), haar(d)
        return (measurements.DichotomicObservable(u0 @ signs @ u0.conj().T),
                measurements.DichotomicObservable(u1 @ signs @ u1.conj().T))
    phases = rng.uniform(0.3, math.pi - 0.3, size=2)
    a0 = np.zeros((d, d), dtype=complex)
    a1 = np.zeros((d, d), dtype=complex)
    pos = 0
    if layout == 1 or d == 2:
        s = rng.choice([-1.0, 1.0])
        a0[0, 0], a1[0, 0] = s, s  # phase 0
        a0[1, 1], a1[1, 1] = s, -s  # phase pi
        pos = 2
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    for k in range((d - pos) // 2):
        phase = phases[k % 2]
        sl = slice(pos + 2 * k, pos + 2 * k + 2)
        a0[sl, sl] = x
        a1[sl, sl] = math.cos(phase) * x + math.sin(phase) * y
    u = haar(d)
    return (measurements.DichotomicObservable(u @ a0 @ u.conj().T),
            measurements.DichotomicObservable(u @ a1 @ u.conj().T))


class SepBoundMix:
    """Jordan blocks, block CHSH and the see-saw over generic and degenerate settings."""

    name = "sep_bound_mix"
    # d = 8 twice, so that the median lies inside the d = 8 operations and the
    # p90 inside the d = 16 ones, not on the edge between two dimensions.
    CLASSES = tuple((d, kind) for d in (2, 4, 8, 8, 16) for kind in ("generic", "planted"))
    block = cycle = len(CLASSES)  # one operation of every class
    ref_window = 10**6  # the whole run: measured steadier here than a local window
    PER_CLASS = 32

    def __init__(self) -> None:
        self.reference, self.nominal_s = reference.Kernels().numeric, reference.NUMERIC_NOMINAL_S

    def setup(self, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng([seed, 3])
        inputs = []
        for j in range(self.PER_CLASS):
            for d, kind in self.CLASSES:
                inputs.append(_observable_pair(kind, d, rng, j % 2) + _observable_pair(kind, d, rng, (j + 1) % 2))
        return {"inputs": inputs}

    def op(self, state: dict, i: int):
        k = i % len(state["inputs"])
        _, result = blocks.sep_bound(*state["inputs"][k], restarts=32, iters=500, seed=k)
        return result

    def check(self, state: dict, i: int, out) -> str | None:
        gap = out.formula_value - out.oracle_value
        if not -1e-9 <= gap <= 1e-4:
            d, kind = self.CLASSES[i % len(self.CLASSES)]
            return f"{kind} d={d}: formula - oracle = {gap:.3g} outside [-1e-9, 1e-4]"
        return None


def _csv_rows(stdout: str) -> list[list[str]]:
    return [line.split(",") for line in stdout.strip().splitlines()]


class CliCold:
    """One fresh `python -m swapcert.cli` child per operation, over a fixed command mix."""

    name = "cli_cold"
    block, cycle = 2, 8  # a cycle is one pass over the command mix
    ref_window = 10**6  # the whole run: one process start jitters too much
    SAMPLE_N = 1000

    def __init__(self) -> None:
        self.reference, self.nominal_s = reference.spawn, reference.SPAWN_NOMINAL_S

    def setup(self, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng([seed, 4])
        workdir.mkdir(parents=True, exist_ok=True)
        counts = protocol.sample_counts(protocol.ideal_scenario(), 20_000, int(rng.integers(0, 2**31)))
        (workdir / "counts.csv").write_text(serialize.counts_to_csv(counts), encoding="utf-8")
        # v_ac = 1 keeps one swap side maximal and outcomes 2, 3 unrotated, so
        # the report certifies under the first criterion.
        report = protocol.exact_report(protocol.noisy_scenario(
            1.0, float(rng.uniform(0.9, 1.0)), float(rng.uniform(0.0, math.pi / 16))))
        (workdir / "report.json").write_text(
            serialize.json_dumps(serialize.report_to_json(report)), encoding="utf-8")
        bloch = rng.normal(size=(4, 3))
        settings = [measurements.qubit_observable(v / np.linalg.norm(v)) for v in bloch]
        # Full precision: at 9 digits about 7% of random qubit observables no
        # longer square to the identity within the 1e-9 the parser demands.
        (workdir / "settings.json").write_text(json.dumps(
            {k: serialize.observable_to_json(o) for k, o in zip(("a0", "a1", "b0", "b1"), settings)}),
            encoding="utf-8")
        structure, _ = blocks.sep_bound(*settings, with_oracle=False)
        sample_seed = int(rng.integers(0, 2**31))
        commands = [
            (["ideal"], {"s": _round9(TSIRELSON)}),
            (["noisy", "--v-ac", "0.95", "--theta", "0.26"], {"s": _round9(TSIRELSON * 0.95)}),
            (["certify", str(workdir / "counts.csv"), "--tol-sigma", "5"], {}),
            (["certify", str(workdir / "report.json"), "--tol", "1e-6"],
             {"values": [_round9(v) for v in report.s_ab_given_c]}),
            (["decompose", str(workdir / "settings.json")],
             {"bound": _round9(blocks.sep_bound_formula(structure))}),
            (["sep-bound", str(workdir / "settings.json"), "--seed", "7"],
             {"bound": _round9(blocks.sep_bound_formula(structure))}),
            (["bounds-curve", "--steps", "200"], {"rows": 200}),
            (["sample", "--n-per-setting", str(self.SAMPLE_N), "--seed", str(sample_seed)], {"n": self.SAMPLE_N}),
        ]
        return {"commands": commands, "argv": [sys.executable, "-m", "swapcert.cli"]}

    def op(self, state: dict, i: int):
        args, _ = state["commands"][i % len(state["commands"])]
        proc = subprocess.run(state["argv"] + args, capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, state: dict, i: int, out) -> str | None:
        args, expect = state["commands"][i % len(state["commands"])]
        code, stdout, stderr = out
        want_code = expect.get("code", 0)
        if code != want_code:
            return f"{args[0]} exited {code}, expected {want_code}: {stderr.strip()[-200:]}"
        try:
            problem = CLI_ORACLES[args[0]](stdout, expect)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problem = f"output does not parse: {exc!r}"
        return f"{args[0]}: {problem}" if problem else None


def _check_report(stdout: str, expect: dict) -> str | None:
    payload = json.loads(stdout)
    report = payload["report"]
    if "s" in expect and (report["s_ac"] != expect["s"]):
        return f"s_ac {report['s_ac']} != {expect['s']}"
    if "values" in expect and report["s_ab_given_c"] != expect["values"]:
        return f"conditional values {report['s_ab_given_c']} != {expect['values']}"
    return None


def _check_bound(stdout: str, expect: dict) -> str | None:
    payload = json.loads(stdout)
    if payload["sep_bound"] != expect["bound"]:
        return f"sep_bound {payload['sep_bound']} != {expect['bound']}"
    if "difference" in payload and not payload["difference"] <= 1e-4:
        return f"formula and see-saw differ by {payload['difference']}"
    return None


def _check_curve(stdout: str, expect: dict) -> str | None:
    rows = _csv_rows(stdout)
    if rows[0] != ["S", "lower", "upper"] or len(rows) != expect["rows"] + 1:
        return f"expected header and {expect['rows']} rows, got {len(rows)} lines"
    if float(rows[-1][0]) != _round9(TSIRELSON) or any(float(lo) > float(up) for _, lo, up in rows[1:]):
        return "curve does not end at 2*sqrt(2) with ordered bounds"
    return None


def _check_sample(stdout: str, expect: dict) -> str | None:
    rows = _csv_rows(stdout)
    if len(rows) != 1 + 2 * 2 * 3 * 16:
        return f"expected 193 CSV lines, got {len(rows)}"
    totals: dict[tuple[str, ...], int] = {}
    for row in rows[1:]:
        totals[tuple(row[:3])] = totals.get(tuple(row[:3]), 0) + int(row[6])
    if set(totals.values()) != {expect["n"]}:
        return f"per-setting totals {sorted(set(totals.values()))} != {expect['n']}"
    return None


CLI_ORACLES = {
    "ideal": _check_report,
    "noisy": _check_report,
    "certify": _check_report,
    "decompose": _check_bound,
    "sep-bound": _check_bound,
    "bounds-curve": _check_curve,
    "sample": _check_sample,
}

WORKLOADS = {wl.name: wl for wl in (ExactGrid(), SampleCertify(), SepBoundMix(), CliCold())}
