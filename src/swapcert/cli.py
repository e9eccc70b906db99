"""Command-line front end.

Subcommands: ideal | noisy | certify | bounds-curve | decompose | sep-bound |
sample. Exit codes: 0 success or certification pass, 1 certification fail,
2 usage error, 3 validation error (malformed or inconsistent input files),
4 internal error (any other exception, so that a crash never reads as a
certification verdict).
The default tolerance can be set through the SWAPCERT_TOL environment
variable; commands that draw samples require an explicit seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import blocks, certify, protocol, serialize
from .linalg import DEFAULT_TOL, ValidationError
from .measurements import CANONICAL_BIT_FOR_A, CANONICAL_BIT_FOR_B

EXIT_OK = 0
EXIT_CERT_FAIL = 1
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_INTERNAL = 4

TOL_ENV_VAR = "SWAPCERT_TOL"

# bounds-curve: grid points at most. A fresh process at 1e5 points takes about
# 0.8 s and 60 MB (2 vCPUs); each point adds about 5 us and 0.3 KB to start-up.
MAX_STEPS = 100_000

# sep-bound: decimals of the printed |sep_bound - oracle_value|, a resolution
# of 1e-12. Where the two agree they meet within a few 1e-15, so rounding noise
# prints as 0.0; a real gap (4.0 for commuting parties) still shows.
DIFFERENCE_DECIMALS = 12


class UsageError(Exception):
    pass


def _default_tol() -> float:
    raw = os.environ.get(TOL_ENV_VAR)
    if raw is None:
        return DEFAULT_TOL
    try:
        tol = float(raw)
    except ValueError:
        raise UsageError(f"{TOL_ENV_VAR}={raw!r} is not a number") from None
    if not (math.isfinite(tol) and tol >= 0):
        raise UsageError(f"{TOL_ENV_VAR}={raw!r} is not finite and nonnegative")
    return tol


def _tolerance(value: float | None, flag: str = "--tol") -> float:
    """A tolerance flag's value, or the default when the flag is absent."""
    if value is None:
        return _default_tol()
    if not (math.isfinite(value) and value >= 0):
        raise UsageError(f"{flag} must be finite and nonnegative, got {value}")
    return value


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise UsageError(f"--seed must be a nonnegative integer, got {seed}")


# The noise flags and the value each takes when it is not given.
_NOISE_DEFAULTS = {"v_ac": 1.0, "v_bc": 1.0, "theta": 0.0}


def _noisy_scenario(args: argparse.Namespace) -> protocol.Scenario:
    """The scenario named by the --v-ac, --v-bc and --theta flags, each absent one at its default."""
    v_ac, v_bc, theta = (default if getattr(args, dest) is None else getattr(args, dest)
                         for dest, default in _NOISE_DEFAULTS.items())
    for name, value in (("--v-ac", v_ac), ("--v-bc", v_bc)):
        if not 0.0 <= value <= 1.0:
            raise UsageError(f"{name} must lie in [0, 1], got {value}")
    if not math.isfinite(theta):
        raise UsageError(f"--theta must be finite, got {theta}")
    return protocol.noisy_scenario(v_ac, v_bc, theta)


def _write_output(text: str, out: str | None) -> None:
    """Write ``text``, ending in a newline, to the ``--out`` path or to stdout.

    An ``--out`` that cannot be written is a usage error. A reader that closes
    stdout early ends the output, not the run: stdout is pointed at
    ``os.devnull``, as the ``signal`` module's docs advise for SIGPIPE, and
    the command goes on to return its own code.
    """
    text = text if text.endswith("\n") else text + "\n"
    if out is not None and out != "-":
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"cannot write --out {out}: {exc.strerror or exc}") from None
        return
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _render(payload: dict, fmt: str) -> str:
    return serialize.json_dumps(payload) if fmt == "json" else serialize.key_value_csv(payload)


def _report_payload(report: protocol.ChshReport, tol: float) -> tuple[dict, list[certify.Verdict]]:
    verdicts = [
        certify.certify_crit1(report.s_ac, report.s_bc, report.s_ab_given_c, tol),
        certify.certify_crit2(report.s_ac, report.s_bc, report.s_ab_given_c, tol),
    ]
    payload = {"report": serialize.report_to_json(report), "verdicts": verdicts}
    try:
        payload["distance_bounds"] = certify.distance_bounds(report.s_ab_given_c)
    except ValidationError:
        payload["distance_bounds"] = None
    return payload, verdicts


def cmd_ideal(args: argparse.Namespace) -> int:
    tol = _tolerance(args.tol)
    report = protocol.exact_report(protocol.ideal_scenario())
    payload, verdicts = _report_payload(report, tol)
    _write_output(_render(payload, args.format), args.out)
    return EXIT_OK if all(v.passed for v in verdicts) else EXIT_CERT_FAIL


def cmd_noisy(args: argparse.Namespace) -> int:
    sc = _noisy_scenario(args)
    tol = _tolerance(args.tol)
    payload, _ = _report_payload(protocol.exact_report(sc), tol)
    _write_output(_render(payload, args.format), args.out)
    return EXIT_OK


def _load_input(path_str: str, counts_ok: bool = False) -> Any:
    """The parsed JSON of an input file; a file that cannot be read or parsed is a validation error.

    With ``counts_ok`` a file that is neither named ``*.json`` nor starts
    with ``{`` is parsed as a counts CSV and returned as a ``CountsTable``.
    """
    path = Path(path_str)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path.name}: {exc}") from None
    if counts_ok and path.suffix.lower() != ".json" and not text.lstrip().startswith("{"):
        return serialize.counts_from_csv(text)
    try:
        return json.loads(text)
    # a decode error, an integer past Python's 4300-digit limit, or nesting past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{path.name}: {exc}") from None


def cmd_certify(args: argparse.Namespace) -> int:
    if args.tol is not None and args.tol_sigma is not None:
        raise UsageError("--tol and --tol-sigma are mutually exclusive")
    if args.tol_sigma is None:
        tol = _tolerance(args.tol)
    else:
        sigmas = _tolerance(args.tol_sigma, "--tol-sigma")
    data = _load_input(args.input, counts_ok=True)
    if isinstance(data, protocol.CountsTable):
        report = protocol.estimate_report(data)
    else:
        report = serialize.report_from_json(data)
    if args.tol_sigma is not None:
        if report.stderr is None:
            raise UsageError("--tol-sigma needs a report with standard errors (counts input)")
        tol = sigmas * max(report.stderr.s_ac, report.stderr.s_bc)
    for c, value in enumerate(report.s_ab_given_c):
        if not math.isfinite(value):
            raise ValidationError(f"report is missing the conditional value for outcome {c + 1}")
    payload, verdicts = _report_payload(report, tol)
    _write_output(_render(payload, args.format), args.out)
    return EXIT_OK if verdicts[0].passed else EXIT_CERT_FAIL


def cmd_bounds_curve(args: argparse.Namespace) -> int:
    if not (0.0 <= args.s_min <= args.s_max <= certify.QUANTUM_CEILING):
        raise UsageError(
            f"need 0 <= s-min <= s-max <= {certify.TSIRELSON:.9g}, "
            f"got [{args.s_min}, {args.s_max}]"
        )
    if args.steps < 1:
        raise UsageError("--steps must be at least 1")
    if args.steps > MAX_STEPS:
        raise UsageError(f"--steps must be at most {MAX_STEPS}")
    grid = np.linspace(args.s_min, args.s_max, args.steps)
    rows = []
    for s in grid:
        bounds = certify.distance_bounds([float(s)] * 4)
        rows.append((float(s), bounds.lower, bounds.upper))
    if args.format == "json":
        payload = [{"S": s, "lower": lo, "upper": up} for s, lo, up in rows]
        _write_output(serialize.json_dumps(payload), args.out)
    else:
        _write_output(serialize.bounds_curve_csv(rows), args.out)
    return EXIT_OK


def _load_settings(path_str: str) -> tuple:
    obj = _load_input(path_str)
    name = Path(path_str).name
    if not isinstance(obj, dict):
        raise ValidationError(f"{name}: expected a JSON object")
    out = []
    for key in ("a0", "a1", "b0", "b1"):
        if key not in obj:
            raise ValidationError(f"{name}: missing observable '{key}'")
        out.append(serialize.observable_from_json(obj[key], key))
    return tuple(out)


def cmd_blocks(args: argparse.Namespace) -> int:
    """Blocks, alpha table, lambda and bound of settings (a0, a1, b0, b1), as ``decompose`` prints them.

    ``sep-bound`` adds the block-wise maximum on the same blocks and a product state reaching it.
    Its optional ``--seed`` is checked before the file is read and changes nothing.
    """
    witness = args.command == "sep-bound"
    if witness and args.seed is not None:
        _check_seed(args.seed)
    settings = _load_settings(args.settings)
    a_blocks, b_blocks = blocks.jordan_blocks(*settings[:2]), blocks.jordan_blocks(*settings[2:])
    structure = blocks.block_chsh(a_blocks, b_blocks)
    payload = {
        "a_blocks": a_blocks.blocks,
        "b_blocks": b_blocks.blocks,
        "alpha": structure.alpha.tolist(),
        "lambda": structure.lam,
        "sep_bound": structure.bound,
    }
    if witness:
        value, state = blocks.block_witness(*settings, a_blocks, b_blocks)
        difference = round(abs(structure.bound - value), DIFFERENCE_DECIMALS)
        payload.update(oracle_value=value, oracle_state=state.vector, difference=difference)
    _write_output(serialize.json_dumps(payload), args.out)
    return EXIT_OK


def cmd_sample(args: argparse.Namespace) -> int:
    if args.n_per_setting < 1:
        raise UsageError("--n-per-setting must be at least 1")
    if args.n_per_setting > protocol.MAX_N_PER_SETTING:
        raise UsageError(f"--n-per-setting must be at most {protocol.MAX_N_PER_SETTING}")
    _check_seed(args.seed)
    if args.scenario is not None:
        given = [f"--{dest.replace('_', '-')}" for dest in _NOISE_DEFAULTS if getattr(args, dest) is not None]
        if given:
            raise UsageError(f"{', '.join(given)} cannot be combined with --scenario")
        sc = serialize.scenario_from_json(_load_input(args.scenario))
        for k, binned in enumerate(sc.charlie12):
            if (binned.bit_for_a, binned.bit_for_b) != (CANONICAL_BIT_FOR_A, CANONICAL_BIT_FOR_B):
                raise ValidationError(
                    f"charlie setting {k + 1}: sample writes raw outcomes, which certify bins with "
                    f"bit_for_A {list(CANONICAL_BIT_FOR_A)} and bit_for_B {list(CANONICAL_BIT_FOR_B)}, "
                    "not this scenario's bit maps"
                )
    else:
        sc = _noisy_scenario(args)
    table = protocol.sample_counts(sc, args.n_per_setting, args.seed)
    _write_output(serialize.counts_to_csv(table), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swapcert",
        description="Simulate and certify entangled joint measurements through CHSH tests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, formats: Sequence[str] = ("json", "csv")) -> None:
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        if formats:
            p.add_argument("--format", choices=list(formats), default=formats[0],
                           help=f"output format (default: {formats[0]})")

    def add_tol(p: argparse.ArgumentParser) -> None:
        p.add_argument("--tol", type=float, default=None,
                       help=f"tolerance for the maximal-violation tests (default {TOL_ENV_VAR} or 1e-9)")

    def add_noise(p: argparse.ArgumentParser) -> None:
        p.add_argument("--v-ac", type=float, default=None, help="visibility of the first pair (default 1)")
        p.add_argument("--v-bc", type=float, default=None, help="visibility of the second pair (default 1)")
        p.add_argument("--theta", type=float, default=None,
                       help="joint-basis rotation angle in radians (default 0)")

    p = sub.add_parser("ideal", help="report and verdicts for the ideal four-qubit scenario")
    add_tol(p)
    add_common(p)
    p.set_defaults(func=cmd_ideal)

    p = sub.add_parser("noisy", help="report and verdicts for a noisy scenario")
    add_noise(p)
    add_tol(p)
    add_common(p)
    p.set_defaults(func=cmd_noisy)

    p = sub.add_parser("certify", help="verdicts and distance bounds from counts CSV or report JSON")
    p.add_argument("input", help="counts CSV or report JSON file")
    add_tol(p)
    p.add_argument("--tol-sigma", type=float, default=None,
                   help="tolerance as a multiple of the estimated standard error")
    add_common(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("bounds-curve", help="distance bounds as a function of the common CHSH value")
    p.add_argument("--s-min", type=float, default=2.0, help="first CHSH value of the grid (default 2)")
    p.add_argument("--s-max", type=float, default=certify.TSIRELSON,
                   help="last CHSH value of the grid (default 2*sqrt(2))")
    p.add_argument("--steps", type=int, default=100,
                   help=f"number of grid points, at most {MAX_STEPS} (default 100)")
    add_common(p, ("csv", "json"))
    p.set_defaults(func=cmd_bounds_curve)

    p = sub.add_parser("decompose", help="block decomposition and separable bound of CHSH settings")
    p.add_argument("settings", help="JSON file with observables a0, a1, b0, b1")
    add_common(p, ())
    p.set_defaults(func=cmd_blocks)

    p = sub.add_parser("sep-bound", help="separable bound, checked by the block-wise separable maximum")
    p.add_argument("settings", help="JSON file with observables a0, a1, b0, b1")
    p.add_argument("--seed", type=int, default=None,
                   help="optional nonnegative integer, accepted for existing command lines; does not change the output")
    add_common(p, ())
    p.set_defaults(func=cmd_blocks)

    p = sub.add_parser("sample", help="draw outcome counts from a scenario")
    p.add_argument("--n-per-setting", type=int, required=True, help="samples per setting triple")
    p.add_argument("--seed", type=int, required=True, help="nonnegative seed of the sampler")
    p.add_argument("--scenario", default=None, help="scenario JSON file (default: built from noise flags)")
    add_noise(p)
    add_common(p, ())
    p.set_defaults(func=cmd_sample)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:
        detail = str(exc).replace("\n", " ")
        print(f"internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
