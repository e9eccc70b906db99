"""Traced stand-in for ``python -m swapcert.cli``, used by the traced cli_cold run.

    python cli_shim.py <span_dir> <swapcert arguments...>

Runs ``swapcert.cli.main`` with the benchmark's tracer installed, then writes
the spans to ``<span_dir>/<pid>.csv`` and the time spent inside this process,
from its first statement to its end, to ``<span_dir>/<pid>.ms``.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402


def main() -> int:
    span_dir, args = Path(sys.argv[1]), sys.argv[2:]
    import swapcert.cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = swapcert.cli.main(args)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    stem = span_dir / str(os.getpid())
    tracing.write_spans(tracer.spans, stem.with_suffix(".csv"))
    stem.with_suffix(".ms").write_text(repr(1e3 * (time.perf_counter() - _START)), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
