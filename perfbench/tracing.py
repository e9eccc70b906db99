"""Spans around calls into the swapcert layers, recorded from outside the package.

Each public function of a layer module is replaced by a wrapper in *every*
swapcert namespace that holds it: ``protocol`` and ``certify`` import
``tensor`` by name, so patching ``linalg`` alone would miss their calls.
Public methods and ``__post_init__`` of the classes a layer defines are wrapped
on the class, which counts the validation the dataclasses run on creation.

Spans are kept in memory as ``[name, tag, start, end, parent, op, error,
bytes]`` and written out at the end; self times are computed from them
afterwards. ``bytes`` is the CSV text a counts-table call wrote or parsed.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import statistics
import sys
import time
from pathlib import Path

LAYERS = ("linalg", "measurements", "protocol", "certify", "blocks", "serialize", "cli")

# Calls whose cost depends on the observable dimension are tagged with it.
TAGGERS = {
    "blocks.jordan_blocks": lambda args, kwargs: f"d{(args[0] if args else kwargs['a0']).dim}",
    "blocks.sep_bound_oracle": lambda args, kwargs: f"d{(args[1] if len(args) > 1 else kwargs['dims'])[0]}",
}

# Size of the CSV text each counts-table conversion produced or consumed.
SIZERS = {
    "serialize.counts_to_csv": lambda args, kwargs, result: len(result),
    "serialize.counts_from_csv": lambda args, kwargs, result: len(args[0] if args else kwargs["text"]),
}

NAME, TAG, START, END, PARENT, OP, ERROR, BYTES = range(8)


class Tracer:
    """Installs span-recording wrappers into the swapcert modules."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        tracer = self
        tagger = TAGGERS.get(name)
        sizer = SIZERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            rec = [name, tagger(args, kwargs) if tagger else "", 0.0, 0.0,
                   stack[-1] if stack else -1, tracer.op, False, 0]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
                if sizer is not None:
                    rec[BYTES] = sizer(args, kwargs, result)
                return result
            except Exception as exc:
                # Count an exception once, in the innermost layer it left.
                if not getattr(exc, "_perfbench_counted", False):
                    rec[ERROR] = True
                    try:
                        exc._perfbench_counted = True
                    except AttributeError:
                        pass
                raise
            finally:
                rec[END] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"swapcert.{layer}") for layer in LAYERS}
        replacement: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replacement[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (meth == "__post_init__" or not meth.startswith("_")):
                            self._restore.append((obj, meth, fn))
                            setattr(obj, meth, self._wrap(f"{layer}.{attr}.{meth}", fn))
        namespaces = [m for n, m in sys.modules.items() if n == "swapcert" or n.startswith("swapcert.")]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                wrapper = replacement.get(id(obj))
                if wrapper is not None:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()



def write_spans(spans: list[list], path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(spans)


def read_spans(path: Path) -> list[list]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [[r[0], r[1], float(r[2]), float(r[3]), int(r[4]), int(r[5]), r[6] == "True", int(r[7])]
                for r in csv.reader(fh)]


def layer_metrics(spans: list[list], n_ops: int) -> dict[str, float]:
    """Per-layer counts and times from one set of spans (parents index that set)."""
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child_time[rec[PARENT]] += rec[END] - rec[START]
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    errors = dict.fromkeys(LAYERS, 0)
    csv_bytes = 0
    durations: dict[str, list[float]] = {}
    for k, rec in enumerate(spans):
        layer = rec[NAME].split(".", 1)[0]
        dur = rec[END] - rec[START]
        self_s[layer] += dur - child_time[k]
        calls[layer] += 1
        errors[layer] += rec[ERROR]
        csv_bytes += rec[BYTES]
        key = f"{rec[NAME]}.{rec[TAG]}" if rec[TAG] else rec[NAME]
        durations.setdefault(key, []).append(dur)
    per_op = 1.0 / max(n_ops, 1)

    def median_ms(key: str) -> float:
        return 1e3 * statistics.median(durations[key]) if key in durations else 0.0

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls_per_op"] = calls[layer] * per_op
        out[f"{layer}.errors"] = float(errors[layer])
        if layer != "cli":
            out[f"{layer}.self_ms_per_op"] = 1e3 * self_s[layer] * per_op
    out["protocol.joint_distribution.calls_per_op"] = len(durations.get("protocol.joint_distribution", ())) * per_op
    out["linalg.tensor.calls_per_op"] = len(durations.get("linalg.tensor", ())) * per_op
    for fn in ("protocol.exact_report", "protocol.sample_counts", "protocol.estimate_report",
               "serialize.counts_to_csv", "serialize.counts_from_csv", "certify.relabel",
               "blocks.block_chsh"):
        out[f"{fn}.ms"] = median_ms(fn)
    for d in (2, 4, 8, 16):
        out[f"blocks.jordan_blocks.ms.d{d}"] = median_ms(f"blocks.jordan_blocks.d{d}")
        out[f"blocks.sep_bound_oracle.ms.d{d}"] = median_ms(f"blocks.sep_bound_oracle.d{d}")
    out["serialize.csv_bytes_per_op"] = csv_bytes * per_op
    out["cli.main_ms"] = median_ms("cli.main")
    return out
