"""JSON and CSV exchange formats.

Complex matrices serialize as ``{"rows": n, "cols": m, "data": [[re, im], ...]}``
with the data flat in row-major order. Floats are written with 9 significant
digits everywhere, which makes all emitted files byte-stable across runs.
Counts tables use CSV with header ``x,y,z,a,b,c,count``.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import re
from typing import Any, Sequence

import numpy as np

from .linalg import DEFAULT_TOL, DensityMatrix, ValidationError
from .measurements import BinnedMeasurement, DichotomicObservable, FourOutcomeMeasurement
from .protocol import _INT64_MAX, ChshReport, CountsTable, ReportStdErr, Scenario

COUNTS_HEADER = ["x", "y", "z", "a", "b", "c", "count"]


def round9(x: float) -> float:
    """Round to 9 significant digits, the fixed output precision."""
    return float(f"{x:.9g}")


def _round_tree(obj: Any) -> Any:
    """A payload as plain JSON values: floats at 9 digits, a non-finite float as None.

    A dataclass instance becomes a dict of its fields keyed by field name, and
    an array the matrix object of :func:`matrix_to_json` (a vector as a column).
    """
    if isinstance(obj, float):
        return round9(obj) if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _round_tree(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_tree(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _round_tree(matrix_to_json(obj))
    if dataclasses.is_dataclass(obj):
        return {f.name: _round_tree(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    return obj


def json_dumps(obj: Any) -> str:
    """Deterministic JSON with 9-significant-digit floats; see :func:`_round_tree` for objects."""
    return json.dumps(_round_tree(obj), indent=2, sort_keys=True)


def _json_list(value: Any, name: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"{name}: expected a list, got {type(value).__name__}")
    return value


def _int_list(value: Any, name: str) -> tuple[int, ...]:
    items = _json_list(value, name)
    if any(isinstance(v, bool) or not isinstance(v, int) for v in items):
        raise ValidationError(f"{name}: expected a list of integers, got {value!r}")
    return tuple(items)


def _dims(value: Any, name: str, count: int) -> tuple[int, ...]:
    dims = _int_list(value, name)
    if len(dims) != count or min(dims) < 1:
        raise ValidationError(f"{name}: expected {count} positive integers, got {value!r}")
    return dims


def _flatten(obj: Any, prefix: str = "") -> list[tuple[str, Any]]:
    rows: list[tuple[str, Any]] = []
    if isinstance(obj, dict):
        for key in sorted(obj):
            rows.extend(_flatten(obj[key], f"{prefix}{key}." if prefix else f"{key}."))
    elif isinstance(obj, (list, tuple)):
        for idx, item in enumerate(obj):
            rows.extend(_flatten(item, f"{prefix}{idx}."))
    else:
        rows.append((prefix.rstrip("."), obj))
    return rows


def key_value_csv(obj: Any) -> str:
    """A nested payload as ``key,value`` rows with dotted keys, in sorted key order."""
    return "\n".join(["key,value", *(f"{key},{value}" for key, value in _flatten(_round_tree(obj)))])


def matrix_to_json(mat: np.ndarray) -> dict:
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim == 1:
        mat = mat.reshape(-1, 1)
    return {
        "rows": int(mat.shape[0]),
        "cols": int(mat.shape[1]),
        "data": [[float(z.real), float(z.imag)] for z in mat.reshape(-1)],
    }


def matrix_from_json(obj: Any, name: str = "matrix") -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValidationError(f"{name}: expected an object, got {type(obj).__name__}")
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    except KeyError as exc:
        raise ValidationError(f"{name}: missing rows/cols/data ({exc})") from None
    rows, cols = _int_list([rows, cols], f"{name} rows/cols")
    if rows < 1 or cols < 1:
        raise ValidationError(f"{name}: rows and cols must be positive, got {rows}x{cols}")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise ValidationError(f"{name}: data length {len(data) if isinstance(data, list) else '?'} "
                              f"does not equal rows*cols = {rows * cols}")
    out = np.empty(rows * cols, dtype=complex)
    for k, cell in enumerate(data):
        if not (isinstance(cell, list) and len(cell) == 2
                and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in cell)):
            raise ValidationError(f"{name}: entry {k} is not an [re, im] pair of numbers")
        out[k] = complex(float(cell[0]), float(cell[1]))
    if not np.all(np.isfinite(out)):
        raise ValidationError(f"{name}: non-finite entries")
    return out.reshape(rows, cols)


def measurement_to_json(meas: FourOutcomeMeasurement) -> dict:
    return {"dims": list(meas.dims), "projectors": [matrix_to_json(p) for p in meas.projectors]}


# A matrix written at 9 significant digits reads back a few 1e-9 off the
# checks of an observable or a measurement; up to this far off, it is snapped
# back on load.
SNAP_TOL = 1e-6


def measurement_from_json(obj: Any, name: str = "measurement") -> FourOutcomeMeasurement:
    """Parse a measurement, snapping one that :func:`json_dumps` rounded back onto a projective one.

    Projectors that pass the checks of :class:`FourOutcomeMeasurement` at
    their default tolerance load unchanged. Ones that fail them but pass them
    at ``SNAP_TOL`` are replaced by the eigenprojectors of the Hermitian part
    of sum_k k * P_k, each eigenvector going to the outcome k nearest its
    eigenvalue; the result is checked again. Anything further off raises the
    error of the default-tolerance checks.
    """
    if not isinstance(obj, dict) or "projectors" not in obj:
        raise ValidationError(f"{name}: expected object with 'projectors'")
    projectors = _json_list(obj["projectors"], f"{name} projectors")
    projs = tuple(matrix_from_json(p, f"{name} projector {k + 1}") for k, p in enumerate(projectors))
    if "dims" in obj:
        dims = _dims(obj["dims"], f"{name} dims", 2)
    else:
        side = projs[0].shape[0] if projs else 0
        root = int(round(math.sqrt(side)))
        if root * root != side:
            raise ValidationError(f"{name}: cannot infer dims for side {side}; provide 'dims'")
        dims = (root, root)
    try:
        return FourOutcomeMeasurement(projs, dims)
    except ValidationError as exc:
        try:
            FourOutcomeMeasurement(projs, dims, SNAP_TOL)
        except ValidationError:
            raise exc from None
    labeled = sum(k * p for k, p in enumerate(projs, start=1))
    w, v = np.linalg.eigh((labeled + labeled.conj().T) / 2.0)
    outcome = np.clip(np.rint(w), 1, 4)
    return FourOutcomeMeasurement(tuple((v * (outcome == k)) @ v.conj().T for k in (1, 2, 3, 4)), dims)


def binned_to_json(binned: BinnedMeasurement) -> dict:
    out = measurement_to_json(binned.base)
    out["bit_for_A"] = list(binned.bit_for_a)
    out["bit_for_B"] = list(binned.bit_for_b)
    return out


def binned_from_json(obj: Any, name: str = "binned measurement") -> BinnedMeasurement:
    base = measurement_from_json(obj, name)
    for key in ("bit_for_A", "bit_for_B"):
        if key not in obj:
            raise ValidationError(f"{name}: missing '{key}'")
    return BinnedMeasurement(base, _int_list(obj["bit_for_A"], f"{name} bit_for_A"),
                             _int_list(obj["bit_for_B"], f"{name} bit_for_B"))


def observable_to_json(obs: DichotomicObservable) -> dict:
    return matrix_to_json(obs.matrix)


def observable_from_json(obj: Any, name: str = "observable") -> DichotomicObservable:
    """Parse an observable, snapping one that :func:`json_dumps` rounded back onto a +/-1 observable.

    A matrix that passes the checks of :class:`DichotomicObservable` at their
    default tolerance loads unchanged. One that fails them but passes them at
    ``SNAP_TOL`` is replaced by sign(H) of its Hermitian part H, from
    ``eigh``: the nearest Hermitian involution. Anything further off raises
    the error of the default-tolerance checks.
    """
    mat = matrix_from_json(obj, name)
    try:
        return DichotomicObservable(mat)
    except ValidationError as exc:
        try:
            DichotomicObservable(mat, SNAP_TOL)
        except ValidationError:
            raise exc from None
    w, v = np.linalg.eigh((mat + mat.conj().T) / 2.0)
    return DichotomicObservable((v * np.sign(w)) @ v.conj().T)


def scenario_to_json(sc: Scenario) -> dict:
    return {
        "dims": list(sc.dims),
        "state": matrix_to_json(sc.state.matrix),
        "alice": [observable_to_json(o) for o in sc.alice],
        "bob": [observable_to_json(o) for o in sc.bob],
        "charlie12": [binned_to_json(b) for b in sc.charlie12],
        "charlie3": measurement_to_json(sc.charlie3),
    }


def scenario_from_json(obj: Any) -> Scenario:
    if not isinstance(obj, dict):
        raise ValidationError("scenario: expected a JSON object")
    for key in ("dims", "state", "alice", "bob", "charlie12", "charlie3"):
        if key not in obj:
            raise ValidationError(f"scenario: missing '{key}'")
    dims = _dims(obj["dims"], "scenario dims", 4)
    state = DensityMatrix(matrix_from_json(obj["state"], "state"), dims)
    alice = tuple(observable_from_json(o, f"alice setting {k + 1}")
                  for k, o in enumerate(_json_list(obj["alice"], "alice")))
    bob = tuple(observable_from_json(o, f"bob setting {k + 1}")
                for k, o in enumerate(_json_list(obj["bob"], "bob")))
    charlie12 = tuple(binned_from_json(b, f"charlie setting {k + 1}")
                      for k, b in enumerate(_json_list(obj["charlie12"], "charlie12")))
    charlie3 = measurement_from_json(obj["charlie3"], "charlie3")
    return Scenario(state, alice, bob, charlie12, charlie3)


def report_to_json(report: ChshReport) -> dict:
    """The report as :func:`json_dumps` writes it: undefined values null, the relabeling 1-based."""
    return {**_round_tree(report), "relabeling": [slot + 1 for slot in report.relabeling]}


# A parsed report may sit above 2*sqrt(2) by sampling noise, but no CHSH
# value of +/-1 correlators exceeds 4 in magnitude.
CHSH_ALGEBRAIC_MAX = 4.0
# Probabilities written at 9 significant digits sum to 1 within about 2e-9.
PROB_SUM_TOL = 1e-6


def _report_number(value: Any, name: str, nullable: bool = False) -> float:
    """A finite JSON number, or NaN for ``null`` where a value may be undefined."""
    if value is None and nullable:
        return math.nan
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValidationError(f"report: {name} must be a finite number, got {value!r}")
    return float(value)


def _report_list(values: Any, name: str, nullable: bool = False) -> tuple[float, ...]:
    if not isinstance(values, list) or len(values) != 4:
        raise ValidationError(f"report: {name} must list four values")
    return tuple(_report_number(v, f"{name}[{k}]", nullable) for k, v in enumerate(values))


def report_from_json(obj: Any) -> ChshReport:
    """Parse a report, rejecting any that no CHSH experiment could produce.

    The relabeling must be a permutation of 1..4, the outcome probabilities a
    distribution (to ``PROB_SUM_TOL``), every CHSH value at most 4 in
    magnitude, and ``stderr`` either null or complete. The quantum ceiling
    2*sqrt(2) is not applied: sampled values can exceed it.
    """
    if not isinstance(obj, dict):
        raise ValidationError("report: expected a JSON object")
    for key in ("s_ac", "s_bc", "s_ab_given_c", "outcome_probs", "relabeling"):
        if key not in obj:
            raise ValidationError(f"report: missing '{key}'")
    s_ac = _report_number(obj["s_ac"], "s_ac")
    s_bc = _report_number(obj["s_bc"], "s_bc")
    values = _report_list(obj["s_ab_given_c"], "s_ab_given_c", nullable=True)
    for value in (s_ac, s_bc, *values):  # NaN (undefined) compares False
        if abs(value) > CHSH_ALGEBRAIC_MAX:
            raise ValidationError(f"report: CHSH value {value} exceeds the algebraic maximum 4")
    probs = _report_list(obj["outcome_probs"], "outcome_probs")
    if min(probs) < -DEFAULT_TOL or abs(sum(probs) - 1.0) > PROB_SUM_TOL:
        raise ValidationError(f"report: outcome_probs {list(probs)} are not a probability distribution")
    slots = obj["relabeling"]
    if (not isinstance(slots, list) or any(isinstance(s, bool) or not isinstance(s, int) for s in slots)
            or sorted(slots) != [1, 2, 3, 4]):
        raise ValidationError(f"report: relabeling {slots!r} is not a permutation of 1..4")
    stderr = None
    if obj.get("stderr") is not None:
        block = obj["stderr"]
        if not isinstance(block, dict) or any(k not in block for k in ("s_ac", "s_bc", "s_ab_given_c")):
            raise ValidationError("report: stderr must hold s_ac, s_bc and s_ab_given_c")
        stderr = ReportStdErr(
            _report_number(block["s_ac"], "stderr.s_ac"),
            _report_number(block["s_bc"], "stderr.s_bc"),
            _report_list(block["s_ab_given_c"], "stderr.s_ab_given_c", nullable=True),
        )
        if any(v < 0 for v in (stderr.s_ac, stderr.s_bc, *stderr.s_ab_given_c)):
            raise ValidationError("report: standard errors must be nonnegative")
    return ChshReport(
        s_ac=s_ac,
        s_bc=s_bc,
        s_ab_given_c=values,
        outcome_probs=probs,
        relabeling=tuple(s - 1 for s in slots),
        stderr=stderr,
    )


# The row prefix "x,y,z,a,b,c," of every cell of a counts table in the table's
# C order (outcome +1 at index 0, -1 at index 1).
_COUNTS_ROW_PREFIXES = tuple(
    f"{x},{y},{z},{a},{b},{c},"
    for x in (1, 2) for y in (1, 2) for z in (1, 2, 3)
    for a in (1, -1) for b in (1, -1) for c in (1, 2, 3, 4)
)
_COUNTS_SHAPE = (2, 2, 3, 2, 2, 4)
_CELLS_PER_TRIPLE = 16
_COUNTS_HEADER_LINE = ",".join(COUNTS_HEADER)
# The 192 counts of a file in the writer's layout, joined by commas: each one
# ASCII digits without a leading zero, at most 18 of them, so below 10**18 and
# within int64. Handed to ``re``, whose cache compiles it on first use.
_WRITER_COUNTS = r"(?:0|[1-9][0-9]{0,17})(?:,(?:0|[1-9][0-9]{0,17})){191}"


def counts_to_csv(table: CountsTable) -> str:
    """All cells of a counts table, zeros included, in fixed row order."""
    counts = table.counts.reshape(-1).tolist()
    return _COUNTS_HEADER_LINE + "\n" + "".join(f"{p}{n}\n" for p, n in zip(_COUNTS_ROW_PREFIXES, counts))


def _writer_counts(text: str) -> np.ndarray | None:
    """The 192 counts of ``text``, flat in cell order, if it is laid out exactly as :func:`counts_to_csv` writes.

    That layout is the header, then each cell's canonical prefix and count in
    the writer's row order, every line ended by ``\\n``. Any other text gives
    None, also a count of 19 digits or more.
    """
    lines = text.split("\n", len(_COUNTS_ROW_PREFIXES) + 1)
    if len(lines) != len(_COUNTS_ROW_PREFIXES) + 2 or lines[0] != _COUNTS_HEADER_LINE or lines[-1]:
        return None
    rows = lines[1:-1]
    if not all(map(str.startswith, rows, _COUNTS_ROW_PREFIXES)):
        return None
    fields = ",".join(map(str.removeprefix, rows, _COUNTS_ROW_PREFIXES))
    if not re.fullmatch(_WRITER_COUNTS, fields):
        return None
    return np.fromstring(fields, dtype=np.int64, sep=",")


def _read_rows(text: str) -> tuple[np.ndarray, np.ndarray]:
    """The counts of a counts CSV and the flat cell index of each, row by row through :mod:`csv`.

    Quoting, CRLF line ends and blank lines are handled by :mod:`csv`. Every
    field goes through ``int()``, so spellings such as ``+1``, ``01`` or a
    leading space are accepted, and the cell index is read from the parsed
    integers. Within a line the checks fire in this order: 7 fields, every
    field an integer, setting in range, outcome in range,
    count nonnegative, count within int64; the first bad line is reported.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValidationError("counts CSV is empty") from None
    if [h.strip() for h in header] != COUNTS_HEADER:
        raise ValidationError(f"line 1: expected header {_COUNTS_HEADER_LINE}")
    keys: list[tuple[int, ...]] = []
    values: list[int] = []
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 7:
            raise ValidationError(f"line {lineno}: expected 7 fields, got {len(row)}")
        try:
            x, y, z, a, b, c, n = map(int, row)
        except ValueError:
            raise ValidationError(f"line {lineno}: non-integer field") from None
        if x not in (1, 2) or y not in (1, 2) or z not in (1, 2, 3):
            raise ValidationError(f"line {lineno}: setting ({x},{y},{z}) out of range")
        if a not in (1, -1) or b not in (1, -1) or c not in (1, 2, 3, 4):
            raise ValidationError(f"line {lineno}: outcome ({a},{b},{c}) out of range")
        if n < 0:
            raise ValidationError(f"line {lineno}: negative count")
        if n > _INT64_MAX:
            raise ValidationError(f"line {lineno}: count {n} does not fit in int64")
        keys.append((x - 1, y - 1, z - 1, (1 - a) // 2, (1 - b) // 2, c - 1))
        values.append(n)
    cells = np.ravel_multi_index(np.array(keys, dtype=np.intp).reshape(-1, 6).T, _COUNTS_SHAPE)
    return np.array(values, dtype=np.int64), cells


def counts_from_csv(text: str) -> CountsTable:
    """Parse a counts CSV; malformed rows are reported with their line number.

    Text laid out exactly as :func:`counts_to_csv` writes it is read in one
    match (:func:`_writer_counts`); any other text row by row
    (:func:`_read_rows`), which names the first bad line. The grand total
    must fit in int64, checked before rows that name the same cell are added
    up, as ``np.add.at`` wraps; every setting triple must have a row.
    :class:`CountsTable` checks the rest.
    """
    values, cells = _writer_counts(text), None
    if values is None:
        values, cells = _read_rows(text)
    if sum(values.tolist()) > _INT64_MAX:
        raise ValidationError("total count does not fit in int64")
    if cells is not None:  # rows that name the same cell add up
        missing = np.argwhere(np.bincount(cells // _CELLS_PER_TRIPLE, minlength=12).reshape(2, 2, 3) == 0)
        if missing.size:
            x, y, z = missing[0] + 1
            raise ValidationError(f"empty cells: no rows for setting triple ({x},{y},{z})")
        counts = np.zeros(len(_COUNTS_ROW_PREFIXES), dtype=np.int64)
        np.add.at(counts, cells, values)
        values = counts
    return CountsTable(values.reshape(_COUNTS_SHAPE))


def bounds_curve_csv(rows: Sequence[tuple[float, float, float]]) -> str:
    """CSV with columns S, lower, upper at 9 significant digits."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["S", "lower", "upper"])
    for s, lower, upper in rows:
        writer.writerow([f"{s:.9g}", f"{lower:.9g}", f"{upper:.9g}"])
    return buf.getvalue()
