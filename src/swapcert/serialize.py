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
import itertools
import json
import math
import re
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .linalg import DensityMatrix, ValidationError
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


def _is_json_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _json_number(value: Any, error: str) -> float:
    """A JSON number as a finite float; any other value raises ``ValidationError(error)``.

    ``NaN``, ``Infinity`` and an integer beyond the float range, on which
    ``float`` raises ``OverflowError``, are not finite.
    """
    if _is_json_number(value):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise ValidationError(error)


def _shown_json(value: Any) -> str:
    """``repr`` of a parsed JSON value, with a long integer cut as :func:`_shown_count` cuts it."""
    if isinstance(value, int) and not isinstance(value, bool):
        return "-" * (value < 0) + _shown_count(str(abs(value)))
    return repr(value)


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
    non_finite = f"{name}: non-finite entries"
    for k, cell in enumerate(data):
        if not (isinstance(cell, list) and len(cell) == 2 and all(map(_is_json_number, cell))):
            raise ValidationError(f"{name}: entry {k} is not an [re, im] pair of numbers")
        out[k] = complex(_json_number(cell[0], non_finite), _json_number(cell[1], non_finite))
    return out.reshape(rows, cols)


def measurement_to_json(meas: FourOutcomeMeasurement) -> dict:
    return {"dims": list(meas.dims), "projectors": [matrix_to_json(p) for p in meas.projectors]}


# A matrix written at 9 significant digits reads back a few 1e-9 off the
# checks of a state, an observable or a measurement; up to this far off, it
# is snapped back on load.
SNAP_TOL = 1e-6


def _snapped(cls: Callable[..., Any], snap: Callable[[Any], Any], value: Any, *rest: Any) -> Any:
    """``cls(value, *rest)``, or ``cls(snap(value), *rest)`` if only ``SNAP_TOL`` lets ``value`` pass.

    A value that passes the checks of ``cls`` at their default tolerance
    loads unchanged. One that fails them but passes them at ``SNAP_TOL`` is
    replaced by ``snap(value)`` and checked again. Anything further off
    raises the error of the default-tolerance checks.
    """
    try:
        return cls(value, *rest)
    except ValidationError as exc:
        try:
            cls(value, *rest, SNAP_TOL)
        except ValidationError:
            raise exc from None
    return cls(snap(value), *rest)


def _projective(projs: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    """The eigenprojectors of the Hermitian part of sum_k k * P_k.

    Each eigenvector goes to the outcome k nearest its eigenvalue.
    """
    labeled = sum(k * p for k, p in enumerate(projs, start=1))
    w, v = np.linalg.eigh((labeled + labeled.conj().T) / 2.0)
    outcome = np.clip(np.rint(w), 1, 4)
    return tuple((v * (outcome == k)) @ v.conj().T for k in (1, 2, 3, 4))


def _involution(mat: np.ndarray) -> np.ndarray:
    """sign(H) of the Hermitian part H of ``mat``, from ``eigh``: the nearest Hermitian involution."""
    w, v = np.linalg.eigh((mat + mat.conj().T) / 2.0)
    return (v * np.sign(w)) @ v.conj().T


def _density(mat: np.ndarray) -> np.ndarray:
    """The Hermitian part of ``mat`` with its negative eigenvalues set to 0 and its trace scaled to 1."""
    w, v = np.linalg.eigh((mat + mat.conj().T) / 2.0)
    w = np.clip(w, 0.0, None)
    return (v * (w / w.sum())) @ v.conj().T


def measurement_from_json(obj: Any, name: str = "measurement") -> FourOutcomeMeasurement:
    """Parse a measurement, snapping one that :func:`json_dumps` rounded back onto a projective one.

    The snap (:func:`_snapped`) replaces the projectors by :func:`_projective`.
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
    return _snapped(FourOutcomeMeasurement, _projective, projs, dims)


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

    The snap (:func:`_snapped`) replaces the matrix by :func:`_involution`.
    """
    return _snapped(DichotomicObservable, _involution, matrix_from_json(obj, name))


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
    """Parse a scenario; its state, observables and measurements snap on load as :func:`_snapped` does."""
    if not isinstance(obj, dict):
        raise ValidationError("scenario: expected a JSON object")
    for key in ("dims", "state", "alice", "bob", "charlie12", "charlie3"):
        if key not in obj:
            raise ValidationError(f"scenario: missing '{key}'")
    dims = _dims(obj["dims"], "scenario dims", 4)
    state = _snapped(DensityMatrix, _density, matrix_from_json(obj["state"], "state"), dims)
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


def _report_number(value: Any, name: str, nullable: bool = False) -> float:
    """A finite JSON number, or NaN for ``null`` where a value may be undefined."""
    if value is None and nullable:
        return math.nan
    return _json_number(value, f"{name} must be a finite number, got {_shown_json(value)}")


def _report_list(values: Any, name: str, nullable: bool = False) -> tuple[float, ...]:
    if not isinstance(values, list) or len(values) != 4:
        raise ValidationError(f"{name} must list four values")
    return tuple(_report_number(v, f"{name}[{k}]", nullable) for k, v in enumerate(values))


def report_from_json(obj: Any) -> ChshReport:
    """Parse a report; every error, the reader's or :class:`ChshReport`'s, starts ``report: ``.

    The reader checks only the JSON: the keys, finite numbers (``null``
    where a value may be undefined), four values per list, a list of
    integers for the relabeling, and ``stderr`` null or complete. The rules
    of a report are those of :class:`ChshReport` and :class:`ReportStdErr`.
    """
    try:
        if not isinstance(obj, dict):
            raise ValidationError("expected a JSON object")
        for key in ("s_ac", "s_bc", "s_ab_given_c", "outcome_probs", "relabeling"):
            if key not in obj:
                raise ValidationError(f"missing '{key}'")
        s_ac = _report_number(obj["s_ac"], "s_ac")
        s_bc = _report_number(obj["s_bc"], "s_bc")
        values = _report_list(obj["s_ab_given_c"], "s_ab_given_c", nullable=True)
        probs = _report_list(obj["outcome_probs"], "outcome_probs")
        slots = obj["relabeling"]
        if not isinstance(slots, list) or any(isinstance(s, bool) or not isinstance(s, int) for s in slots):
            raise ValidationError(f"relabeling {slots!r} is not a permutation of 1..4")
        block, stderr = obj.get("stderr"), None
        if block is not None:
            if not isinstance(block, dict) or any(k not in block for k in ("s_ac", "s_bc", "s_ab_given_c")):
                raise ValidationError("stderr must hold s_ac, s_bc and s_ab_given_c")
            stderr = ReportStdErr(_report_number(block["s_ac"], "stderr.s_ac"),
                                  _report_number(block["s_bc"], "stderr.s_bc"),
                                  _report_list(block["s_ab_given_c"], "stderr.s_ab_given_c", nullable=True))
        return ChshReport(s_ac, s_bc, values, probs, tuple(s - 1 for s in slots), stderr)
    except ValidationError as exc:
        raise ValidationError(f"report: {exc}") from None


# Every cell (x, y, z, a, b, c) of a counts table in the table's C order
# (outcome +1 at index 0, -1 at index 1), its index there, and its CSV row prefix.
_CELLS = tuple(itertools.product((1, 2), (1, 2), (1, 2, 3), (1, -1), (1, -1), (1, 2, 3, 4)))
_CELL_INDEX = {cell: k for k, cell in enumerate(_CELLS)}
_COUNTS_ROW_PREFIXES = tuple("".join(f"{v}," for v in cell) for cell in _CELLS)
_COUNTS_HEADER_LINE = ",".join(COUNTS_HEADER)
# The whole file the writer emits, with one ``%d`` per count; the prefixes hold no ``%``.
_COUNTS_TEMPLATE = _COUNTS_HEADER_LINE + "\n" + "".join(f"{p}%d\n" for p in _COUNTS_ROW_PREFIXES)
# What a file in the writer's layout holds beyond its counts joined by commas: the template
# with every count empty, less the 191 commas that join 192 counts.
_SKELETON_LEN = len(_COUNTS_TEMPLATE.replace("%d", "")) - (len(_CELLS) - 1)
# The 192 counts of a file in the writer's layout, joined by commas: each one
# ASCII digits without a leading zero, at most 18 of them, so below 10**18 and
# within int64. Handed to ``re``, whose cache compiles it on first use.
_WRITER_COUNTS = r"(?:0|[1-9][0-9]{0,17})(?:,(?:0|[1-9][0-9]{0,17})){191}"


def counts_to_csv(table: CountsTable) -> str:
    """All cells of a counts table, zeros included, in fixed row order.

    The 192 counts, as Python ints, fill one precomputed template of the
    header and the row prefixes in a single ``%`` format.
    """
    return _COUNTS_TEMPLATE % tuple(table.counts.reshape(-1).tolist())


def _writer_counts(text: str) -> np.ndarray | None:
    """The 192 counts of ``text``, flat in cell order, if it is laid out exactly as :func:`counts_to_csv` writes.

    That layout is the header, then each cell's canonical prefix and count in
    the writer's row order, every line ended by ``\\n``. Any other text gives
    None, also a count of 19 digits or more.

    Each row's prefix is removed where the row starts with it, and the rows
    are joined by commas. The text is longer than that join by exactly
    ``_SKELETON_LEN`` when every prefix was removed; each row without its
    prefix shortens the difference by its prefix's length. So one length
    check stands for a test of every row, and one match then reads the
    counts of the join.
    """
    lines = text.split("\n", len(_COUNTS_ROW_PREFIXES) + 1)
    if len(lines) != len(_COUNTS_ROW_PREFIXES) + 2 or lines[0] != _COUNTS_HEADER_LINE or lines[-1]:
        return None
    fields = ",".join(map(str.removeprefix, lines[1:-1], _COUNTS_ROW_PREFIXES))
    if len(text) - len(fields) != _SKELETON_LEN or not re.fullmatch(_WRITER_COUNTS, fields):
        return None
    return np.fromstring(fields, dtype=np.int64, sep=",")


def _shown_count(digits: str) -> str:
    """A number's digits for an error message: all of them, or the first 20 and their number.

    They are shown in full when there are at most 21, with at most 20 significant, so
    10**20 reads in full and no field grows its message past one line.
    """
    if len(digits) <= 21 and len(digits.rstrip("0")) <= 20:
        return digits
    return f"{digits[:20]}... ({len(digits)} digits)"


def _integer_field(field: str) -> tuple[int, str] | None:
    """A field of decimal digits with one optional sign, read at any length: its value and its text for messages.

    Whitespace around the field is allowed and digits other than ASCII are
    read, as ``int()`` allows them; any other field gives None. The text is
    the sign and the digits as :func:`_shown_count` shows them. A value of
    20 digits or more is past int64 and is returned as +/-2**63, so
    ``int()``'s limit of 4300 digits never turns it into a non-integer field.
    """
    text = field.strip()
    sign = text[0] if text[:1] in ("+", "-") else ""
    digits = text[len(sign):]
    if not digits.isdecimal():
        return None
    if not digits.isascii():
        digits = "".join(str(int(ch)) for ch in digits)
    digits = digits.lstrip("0") or "0"
    value = int(digits) if len(digits) < 20 else _INT64_MAX + 1
    if sign == "-" and value:
        return -value, "-" + _shown_count(digits)
    return value, _shown_count(digits)


def _csv_rows(text: str) -> Iterator[list[str]]:
    """The rows of ``text`` as :mod:`csv` reads them; a line it cannot read is a ``ValidationError`` naming it.

    :mod:`csv` refuses a carriage return inside an unquoted field and a field
    longer than its field size limit.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        yield from reader
    except csv.Error as exc:
        raise ValidationError(f"line {reader.line_num}: {exc}") from None


def _read_rows(text: str) -> list[int]:
    """The 192 counts of a counts CSV, flat in cell order, read row by row through :mod:`csv`.

    Quoting, CRLF line ends and blank lines are handled by :mod:`csv`, and a
    line it cannot read is reported by :func:`_csv_rows`. Every field is read
    by :func:`_integer_field`, at any length, so spellings such as ``+1``,
    ``01`` or a leading space are accepted. Within a line the
    checks fire in this order: 7 fields, every field an integer, setting in
    range, outcome in range, count nonnegative, count within int64; the first
    bad line is reported. Rows that name the same cell add up as Python ints.
    After the last row, the grand total must fit in int64, and then every
    setting triple must have a row.
    """
    reader = _csv_rows(text)
    try:
        header = next(reader)
    except StopIteration:
        raise ValidationError("counts CSV is empty") from None
    if [h.strip() for h in header] != COUNTS_HEADER:
        raise ValidationError(f"line 1: expected header {_COUNTS_HEADER_LINE}")
    counts = [0] * len(_CELLS)
    triples: set[tuple[int, int, int]] = set()
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 7:
            raise ValidationError(f"line {lineno}: expected 7 fields, got {len(row)}")
        fields = [_integer_field(field) for field in row]
        if None in fields:
            raise ValidationError(f"line {lineno}: non-integer field")
        (x, y, z, a, b, c, n), shown = zip(*fields)
        if x not in (1, 2) or y not in (1, 2) or z not in (1, 2, 3):
            raise ValidationError(f"line {lineno}: setting ({','.join(shown[:3])}) out of range")
        if a not in (1, -1) or b not in (1, -1) or c not in (1, 2, 3, 4):
            raise ValidationError(f"line {lineno}: outcome ({','.join(shown[3:6])}) out of range")
        if n < 0:
            raise ValidationError(f"line {lineno}: negative count")
        if n > _INT64_MAX:
            raise ValidationError(f"line {lineno}: count {shown[6]} does not fit in int64")
        counts[_CELL_INDEX[x, y, z, a, b, c]] += n
        triples.add((x, y, z))
    if sum(counts) > _INT64_MAX:  # before one cell's sum can fail to fit the int64 table
        raise ValidationError("total count does not fit in int64")
    for x, y, z, *_ in _CELLS:
        if (x, y, z) not in triples:
            raise ValidationError(f"empty cells: no rows for setting triple ({x},{y},{z})")
    return counts


def counts_from_csv(text: str) -> CountsTable:
    """Parse a counts CSV; malformed rows are reported with their line number.

    Text laid out exactly as :func:`counts_to_csv` writes it is read by one
    length check and one match (:func:`_writer_counts`); any other text row
    by row (:func:`_read_rows`), which names the first bad line, a grand
    total past int64 and a setting triple without rows. Either way the 192
    counts go to :class:`CountsTable`, which checks the table.
    """
    counts = _writer_counts(text)
    if counts is None:
        counts = _read_rows(text)
    return CountsTable(np.reshape(counts, (2, 2, 3, 2, 2, 4)))


def bounds_curve_csv(rows: Sequence[tuple[float, float, float]]) -> str:
    """CSV with columns S, lower, upper at 9 significant digits; no field ever needs quoting."""
    return "S,lower,upper\n" + "".join(f"{s:.9g},{lower:.9g},{upper:.9g}\n" for s, lower, upper in rows)
