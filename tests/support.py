"""Shared oracles and random ensembles for the test suite.

Everything here is written independently of the package internals: partial
traces by explicit index loops, operators assembled with raw np.kron, and so
on, so that tests cross-check two separate computation paths.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import re
import sys

import numpy as np

from swapcert import (
    BinnedMeasurement,
    ChshReport,
    CountsTable,
    DensityMatrix,
    DichotomicObservable,
    FourOutcomeMeasurement,
    PureState,
    ReportStdErr,
    Scenario,
    ValidationError,
    bell_basis,
    born_tables,
    charlie_settings_ideal,
    conditional_version_matrix,
    relabel,
)
from swapcert.blocks import EDGE_TOL
from swapcert.certify import VERSION_SIGNS
from swapcert.linalg import _as_matrix, hermitian_deviation, ptrace_array

SQRT2 = math.sqrt(2.0)
TSIRELSON = 2.0 * SQRT2

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def kron_all(*mats: np.ndarray) -> np.ndarray:
    out = np.asarray(mats[0], dtype=complex)
    for m in mats[1:]:
        out = np.kron(out, np.asarray(m, dtype=complex))
    return out


def ptrace_loops(mat: np.ndarray, dims: tuple[int, ...], keep: tuple[int, ...]) -> np.ndarray:
    """Partial trace by explicit nested index loops (slow, obviously correct)."""
    dims = tuple(dims)
    keep = tuple(sorted(keep))
    drop = tuple(k for k in range(len(dims)) if k not in keep)
    kept_dims = [dims[k] for k in keep]
    side = int(np.prod(kept_dims)) if kept_dims else 1
    out = np.zeros((side, side), dtype=complex)
    arr = np.asarray(mat, dtype=complex).reshape(dims + dims)
    for row in np.ndindex(*kept_dims) if kept_dims else [()]:
        for col in np.ndindex(*kept_dims) if kept_dims else [()]:
            total = 0.0 + 0.0j
            for traced in np.ndindex(*[dims[k] for k in drop]) if drop else [()]:
                idx_row = [0] * len(dims)
                idx_col = [0] * len(dims)
                for pos, k in enumerate(keep):
                    idx_row[k] = row[pos]
                    idx_col[k] = col[pos]
                for pos, k in enumerate(drop):
                    idx_row[k] = traced[pos]
                    idx_col[k] = traced[pos]
                total += arr[tuple(idx_row) + tuple(idx_col)]
            r = int(np.ravel_multi_index(row, kept_dims)) if kept_dims else 0
            c = int(np.ravel_multi_index(col, kept_dims)) if kept_dims else 0
            out[r, c] = total
    return out


def permute_subsystems(mat: np.ndarray, dims: tuple[int, ...], perm: tuple[int, ...]) -> np.ndarray:
    """Reorder the tensor factors of a square operator.

    ``perm[k]`` is the old position of the factor placed at position ``k`` in
    the output.
    """
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(n)):
        raise ValidationError(f"{perm!r} is not a permutation of 0..{n - 1}")
    mat = _as_matrix(mat)
    side = int(np.prod(dims))
    if mat.shape != (side, side):
        raise ValidationError(f"operator side {mat.shape[0]} does not match dims {dims}")
    axes = list(perm) + [p + n for p in perm]
    return mat.reshape(dims + dims).transpose(axes).reshape(side, side)


def eig_hermitian(h: np.ndarray, tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns eigenvalues in ascending order and the matching orthonormal
    eigenvectors as columns. Raises if the input deviates from Hermiticity by
    more than ``tol`` in max norm. The basis chosen inside a degenerate
    eigenvalue is unspecified beyond orthonormality.
    """
    h = _as_matrix(h)
    if h.shape[0] != h.shape[1]:
        raise ValidationError("eig_hermitian needs a square matrix")
    if h.size and hermitian_deviation(h) > tol:
        raise ValidationError("matrix is not Hermitian within tolerance")
    return np.linalg.eigh((h + h.conj().T) / 2.0)


def to_density(state: PureState) -> DensityMatrix:
    """The projector onto a pure state, as a density matrix on the same dims."""
    return DensityMatrix(np.outer(state.vector, state.vector.conj()), state.dims)


def eigenstates(meas: FourOutcomeMeasurement) -> tuple[np.ndarray, ...]:
    """Unit eigenvector of each projector, from one stacked ``eigh``; every projector must have rank 1."""
    meas.require_rank_one()
    stack = meas.projector_stack
    return tuple(np.linalg.eigh((stack + stack.conj().swapaxes(1, 2)) / 2.0)[1][:, :, -1])


def bit_observable(binned: BinnedMeasurement, side: str) -> np.ndarray:
    """Sum of bit(c) * P_c for side 'a' or 'b' of a binned measurement."""
    bits = {"a": binned.bit_for_a, "b": binned.bit_for_b}[side]
    return sum(bit * proj for bit, proj in zip(bits, binned.base.projectors))


def conditional_chsh_ab(sc: Scenario) -> tuple[tuple[float, float, float, float], np.ndarray]:
    """Conditional CHSH per raw outcome, each in its own variant (no relabeling), and the outcome probabilities."""
    matrix, probs = conditional_version_matrix(sc)
    return tuple(float(matrix[c, c]) for c in range(4)), probs


def reference_chsh_operator(a0, a1, b0, b1) -> np.ndarray:
    """A0 x (B0 + B1) + A1 x (B0 - B1) as the sum of two ``np.kron`` calls."""
    return np.kron(a0.matrix, b0.matrix + b1.matrix) + np.kron(a1.matrix, b0.matrix - b1.matrix)


def reference_version_operator(alice, bob, version: int) -> np.ndarray:
    """CHSH variant ``version`` as the signed sum of the four products A_x x B_y, in (x, y) order."""
    terms = [np.kron(a.matrix, b.matrix) for a in alice for b in bob]
    return sum(s * t for s, t in zip(VERSION_SIGNS[version - 1], terms))


def overlap_sq(psi: PureState, phi: PureState) -> float:
    """Squared inner product |<psi|phi>|^2."""
    if psi.dim != phi.dim:
        raise ValidationError(f"dimension mismatch: {psi.dim} vs {phi.dim}")
    return float(abs(np.vdot(psi.vector, phi.vector)) ** 2)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    ginibre = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(ginibre)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases.conj()


def random_observable(dim: int, rng: np.random.Generator) -> DichotomicObservable:
    """Random +/-1 observable with a balanced-ish spectrum."""
    u = haar_unitary(dim, rng)
    signs = np.array([1 if k < dim // 2 else -1 for k in range(dim)], dtype=float)
    if dim % 2:
        signs[-1] = rng.choice([-1.0, 1.0])
    return DichotomicObservable(u @ np.diag(signs) @ u.conj().T)


def skewed_observable(dim: int, rng: np.random.Generator) -> DichotomicObservable:
    """Random balanced +/-1 observable plus an anti-Hermitian part of Hermitian deviation 4e-10.

    The observable checks accept it (their tolerance is 1e-9), while a CHSH
    operator built from four of them may deviate from Hermiticity by more.
    """
    u = haar_unitary(dim, rng)
    h = u @ np.diag([1.0] * (dim // 2) + [-1.0] * (dim // 2)) @ u.conj().T
    g = rng.normal(size=(dim, dim))
    g = g + g.T
    return DichotomicObservable(h + 2e-10j * g / np.max(np.abs(g)))


def random_bloch_observable(rng: np.random.Generator) -> DichotomicObservable:
    vec = rng.normal(size=3)
    vec /= np.linalg.norm(vec)
    return DichotomicObservable(vec[0] * X + vec[1] * Y + vec[2] * Z)


def rotated_bell_measurement(rng: np.random.Generator) -> FourOutcomeMeasurement:
    """Rank-1 projective measurement from a Haar rotation of the entangled basis."""
    u = haar_unitary(4, rng)
    projs = []
    for state in bell_basis():
        vec = u @ state.vector
        projs.append(np.outer(vec, vec.conj()))
    return FourOutcomeMeasurement(tuple(projs), (2, 2))


def random_product_measurement(rng: np.random.Generator) -> FourOutcomeMeasurement:
    """Product of two random rank-1 qubit measurements."""
    from swapcert import product_measurement

    def factor():
        vec = rng.normal(size=3)
        vec /= np.linalg.norm(vec)
        obs = vec[0] * X + vec[1] * Y + vec[2] * Z
        return ((I2 + obs) / 2, (I2 - obs) / 2)

    return product_measurement(factor(), factor())


def random_density(dim: int, rng: np.random.Generator, dims: tuple[int, ...]) -> DensityMatrix:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return DensityMatrix(rho, dims)


def random_binned(dims: tuple[int, int], rng: np.random.Generator) -> BinnedMeasurement:
    """Random rank-structured four-outcome measurement with random bit maps."""
    side = dims[0] * dims[1]
    if side < 4:
        raise ValueError("need side >= 4 for four nonempty outcomes")
    u = haar_unitary(side, rng)
    # split the basis columns into four nonempty groups
    cuts = sorted(rng.choice(range(1, side), size=3, replace=False))
    groups = np.split(np.arange(side), cuts)
    projs = []
    for grp in groups:
        cols = u[:, grp]
        projs.append(cols @ cols.conj().T)
    bits_a = tuple(int(b) for b in rng.choice([-1, 1], size=4))
    bits_b = tuple(int(b) for b in rng.choice([-1, 1], size=4))
    return BinnedMeasurement(FourOutcomeMeasurement(tuple(projs), dims), bits_a, bits_b)


def random_scenario(rng: np.random.Generator, d_a: int = 2, d_b: int = 2) -> Scenario:
    dims = (d_a, d_b, 2, 2)
    state = random_density(int(np.prod(dims)), rng, dims)
    return Scenario(
        state=state,
        alice=(random_observable(d_a, rng), random_observable(d_a, rng)),
        bob=(random_observable(d_b, rng), random_observable(d_b, rng)),
        charlie12=(random_binned((2, 2), rng), random_binned((2, 2), rng)),
        charlie3=rotated_bell_measurement(rng),
    )


def ideal_with_charlie3(meas: FourOutcomeMeasurement) -> Scenario:
    """The ideal scenario with the joint measurement swapped out."""
    from dataclasses import replace

    from swapcert import ideal_scenario

    return replace(ideal_scenario(), charlie3=meas)


def planted_pair(angle: float) -> tuple[np.ndarray, np.ndarray]:
    """Qubit +/-1 pair whose product has eigenphases +/-angle."""
    return X.copy(), math.cos(angle) * X + math.sin(angle) * Y


def planted_observables(
    angles: tuple[float, ...],
    rng: np.random.Generator | None = None,
) -> tuple[DichotomicObservable, DichotomicObservable]:
    """Direct sum of planted two-dimensional pairs, optionally Haar-conjugated."""
    return planted_layout((), angles, rng)


def planted_layout(
    ones: tuple[tuple[float, float], ...],
    angles: tuple[float, ...],
    rng: np.random.Generator | None = None,
) -> tuple[DichotomicObservable, DichotomicObservable]:
    """Direct sum of 1x1 blocks and planted two-dimensional pairs.

    ``ones`` lists the (a0, a1) sign pairs of the 1x1 blocks, which come
    first; each angle in ``angles`` adds one :func:`planted_pair`. With
    ``rng`` the sum is conjugated by one Haar unitary.
    """
    d = len(ones) + 2 * len(angles)
    a0 = np.zeros((d, d), dtype=complex)
    a1 = np.zeros((d, d), dtype=complex)
    for k, (s0, s1) in enumerate(ones):
        a0[k, k], a1[k, k] = s0, s1
    for k, angle in enumerate(angles):
        b0, b1 = planted_pair(angle)
        sl = slice(len(ones) + 2 * k, len(ones) + 2 * k + 2)
        a0[sl, sl] = b0
        a1[sl, sl] = b1
    if rng is not None:
        u = haar_unitary(d, rng)
        a0 = u @ a0 @ u.conj().T
        a1 = u @ a1 @ u.conj().T
    return DichotomicObservable(a0), DichotomicObservable(a1)


def expected_alpha(angle_a: float, angle_b: float) -> float:
    """Top CHSH eigenvalue of a planted block pair: 2*sqrt(1 + sin(a)*sin(b))."""
    return 2.0 * math.sqrt(1.0 + abs(math.sin(angle_a)) * abs(math.sin(angle_b)))


def four_factor_state(pair_a: np.ndarray, pair_b: np.ndarray, d: int = 2) -> DensityMatrix:
    """Global (A,B,CA,CB) state from two (party, C-half) pair states."""
    arr = np.kron(pair_a, pair_b).reshape((d, d) * 4)
    # kron order is (A, CA, B, CB); move to (A, B, CA, CB)
    arr = arr.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(d**4, d**4)
    return DensityMatrix(arr, (d,) * 4)


def maximally_entangled_pair(d: int) -> np.ndarray:
    vec = np.identity(d).reshape(-1) / math.sqrt(d)
    return np.outer(vec, vec.conj())


def scenario_settings_ideal():
    from swapcert import ideal_scenario

    sc = ideal_scenario()
    return sc.alice, sc.bob


def canonical_charlie_bits() -> tuple[tuple[int, ...], tuple[int, ...]]:
    c1, _ = charlie_settings_ideal()
    return c1.bit_for_a, c1.bit_for_b


def _slots(perm, by_outcome):
    out = [math.nan] * 4
    for c in range(4):
        out[perm[c]] = by_outcome[c]
    return tuple(out)


def reference_estimate_report(counts: CountsTable, bit_maps) -> ChshReport:
    """Plug-in estimates and standard errors by explicit loops over the count blocks.

    Every correlator is one pooled block read separately: the swap-side
    values pool over the other end party's setting and outcome, and an
    outcome with an empty (x, y) block has no conditional value.
    """
    arr = counts.counts
    signs = (1.0, -1.0)

    def pooled(block, sign_of):
        total = float(block.sum())
        e = sum(sign_of(idx) * float(n) for idx, n in np.ndenumerate(block)) / total
        return e, max(0.0, (1.0 - e * e) / total)

    def swap_side(party):
        s = var = 0.0
        for first in (0, 1):
            for z in (0, 1):
                bits = bit_maps[z][party]
                if party == 0:
                    block = arr[first, :, z].sum(axis=(0, 2))  # [a, c], pooled over y, b
                else:
                    block = arr[:, first, z].sum(axis=(0, 1))  # [b, c], pooled over x, a
                e, v = pooled(block, lambda idx: signs[idx[0]] * bits[idx[1]])
                s += -e if (first, z) == (1, 1) else e
                var += v
        return s, math.sqrt(var)

    s_ac, se_ac = swap_side(0)
    s_bc, se_bc = swap_side(1)
    matrix = np.full((4, 4), math.nan)
    se_c = [math.nan] * 4
    probs = [float(arr[:, :, 2, :, :, c].sum()) / float(arr[:, :, 2].sum()) for c in range(4)]
    for c in range(4):
        blocks = [arr[x, y, 2, :, :, c] for x in (0, 1) for y in (0, 1)]
        if any(block.sum() == 0 for block in blocks):
            continue
        cond = [pooled(block, lambda idx: signs[idx[0]] * signs[idx[1]]) for block in blocks]
        for v, pattern in enumerate(VERSION_SIGNS):
            matrix[c, v] = sum(p * e for p, (e, _) in zip(pattern, cond))
        se_c[c] = math.sqrt(sum(var for _, var in cond))
    perm, values = relabel(matrix)
    return ChshReport(s_ac, s_bc, values, _slots(perm, probs), perm,
                      ReportStdErr(se_ac, se_bc, _slots(perm, se_c)))


def reference_exact_report(sc: Scenario) -> ChshReport:
    """Exact report read from single slices of the Born tables.

    The AC values come from the y = 1 tables, the BC values from the x = 1
    tables, and the outcome probabilities from the (x, y) = (1, 1) table of
    setting 3; an outcome below 1e-12 in any (x, y) table is undefined.
    """
    tables = born_tables(sc)
    signs = np.array([1.0, -1.0])

    def swap_side(block, bits):  # block [s, z, o, c] of one end party
        e = [[float(np.einsum("oc,o,c->", block[s, z], signs, np.array(bits[z], dtype=float)))
              for z in (0, 1)] for s in (0, 1)]
        return e[0][0] + e[0][1] + e[1][0] - e[1][1]

    s_ac = swap_side(tables[:, 0, :2].sum(axis=3), [b.bit_for_a for b in sc.charlie12])
    s_bc = swap_side(tables[0, :, :2].sum(axis=2), [b.bit_for_b for b in sc.charlie12])
    matrix = np.full((4, 4), math.nan)
    for c in range(4):
        blocks = [tables[x, y, 2, :, :, c] for x in (0, 1) for y in (0, 1)]
        if any(block.sum() < 1e-12 for block in blocks):
            continue
        cond = [float(signs @ block @ signs) / float(block.sum()) for block in blocks]
        for v, pattern in enumerate(VERSION_SIGNS):
            matrix[c, v] = sum(p * e for p, e in zip(pattern, cond))
    perm, values = relabel(matrix)
    probs = [float(tables[0, 0, 2, :, :, c].sum()) for c in range(4)]
    return ChshReport(s_ac, s_bc, values, _slots(perm, probs), perm)


def reference_sep_bound_oracle(
    beta: np.ndarray,
    dims: tuple[int, int],
    restarts: int = 32,
    iters: int = 500,
    seed: int = 0,
) -> tuple[float, np.ndarray]:
    """See-saw over product states, one restart at a time, by ``einsum`` contractions.

    Each restart starts from ``default_rng([seed, restart])`` and alternates
    top eigenvectors until a sweep improves by less than 1e-12 or ``iters``
    sweeps elapse; the first restart with a strictly larger value wins.
    Returns the value and the product vector.
    """
    d_a, d_b = dims
    reshaped = np.asarray(beta, dtype=complex).reshape(d_a, d_b, d_a, d_b)

    def top_eigvec(mat):
        return np.linalg.eigh((mat + mat.conj().T) / 2.0)[1][:, -1]

    best_value, best_pair = -math.inf, None
    for restart in range(restarts):
        rng = np.random.default_rng([seed, restart])
        b_vec = rng.normal(size=d_b) + 1j * rng.normal(size=d_b)
        b_vec /= np.linalg.norm(b_vec)
        value = -math.inf
        for _ in range(iters):
            a_vec = top_eigvec(np.einsum("ijkl,j,l->ik", reshaped, b_vec.conj(), b_vec))
            contracted_b = np.einsum("ijkl,i,k->jl", reshaped, a_vec.conj(), a_vec)
            b_vec = top_eigvec(contracted_b)
            new_value = float(np.real(b_vec.conj() @ contracted_b @ b_vec))
            improved = new_value - value
            value = new_value
            if improved < 1e-12:
                break
        if value > best_value:
            best_value, best_pair = value, (a_vec, b_vec)
    return best_value, np.kron(*best_pair)


def _lifted_int_digits(fn, *args):
    """``fn(*args)`` with Python's limit on int-string conversions lifted."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return fn(*args)
    finally:
        sys.set_int_max_str_digits(limit)


def _int_at_any_length(field: str) -> int:
    """``int(field)`` at any length, for a field of decimal digits with one optional sign; ValueError for any other."""
    if not re.fullmatch(r"\s*[+-]?\d+\s*", field):
        raise ValueError(f"not an integer field: {field!r}")
    return _lifted_int_digits(int, field)


def _shown_number(n: int) -> str:
    """A number in full when it has at most 21 digits, none nonzero past the 20th; else its first 20 digits and its length."""
    text = _lifted_int_digits(str, abs(n))
    if len(text) > 21 or (len(text) == 21 and text[-1] != "0"):
        text = f"{text[:20]}... ({len(text)} digits)"
    return "-" + text if n < 0 else text


def reference_counts_from_csv(text: str) -> CountsTable:
    """Counts CSV parsed row by row: every field through ``int()`` at any length, every cell added in place.

    Each count, and the total of all counts summed as Python integers, must
    fit in int64.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValidationError("counts CSV is empty") from None
    if [h.strip() for h in header] != ["x", "y", "z", "a", "b", "c", "count"]:
        raise ValidationError("line 1: expected header x,y,z,a,b,c,count")
    counts = np.zeros((2, 2, 3, 2, 2, 4), dtype=np.int64)
    seen = np.zeros((2, 2, 3), dtype=bool)
    total = 0
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 7:
            raise ValidationError(f"line {lineno}: expected 7 fields, got {len(row)}")
        try:
            x, y, z, a, b, c, n = (_int_at_any_length(v) for v in row)
        except ValueError:
            raise ValidationError(f"line {lineno}: non-integer field") from None
        if x not in (1, 2) or y not in (1, 2) or z not in (1, 2, 3):
            raise ValidationError(f"line {lineno}: setting ({','.join(map(_shown_number, (x, y, z)))}) out of range")
        if a not in (1, -1) or b not in (1, -1) or c not in (1, 2, 3, 4):
            raise ValidationError(f"line {lineno}: outcome ({','.join(map(_shown_number, (a, b, c)))}) out of range")
        if n < 0:
            raise ValidationError(f"line {lineno}: negative count")
        if n > 2**63 - 1:
            raise ValidationError(f"line {lineno}: count {_shown_number(n)} does not fit in int64")
        total += n
        ia, ib = (0 if a == 1 else 1), (0 if b == 1 else 1)
        if total <= 2**63 - 1:
            counts[x - 1, y - 1, z - 1, ia, ib, c - 1] += n
        seen[x - 1, y - 1, z - 1] = True
    if total > 2**63 - 1:
        raise ValidationError("total count does not fit in int64")
    missing = np.argwhere(~seen)
    if missing.size:
        x, y, z = missing[0] + 1
        raise ValidationError(f"empty cells: no rows for setting triple ({x},{y},{z})")
    totals = counts.sum(axis=(3, 4, 5))
    if np.any(totals <= 0):
        x, y, z = np.argwhere(totals <= 0)[0] + 1
        raise ValidationError(f"empty cells: zero total count for setting triple ({x},{y},{z})")
    return CountsTable(counts)


def reference_counts_to_csv(table: CountsTable) -> str:
    """Counts CSV written one row at a time, each cell's settings, outcomes and count formatted on their own."""
    rows = ["x,y,z,a,b,c,count\n"]
    for x, y, z, ia, ib, ic in np.ndindex(2, 2, 3, 2, 2, 4):
        a, b = (1, -1)[ia], (1, -1)[ib]
        rows.append(f"{x + 1},{y + 1},{z + 1},{a},{b},{ic + 1},{int(table.counts[x, y, z, ia, ib, ic])}\n")
    return "".join(rows)


def reference_sample_counts(sc: Scenario, n_per_setting: int, seed: int) -> CountsTable:
    """One multinomial per setting triple, drawn row by row from one ``default_rng(seed)`` in (x, y, z) order."""
    tables = np.clip(born_tables(sc), 0.0, None)
    rng = np.random.default_rng(seed)
    counts = np.zeros((2, 2, 3, 2, 2, 4), dtype=np.int64)
    for x in (1, 2):
        for y in (1, 2):
            for z in (1, 2, 3):
                table = tables[x - 1, y - 1, z - 1].reshape(-1)
                counts[x - 1, y - 1, z - 1] = rng.multinomial(n_per_setting, table / table.sum()).reshape(2, 2, 4)
    return CountsTable(counts)


def reference_relabel(version_matrix: np.ndarray) -> tuple[tuple[int, int, int, int], tuple[float, ...]]:
    """Relabeling by scoring the 24 bijections one at a time in ``itertools`` order.

    A bijection replaces the best only when its score is strictly larger, so
    the first maximum wins ties.
    """
    m = np.asarray(version_matrix, dtype=float)
    if m.shape != (4, 4):
        raise ValidationError(f"version matrix must be 4x4, got {m.shape}")
    usable = [c for c in range(4) if np.all(np.isfinite(m[c]))]
    for c in range(4):
        if c in usable:
            continue
        if np.any(np.isfinite(m[c])):
            raise ValidationError(f"outcome {c + 1} has a partially defined row")
    best_perm = None
    best_score = -math.inf
    for perm in itertools.permutations(range(4)):
        score = sum(m[c, perm[c]] for c in usable)
        if score > best_score:
            best_score = score
            best_perm = perm
    values = [math.nan] * 4
    for c in usable:
        values[best_perm[c]] = float(m[c, best_perm[c]])
    return tuple(best_perm), tuple(values)


def reference_validate_projectors(projectors, dim: int, tol: float = 1e-9) -> None:
    """The projector checks one matrix product at a time, raising at the first failure.

    Per projector Hermiticity then idempotence, then the pairs i < j, then
    completeness.
    """
    total = np.zeros((dim, dim), dtype=complex)
    for k, proj in enumerate(projectors):
        if np.max(np.abs(proj - proj.conj().T)) > tol:
            raise ValidationError(f"projector {k + 1} is not Hermitian within tolerance")
        if np.max(np.abs(proj @ proj - proj)) > tol:
            raise ValidationError(f"projector {k + 1} is not idempotent within tolerance")
        total += proj
    for i in range(4):
        for j in range(i + 1, 4):
            if np.max(np.abs(projectors[i] @ projectors[j])) > tol:
                raise ValidationError(f"projectors {i + 1} and {j + 1} are not orthogonal")
    if np.max(np.abs(total - np.eye(dim))) > tol:
        raise ValidationError("projectors do not sum to the identity within tolerance")


def reference_validate_factor(projs, name: str, tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """The factor check of ``product_measurement`` one matrix at a time, raising at the first failure.

    Outcome count, then square and equal-sized outcomes, then per outcome
    Hermiticity and idempotence, then completeness. Deviations are formed
    with numpy's floating-point warnings off, and NaN fails every check.
    """
    if len(projs) != 2:
        raise ValidationError(f"{name} must have exactly two outcomes")
    p0 = _as_matrix(projs[0], f"{name} outcome 1")
    p1 = _as_matrix(projs[1], f"{name} outcome 2")
    if p0.shape != p1.shape or p0.shape[0] != p0.shape[1]:
        raise ValidationError(f"{name} projectors must be square and equal-sized")
    with np.errstate(all="ignore"):
        for k, p in enumerate((p0, p1)):
            if not np.max(np.abs(p - p.conj().T)) <= tol or not np.max(np.abs(p @ p - p)) <= tol:
                raise ValidationError(f"{name} outcome {k + 1} is not a projector within tolerance")
        if not np.max(np.abs(p0 + p1 - np.eye(p0.shape[0]))) <= tol:
            raise ValidationError(f"{name} outcomes do not sum to the identity")
    return p0, p1


def reference_overlaps(meas: FourOutcomeMeasurement) -> np.ndarray:
    """overlaps[c, v] = <ref_v|P_c|ref_v>, one matrix-vector and one inner product per entry."""
    reference = [s.vector for s in bell_basis()]
    out = np.empty((4, 4))
    for c, proj in enumerate(meas.projectors):
        for v, ref in enumerate(reference):
            out[c, v] = float(np.real(ref.conj() @ (proj @ ref)))
    return out


def reference_overlap_version_matrix(meas: FourOutcomeMeasurement) -> np.ndarray:
    """2*sqrt(2) times overlap v+1 minus overlap 4-v, one variant column at a time."""
    overlaps = reference_overlaps(meas)
    out = np.empty((4, 4))
    for v in range(4):
        out[:, v] = TSIRELSON * (overlaps[:, v] - overlaps[:, 3 - v])
    return out


def reference_trace_distance(meas: FourOutcomeMeasurement, relabeling) -> float:
    """Largest sqrt(1 - overlap) of an outcome with its slot's reference state, one outcome at a time."""
    overlaps = reference_overlaps(meas)
    worst = 0.0
    for c, slot in enumerate(relabeling):
        worst = max(worst, math.sqrt(max(0.0, 1.0 - overlaps[c, slot])))
    return worst


def reference_perturbed_bell_measurement(theta: float, pair: int) -> FourOutcomeMeasurement:
    """The joint-basis rotation from copies of all four entangled vectors, one outer product each."""
    basis = [s.vector.copy() for s in bell_basis()]
    lo, hi = pair - 1, 4 - pair
    c, s = math.cos(theta), math.sin(theta)
    basis[lo], basis[hi] = c * basis[lo] + s * basis[hi], -s * basis[lo] + c * basis[hi]
    return FourOutcomeMeasurement(tuple(np.outer(v, v.conj()) for v in basis), (2, 2))


def reference_jordan_blocks(a0: DichotomicObservable, a1: DichotomicObservable) -> tuple[list[tuple], tuple, tuple]:
    """Jordan blocks, the principal-angle split first: ``(basis, r0, r1)`` per block, the sines and the cosines.

    The reference that :func:`swapcert.jordan_blocks` is held to, not a byte
    twin of it: one ``eigh`` of A0 and four SVDs split off the 1x1 blocks in
    every case, one ``eig`` of A0 A1 restricted to the rest gives the 2x2
    blocks, and a per-block loop regrows the basis by Gram-Schmidt with
    ``np.column_stack``. The split is read from max|A^2 - I| of both
    matrices. Blocks are in the same order, so sizes, sines, cosines and
    the projector onto each set of blocks at one phase agree within
    rounding, while each basis may differ by a gauge. No reconstruction or
    unit-circle check runs.
    """
    mat0, mat1 = a0.matrix, a1.matrix
    d = mat0.shape[0]
    split = max(EDGE_TOL, 8.0 * max(float(np.max(np.abs(mat @ mat - np.eye(d)))) for mat in (mat0, mat1)))

    values, eigvecs = np.linalg.eigh(mat0)
    at_zero: list[np.ndarray] = []
    at_pi: list[np.ndarray] = []
    rest = []
    for space in (eigvecs[:, values < 0.0], eigvecs[:, values >= 0.0]):
        for ones, sign in ((at_zero, -1.0), (at_pi, 1.0)):
            _, singular, right = np.linalg.svd((mat1 + sign * mat0) @ space)
            ones.extend((space @ right[singular <= split].conj().T).T)
            space = space @ right[singular > split].conj().T
        rest.append(space)
    rest = np.hstack(rest)
    rest_vals, rest_vecs = np.linalg.eig(rest.conj().T @ mat0 @ mat1 @ rest)
    phases = np.angle(rest_vals)
    positive = np.flatnonzero(phases > 0.0)
    positive = positive[np.argsort(phases[positive], kind="stable")]
    twos = (rest @ rest_vecs[:, positive]).T
    sines = (0.0,) * len(at_zero) + tuple((np.abs(rest_vals.imag) / np.abs(rest_vals))[positive].tolist())
    sines += (0.0,) * len(at_pi)
    cosines = tuple((rest_vals.real / np.abs(rest_vals))[positive].tolist())

    def fresh(v: np.ndarray, built: np.ndarray) -> np.ndarray:
        v = v - built @ (built.conj().T @ v)
        return v / np.linalg.norm(v)

    blocks = []
    built = np.zeros((d, 0), dtype=complex)
    for u, size in [(v, 1) for v in at_zero] + [(u, 2) for u in twos] + [(v, 1) for v in at_pi]:
        u = fresh(u, built)
        basis = u[:, None] if size == 1 else np.column_stack([u, fresh(mat0 @ u, np.column_stack([built, u]))])
        built = np.column_stack([built, basis])
        r0, r1 = (basis.conj().T @ mat @ basis for mat in (mat0, mat1))
        if size == 1:
            r0, r1 = r0.real.astype(complex), r1.real.astype(complex)
        blocks.append((basis, r0, r1))
    signs = [float(np.sign(r0[0, 0].real * r1[0, 0].real)) for _, r0, r1 in blocks if r0.shape == (1, 1)]
    cosines = tuple(signs[:len(at_zero)]) + cosines + tuple(signs[len(at_zero):])
    return blocks, sines, cosines


def reference_block_chsh(a_blocks, b_blocks) -> tuple[list[tuple[int, int, np.ndarray, float]], float]:
    """Block CHSH one pair at a time: ``(row, col, operator, alpha)`` per pair and lambda.

    Two ``np.kron`` calls and one ``eigvalsh`` per pair; alpha is the
    spectral radius of the pair's operator.
    """
    pairs = []
    lam = math.inf
    for i, ab in enumerate(a_blocks.blocks):
        for j, bb in enumerate(b_blocks.blocks):
            beta = np.kron(ab.a0, bb.a0 + bb.a1) + np.kron(ab.a1, bb.a0 - bb.a1)
            w = np.linalg.eigvalsh((beta + beta.conj().T) / 2.0)
            alpha = float(max(w[-1], -w[0]))
            pairs.append((i, j, beta, alpha))
            lam = min(lam, alpha)
    return pairs, lam


def reference_sep_bound_formula(a0, a1, b0, b1) -> tuple[float, float]:
    """Lambda and the separable bound from one ``eigvals`` of X0 X1 per party, no Jordan blocks built.

    Each eigenvalue w gives c = Re w / |w| and s = |Im w| / |w|; the smallest
    s of each party gives lam = 2 sqrt(1 + s_A s_B) and the bound
    sqrt(1 + p) + sqrt((1 - s_A) + s_A (1 - s_B)) with p = s_A s_B and
    1 - s = c^2 / (1 + s).
    """
    sides = []
    for x0, x1 in ((a0, a1), (b0, b1)):
        w = np.linalg.eigvals(x0.matrix @ x1.matrix)
        cosines, sines = w.real / np.abs(w), np.abs(w.imag) / np.abs(w)
        k = int(np.argmin(sines))
        sides.append((float(sines[k]), float(cosines[k] ** 2 / (1.0 + sines[k]))))
    (s_a, gap_a), (s_b, gap_b) = sides
    p = s_a * s_b
    return 2.0 * math.sqrt(1.0 + p), math.sqrt(1.0 + p) + math.sqrt(gap_a + s_a * gap_b)


def reference_steer(state: DensityMatrix, meas: FourOutcomeMeasurement) -> list[tuple[float, DensityMatrix | None]]:
    """Steered end-party states from the sandwich (I x P) rho (I x P), traced over the middle party.

    Outcomes with probability below 1e-12 yield ``(p, None)``.
    """
    dims = state.dims
    eye_ab = np.eye(dims[0] * dims[1])
    out = []
    for proj in meas.projectors:
        op = np.kron(eye_ab, proj)
        projected = op @ state.matrix @ op
        p = float(np.trace(projected).real)
        if p < 1e-12:
            out.append((p, None))
            continue
        out.append((p, DensityMatrix(ptrace_array(projected / p, dims, (0, 1)), dims[:2])))
    return out
