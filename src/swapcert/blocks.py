"""Block decomposition of +/-1 observable pairs and separable CHSH bounds.

Any two observables squaring to the identity decompose the space into
invariant subspaces of dimension at most two. The CHSH operator built from
two such pairs then splits into a direct sum over block pairs. By Landau's
identity the top eigenvalue of a block pair depends only on the two blocks'
eigenphases, and the smallest of them pins down the largest CHSH value
reachable by separable states; so both the block table and the bound are
read from eigenphases of A0 A1 and B0 B1. A see-saw ascent over pure
product states provides an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .certify import VERSION_SIGNS
from .linalg import (
    DEFAULT_TOL,
    PureState,
    ValidationError,
    _as_matrix,
    _checked_int,
    hermitian_deviation,
    seeded_generator,
)
from .measurements import DichotomicObservable

# Eigenphases of the product A0*A1 closer than this are grouped together.
ANGLE_TOL = 1e-7

# Floor of the edge split: in a group at phase 0 (pi), a vector on which
# A1 - A0 (A1 + A0) is below this, or below 8 times the larger residual
# max|A^2 - I| of the two observables, is a 1x1 block. On settings rounded
# to 9 digits, a 1x1 vector measured at most 3.1 times that residual and a
# block 5e-8 from the edge at least 49 times it.
EDGE_TOL = 1e-9

# chsh_spectrum: slack of the +/- pairing and of alpha1^2 + alpha2^2 = 8.
SPECTRUM_TOL = 1e-8


@dataclass(frozen=True)
class ObservableBlock:
    """One invariant subspace: orthonormal basis columns and both restrictions."""

    basis: np.ndarray  # d x k with k in {1, 2}
    a0: np.ndarray  # k x k
    a1: np.ndarray  # k x k

    @property
    def size(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class ObservableBlocks:
    """Complete block decomposition of a pair of +/-1 observables."""

    parent_dim: int
    blocks: tuple[ObservableBlock, ...]

    def embed(self) -> tuple[np.ndarray, np.ndarray]:
        """Reassemble the full observables from the blocks."""
        a0 = np.zeros((self.parent_dim, self.parent_dim), dtype=complex)
        a1 = np.zeros_like(a0)
        for block in self.blocks:
            v = block.basis
            a0 += v @ block.a0 @ v.conj().T
            a1 += v @ block.a1 @ v.conj().T
        return a0, a1


@dataclass(frozen=True)
class BlockPair:
    """CHSH operator restricted to one block pair, with its top eigenvalue."""

    row: int
    col: int
    operator: np.ndarray
    alpha: float


@dataclass(frozen=True)
class ChshBlockStructure:
    """Smallest top eigenvalue over the block pairs, and the pairs themselves.

    Only :func:`block_chsh` lists the pairs; :func:`sep_bound` reads lam from
    the eigenphases of the whole settings and leaves ``pairs`` empty.
    """

    pairs: tuple[BlockPair, ...]
    lam: float  # smallest alpha over all block pairs


@dataclass(frozen=True)
class SepBoundResult:
    """Separable bound from the closed form, optionally cross-checked by see-saw."""

    formula_value: float
    oracle_value: float | None = None
    oracle_state: PureState | None = None


def jordan_blocks(a0: DichotomicObservable, a1: DichotomicObservable) -> ObservableBlocks:
    """Split a pair of +/-1 observables into jointly invariant blocks of size <= 2.

    The unitary U = A0 A1 is diagonalized; eigenvectors at phase 0 (pi) are
    common eigenvectors of both observables (of A0 and -A1) and give size-1
    blocks, while each eigenvector u at phase phi in (0, pi) pairs with A0 u
    to span a size-2 block. Phases within ``ANGLE_TOL`` are grouped, and the
    eigenvectors ``np.linalg.eig`` returns for a group are re-orthonormalized
    by one QR: eigenspaces of a unitary at distinct eigenvalues are
    orthogonal, so Gram-Schmidt inside a group keeps every vector in its
    eigenspace. A group within ``ANGLE_TOL`` of 0 (pi) is split by the
    principal angles of the +/-1 eigenspaces (Halmos 1969; Bjorck and Golub
    1973): within each eigenspace of A0 on the group, the right singular
    vectors of A1 - A0 (A1 + A0) with singular value at most the split
    threshold are common eigenvectors and give size-1 blocks. The threshold
    is the larger of ``EDGE_TOL`` and 8 max|Ai^2 - I| over the two
    observables, so settings rounded to 9 digits split at their own rounding
    level. The rest of an edge group holds 2x2 blocks at phases too close to
    the edge to tell apart; its +/- phases, from A0 A1 restricted to that
    rest, are paired like any other group's. The reconstruction from the
    returned blocks is verified to 1e-8.
    """
    mat0, mat1 = a0.matrix, a1.matrix
    if mat0.shape != mat1.shape:
        raise ValidationError("observables must act on the same space")
    d = mat0.shape[0]
    split = max(EDGE_TOL, 8.0 * max(float(np.max(np.abs(mat @ mat - np.eye(d)))) for mat in (mat0, mat1)))

    unitary = mat0 @ mat1
    eigvals, eigvecs = np.linalg.eig(unitary)
    phases = np.angle(eigvals)
    folded = np.abs(phases)

    order = np.argsort(folded, kind="stable")
    clusters: list[list[int]] = []
    for idx in order:
        if clusters and folded[idx] - folded[clusters[-1][-1]] <= ANGLE_TOL:
            clusters[-1].append(int(idx))
        else:
            clusters.append([int(idx)])

    blocks: list[ObservableBlock] = []
    for cluster in clusters:
        center = float(np.mean(folded[cluster]))
        edge = center <= ANGLE_TOL or center >= math.pi - ANGLE_TOL
        vectors, signs = eigvecs[:, cluster], phases[cluster]
        if edge:
            # On a near-edge block, A1 -/+ A0 is about its phase in size, so
            # rounding can mix its vectors into the 1x1 ones; within one
            # eigenspace of A0 such a mixture still leaves A0 reconstructed.
            cols = np.linalg.qr(vectors)[0]
            sign = 1.0 if center <= ANGLE_TOL else -1.0
            gap = (mat1 - sign * mat0) @ cols
            restricted = cols.conj().T @ mat0 @ cols
            values, within = np.linalg.eigh((restricted + restricted.conj().T) / 2.0)
            rest = []
            for side in (values < 0.0, values >= 0.0):
                _, singular, right = np.linalg.svd(gap @ within[:, side])
                part = cols @ within[:, side]
                for v in (part @ right[singular <= split].conj().T).T:
                    blocks.append(ObservableBlock(v.reshape(d, 1), *(
                        np.array([[complex(v.conj() @ (mat @ v)).real]], dtype=complex) for mat in (mat0, mat1))))
                rest.append(part @ right[singular > split].conj().T)
            rest = np.hstack(rest)
            rest_vals, rest_vecs = np.linalg.eig(rest.conj().T @ unitary @ rest)
            vectors, signs = rest @ rest_vecs, np.angle(rest_vals)
        if np.count_nonzero(signs > 0.0) != np.count_nonzero(signs <= 0.0):
            raise ValidationError("eigenphases of A0*A1 do not pair into conjugates")
        built = np.zeros((d, 0), dtype=complex)
        for u in np.linalg.qr(vectors[:, signs > 0.0])[0].T:
            if edge:
                # Near an edge the +phase eigenvectors carry about eps/phase of
                # other blocks' -phase ones, so each block is built orthogonal
                # to the earlier ones, which A0 and A1 leave invariant.
                u = u - built @ (built.conj().T @ u)
                u = u / np.linalg.norm(u)
            v2 = mat0 @ u
            v2 = v2 - (u.conj() @ v2) * u
            v2 = v2 / np.linalg.norm(v2)
            basis = np.column_stack([u, v2])
            built = np.column_stack([built, basis])
            blocks.append(ObservableBlock(
                basis=basis,
                a0=basis.conj().T @ mat0 @ basis,
                a1=basis.conj().T @ mat1 @ basis,
            ))

    result = ObservableBlocks(d, tuple(blocks))
    r0, r1 = result.embed()
    err = max(float(np.max(np.abs(r0 - mat0))), float(np.max(np.abs(r1 - mat1))))
    if not err <= 1e-8:  # NaN fails too
        raise ValidationError(f"block reconstruction error {err:.3g} exceeds 1e-8")
    return result


def _chsh_entries(a0: np.ndarray, a1: np.ndarray, b0: np.ndarray, b1: np.ndarray) -> np.ndarray:
    """A0 x (B0 + B1) + A1 x (B0 - B1) with beta[(i, j), (k, l)] at [i, k, j, l].

    Each entry is a0[i, k] (b0 + b1)[j, l] + a1[i, k] (b0 - b1)[j, l], the
    products in the operand order of ``np.kron``, so transposed to
    [i, j, k, l] it holds the bytes of the ``np.kron`` sum.
    """
    return a0[:, :, None, None] * (b0 + b1) + a1[:, :, None, None] * (b0 - b1)


def _chsh_matrix(a0: np.ndarray, a1: np.ndarray, b0: np.ndarray, b1: np.ndarray) -> np.ndarray:
    """:func:`_chsh_entries` as a square operator on the A x B space."""
    entries = _chsh_entries(a0, a1, b0, b1)
    side = entries.shape[0] * entries.shape[2]
    return entries.transpose(0, 2, 1, 3).reshape(side, side)


def chsh_operator(
    a0: DichotomicObservable,
    a1: DichotomicObservable,
    b0: DichotomicObservable,
    b1: DichotomicObservable,
) -> np.ndarray:
    """CHSH operator A0 x (B0 + B1) + A1 x (B0 - B1)."""
    if a0.dim != a1.dim or b0.dim != b1.dim:
        raise ValidationError("settings of one party must share a dimension")
    return _chsh_matrix(a0.matrix, a1.matrix, b0.matrix, b1.matrix)


def version_operator(
    alice: Sequence[DichotomicObservable],
    bob: Sequence[DichotomicObservable],
    version: int,
) -> np.ndarray:
    """CHSH operator of the given variant (1..4) for the two settings per side.

    Variant v weighs (A1 B1, A1 B2, A2 B1, A2 B2) by ``VERSION_SIGNS[v - 1]`` =
    (s, s, t, -t), so it is :func:`chsh_operator` of (s A1, t A2, B1, B2).
    """
    if version not in (1, 2, 3, 4):
        raise ValidationError("version must be in 1..4")
    a1, a2 = alice
    b1, b2 = bob
    if a1.dim != a2.dim or b1.dim != b2.dim:
        raise ValidationError("settings of one party must share a dimension")
    s, _, t, _ = VERSION_SIGNS[version - 1]
    return _chsh_matrix(s * a1.matrix, t * a2.matrix, b1.matrix, b2.matrix)


def _phase_sines(unitary: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|sin phi| and |cos phi| of the eigenvalues w = e^{i phi} of a unitary or a stack, from one ``eigvals``.

    Both are read relative to |w|; w off the unit circle by more than 1e-8 raises ``ValidationError``.
    """
    w = np.linalg.eigvals(unitary)
    modulus = np.abs(w)
    if np.max(np.abs(modulus - 1.0)) > 1e-8:
        raise ValidationError("eigenvalues of A0*A1 lie off the unit circle by more than 1e-8")
    return np.abs(w.imag) / modulus, np.abs(w.real) / modulus


def _block_sines(decomposition: ObservableBlocks) -> np.ndarray:
    """|sin| of each block's eigenphase: 0 on a 1x1 block, one stacked ``eigvals`` for the 2x2 blocks."""
    sines = np.zeros(len(decomposition.blocks))
    two = [k for k, block in enumerate(decomposition.blocks) if block.size == 2]
    if two:
        products = np.array([decomposition.blocks[k].a0 @ decomposition.blocks[k].a1 for k in two])
        sines[two] = _phase_sines(products)[0].min(axis=1)
    return sines


def block_chsh(a_blocks: ObservableBlocks, b_blocks: ObservableBlocks) -> ChshBlockStructure:
    """Restrict the CHSH operator to every block pair and record top eigenvalues.

    Each pair's operator is :func:`chsh_operator` of the two blocks'
    restrictions. Its top eigenvalue comes from Landau's
    identity, as in :func:`sep_bound`: alpha_ij = 2 sqrt(1 + s_i s_j), where
    s is the |sin| of a block's eigenphase, 0 on a 1x1 block. So a pair with
    a 1x1 block gets the classical value 2 and two blocks at phase pi/2 get
    2*sqrt(2).
    """
    s_a, s_b = _block_sines(a_blocks), _block_sines(b_blocks)
    pairs = tuple(
        BlockPair(i, j, _chsh_matrix(ab.a0, ab.a1, bb.a0, bb.a1), 2.0 * math.sqrt(1.0 + s_a[i] * s_b[j]))
        for i, ab in enumerate(a_blocks.blocks) for j, bb in enumerate(b_blocks.blocks)
    )
    return ChshBlockStructure(pairs, min((pair.alpha for pair in pairs), default=math.inf))


def chsh_spectrum(beta2q: np.ndarray) -> tuple[float, float]:
    """Spectral invariants (alpha1 >= alpha2 >= 0) of a two-qubit CHSH operator.

    The spectrum must consist of two +/- pairs with alpha1^2 + alpha2^2 = 8;
    inputs violating either property beyond ``SPECTRUM_TOL`` are rejected as
    not being CHSH operators of qubit +/-1 observables.
    """
    beta = _as_matrix(beta2q, "CHSH operator")
    if beta.shape != (4, 4):
        raise ValidationError("expected a 4x4 operator")
    w = np.linalg.eigvalsh((beta + beta.conj().T) / 2.0)
    if abs(w[0] + w[3]) > SPECTRUM_TOL or abs(w[1] + w[2]) > SPECTRUM_TOL:
        raise ValidationError("spectrum does not split into +/- pairs within tolerance")
    alpha1 = float((w[3] - w[0]) / 2.0)
    alpha2 = float((w[2] - w[1]) / 2.0)
    if abs(alpha1 * alpha1 + alpha2 * alpha2 - 8.0) > SPECTRUM_TOL:
        raise ValidationError("squared spectral pair does not sum to 8 within tolerance")
    return alpha1, alpha2


def sep_bound_value(lam: float) -> float:
    """Closed-form separable CHSH bound (lam + sqrt(8 - lam^2)) / 2."""
    return (lam + math.sqrt(max(0.0, 8.0 - lam * lam))) / 2.0


def sep_bound_formula(structure: ChshBlockStructure) -> float:
    """Separable bound of a block structure, driven by its smallest top eigenvalue."""
    return sep_bound_value(structure.lam)


def _check_see_saw_args(restarts: int, iters: int, seed: int) -> None:
    for name, value in (("restarts", restarts), ("iters", iters), ("seed", seed)):
        _checked_int(value, name)
    if restarts < 1:
        raise ValidationError("need at least one restart")
    if iters < 1:
        raise ValidationError("need at least one iteration")
    if seed < 0:
        raise ValidationError("seed must be a nonnegative integer")


def _see_saw(
    op_b: np.ndarray,
    dims: tuple[int, int],
    restarts: int,
    iters: int,
    seed: int,
) -> tuple[float, PureState]:
    """Batched see-saw over the two contraction matrices of a Hermitian CHSH operator beta.

    ``op_b[(i, k), (j, l)]`` holds ``beta[(i, j), (k, l)]``, so
    ``vec(conj(a) a^T) @ op_b`` is the operator on B with A contracted against
    a. Its transpose ``op_a`` contracts B likewise; it is built here as a
    C-ordered copy, since a matrix product against a transposed view can
    round differently. Every contracted matrix is symmetrized before ``eigh``.
    """
    d_a, d_b = dims
    op_a = op_b.T.copy()

    def top_eigvecs(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        w, vecs = np.linalg.eigh((mats + mats.conj().swapaxes(1, 2)) / 2.0)
        return w[:, -1], vecs[:, :, -1]

    def contract(op: np.ndarray, vecs: np.ndarray, side: int) -> np.ndarray:
        outer = vecs.conj()[:, :, None] * vecs[:, None, :]
        return (outer.reshape(len(vecs), -1) @ op).reshape(-1, side, side)

    starts = np.array([seeded_generator(seed, restart).normal(size=(2, d_b)) for restart in range(restarts)])
    b_vecs = starts[:, 0] + 1j * starts[:, 1]
    b_vecs /= np.linalg.norm(b_vecs, axis=1, keepdims=True)
    a_vecs = np.empty((restarts, d_a), dtype=complex)
    values = np.full(restarts, -math.inf)
    active = np.arange(restarts)
    for _ in range(iters):
        _, a_new = top_eigvecs(contract(op_a, b_vecs[active], d_a))
        new_values, b_new = top_eigvecs(contract(op_b, a_new, d_b))
        converged = new_values - values[active] < 1e-12
        a_vecs[active], b_vecs[active], values[active] = a_new, b_new, new_values
        active = active[~converged]
        if not active.size:
            break

    best = int(np.flatnonzero(values >= values.max() - 1e-9)[0])
    value = float(values[best])
    a_vec, b_vec = a_vecs[best], b_vecs[best]
    achieved = float(np.real(a_vec.conj() @ contract(op_a, b_vec[None], d_a)[0] @ a_vec))
    if abs(achieved - value) > 1e-9:
        raise ValidationError(f"see-saw state reaches {achieved:.12g}, not its value {value:.12g}")
    return value, PureState(np.kron(a_vec, b_vec), (d_a, d_b))


def sep_bound_oracle(
    beta: np.ndarray,
    dims: tuple[int, int],
    restarts: int = 32,
    iters: int = 500,
    seed: int = 0,
) -> tuple[float, PureState]:
    """Best CHSH value over pure product states found by alternating ascent.

    From a random product start, one side is fixed while the other is set to
    the top eigenvector of the contracted operator, back and forth until the
    value improves by less than 1e-12 or ``iters`` sweeps elapse. All restarts
    ascend together: each sweep contracts every active restart in one matrix
    product against beta reshaped to a (d^2, d^2) matrix per side, takes all
    top eigenvectors from one stacked ``eigh``, and drops the restarts that
    have converged. Each restart derives its start from ``(seed, restart)``,
    so runs are reproducible and restarts are independent. Many restarts tie
    at the optimum up to rounding, so the lowest-index restart within 1e-9 of
    the best is returned. Its value is a certified lower bound on the
    separable maximum, achieved by the returned product state.
    """
    _check_see_saw_args(restarts, iters, seed)
    if np.ndim(dims) != 1 or len(dims) != 2:
        raise ValidationError(f"dims must be a pair of integers, got {dims!r}")
    d_a, d_b = (_checked_int(d, "dims entry") for d in dims)
    if d_a < 1 or d_b < 1:
        raise ValidationError(f"dims entries must be at least 1, got {dims}")
    beta = _as_matrix(beta, "operator")
    if beta.shape != (d_a * d_b, d_a * d_b):
        raise ValidationError(f"operator side {beta.shape[0]} does not match dims {dims}")
    if hermitian_deviation(beta) > DEFAULT_TOL:
        raise ValidationError("operator must be Hermitian")
    op_b = beta.reshape(d_a, d_b, d_a, d_b).transpose(0, 2, 1, 3).reshape(d_a * d_a, d_b * d_b)
    return _see_saw(op_b, (d_a, d_b), restarts, iters, seed)


def _min_phase_sine(a0: DichotomicObservable, a1: DichotomicObservable) -> tuple[float, float]:
    """Smallest |sin phi| over the eigenvalues w = e^{i phi} of A0 A1, and 1 minus it.

    With c = |Re w| / |w|, 1 - |sin phi| is formed as c^2 / (1 + |sin phi|),
    which keeps its relative accuracy where |sin phi| is close to 1.
    """
    if a0.dim != a1.dim:
        raise ValidationError("observables must act on the same space")
    sines, cosines = _phase_sines(a0.matrix @ a1.matrix)
    k = int(np.argmin(sines))
    return float(sines[k]), float(cosines[k] ** 2 / (1.0 + sines[k]))


def sep_bound(
    a0: DichotomicObservable,
    a1: DichotomicObservable,
    b0: DichotomicObservable,
    b1: DichotomicObservable,
    with_oracle: bool = True,
    restarts: int = 32,
    iters: int = 500,
    seed: int = 0,
) -> tuple[ChshBlockStructure, SepBoundResult]:
    """Closed-form separable bound from eigenphases, with an optional see-saw check.

    On a 2x2 Jordan block at phase phi, A0 = X and A1 = cos(phi) X + sin(phi) Y,
    so [A0, A1] = 2i sin(phi) Z. Landau's identity
    beta^2 = 4I - [A0, A1] x [B0, B1] then gives block pair (i, j) the top
    eigenvalue alpha_ij = 2 sqrt(1 + sin(phi_i) sin(psi_j)), where phi_i and
    psi_j lie in [0, pi]; a 1x1 block has sin = 0. Hence
    lam = min alpha_ij = 2 sqrt(1 + p) with p = s_A s_B, where s_A is the
    smallest |sin| over the eigenphases of A0 A1 and s_B that of B0 B1, and
    the bound (lam + sqrt(8 - lam^2)) / 2 equals sqrt(1 + p) + sqrt(1 - p).
    No blocks are built: two ``eigvals`` calls suffice. 1 - p is formed as
    (1 - s_A) + s_A (1 - s_B), so the ideal settings give sqrt(2) without
    snapping. Eigenvalues off the unit circle by more than 1e-8 raise
    ``ValidationError``.

    The returned structure lists no block pairs (only :func:`block_chsh`
    does) and carries lam for :func:`sep_bound_formula`; near
    lam = 2 sqrt(2) that recomputes the bound from the rounded lam, so
    ``formula_value`` is the accurate one. The see-saw runs on the
    :func:`_chsh_entries` of the observables, reshaped without a copy, so it
    returns the bytes :func:`sep_bound_oracle` returns on
    :func:`chsh_operator`. No Hermiticity check runs here: each observable
    was checked when it was built.
    """
    s_a, gap_a = _min_phase_sine(a0, a1)
    s_b, gap_b = _min_phase_sine(b0, b1)
    p = s_a * s_b
    structure = ChshBlockStructure((), 2.0 * math.sqrt(1.0 + p))
    formula = math.sqrt(1.0 + p) + math.sqrt(gap_a + s_a * gap_b)
    if not with_oracle:
        return structure, SepBoundResult(formula)
    _check_see_saw_args(restarts, iters, seed)
    d_a, d_b = a0.dim, b0.dim
    op_b = _chsh_entries(a0.matrix, a1.matrix, b0.matrix, b1.matrix).reshape(d_a * d_a, -1)
    value, state = _see_saw(op_b, (d_a, d_b), restarts, iters, seed)
    return structure, SepBoundResult(formula, value, state)
