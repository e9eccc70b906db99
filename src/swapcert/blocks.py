"""Block decomposition of +/-1 observable pairs and separable CHSH bounds.

Any two observables squaring to the identity decompose the space into
invariant subspaces of dimension at most two. The CHSH operator built from
two such pairs then splits into a direct sum over block pairs, whose top
eigenvalues pin down the largest CHSH value reachable by separable states.
A see-saw ascent over pure product states provides an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import certify, protocol
from .certify import SQRT2, TSIRELSON
from .linalg import (
    DensityMatrix,
    PureState,
    ValidationError,
    _as_matrix,
    _checked_int,
    hermitian_deviation,
    seeded_generator,
)
from .measurements import DichotomicObservable, FourOutcomeMeasurement

# Eigenphases of the product A0*A1 closer than this are grouped together. A
# 2x2 block whose phase lies within it of 0 or pi is split into 1x1 blocks,
# which fails the 1e-8 reconstruction check once the phase exceeds about 2e-8.
ANGLE_TOL = 1e-7


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
    pairs: tuple[BlockPair, ...]
    lam: float  # smallest alpha over all block pairs


@dataclass(frozen=True)
class SepBoundResult:
    """Separable bound from the closed form, optionally cross-checked by see-saw."""

    formula_value: float
    oracle_value: float | None = None
    oracle_state: PureState | None = None


@dataclass(frozen=True)
class TheoremCheckReport:
    """Outcome of the separable-steering check on a planted maximal instance."""

    alphas: tuple[tuple[int, int, float], ...]
    version_values: np.ndarray  # [c, v], NaN for outcomes without statistics
    max_value: float
    bound: float
    satisfied: bool


def jordan_blocks(a0: DichotomicObservable, a1: DichotomicObservable) -> ObservableBlocks:
    """Split a pair of +/-1 observables into jointly invariant blocks of size <= 2.

    The unitary U = A0 A1 is diagonalized; eigenvectors at phase 0 (pi) are
    common eigenvectors of both observables (of A0 and -A1) and give size-1
    blocks, while each eigenvector u at phase phi in (0, pi) pairs with A0 u
    to span a size-2 block. Phases within ``ANGLE_TOL`` are grouped, and the
    eigenvectors ``np.linalg.eig`` returns for a group are re-orthonormalized
    by one QR: eigenspaces of a unitary at distinct eigenvalues are
    orthogonal, so Gram-Schmidt inside a group keeps every vector in its
    eigenspace. The reconstruction from the returned blocks is verified to
    1e-8.
    """
    mat0, mat1 = a0.matrix, a1.matrix
    if mat0.shape != mat1.shape:
        raise ValidationError("observables must act on the same space")
    d = mat0.shape[0]

    eigvals, eigvecs = np.linalg.eig(mat0 @ mat1)
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
        if center <= ANGLE_TOL or center >= math.pi - ANGLE_TOL:
            # Common invariant subspace: A1 = +/-A0 there. Diagonalizing the
            # restriction of A0 yields simultaneous eigenvectors.
            cols = np.linalg.qr(eigvecs[:, cluster])[0]
            restricted = cols.conj().T @ mat0 @ cols
            _, w_vecs = np.linalg.eigh((restricted + restricted.conj().T) / 2.0)
            for k in range(w_vecs.shape[1]):
                v = cols @ w_vecs[:, k]
                e0 = complex(v.conj() @ (mat0 @ v)).real
                e1 = complex(v.conj() @ (mat1 @ v)).real
                blocks.append(ObservableBlock(
                    basis=v.reshape(d, 1),
                    a0=np.array([[e0]], dtype=complex),
                    a1=np.array([[e1]], dtype=complex),
                ))
        else:
            positive = [idx for idx in cluster if phases[idx] > 0.0]
            negative = [idx for idx in cluster if phases[idx] <= 0.0]
            if len(positive) != len(negative):
                raise ValidationError("eigenphases of A0*A1 do not pair into conjugates")
            for u in np.linalg.qr(eigvecs[:, positive])[0].T:
                v2 = mat0 @ u
                v2 = v2 - (u.conj() @ v2) * u
                v2 = v2 / np.linalg.norm(v2)
                basis = np.column_stack([u, v2])
                blocks.append(ObservableBlock(
                    basis=basis,
                    a0=basis.conj().T @ mat0 @ basis,
                    a1=basis.conj().T @ mat1 @ basis,
                ))

    result = ObservableBlocks(d, tuple(blocks))
    if sum(b.size for b in blocks) != d:
        raise ValidationError("block dimensions do not sum to the parent dimension")
    r0, r1 = result.embed()
    err = max(float(np.max(np.abs(r0 - mat0))), float(np.max(np.abs(r1 - mat1))))
    if err > 1e-8:
        raise ValidationError(f"block reconstruction error {err:.3g} exceeds 1e-8")
    return result


def _chsh_products(a0: np.ndarray, a1: np.ndarray, b0: np.ndarray, b1: np.ndarray) -> np.ndarray:
    """CHSH operators A0 x (B0 + B1) + A1 x (B0 - B1) of every pair from a stack of A and of B settings.

    ``a0`` and ``a1`` are ``(m, p, p)``, ``b0`` and ``b1`` are ``(n, q, q)``,
    and the result is ``(m, n, pq, pq)``. Each Kronecker entry is the single
    product that ``np.kron`` forms, so every operator has the bytes of the
    ``np.kron`` sum of its pair.
    """
    (m, p), (n, q) = a0.shape[:2], b0.shape[:2]

    def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a[:, None, :, None, :, None] * b[None, :, None, :, None, :]).reshape(m, n, p * q, p * q)

    return kron(a0, b0 + b1) + kron(a1, b0 - b1)


def chsh_operator(
    a0: DichotomicObservable,
    a1: DichotomicObservable,
    b0: DichotomicObservable,
    b1: DichotomicObservable,
) -> np.ndarray:
    """CHSH operator A0 x (B0 + B1) + A1 x (B0 - B1)."""
    if a0.dim != a1.dim or b0.dim != b1.dim:
        raise ValidationError("settings of one party must share a dimension")
    return _chsh_products(*(obs.matrix[None] for obs in (a0, a1, b0, b1)))[0, 0]


def block_chsh(a_blocks: ObservableBlocks, b_blocks: ObservableBlocks) -> ChshBlockStructure:
    """Restrict the CHSH operator to every block pair and record top eigenvalues.

    The pairs are handled by size class (1x1, 1x2, 2x1 and 2x2 blocks): the
    operators of one class come from one broadcast product and their spectra
    from one stacked ``eigvalsh``. Alpha is the spectral radius. Two-qubit
    block pairs have a +/- symmetric spectrum, so it is their top eigenvalue.
    Pairs with a scalar factor carry no CHSH structure and the radius pins
    them to the classical value 2; two 1x1 blocks get 2 without a spectrum.
    Eigensolver noise within 1e-9 of 2 or 2*sqrt(2) is snapped to the edge:
    sqrt(8 - alpha^2) is infinitely steep at the ceiling, so femto-scale
    noise there would otherwise blow up in the separable bound.
    """
    def size_class(decomposition: ObservableBlocks, size: int) -> tuple[list[int], np.ndarray, np.ndarray]:
        idx = [k for k, block in enumerate(decomposition.blocks) if block.size == size]
        chosen = [decomposition.blocks[k] for k in idx]
        return idx, np.array([block.a0 for block in chosen]), np.array([block.a1 for block in chosen])

    operators: dict[tuple[int, int], np.ndarray] = {}
    alphas: dict[tuple[int, int], float] = {}
    b_classes = [size_class(b_blocks, 1), size_class(b_blocks, 2)]
    for size_a in (1, 2):
        rows, a0, a1 = size_class(a_blocks, size_a)
        for size_b, (cols, b0, b1) in zip((1, 2), b_classes):
            if not rows or not cols:
                continue
            betas = _chsh_products(a0, a1, b0, b1)
            if size_a == size_b == 1:
                alpha = np.full((len(rows), len(cols)), 2.0)
            else:
                w = np.linalg.eigvalsh((betas + betas.conj().swapaxes(-1, -2)) / 2.0)
                alpha = np.maximum(w[..., -1], -w[..., 0])
                alpha[np.abs(alpha - 2.0) <= 1e-9] = 2.0
                alpha[np.abs(alpha - TSIRELSON) <= 1e-9] = TSIRELSON
            for r, i in enumerate(rows):
                for c, j in enumerate(cols):
                    operators[i, j], alphas[i, j] = betas[r, c], float(alpha[r, c])
    pairs = tuple(BlockPair(i, j, operators[i, j], alphas[i, j])
                  for i in range(len(a_blocks.blocks)) for j in range(len(b_blocks.blocks)))
    return ChshBlockStructure(pairs, min((pair.alpha for pair in pairs), default=math.inf))


def chsh_spectrum(beta2q: np.ndarray, tol: float = 1e-8) -> tuple[float, float]:
    """Spectral invariants (alpha1 >= alpha2 >= 0) of a two-qubit CHSH operator.

    The spectrum must consist of two +/- pairs with alpha1^2 + alpha2^2 = 8;
    inputs violating either property beyond ``tol`` are rejected as not being
    CHSH operators of qubit +/-1 observables.
    """
    beta = _as_matrix(beta2q, "CHSH operator")
    if beta.shape != (4, 4):
        raise ValidationError("expected a 4x4 operator")
    w = np.linalg.eigvalsh((beta + beta.conj().T) / 2.0)
    if abs(w[0] + w[3]) > tol or abs(w[1] + w[2]) > tol:
        raise ValidationError("spectrum does not split into +/- pairs within tolerance")
    alpha1 = float((w[3] - w[0]) / 2.0)
    alpha2 = float((w[2] - w[1]) / 2.0)
    if abs(alpha1 * alpha1 + alpha2 * alpha2 - 8.0) > tol:
        raise ValidationError("squared spectral pair does not sum to 8 within tolerance")
    return alpha1, alpha2


def sep_bound_value(lam: float) -> float:
    """Closed-form separable CHSH bound (lam + sqrt(8 - lam^2)) / 2."""
    return (lam + math.sqrt(max(0.0, 8.0 - lam * lam))) / 2.0


def sep_bound_formula(structure: ChshBlockStructure) -> float:
    """Separable bound of a block structure, driven by its smallest top eigenvalue."""
    return sep_bound_value(structure.lam)


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
    for name, value in (("restarts", restarts), ("iters", iters), ("seed", seed)):
        _checked_int(value, name)
    if np.ndim(dims) != 1 or len(dims) != 2:
        raise ValidationError(f"dims must be a pair of integers, got {dims!r}")
    d_a, d_b = (_checked_int(d, "dims entry") for d in dims)
    beta = _as_matrix(beta, "operator")
    if beta.shape != (d_a * d_b, d_a * d_b):
        raise ValidationError(f"operator side {beta.shape[0]} does not match dims {dims}")
    if hermitian_deviation(beta) > 1e-9:
        raise ValidationError("operator must be Hermitian")
    if restarts < 1:
        raise ValidationError("need at least one restart")
    if iters < 1:
        raise ValidationError("need at least one iteration")
    if seed < 0:
        raise ValidationError("seed must be a nonnegative integer")
    reshaped = beta.reshape(d_a, d_b, d_a, d_b)
    # op_a[(j,l), (i,k)] = beta[(i,j), (k,l)], so vec(conj(b) b^T) @ op_a is the
    # operator on A with B contracted against b; op_b likewise with A contracted.
    op_a = reshaped.transpose(1, 3, 0, 2).reshape(d_b * d_b, d_a * d_a)
    op_b = reshaped.transpose(0, 2, 1, 3).reshape(d_a * d_a, d_b * d_b)

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
    state = PureState(np.kron(a_vecs[best], b_vecs[best]), (d_a, d_b))
    achieved = float(np.real(state.vector.conj() @ beta @ state.vector))
    if abs(achieved - value) > 1e-9:
        raise ValidationError(f"see-saw state reaches {achieved:.12g}, not its value {value:.12g}")
    return value, state


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
    """Block structure, closed-form separable bound and optional see-saw check."""
    structure = block_chsh(jordan_blocks(a0, a1), jordan_blocks(b0, b1))
    formula = sep_bound_formula(structure)
    if not with_oracle:
        return structure, SepBoundResult(formula)
    beta = chsh_operator(a0, a1, b0, b1)
    value, state = sep_bound_oracle(beta, (a0.dim, b0.dim), restarts, iters, seed)
    return structure, SepBoundResult(formula, value, state)


def theorem_check(
    state: DensityMatrix,
    alice: Sequence[DichotomicObservable],
    bob: Sequence[DichotomicObservable],
    charlie3: FourOutcomeMeasurement,
    alpha_tol: float = 1e-8,
    bound_tol: float = 1e-8,
) -> TheoremCheckReport:
    """Check that all conditional CHSH values stay at or below sqrt(2).

    The end-party settings must be such that every block pair of their CHSH
    operator has top eigenvalue 2*sqrt(2) (the planted maximal-violation
    structure); anything else is rejected as an invalid construction. All four
    variants are evaluated on every steered state, so the reported maximum
    covers any outcome relabeling.
    """
    structure = block_chsh(jordan_blocks(alice[0], alice[1]), jordan_blocks(bob[0], bob[1]))
    alphas = []
    for pair in structure.pairs:
        if abs(pair.alpha - TSIRELSON) > alpha_tol:
            raise ValidationError(
                f"block pair ({pair.row}, {pair.col}) has top eigenvalue "
                f"{pair.alpha:.12g}, expected 2*sqrt(2)"
            )
        alphas.append((pair.row, pair.col, pair.alpha))

    operators = [certify.version_operator(alice, bob, v) for v in (1, 2, 3, 4)]
    values = np.full((4, 4), math.nan)
    for c, (_, steered) in enumerate(protocol.steer(state, charlie3)):
        if steered is None:
            continue
        for v, op in enumerate(operators):
            values[c, v] = float(np.trace(op @ steered.matrix).real)
    max_value = float(np.nanmax(values))
    return TheoremCheckReport(
        alphas=tuple(alphas),
        version_values=values,
        max_value=max_value,
        bound=SQRT2,
        satisfied=max_value <= SQRT2 + bound_tol,
    )
