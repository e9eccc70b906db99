"""Block decomposition of +/-1 observable pairs and separable CHSH bounds.

Any two observables squaring to the identity decompose the space into
invariant subspaces of dimension at most two. The CHSH operator built from
two such pairs then splits into a direct sum over block pairs. By Landau's
identity the top eigenvalue of a block pair depends only on the two blocks'
eigenphases, and the smallest of them pins down the largest CHSH value
reachable by separable states; so both the block table and the bound are
read from the eigenphases that :func:`jordan_blocks` records for each block
of A0 A1 and B0 B1, from one ``eig`` of each product. On request
:func:`sep_bound` checks the bound against the separable maximum read block
pair by block pair from the same Jordan blocks (:func:`block_witness`),
which a product state reaches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .certify import VERSION_SIGNS
from .linalg import PureState, ValidationError, _as_matrix, _checked_int
from .measurements import PAULI_X, PAULI_Y, PAULI_Z, DichotomicObservable

# Floor of the 1x1-block split: an eigenvalue w of A0 A1 with |w - 1| (|w + 1|)
# below this, or below 8 times the larger residual max|A^2 - I| of the two
# observables, marks a 1x1 block at phase 0 (pi); so does, within an eigenspace
# of A0, a vector on which A1 - A0 (A1 + A0) is below it. On settings rounded to
# 9 digits, a 1x1 vector measured at most 3.1 times that residual and a 2x2
# block 5e-8 from the edge at least 49 times it.
EDGE_TOL = 1e-9

# chsh_spectrum: slack of the +/- pairing and of alpha1^2 + alpha2^2 = 8.
SPECTRUM_TOL = 1e-8

# Largest distance from the unit circle accepted for an eigenvalue of A0 A1.
# An observable passes its checks squaring to I within DEFAULT_TOL = 1e-9,
# which moves these eigenvalues off the circle by about as much; a pair that
# is not a product of two +/-1 observables lands far outside.
UNIT_CIRCLE_TOL = 1e-8

# Largest entry of the observables reassembled from jordan_blocks minus the
# input. Correct blocks reassemble at rounding level (about 1e-15 at d = 16);
# criterion 08 of the acceptance suite holds the decomposition to this bound.
RECONSTRUCTION_TOL = 1e-8

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
    """Complete block decomposition of a +/-1 observable pair, with cos phi and |sin phi| of each block's eigenphase.

    The last three fields record how the split went and are never printed; a
    ``split_margin`` near 0 means rounding could tip a 2x2 block into two 1x1 ones.
    """

    basis: np.ndarray  # d x d, read-only and orthonormal: the block bases side by side
    restricted: np.ndarray  # (2, d, d), read-only: basis^dagger A0 basis and A1's, 0 off the diagonal blocks
    blocks: tuple[ObservableBlock, ...]  # views of basis's columns and restricted's diagonal blocks
    sines: tuple[float, ...]  # 0 on a 1x1 block; on a 2x2 block from the eigenvalue of A0 A1 that built it
    cosines: tuple[float, ...]  # +/-1 on a 1x1 block, the product of its two restrictions
    split: float  # the threshold jordan_blocks split the 1x1 blocks off at
    split_margin: float  # smallest |min(|w - 1|, |w + 1|) - split| over the eigenvalues w of A0 A1
    reconstruction_error: float  # largest entry of embed() minus the input, at most RECONSTRUCTION_TOL

    def embed(self) -> tuple[np.ndarray, np.ndarray]:
        """Reassemble the full observables as ``basis @ restricted @ basis^dagger``, one batched product for both."""
        return tuple(self.basis @ self.restricted @ self.basis.conj().T)


@dataclass(frozen=True)
class BlockPair:
    """One block pair and the top eigenvalue of the CHSH operator restricted to it."""

    row: int
    col: int
    alpha: float


@dataclass(frozen=True)
class ChshBlockStructure:
    """The alpha table of the block pairs, their smallest top eigenvalue and the separable bound it gives."""

    alpha: np.ndarray  # read-only, [row, col]: the top eigenvalue on A's block row and B's block col
    bound: float  # (lam + sqrt(8 - lam^2)) / 2, read from the eigenphases without rounding through lam

    @property
    def lam(self) -> float:
        """The smallest alpha over all block pairs."""
        return float(self.alpha.min())

    @cached_property
    def pairs(self) -> tuple[BlockPair, ...]:
        """The table as (row, col, alpha) in row-major order, built on first read."""
        return tuple(BlockPair(i, j, value) for i, row in enumerate(self.alpha.tolist()) for j, value in enumerate(row))


@dataclass(frozen=True)
class SepBoundResult:
    """Separable bound from the closed form, optionally with the block-wise maximum and a product state reaching it."""

    formula_value: float
    oracle_value: float | None = None
    oracle_state: PureState | None = None


def _unit_phases(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos phi and |sin phi| of eigenvalues w = e^{i phi} of A0 A1, both read relative to |w|.

    w off the unit circle by more than ``UNIT_CIRCLE_TOL`` raises ``ValidationError``.
    """
    modulus = np.abs(w)
    if np.any(np.abs(modulus - 1.0) > UNIT_CIRCLE_TOL):
        raise ValidationError(f"eigenvalues of A0*A1 lie off the unit circle by more than {UNIT_CIRCLE_TOL:g}")
    return w.real / modulus, np.abs(w.imag) / modulus


def _common_eigenvectors(mat0: np.ndarray, mat1: np.ndarray, split: float) -> tuple[np.ndarray, np.ndarray]:
    """Columns of the 1x1 blocks at phase 0 and at phase pi of U = A0 A1, found by principal angles.

    Within each eigenspace of A0, from one ``eigh``, the right singular
    vectors of A1 - A0 with singular value at most ``split`` are 1x1 blocks
    at phase 0, and then, on what is left, those of A1 + A0 are 1x1 blocks
    at phase pi (Halmos 1969; Bjorck and Golub 1973): four SVDs in all.
    """
    values, eigvecs = np.linalg.eigh(mat0)
    at_zero, at_pi = [], []
    moves = [(at_zero, mat1 + -1.0 * mat0), (at_pi, mat1 + 1.0 * mat0)]  # not mat1 - mat0: it can flip a zero's sign
    for space in (eigvecs[:, values < 0.0], eigvecs[:, values >= 0.0]):
        for ones, move in moves:
            _, singular, right = np.linalg.svd(move @ space, full_matrices=False)
            ones.append(space @ right[singular <= split].conj().T)
            space = space @ right[singular > split].conj().T
    return np.hstack(at_zero), np.hstack(at_pi)


def jordan_blocks(a0: DichotomicObservable, a1: DichotomicObservable) -> ObservableBlocks:
    """Split a pair of +/-1 observables into jointly invariant blocks of size <= 2.

    One ``eig`` of U = A0 A1 on the whole space reads every eigenphase. An
    eigenvalue w with min(|w - 1|, |w + 1|) at most ``split`` marks a 1x1
    block: |e^{i phi} - 1| = 2 sin(phi/2) is the principal-angle singular
    value on a 2x2 block at phase phi. ``split`` is the larger of
    ``EDGE_TOL`` and 8 times the larger ``involution_residual`` max|Ai^2 - I|,
    so settings rounded to 9 digits split at their own rounding level. Only
    when such an eigenvalue exists does :func:`_common_eigenvectors` run, and
    the common eigenvectors it finds must be as many, or ``ValidationError``
    is raised. The other eigenphases must pair into conjugates; each
    eigenvector u at a positive phase pairs with A0 u to span a 2x2 block.
    Blocks are listed by ascending phase, 1x1 blocks at 0 first and at pi
    last. One QR of their columns in that order, with R's diagonal made
    real and positive, gives the orthonormal basis that Gram-Schmidt would
    (``eig`` returns eigenvectors at close phases non-orthogonal), and one
    batched product Q^dagger A Q gives every restriction. Every eigenvalue
    w of U, and on a 1x1 block the product of its two real restrictions,
    must lie within ``UNIT_CIRCLE_TOL`` of the unit circle or raises
    ``ValidationError``; each block records cos phi and |sin phi| of its w
    at phase phi in [0, pi]. Q and the restrictions R, set to 0 off the
    diagonal blocks, are kept as ``basis`` and ``restricted``; Q R Q^dagger
    must give back the input within ``RECONSTRUCTION_TOL``, and that
    ``reconstruction_error`` is recorded too, as is ``split_margin``.
    """
    mat0, mat1 = a0.matrix, a1.matrix
    if mat0.shape != mat1.shape:
        raise ValidationError("observables must act on the same space")
    d = mat0.shape[0]
    split = max(EDGE_TOL, 8.0 * max(a0.involution_residual, a1.involution_residual))

    w, vecs = np.linalg.eig(mat0 @ mat1)
    edge = np.minimum(np.abs(w - 1.0), np.abs(w + 1.0))
    at_edge = edge <= split
    at_zero = at_pi = np.empty((d, 0), dtype=complex)
    if at_edge.any():
        at_zero, at_pi = _common_eigenvectors(mat0, mat1, split)
        found, n_edge = at_zero.shape[1] + at_pi.shape[1], np.count_nonzero(at_edge)
        if found != n_edge:
            raise ValidationError(f"{n_edge} eigenvalues of A0*A1 lie at +/-1, but principal angles find {found} "
                                  "common eigenvectors of A0 and A1")
    rest = np.flatnonzero(~at_edge)
    phases = np.angle(w[rest])
    up = phases > 0.0
    if 2 * np.count_nonzero(up) != len(rest):
        raise ValidationError("eigenphases of A0*A1 do not pair into conjugates")
    positive = rest[up][np.argsort(phases[up], kind="stable")]
    twos = vecs[:, positive]
    pairs = np.stack([twos, mat0 @ twos], axis=2).reshape(d, 2 * len(positive))  # u1, A0 u1, u2, A0 u2, ...
    q, r = np.linalg.qr(np.hstack([at_zero, pairs, at_pi]))
    q *= r.diagonal() / np.abs(r.diagonal())  # R's diagonal real and positive, as Gram-Schmidt makes it
    observables = np.array([mat0, mat1])
    restricted = q.conj().T @ observables @ q

    n0, n_pi = at_zero.shape[1], at_pi.shape[1]
    ones = list(range(n0)) + list(range(d - n_pi, d))  # the columns of the 1x1 blocks
    restricted[:, ones, ones] = restricted[:, ones, ones].real  # a common eigenvector: real eigenvalues
    sizes = [1] * n0 + [2] * len(positive) + [1] * n_pi
    label = np.repeat(np.arange(len(sizes)), sizes)  # the block of each column
    restricted[:, label[:, None] != label] = 0.0  # rounding leaks between blocks; embed() reads none of it
    # one unit-circle read of every eigenvalue of A0 A1 and of each 1x1 block's product of restrictions
    read = np.concatenate([restricted[0, ones, ones] * restricted[1, ones, ones], w])
    in_block_order = np.concatenate([np.arange(n0), len(ones) + positive, np.arange(n0, len(ones))])
    cosines, sines = (tuple(x[in_block_order].tolist()) for x in _unit_phases(read))
    err = float(np.max(np.abs(q @ restricted @ q.conj().T - observables)))
    if not err <= RECONSTRUCTION_TOL:  # NaN fails too
        raise ValidationError(f"block reconstruction error {err:.3g} exceeds {RECONSTRUCTION_TOL:g}")
    for array in (q, restricted):
        array.setflags(write=False)
    starts = ones[:n0] + list(range(n0, d - n_pi, 2)) + ones[n0:]
    blocks = tuple(ObservableBlock(q[:, k:k + size], *restricted[:, k:k + size, k:k + size])
                   for k, size in zip(starts, sizes))
    return ObservableBlocks(q, restricted, blocks, sines, cosines, split, float(np.min(np.abs(edge - split))), err)


def _chsh_matrix(a0: np.ndarray, a1: np.ndarray, b0: np.ndarray, b1: np.ndarray) -> np.ndarray:
    """A0 x (B0 + B1) + A1 x (B0 - B1) as a square operator on the A x B space.

    Entry beta[(i, j), (k, l)] is a0[i, k] (b0 + b1)[j, l] + a1[i, k] (b0 - b1)[j, l],
    the products in the operand order of ``np.kron``, so it holds the bytes
    of the ``np.kron`` sum.
    """
    side = a0.shape[0] * b0.shape[0]
    plus, minus = (b0 + b1)[None, :, None, :], (b0 - b1)[None, :, None, :]
    return (a0[:, None, :, None] * plus + a1[:, None, :, None] * minus).reshape(side, side)


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
    ``version`` is read by :func:`_checked_int`.
    """
    version = _checked_int(version, "version")
    if version not in (1, 2, 3, 4):
        raise ValidationError("version must be in 1..4")
    a1, a2 = alice
    b1, b2 = bob
    if a1.dim != a2.dim or b1.dim != b2.dim:
        raise ValidationError("settings of one party must share a dimension")
    s, _, t, _ = VERSION_SIGNS[version - 1]
    return _chsh_matrix(s * a1.matrix, t * a2.matrix, b1.matrix, b2.matrix)


def block_chsh(a_blocks: ObservableBlocks, b_blocks: ObservableBlocks) -> ChshBlockStructure:
    """The alpha table of every block pair, row by A's block and column by B's, and the separable bound.

    alpha is the top eigenvalue of the CHSH operator restricted to the pair.
    On a 2x2 Jordan block at phase phi, A0 = X and A1 = cos(phi) X + sin(phi) Y,
    so [A0, A1] = 2i sin(phi) Z. Landau's identity
    beta^2 = 4I - [A0, A1] x [B0, B1] then gives, without building the
    operator, alpha_ij = 2 sqrt(1 + s_i s_j), where s is the |sin| of a
    block's eigenphase that :func:`jordan_blocks` recorded in ``sines`` (0 on
    a 1x1 block), so the whole table is one broadcast and no eigensolver
    runs. A pair with a 1x1 block gets the classical value 2 and two blocks
    at phase pi/2 get 2*sqrt(2).

    Hence lam = min alpha_ij = 2 sqrt(1 + p) with p = s_A s_B, the product of
    each party's smallest sine, and the bound (lam + sqrt(8 - lam^2)) / 2
    equals sqrt(1 + p) + sqrt(1 - p). ``bound`` forms 1 - s as c^2 / (1 + s)
    with c the block's ``cosines`` entry, which keeps its relative accuracy
    where s is close to 1, and 1 - p as (1 - s_A) + s_A (1 - s_B), so the
    ideal settings give sqrt(2) without snapping.
    """
    alpha = 2.0 * np.sqrt(1.0 + np.outer(a_blocks.sines, b_blocks.sines))
    alpha.setflags(write=False)
    sides = []
    for side in (a_blocks, b_blocks):
        k = int(np.argmin(side.sines))
        s, c = side.sines[k], side.cosines[k]
        sides.append((s, c * c / (1.0 + s)))
    (s_a, gap_a), (s_b, gap_b) = sides
    bound = math.sqrt(1.0 + s_a * s_b) + math.sqrt(gap_a + s_a * gap_b)
    return ChshBlockStructure(alpha, bound)


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
    """Separable bound of a block structure: its ``bound``, the closed form that :func:`block_chsh` reads accurately."""
    return structure.bound


# A 2x2 restriction r has the Bloch vector Re tr(r sigma_k) / 2 over these.
_PAULIS = np.array([PAULI_X, PAULI_Y, PAULI_Z])

# Mixes B's rows (B0, B1) into (B0 + B1, B0 - B1), the partners of A0 and A1 in the CHSH operator.
_CHSH_MIX = np.array([[1.0, 1.0], [1.0, -1.0]])


def _block_coordinates(block: ObservableBlock) -> np.ndarray:
    """Rows (X0, X1) of a block's restrictions: their +/-1 values on a 1x1 block, their Bloch vectors on a 2x2."""
    if block.size == 1:
        return np.array([[block.a0[0, 0].real], [block.a1[0, 0].real]])
    return np.einsum("kij,nji->nk", _PAULIS, np.array([block.a0, block.a1])).real / 2.0


def _qubit_state(bloch: np.ndarray) -> np.ndarray:
    """(1 + z, x + iy), or (x - iy, 1 - z) if z < 0, normalized: Bloch vector (x, y, z); [1] on a 1x1 block."""
    if bloch.size == 1:
        return np.ones(1, dtype=complex)
    x, y, z = bloch
    vec = np.array([1.0 + z, x + 1j * y]) if z >= 0.0 else np.array([x - 1j * y, 1.0 - z])
    return vec / np.linalg.norm(vec)


def block_witness(
    a0: DichotomicObservable,
    a1: DichotomicObservable,
    b0: DichotomicObservable,
    b1: DichotomicObservable,
    a_blocks: ObservableBlocks,
    b_blocks: ObservableBlocks,
) -> tuple[float, PureState]:
    """Separable maximum of A0 x (B0 + B1) + A1 x (B0 - B1) from the Jordan blocks, and a product state reaching it.

    ``a_blocks`` and ``b_blocks`` are the :func:`jordan_blocks` of (a0, a1)
    and (b0, b1). The operator is block diagonal over block pairs, so a
    product state's value is a convex combination of block-pair values and
    the separable maximum is the best pair's (Masanes 2006). In coordinates
    (a 2x2 restriction's real Bloch vector, a 1x1 one's +/-1 value) a pair's
    product-state value is m^T T n with T = a0 (b0 + b1)^T + a1 (b0 - b1)^T,
    whose maximum sigma_1(T) is sqrt(1 + p) + sqrt(1 - p) with p = s_i s_j,
    except on two 1x1 blocks, where T is one signed value (-2 possibly). The
    best pair's top singular vectors, a 1x1 block's coordinate turned to +1,
    give the qubit states, embedded through the block bases. The value is
    the state's Rayleigh quotient on the full observables through the two
    product terms, so the state reaches it and no d^4 array is built.
    """
    p = np.outer(a_blocks.sines, b_blocks.sines)
    pair_max = np.sqrt(1.0 + p) + np.sqrt(1.0 - p)
    ones_a, ones_b = ([k for k, block in enumerate(side.blocks) if block.size == 1] for side in (a_blocks, b_blocks))
    if ones_a and ones_b:
        values_a, values_b = (np.hstack([_block_coordinates(side.blocks[k]) for k in ones])
                              for side, ones in ((a_blocks, ones_a), (b_blocks, ones_b)))
        pair_max[np.ix_(ones_a, ones_b)] = values_a.T @ _CHSH_MIX @ values_b
    i, j = np.unravel_index(int(np.argmax(pair_max)), pair_max.shape)
    block_a, block_b = a_blocks.blocks[i], b_blocks.blocks[j]
    u, _, vh = np.linalg.svd(_block_coordinates(block_a).T @ _CHSH_MIX @ _block_coordinates(block_b))
    m, n = u[:, 0], vh[0]
    # a 1x1 block's one state has coordinate +1, so the other side's vector takes its sign
    m, n = m * (n[0] if n.size == 1 else 1.0), n * (m[0] if m.size == 1 else 1.0)
    a_vec, b_vec = block_a.basis @ _qubit_state(m), block_b.basis @ _qubit_state(n)
    expect_a = [np.vdot(a_vec, x @ a_vec).real for x in (a0.matrix, a1.matrix)]
    expect_b = [np.vdot(b_vec, x @ b_vec).real for x in (b0.matrix + b1.matrix, b0.matrix - b1.matrix)]
    value = expect_a[0] * expect_b[0] + expect_a[1] * expect_b[1]
    return float(value), PureState(np.kron(a_vec, b_vec), (a0.dim, b0.dim))


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
    """Closed-form separable bound from the Jordan blocks, optionally checked by the block-wise maximum.

    Each party's :func:`jordan_blocks` feeds :func:`block_chsh`, which gives
    the returned structure; its ``bound`` is ``formula_value``. With
    ``with_oracle``, :func:`block_witness` on the same blocks gives the
    separable maximum as ``oracle_value`` and a product state reaching it as
    ``oracle_state``, an independent check: the witness value is the
    state's Rayleigh quotient on the full observables and reads no sines.
    They agree unless both parties commute, where the signed block value
    (-2 for A0 = A1 = I, B0 = -I, B1 = I) is the maximum and the formula an
    upper bound. ``restarts``, ``iters`` and ``seed``, left from the
    see-saw this check replaced, are checked first, with or without the
    witness, as integers of at least 1, 1 and 0, and change nothing. The
    observables were each checked Hermitian when they were built.
    """
    for name, value in (("restarts", restarts), ("iters", iters), ("seed", seed)):
        _checked_int(value, name)
    if restarts < 1:
        raise ValidationError("need at least one restart")
    if iters < 1:
        raise ValidationError("need at least one iteration")
    if seed < 0:
        raise ValidationError("seed must be a nonnegative integer")
    a_blocks, b_blocks = jordan_blocks(a0, a1), jordan_blocks(b0, b1)
    structure = block_chsh(a_blocks, b_blocks)
    if not with_oracle:
        return structure, SepBoundResult(structure.bound)
    value, state = block_witness(a0, a1, b0, b1, a_blocks, b_blocks)
    return structure, SepBoundResult(structure.bound, value, state)
