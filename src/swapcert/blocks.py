"""Block decomposition of +/-1 observable pairs and separable CHSH bounds.

Any two observables squaring to the identity decompose the space into
invariant subspaces of dimension at most two. The CHSH operator built from
two such pairs then splits into a direct sum over block pairs. By Landau's
identity the top eigenvalue of a block pair depends only on the two blocks'
eigenphases, and the smallest of them pins down the largest CHSH value
reachable by separable states; so both the block table and the bound are
read from eigenphases of A0 A1 and B0 B1. A see-saw ascent over pure
product states, run by :func:`sep_bound` on request, checks the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .certify import VERSION_SIGNS
from .linalg import PureState, ValidationError, _as_matrix, _checked_int, seeded_generator
from .measurements import DichotomicObservable

# Floor of the principal-angle split: within an eigenspace of A0, a vector
# on which A1 - A0 (A1 + A0) is below this, or below 8 times the larger
# residual max|A^2 - I| of the two observables, is a 1x1 block at phase 0
# (pi). On settings rounded to 9 digits, a 1x1 vector measured at most 3.1
# times that residual and a 2x2 block 5e-8 from the edge at least 49 times it.
EDGE_TOL = 1e-9

# chsh_spectrum: slack of the +/- pairing and of alpha1^2 + alpha2^2 = 8.
SPECTRUM_TOL = 1e-8

# Half-width of the clusters of cos(phi) at +/-1, over the eigenphases phi of
# X0 X1, that the see-saw's closed-form top eigenvalue reads as 1x1 blocks.
# An observable passes its checks squaring to I within 1e-9, which moves
# cos(phi) on a 1x1 block by about as much; a 2x2 block falls inside only
# within phase 1.4e-4 of the edge, and then keeps the cluster among the roots.
PENCIL_EDGE_TOL = 1e-8


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
    """Complete block decomposition of a pair of +/-1 observables, with |sin phi| of each block's eigenphase."""

    parent_dim: int
    blocks: tuple[ObservableBlock, ...]
    sines: tuple[float, ...]  # 0 on a 1x1 block; on a 2x2 block from the eig of A0 A1 that built it

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
    """One block pair and the top eigenvalue of the CHSH operator restricted to it."""

    row: int
    col: int
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


def _unit_phases(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos phi and |sin phi| of eigenvalues w = e^{i phi} of A0 A1, both read relative to |w|.

    w off the unit circle by more than 1e-8 raises ``ValidationError``.
    """
    modulus = np.abs(w)
    if np.any(np.abs(modulus - 1.0) > 1e-8):  # an empty w, from a commuting pair, passes
        raise ValidationError("eigenvalues of A0*A1 lie off the unit circle by more than 1e-8")
    return w.real / modulus, np.abs(w.imag) / modulus


def jordan_blocks(a0: DichotomicObservable, a1: DichotomicObservable) -> ObservableBlocks:
    """Split a pair of +/-1 observables into jointly invariant blocks of size <= 2.

    The 1x1 blocks are the common eigenvectors, found by principal angles
    (Halmos 1969; Bjorck and Golub 1973): within each eigenspace of A0, from
    one ``eigh``, the right singular vectors of A1 - A0 with singular value
    at most the split threshold are 1x1 blocks at phase 0 of U = A0 A1, and
    then, on what is left, those of A1 + A0 are 1x1 blocks at phase pi. The
    threshold is the larger of ``EDGE_TOL`` and 8 max|Ai^2 - I| over the two
    observables, so settings rounded to 9 digits split at their own rounding
    level. On the remainder, U restricted by one ``eig`` has its eigenphases
    in conjugate pairs (off the unit circle by more than 1e-8, they raise
    ``ValidationError``), and each eigenvector u at a positive phase pairs
    with A0 u to span a 2x2 block, whose |sin phi| is recorded. Blocks are
    listed by ascending phase, the 1x1 blocks at 0 first and those at pi
    last, and each block's basis is orthogonalized against all earlier
    blocks, which A0 and A1 leave invariant: eigenvectors at equal or close
    phases are not orthogonal as ``eig`` returns them. The reconstruction
    from the returned blocks is verified to 1e-8.
    """
    mat0, mat1 = a0.matrix, a1.matrix
    if mat0.shape != mat1.shape:
        raise ValidationError("observables must act on the same space")
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
    if np.count_nonzero(phases > 0.0) != np.count_nonzero(phases <= 0.0):
        raise ValidationError("eigenphases of A0*A1 do not pair into conjugates")
    positive = np.flatnonzero(phases > 0.0)
    positive = positive[np.argsort(phases[positive], kind="stable")]
    twos = (rest @ rest_vecs[:, positive]).T
    sines = (0.0,) * len(at_zero) + tuple(_unit_phases(rest_vals)[1][positive].tolist()) + (0.0,) * len(at_pi)

    def fresh(v: np.ndarray, built: np.ndarray) -> np.ndarray:
        v = v - built @ (built.conj().T @ v)
        return v / np.linalg.norm(v)

    blocks: list[ObservableBlock] = []
    built = np.zeros((d, 0), dtype=complex)
    for u, size in [(v, 1) for v in at_zero] + [(u, 2) for u in twos] + [(v, 1) for v in at_pi]:
        u = fresh(u, built)
        basis = u[:, None] if size == 1 else np.column_stack([u, fresh(mat0 @ u, np.column_stack([built, u]))])
        built = np.column_stack([built, basis])
        r0, r1 = (basis.conj().T @ mat @ basis for mat in (mat0, mat1))
        if size == 1:  # a common eigenvector: both restrictions are real eigenvalues
            r0, r1 = r0.real.astype(complex), r1.real.astype(complex)
        blocks.append(ObservableBlock(basis, r0, r1))

    result = ObservableBlocks(d, tuple(blocks), sines)
    r0, r1 = result.embed()
    err = max(float(np.max(np.abs(r0 - mat0))), float(np.max(np.abs(r1 - mat1))))
    if not err <= 1e-8:  # NaN fails too
        raise ValidationError(f"block reconstruction error {err:.3g} exceeds 1e-8")
    return result


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
    """
    if version not in (1, 2, 3, 4):
        raise ValidationError("version must be in 1..4")
    a1, a2 = alice
    b1, b2 = bob
    if a1.dim != a2.dim or b1.dim != b2.dim:
        raise ValidationError("settings of one party must share a dimension")
    s, _, t, _ = VERSION_SIGNS[version - 1]
    return _chsh_matrix(s * a1.matrix, t * a2.matrix, b1.matrix, b2.matrix)


def block_chsh(a_blocks: ObservableBlocks, b_blocks: ObservableBlocks) -> ChshBlockStructure:
    """Every block pair as (row, col, alpha), in row-major order, and the smallest alpha.

    alpha is the top eigenvalue of the CHSH operator restricted to the pair.
    Landau's identity gives it, as in :func:`sep_bound`, without building the
    operator: alpha_ij = 2 sqrt(1 + s_i s_j), where s is the |sin| of a
    block's eigenphase that :func:`jordan_blocks` recorded in ``sines``, so
    the whole table is one broadcast and no eigensolver runs. A pair with a
    1x1 block gets the classical value 2 and two blocks at phase pi/2 get
    2*sqrt(2).
    """
    alpha = 2.0 * np.sqrt(1.0 + np.outer(a_blocks.sines, b_blocks.sines))
    pairs = tuple(BlockPair(i, j, value) for i, row in enumerate(alpha.tolist()) for j, value in enumerate(row))
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


def _pencil_candidates(c: np.ndarray, x0: np.ndarray, x1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Candidates for the top eigenvalue of every pencil x X0 + y X1 of two +/-1 observables, with no eigensolve.

    ``c`` is cos(phi) over the eigenvalues e^{i phi} of X0 X1 (:func:`_unit_phases`).
    Since X0^2 = X1^2 = I, M = x X0 + y X1 squares to (x^2 + y^2) I + 2xy H
    with H = (X0 X1 + X1 X0) / 2, whose eigenvalues are these c. On a 2x2
    block at phase phi, H = cos(phi) and M has the eigenvalues
    +/- sqrt(x^2 + y^2 + 2xy cos(phi)), which are monotone in cos(phi); so
    over the 2x2 blocks the top is that root at the smallest or the largest
    c. A 1x1 block sits at c = e = +/-1 with X0 = s and X1 = e s, and M
    there is s (x + e y) alone, not both signs of it: the root |x + e y|
    would overshoot it wherever s (x + e y) is negative, and a shift set
    from it could lie far above the spectrum. Every 2x2 restriction is
    traceless, so (tr X0 + e tr X1) / 2 is the sum of s over the 1x1 blocks
    at e. Each cluster of c within ``PENCIL_EDGE_TOL`` of e whose size that
    sum reaches, so that X0 has one sign s there, leaves the roots and gives
    the line (s, s e), the candidate s x + s e y. A cluster that holds both
    signs of X0 (1x1 blocks of both signs, or a 2x2 block near the edge)
    stays among the roots, where |x + e y| up to the cluster's width is
    reached or bounds the cluster's eigenvalues from above, so the top stays
    an upper bound.

    Returns the roots, the smallest and largest c left (none if every c fell
    in a one-signed cluster), and the lines as the (2, k) columns (s, s e).
    """
    keep = np.ones(len(c), dtype=bool)
    lines = []
    for edge in (-1.0, 1.0):
        cluster = np.abs(c - edge) <= PENCIL_EDGE_TOL
        if cluster.any():
            ones = float(np.trace(x0 + edge * x1).real) / 2.0
            if abs(ones) > np.count_nonzero(cluster) - 0.5:
                sign = math.copysign(1.0, ones)
                lines.append((sign, sign * edge))
                keep &= ~cluster
    rest = c[keep]
    return np.array([rest.min(), rest.max()]) if rest.size else rest, np.array(lines).reshape(-1, 2).T.copy()


def _pencil_top(candidates: tuple[np.ndarray, np.ndarray], weights: np.ndarray) -> np.ndarray:
    """Top eigenvalue of x X0 + y X1 for each row (x, y) of an (n, 2) real stack, from :func:`_pencil_candidates`.

    It is the largest of s x + s e y over the lines and of
    sqrt(x^2 + y^2 + 2xy c) over the roots c, the argument clipped at 0
    against rounding. Where the top is small against |x| + |y| the root
    loses accuracy: an error of 1e-16 in c moves sqrt(2|xy| (1 - c)) near
    1 - c = 1.25e-15 by about 1e-8.
    """
    roots, lines = candidates
    top = (weights @ lines).max(axis=1) if lines.size else -np.inf
    if roots.size:
        xy2 = 2.0 * weights[:, 0] * weights[:, 1]
        squares = np.einsum("ij,ij->i", weights, weights) + np.maximum(xy2 * roots[0], xy2 * roots[1])
        top = np.maximum(top, np.sqrt(np.maximum(squares, 0.0)))
    return top


def _top_eigvecs(mats: np.ndarray, top: np.ndarray, probes: np.ndarray, eye: np.ndarray) -> np.ndarray:
    """A unit top eigenvector of each symmetrized matrix of an (n, d, d) stack whose top eigenvalues are ``top``.

    One shifted inverse-iteration step (Ipsen 1997): a batched ``solve`` of
    (M - sigma I) x = probe with sigma = top + 1e-12 (1 + |top|), just above
    the spectrum, then normalized. ``top`` comes from :func:`_pencil_top`,
    so no eigenvalue is computed here. ``probes`` is (n, d), one random
    vector per matrix: a structured right-hand side can be orthogonal to
    the top eigenspace, a Gaussian one almost surely is not. ``eye`` is the
    d x d identity.
    """
    sym = (mats + mats.conj().swapaxes(1, 2)) / 2.0
    shift = top + 1e-12 * (1.0 + np.abs(top))
    vecs = np.linalg.solve(sym - shift[:, None, None] * eye, probes[:, :, None])[:, :, 0]
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def _see_saw(
    alice: tuple[np.ndarray, np.ndarray, np.ndarray],
    bob: tuple[np.ndarray, np.ndarray, np.ndarray],
    restarts: int,
    iters: int,
    seed: int,
) -> tuple[float, PureState]:
    """Best CHSH value A0 x (B0 + B1) + A1 x (B0 - B1) over pure product states, by alternating ascent.

    ``alice`` is (c, A0, A1) and ``bob`` (c, B0, B1), as arrays, with c the
    cosines of the eigenphases of A0 A1 (:func:`_unit_phases`). The operator
    is the sum of the two product terms T_k x U_k with T = (A0, A1) and
    U = (B0 + B1, B0 - B1). From a random product start, one side is fixed
    while the other is set to the top eigenvector of the contracted
    operator, back and forth until the value improves by less than 1e-12 or
    ``iters`` sweeps elapse. All restarts ascend together, and those that
    have converged drop out. With one side's vectors v fixed, the other
    side's operator is sum_k <v|term_k|v> times its own term_k: one matrix
    product of the flattened outer products conj(v) v^T against the fixed
    side's flattened terms gives the n x 2 weights, and a second, of the
    weights against the free side's flattened terms, gives the n matrices.
    The fixed side's flattened terms enter transposed, as C-ordered copies,
    since a matrix product against a transposed view can round differently.

    The weights <v|term_k|v> of Hermitian terms are real, and their
    rounding-level imaginary parts are dropped.

    Each contracted matrix is a pencil x X0 + y X1 of one party's two
    observables: (x, y) are the weights on A's side and
    (u0 + u1, u0 - u1) for the weights (u0, u1) on B's. Its top eigenvalue,
    which sets the shift of :func:`_top_eigvecs`, is read in closed form by
    :func:`_pencil_top` from one :func:`_pencil_candidates` per side, from
    its cosines, so a sweep over n restarts costs O(n d^2) in products
    besides two stacked solves and runs no eigensolver. A restart's value is
    the Rayleigh quotient of its product state a x b, sum_k <a|T_k|a> <b|U_k|b>, read from the weights of a and of b;
    so the state reaches its value whatever the shift was, and the weights
    of b also give the next sweep's A matrices.

    Restart k draws, in one ``normal`` call of the generator keyed by
    ``(seed, k)``, its start on B (d_b real parts, then d_b imaginary parts)
    and after it the probes of :func:`_top_eigvecs` on A and on B, which it
    keeps for every sweep. A draw's prefix does not depend on its length, so
    the start is the one a draw of 2 d_b normals gives, and restart k does
    not depend on ``restarts``. Many restarts tie at the optimum up to
    rounding, so the lowest-index restart within 1e-9 of the best is
    returned: a lower bound on the separable maximum, reached by the
    returned product state.
    """
    (_, a0, a1), (_, b0, b1) = alice, bob
    d_a, d_b = a0.shape[0], b0.shape[0]
    flat_a = np.array([a0, a1]).reshape(2, -1)
    flat_b = np.array([b0 + b1, b0 - b1]).reshape(2, -1)
    fixed_a, fixed_b = flat_a.T.copy(), flat_b.T.copy()
    eye_a, eye_b = np.eye(d_a), np.eye(d_b)
    pencil_a, pencil_b = _pencil_candidates(*alice), _pencil_candidates(*bob)
    b_pencil = np.array([[1.0, 1.0], [1.0, -1.0]])  # B's weights on (B0 + B1, B0 - B1) -> on (B0, B1)

    def weigh(vecs: np.ndarray, fixed: np.ndarray) -> np.ndarray:  # <v|term_k|v>, (n, 2) real
        outer = vecs.conj()[:, :, None] * vecs[:, None, :]
        return (outer.reshape(len(vecs), -1) @ fixed).real

    def pencils(weights: np.ndarray, free: np.ndarray, side: int) -> np.ndarray:
        return (weights @ free).reshape(-1, side, side)

    def complex_rows(part: np.ndarray) -> np.ndarray:  # real parts, then imaginary parts
        real, imag = np.split(part, 2, axis=1)
        return real + 1j * imag

    draws = np.array([seeded_generator(seed, restart).normal(size=2 * (d_a + 2 * d_b))
                      for restart in range(restarts)])
    b_vecs, probes_a, probes_b = map(complex_rows, np.split(draws, [2 * d_b, 2 * (d_a + d_b)], axis=1))
    b_vecs /= np.linalg.norm(b_vecs, axis=1, keepdims=True)
    a_vecs = np.empty((restarts, d_a), dtype=complex)
    values = np.full(restarts, -math.inf)
    active = np.arange(restarts)
    b_weights = weigh(b_vecs, fixed_b)
    for _ in range(iters):
        w_b = b_weights[active]
        a_new = _top_eigvecs(pencils(w_b, flat_a, d_a), _pencil_top(pencil_a, w_b), probes_a[active], eye_a)
        w_a = weigh(a_new, fixed_a)
        b_new = _top_eigvecs(pencils(w_a, flat_b, d_b), _pencil_top(pencil_b, w_a @ b_pencil), probes_b[active], eye_b)
        w_b = weigh(b_new, fixed_b)
        new_values = np.einsum("nk,nk->n", w_a, w_b)  # <a x b| sum_k T_k x U_k |a x b>
        converged = new_values - values[active] < 1e-12
        a_vecs[active], b_vecs[active], b_weights[active], values[active] = a_new, b_new, w_b, new_values
        active = active[~converged]
        if not active.size:
            break

    best = int(np.flatnonzero(values >= values.max() - 1e-9)[0])
    value = float(values[best])
    a_vec, b_vec = a_vecs[best], b_vecs[best]
    achieved = float(np.real(a_vec.conj() @ pencils(b_weights[best, None], flat_a, d_a)[0] @ a_vec))
    if abs(achieved - value) > 1e-9:
        raise ValidationError(f"see-saw state reaches {achieved:.12g}, not its value {value:.12g}")
    return value, PureState(np.kron(a_vec, b_vec), (d_a, d_b))


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
    No blocks are built: one ``eigvals`` of X0 X1 per party gives its
    eigenvalues w, read by :func:`_unit_phases` as c = Re w / |w| and
    s = |Im w| / |w|. 1 - s is formed as c^2 / (1 + s), which keeps its
    relative accuracy where s is close to 1, and 1 - p as
    (1 - s_A) + s_A (1 - s_B), so the ideal settings give sqrt(2) without
    snapping. Eigenvalues off the unit circle by more than 1e-8 raise
    ``ValidationError``.

    The returned structure lists no block pairs (only :func:`block_chsh`
    does) and carries lam for :func:`sep_bound_formula`; near
    lam = 2 sqrt(2) that recomputes the bound from the rounded lam, so
    ``formula_value`` is the accurate one. The see-saw (:func:`_see_saw`)
    runs on the two product terms A0 x (B0 + B1) and A1 x (B0 - B1), so no
    d^4 array is built and a sweep over n restarts costs O(n d^2) in
    products. Each matrix it diagonalizes is a pencil x X0 + y X1 of one
    party's observables, which squares to (x^2 + y^2) I + 2xy H with
    H = (X0 X1 + X1 X0) / 2, whose eigenvalues are the same c; so the c of
    the formula give every top eigenvalue in closed form
    (:func:`_pencil_candidates`), and the see-saw runs no eigensolver. A
    1x1 block at c = +/-1 takes the signed value s (x +/- y), since the
    root |x +/- y| would overshoot it. Its ``oracle_value`` is the
    Rayleigh quotient of the returned product state, so it is reached
    whatever the shift. No Hermiticity check runs here: each observable
    was checked when it was built.
    """
    sides = []
    for x0, x1 in ((a0, a1), (b0, b1)):
        if x0.dim != x1.dim:
            raise ValidationError("observables must act on the same space")
        cosines, sines = _unit_phases(np.linalg.eigvals(x0.matrix @ x1.matrix))
        k = int(np.argmin(sines))
        sides.append((float(sines[k]), float(cosines[k] ** 2 / (1.0 + sines[k])), (cosines, x0.matrix, x1.matrix)))
    (s_a, gap_a, alice), (s_b, gap_b, bob) = sides
    p = s_a * s_b
    structure = ChshBlockStructure((), 2.0 * math.sqrt(1.0 + p))
    formula = math.sqrt(1.0 + p) + math.sqrt(gap_a + s_a * gap_b)
    if not with_oracle:
        return structure, SepBoundResult(formula)
    for name, value in (("restarts", restarts), ("iters", iters), ("seed", seed)):
        _checked_int(value, name)
    if restarts < 1:
        raise ValidationError("need at least one restart")
    if iters < 1:
        raise ValidationError("need at least one iteration")
    if seed < 0:
        raise ValidationError("seed must be a nonnegative integer")
    value, state = _see_saw(alice, bob, restarts, iters, seed)
    return structure, SepBoundResult(formula, value, state)
