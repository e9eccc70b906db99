"""Measurement objects for the three-party swap test.

Provides +/-1-valued observables, four-outcome projective measurements on a
bipartite factor, the maximally entangled two-qubit basis, a one-parameter
projective deformation of the joint-basis measurement, product (separable)
measurements, and the middle party's two binned settings.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import cache, cached_property, reduce
from typing import Sequence

import numpy as np

from .linalg import (DEFAULT_TOL, PureState, ValidationError, _as_matrix, _checked_dims, _checked_int,
                     hermitian_deviation, tensor)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# Binning convention for the binned settings built by charlie_settings_ideal:
# the sign of the first tensor factor becomes the bit correlated with the
# first party, the sign of the second factor the bit for the second party.
CANONICAL_BIT_FOR_A = (1, 1, -1, -1)
CANONICAL_BIT_FOR_B = (1, -1, 1, -1)

# require_rank_one: slack of a projector's trace, its rank, about 1. A
# projector that passed its checks has eigenvalues within about its tolerance
# of 0 or 1, so at the default tolerance its trace lies within about d * 1e-9
# of an integer; a rank of 0 or 2 misses 1 by 1, and 1e-6 sits far from both.
RANK_ONE_TOL = 1e-6


@cache
def _pairs(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (i, j), i < j, of k outcomes in lexicographic order, as index arrays built once."""
    return np.triu_indices(k, 1)


def _projector_failures(stack: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """Per outcome: not Hermitian, not idempotent; per pair i < j: P_i P_j not zero; and incompleteness.

    All deviations come at once from the stack, with numpy's floating-point
    warnings off; a check fails unless its deviation is at most ``tol``, so
    an overflow to inf or NaN fails too.
    """
    pairs_i, pairs_j = _pairs(len(stack))
    with np.errstate(all="ignore"):
        herm = hermitian_deviation(stack)
        idem = np.max(np.abs(stack @ stack - stack), axis=(1, 2))
        overlap = np.max(np.abs(stack[pairs_i] @ stack[pairs_j]), axis=(1, 2))
        total = reduce(np.add, stack)  # in outcome order; stack.sum(axis=0) may pair terms at d = 1
        incomplete = not np.max(np.abs(total - np.eye(stack.shape[1]))) <= tol
    return ~(herm <= tol), ~(idem <= tol), ~(overlap <= tol), incomplete


@dataclass(frozen=True)
class DichotomicObservable:
    """Hermitian operator whose spectrum lies in {-1, +1}: it squares to I within ``involution_residual``."""

    matrix: np.ndarray
    tol: InitVar[float] = DEFAULT_TOL

    def __post_init__(self, tol: float) -> None:
        mat = np.array(_as_matrix(self.matrix, "observable"))
        if mat.shape[0] != mat.shape[1]:
            raise ValidationError("observable must be square")
        if mat.size == 0:
            raise ValidationError("observable must be at least 1x1")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        with np.errstate(all="ignore"):  # an overflow shows up as an inf or NaN deviation
            herm = hermitian_deviation(mat)
            invol = self.involution_residual  # computed here once, then cached
        if not herm <= tol:  # NaN fails too
            raise ValidationError("observable is not Hermitian within tolerance")
        if not invol <= tol:
            raise ValidationError("observable does not square to the identity within tolerance")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def involution_residual(self) -> float:
        """max|A^2 - I|, computed by the construction check that accepted the matrix; ``jordan_blocks`` reads it."""
        return float(np.max(np.abs(self.matrix @ self.matrix - np.eye(self.dim))))

    def projectors(self) -> tuple[np.ndarray, np.ndarray]:
        """Spectral projectors onto the +1 and -1 outcomes, in that order."""
        eye = np.eye(self.dim)
        return (eye + self.matrix) / 2.0, (eye - self.matrix) / 2.0

    @cached_property
    def projector_stack(self) -> np.ndarray:
        """:meth:`projectors` as one read-only ``(2, d, d)`` array, built on first use and shared."""
        stack = np.array(self.projectors())
        stack.setflags(write=False)
        return stack


def qubit_observable(bloch: Sequence[float]) -> DichotomicObservable:
    """Observable n . (X, Y, Z) for a unit Bloch vector n."""
    vec = np.asarray(bloch, dtype=float).reshape(-1)
    if vec.size != 3:
        raise ValidationError("Bloch vector must have three components")
    if abs(float(np.linalg.norm(vec)) - 1.0) > DEFAULT_TOL:
        raise ValidationError(f"Bloch vector norm {np.linalg.norm(vec):.12g} != 1")
    return DichotomicObservable(vec[0] * PAULI_X + vec[1] * PAULI_Y + vec[2] * PAULI_Z)


# Row k is the maximally entangled two-qubit state of outcome k + 1: (|00>+|11>)/sqrt2,
# (|00>-|11>)/sqrt2, (|01>+|10>)/sqrt2 and (|01>-|10>)/sqrt2. Read-only.
BELL_VECTORS = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) * complex(1.0 / math.sqrt(2.0))
BELL_VECTORS.setflags(write=False)


@cache
def bell_basis() -> tuple[PureState, PureState, PureState, PureState]:
    """The four maximally entangled two-qubit states of ``BELL_VECTORS``, in the fixed outcome order.

    The states are built once and shared: they are frozen dataclasses over read-only vectors.
    """
    return tuple(PureState(v, (2, 2)) for v in BELL_VECTORS)


@dataclass(frozen=True)
class FourOutcomeMeasurement:
    """Four orthogonal projectors summing to the identity on a bipartite factor."""

    projectors: tuple[np.ndarray, ...]
    dims: tuple[int, int]
    tol: InitVar[float] = DEFAULT_TOL
    projector_stack: np.ndarray = field(init=False, repr=False, compare=False)  # read-only; projectors are its rows

    def __post_init__(self, tol: float) -> None:
        if len(self.projectors) != 4:
            raise ValidationError(f"expected 4 projectors, got {len(self.projectors)}")
        dims = _checked_dims(self.dims, 2)
        side = dims[0] * dims[1]
        projs = []
        for k, proj in enumerate(self.projectors):
            mat = _as_matrix(proj, f"projector {k + 1}")
            if mat.shape != (side, side):
                raise ValidationError(f"projector {k + 1} has shape {mat.shape}, expected {side}x{side}")
            projs.append(mat)
        self._store(np.array(projs), dims)
        self.validate(tol)

    def _store(self, stack: np.ndarray, dims: tuple[int, int]) -> None:
        """Keep ``stack`` read-only as ``projector_stack``, its rows as ``projectors``, and ``dims``."""
        stack.setflags(write=False)
        object.__setattr__(self, "projector_stack", stack)
        object.__setattr__(self, "projectors", tuple(stack))
        object.__setattr__(self, "dims", dims)

    @classmethod
    def from_vectors(cls, vectors: np.ndarray, dims: tuple[int, int],
                     tol: float = DEFAULT_TOL) -> FourOutcomeMeasurement:
        """The rank-1 measurement whose outcome k projects onto row k of ``vectors``.

        The rows must be orthonormal, max|G - I| <= ``tol`` with the Gram
        matrix G = V* V^T, and span the space, max|V^T V* - I| <= ``tol``;
        a non-finite entry fails both. The projector checks of
        :meth:`validate` are not run again, because they follow up to
        rounding: P_j P_k - delta_jk P_k = G_jk v_j v_k^dagger, whose
        entries are at most |G_jk| |v_j| |v_k| <= ``tol * (1 + tol)``, and
        the projectors sum to V^T V*. ``projector_stack`` is the stack of
        outer products, each entry one product as in ``np.outer`` (so real
        vectors give exactly Hermitian projectors).
        """
        vecs = np.asarray(vectors, dtype=complex)
        dims = _checked_dims(dims, 2)
        side = dims[0] * dims[1]
        if vecs.shape != (4, side):
            raise ValidationError(f"expected 4 vectors of length {side}, got shape {vecs.shape}")
        with np.errstate(all="ignore"):  # an overflow shows up as an inf or NaN deviation
            orthonormal = np.abs(vecs.conj() @ vecs.T - np.eye(4)).max() <= tol  # NaN fails too
            spanning = orthonormal and np.abs(vecs.T @ vecs.conj() - np.eye(side)).max() <= tol
        if not spanning:
            if not np.isfinite(vecs).all():
                raise ValidationError("vectors have non-finite entries")
            if not orthonormal:
                raise ValidationError("vectors are not orthonormal within tolerance")
            raise ValidationError("vectors do not span the space within tolerance")
        meas = object.__new__(cls)
        meas._store(vecs[:, :, None] * vecs.conj()[:, None, :], dims)
        return meas

    @property
    def dim(self) -> int:
        return self.dims[0] * self.dims[1]

    def validate(self, tol: float = DEFAULT_TOL) -> None:
        """Enforce Hermiticity, idempotence, mutual orthogonality and completeness.

        The deviations come from :func:`_projector_failures`; the error raised
        is the first failure in the order projector by projector (Hermitian,
        then idempotent), then pairs (i, j) with i < j in lexicographic
        order, then completeness.
        """
        not_herm, not_idem, not_orth, incomplete = _projector_failures(self.projector_stack, tol)
        for k in range(4):
            if not_herm[k]:
                raise ValidationError(f"projector {k + 1} is not Hermitian within tolerance")
            if not_idem[k]:
                raise ValidationError(f"projector {k + 1} is not idempotent within tolerance")
        for i, j, failed in zip(*_pairs(4), not_orth):
            if failed:
                raise ValidationError(f"projectors {i + 1} and {j + 1} are not orthogonal")
        if incomplete:
            raise ValidationError("projectors do not sum to the identity within tolerance")

    def require_rank_one(self) -> None:
        """Raise unless every projector has rank 1, naming the first that does not."""
        # the trace of a projector is its rank, so this is a robust rank test
        wrong = np.abs(np.trace(self.projector_stack, axis1=1, axis2=2).real - 1.0) > RANK_ONE_TOL
        if wrong.any():
            raise ValidationError(f"projector {int(np.argmax(wrong)) + 1} has rank != 1")


def checked_bits(bits: Sequence[int], name: str) -> tuple[int, int, int, int]:
    """A map of the four outcomes to bits, each of which must be -1 or +1."""
    try:
        valid = len(bits) == 4 and all(b in (-1, 1) for b in bits)
    except (TypeError, ValueError):
        valid = False
    if not valid:
        raise ValidationError(f"{name} must map all four outcomes to -1 or +1")
    return tuple(int(b) for b in bits)


@dataclass(frozen=True)
class BinnedMeasurement:
    """Four-outcome measurement plus maps sending each outcome to one bit per side."""

    base: FourOutcomeMeasurement
    bit_for_a: tuple[int, int, int, int]
    bit_for_b: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        for name, bits in (("bit_for_a", self.bit_for_a), ("bit_for_b", self.bit_for_b)):
            object.__setattr__(self, name, checked_bits(bits, name))


@cache
def bell_measurement() -> FourOutcomeMeasurement:
    """Projective measurement onto the maximally entangled basis, in outcome order.

    Built once from ``BELL_VECTORS`` by
    :meth:`FourOutcomeMeasurement.from_vectors`, and shared: its projectors
    are read-only.
    """
    return FourOutcomeMeasurement.from_vectors(BELL_VECTORS, (2, 2))


def perturbed_bell_measurement(theta: float, pair: int = 1) -> FourOutcomeMeasurement:
    """Rotate one two-dimensional plane of the entangled basis by ``theta``.

    ``pair`` selects the rotated plane: pair 1 mixes outcomes 1 and 4, pair 2
    mixes outcomes 2 and 3. Rows lo and hi of ``BELL_VECTORS``
    become cos(theta) v_lo + sin(theta) v_hi and -sin(theta) v_lo +
    cos(theta) v_hi, and :meth:`FourOutcomeMeasurement.from_vectors` checks
    the rotated basis and builds all four projectors, the two unrotated ones
    with the bytes of :func:`bell_measurement`. ``pair`` is read by :func:`_checked_int`.
    """
    pair = _checked_int(pair, "pair")
    if pair not in (1, 2):
        raise ValidationError("pair must be 1 or 2")
    if not math.isfinite(theta):
        raise ValidationError(f"theta must be finite, got {theta}")
    lo, hi = pair - 1, 4 - pair
    vecs = BELL_VECTORS.copy()
    c, s = math.cos(theta), math.sin(theta)
    vecs[lo], vecs[hi] = c * vecs[lo] + s * vecs[hi], -s * vecs[lo] + c * vecs[hi]
    return FourOutcomeMeasurement.from_vectors(vecs, (2, 2))


def _validate_two_outcome(projs: Sequence[np.ndarray], name: str) -> np.ndarray:
    """A factor's projectors as a checked ``(2, d, d)`` stack; orthogonality is not reported on its own."""
    if len(projs) != 2:
        raise ValidationError(f"{name} must have exactly two outcomes")
    p0 = _as_matrix(projs[0], f"{name} outcome 1")
    p1 = _as_matrix(projs[1], f"{name} outcome 2")
    if p0.shape != p1.shape or p0.shape[0] != p0.shape[1]:
        raise ValidationError(f"{name} projectors must be square and equal-sized")
    stack = np.array((p0, p1))
    not_herm, not_idem, _, incomplete = _projector_failures(stack, DEFAULT_TOL)
    not_projector = not_herm | not_idem
    if not_projector.any():
        k = int(np.argmax(not_projector))
        raise ValidationError(f"{name} outcome {k + 1} is not a projector within tolerance")
    if incomplete:
        raise ValidationError(f"{name} outcomes do not sum to the identity")
    return stack


def product_measurement(ma: Sequence[np.ndarray], mb: Sequence[np.ndarray]) -> FourOutcomeMeasurement:
    """Separable four-outcome measurement built from two 2-outcome projective factors.

    Outcome indices are fixed lexicographically: outcome c = 2*(a-1) + b for
    factor outcomes a, b in {1, 2}. Both factors are checked to ``DEFAULT_TOL``.
    """
    pa = _validate_two_outcome(ma, "first factor")
    pb = _validate_two_outcome(mb, "second factor")
    projs = tuple(tensor(pa[a], pb[b]) for a in range(2) for b in range(2))
    return FourOutcomeMeasurement(projs, (pa[0].shape[0], pb[0].shape[0]))


@cache
def ideal_qubit_observables() -> tuple[DichotomicObservable, ...]:
    """Z, X, (Z+X)/sqrt2 and (Z-X)/sqrt2, the qubit settings of the ideal protocol.

    Built once and shared: they are frozen dataclasses over read-only arrays.
    """
    s = 1.0 / math.sqrt(2.0)
    return tuple(qubit_observable(n) for n in ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (s, 0.0, s), (-s, 0.0, s)))


def charlie_settings_ideal() -> tuple[BinnedMeasurement, BinnedMeasurement]:
    """The two binned settings of the middle party in the ideal qubit protocol.

    Setting 1 measures (Z+X)/sqrt2 on the first half and Z on the second;
    setting 2 measures (Z-X)/sqrt2 and X. Outcomes are joint eigenvectors,
    binned by first-factor sign for the bit sent towards the first party and
    second-factor sign for the other.
    """
    z, x, diag, anti = ideal_qubit_observables()
    c1 = BinnedMeasurement(
        product_measurement(diag.projectors(), z.projectors()),
        CANONICAL_BIT_FOR_A,
        CANONICAL_BIT_FOR_B,
    )
    c2 = BinnedMeasurement(
        product_measurement(anti.projectors(), x.projectors()),
        CANONICAL_BIT_FOR_A,
        CANONICAL_BIT_FOR_B,
    )
    return c1, c2
