"""Measurement objects for the three-party swap test.

Provides +/-1-valued observables, four-outcome projective measurements on a
bipartite factor, the maximally entangled two-qubit basis, a one-parameter
projective deformation of the joint-basis measurement, product (separable)
measurements, and the middle party's two binned settings.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from functools import cache, cached_property
from typing import Sequence

import numpy as np

from .linalg import DEFAULT_TOL, PureState, ValidationError, _as_matrix, hermitian_deviation, tensor

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)

# Binning convention for the binned settings built by charlie_settings_ideal:
# the sign of the first tensor factor becomes the bit correlated with the
# first party, the sign of the second factor the bit for the second party.
CANONICAL_BIT_FOR_A = (1, 1, -1, -1)
CANONICAL_BIT_FOR_B = (1, -1, 1, -1)

# The six pairs (i, j), i < j, of the four outcomes, in lexicographic order.
_PAIRS_I = [0, 0, 0, 1, 1, 2]
_PAIRS_J = [1, 2, 3, 2, 3, 3]


@dataclass(frozen=True)
class DichotomicObservable:
    """Hermitian operator whose spectrum lies in {-1, +1} (it squares to I)."""

    matrix: np.ndarray
    tol: InitVar[float] = DEFAULT_TOL

    def __post_init__(self, tol: float) -> None:
        mat = np.array(_as_matrix(self.matrix, "observable"))
        if mat.shape[0] != mat.shape[1]:
            raise ValidationError("observable must be square")
        with np.errstate(all="ignore"):  # an overflow shows up as an inf or NaN deviation
            herm = hermitian_deviation(mat)
            invol = np.max(np.abs(mat @ mat - np.eye(mat.shape[0])))
        if not herm <= tol:  # NaN fails too
            raise ValidationError("observable is not Hermitian within tolerance")
        if not invol <= tol:
            raise ValidationError("observable does not square to the identity within tolerance")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

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


@cache
def bell_basis() -> tuple[PureState, PureState, PureState, PureState]:
    """The four maximally entangled two-qubit states, in the fixed outcome order.

    Outcome 1 is (|00>+|11>)/sqrt2, outcome 2 is (|00>-|11>)/sqrt2, outcome 3
    is (|01>+|10>)/sqrt2 and outcome 4 is (|01>-|10>)/sqrt2. The states are
    built once and shared: they are frozen dataclasses over read-only vectors.
    """
    s = 1.0 / math.sqrt(2.0)
    vectors = (
        np.array([s, 0.0, 0.0, s]),
        np.array([s, 0.0, 0.0, -s]),
        np.array([0.0, s, s, 0.0]),
        np.array([0.0, s, -s, 0.0]),
    )
    return tuple(PureState(v, (2, 2)) for v in vectors)


@dataclass(frozen=True)
class FourOutcomeMeasurement:
    """Four orthogonal projectors summing to the identity on a bipartite factor."""

    projectors: tuple[np.ndarray, ...]
    dims: tuple[int, int]
    tol: InitVar[float] = DEFAULT_TOL

    def __post_init__(self, tol: float) -> None:
        if len(self.projectors) != 4:
            raise ValidationError(f"expected 4 projectors, got {len(self.projectors)}")
        dims = (int(self.dims[0]), int(self.dims[1]))
        side = dims[0] * dims[1]
        projs = []
        for k, proj in enumerate(self.projectors):
            mat = np.array(_as_matrix(proj, f"projector {k + 1}"))
            if mat.shape != (side, side):
                raise ValidationError(f"projector {k + 1} has shape {mat.shape}, expected {side}x{side}")
            mat.setflags(write=False)
            projs.append(mat)
        object.__setattr__(self, "projectors", tuple(projs))
        object.__setattr__(self, "dims", dims)
        self.validate(tol)

    @property
    def dim(self) -> int:
        return self.dims[0] * self.dims[1]

    @cached_property
    def projector_stack(self) -> np.ndarray:
        """The projectors as one read-only ``(4, d, d)`` array, built on first use and shared."""
        stack = np.array(self.projectors)
        stack.setflags(write=False)
        return stack

    def validate(self, tol: float = DEFAULT_TOL) -> None:
        """Enforce Hermiticity, idempotence, mutual orthogonality and completeness.

        Every deviation is computed at once over the stacked projectors; the
        error raised is the first failure in the order projector by projector
        (Hermitian, then idempotent), then pairs (i, j) with i < j in
        lexicographic order, then completeness.
        """
        stack = self.projector_stack
        with np.errstate(all="ignore"):  # an overflow shows up as an inf or NaN deviation
            herm = hermitian_deviation(stack)
            idem = np.max(np.abs(stack @ stack - stack), axis=(1, 2))
            overlap = np.max(np.abs(stack[_PAIRS_I] @ stack[_PAIRS_J]), axis=(1, 2))
            total = stack[0] + stack[1] + stack[2] + stack[3]
            incomplete = not np.max(np.abs(total - np.eye(self.dim))) <= tol
        for k in range(4):  # "not <=" so that NaN fails too
            if not herm[k] <= tol:
                raise ValidationError(f"projector {k + 1} is not Hermitian within tolerance")
            if not idem[k] <= tol:
                raise ValidationError(f"projector {k + 1} is not idempotent within tolerance")
        for i, j, value in zip(_PAIRS_I, _PAIRS_J, overlap):
            if not value <= tol:
                raise ValidationError(f"projectors {i + 1} and {j + 1} are not orthogonal")
        if incomplete:
            raise ValidationError("projectors do not sum to the identity within tolerance")

    def require_rank_one(self) -> None:
        """Raise unless every projector has rank 1."""
        for k, proj in enumerate(self.projectors):
            # trace of a projector is its rank, so this is a robust rank test
            if abs(float(np.trace(proj).real) - 1.0) > 1e-6:
                raise ValidationError(f"projector {k + 1} has rank != 1")

    def eigenstates(self) -> tuple[np.ndarray, ...]:
        """Unit eigenvector of each projector; requires every projector rank 1."""
        self.require_rank_one()
        return tuple(np.linalg.eigh((proj + proj.conj().T) / 2.0)[1][:, -1] for proj in self.projectors)


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

    def bit_observable(self, side: str) -> np.ndarray:
        """Sum of bit(c) * P_c for the requested side ('a' or 'b')."""
        if side not in ("a", "b"):
            raise ValidationError("side must be 'a' or 'b'")
        bits = self.bit_for_a if side == "a" else self.bit_for_b
        out = np.zeros((self.base.dim, self.base.dim), dtype=complex)
        for bit, proj in zip(bits, self.base.projectors):
            out += bit * proj
        return out


@cache
def bell_measurement() -> FourOutcomeMeasurement:
    """Projective measurement onto the maximally entangled basis, in outcome order.

    Built once and shared, like :func:`bell_basis`: its projectors are read-only.
    """
    projs = tuple(np.outer(s.vector, s.vector.conj()) for s in bell_basis())
    return FourOutcomeMeasurement(projs, (2, 2))


def perturbed_bell_measurement(theta: float, pair: int = 1) -> FourOutcomeMeasurement:
    """Rotate one two-dimensional plane of the entangled basis by ``theta``.

    ``pair`` selects the rotated plane: pair 1 mixes outcomes 1 and 4, pair 2
    mixes outcomes 2 and 3. The other two projectors are those of
    :func:`bell_measurement`, reused as they are, so the result is always a
    valid projective four-outcome measurement.
    """
    if pair not in (1, 2):
        raise ValidationError("pair must be 1 or 2")
    if not math.isfinite(theta):
        raise ValidationError(f"theta must be finite, got {theta}")
    lo, hi = pair - 1, 4 - pair
    v_lo, v_hi = bell_basis()[lo].vector, bell_basis()[hi].vector
    c, s = math.cos(theta), math.sin(theta)
    projs = list(bell_measurement().projectors)
    for k, v in ((lo, c * v_lo + s * v_hi), (hi, -s * v_lo + c * v_hi)):
        projs[k] = np.outer(v, v.conj())
    return FourOutcomeMeasurement(tuple(projs), (2, 2))


def _validate_two_outcome(projs: Sequence[np.ndarray], name: str, tol: float) -> tuple[np.ndarray, np.ndarray]:
    if len(projs) != 2:
        raise ValidationError(f"{name} must have exactly two outcomes")
    p0 = _as_matrix(projs[0], f"{name} outcome 1")
    p1 = _as_matrix(projs[1], f"{name} outcome 2")
    if p0.shape != p1.shape or p0.shape[0] != p0.shape[1]:
        raise ValidationError(f"{name} projectors must be square and equal-sized")
    for k, p in enumerate((p0, p1)):
        if hermitian_deviation(p) > tol or np.max(np.abs(p @ p - p)) > tol:
            raise ValidationError(f"{name} outcome {k + 1} is not a projector within tolerance")
    if np.max(np.abs(p0 + p1 - np.eye(p0.shape[0]))) > tol:
        raise ValidationError(f"{name} outcomes do not sum to the identity")
    return p0, p1


def product_measurement(
    ma: Sequence[np.ndarray],
    mb: Sequence[np.ndarray],
    tol: float = DEFAULT_TOL,
) -> FourOutcomeMeasurement:
    """Separable four-outcome measurement built from two 2-outcome projective factors.

    Outcome indices are fixed lexicographically: outcome c = 2*(a-1) + b for
    factor outcomes a, b in {1, 2}.
    """
    pa = _validate_two_outcome(ma, "first factor", tol)
    pb = _validate_two_outcome(mb, "second factor", tol)
    projs = tuple(tensor(pa[a], pb[b]) for a in range(2) for b in range(2))
    return FourOutcomeMeasurement(projs, (pa[0].shape[0], pb[0].shape[0]))


def charlie_settings_ideal() -> tuple[BinnedMeasurement, BinnedMeasurement]:
    """The two binned settings of the middle party in the ideal qubit protocol.

    Setting 1 measures (Z+X)/sqrt2 on the first half and Z on the second;
    setting 2 measures (Z-X)/sqrt2 and X. Outcomes are joint eigenvectors,
    binned by first-factor sign for the bit sent towards the first party and
    second-factor sign for the other.
    """
    s = 1.0 / math.sqrt(2.0)
    diag = qubit_observable((s, 0.0, s))
    anti = qubit_observable((-s, 0.0, s))
    z = qubit_observable((0.0, 0.0, 1.0))
    x = qubit_observable((1.0, 0.0, 0.0))
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
