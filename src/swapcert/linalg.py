"""Dense complex linear algebra for small multi-qudit systems.

Operators are plain complex numpy arrays. States carry an explicit tensor
factorization as a ``dims`` tuple ordered most-significant factor first, so
the composite index of ``dims = (d0, d1, ...)`` unrolls as
``i0*d1*d2*... + i1*d2*... + ...``, matching the Kronecker convention of
:func:`tensor`. Everything here is pure: inputs are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

DEFAULT_TOL = 1e-9


class ValidationError(ValueError):
    """Raised when a value violates one of its declared invariants."""


def _checked_int(value: object, name: str) -> int:
    """``value`` as an ``int`` if it is a Python or numpy integer (not a bool); else ``ValidationError``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _as_matrix(mat: np.ndarray, name: str = "matrix") -> np.ndarray:
    out = np.asarray(mat, dtype=complex)
    if out.ndim != 2:
        raise ValidationError(f"{name} must be 2-dimensional, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValidationError(f"{name} has non-finite entries")
    return out


def hermitian_deviation(mat: np.ndarray) -> np.ndarray:
    """Largest ``|m[i, j] - conj(m[j, i])|`` of a square matrix, or of each matrix of a stack."""
    return np.max(np.abs(mat - mat.conj().swapaxes(-1, -2)), axis=(-2, -1))


def seeded_generator(*key: int) -> np.random.Generator:
    """The generator ``np.random.default_rng(list(key))`` returns, with the same stream.

    ``SeedSequence`` splits each Python integer of a list into 32-bit words one
    at a time. When every entry fits in one word, the same words are handed
    over as one ``uint32`` array instead, which builds the seed sequence about
    three times as fast. Any other key goes through the list as before.
    """
    if all(isinstance(k, (int, np.integer)) and 0 <= k < 2**32 for k in key):
        return np.random.default_rng(np.array(key, dtype=np.uint32))
    return np.random.default_rng(list(key))


def tensor(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices, leftmost factor most significant."""
    if not factors:
        raise ValidationError("tensor() needs at least one factor")
    out = _as_matrix(factors[0])
    for fac in factors[1:]:
        out = np.kron(out, _as_matrix(fac))
    return out


def ptrace_array(mat: np.ndarray, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Partial trace of a square operator, keeping the listed subsystems.

    Kept subsystems stay in their original relative order regardless of the
    order they are listed in.
    """
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    keep = sorted({int(k) for k in keep})
    if any(k < 0 or k >= n for k in keep):
        raise ValidationError(f"keep indices {keep} out of range for {n} subsystems")
    mat = _as_matrix(mat)
    side = int(np.prod(dims))
    if mat.shape != (side, side):
        raise ValidationError(f"operator side {mat.shape[0]} does not match dims {dims}")
    dropped = set(range(n)) - set(keep)
    row = list(range(n))
    col = [k if k in dropped else k + n for k in range(n)]
    out = [k for k in keep] + [k + n for k in keep]
    reduced = np.einsum(mat.reshape(dims + dims), row + col, out)
    kept_side = int(np.prod([dims[k] for k in keep])) if keep else 1
    return reduced.reshape(kept_side, kept_side)


@dataclass(frozen=True)
class PureState:
    """Unit vector on a declared tensor factorization."""

    vector: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        vec = np.array(self.vector, dtype=complex).reshape(-1)
        dims = tuple(int(d) for d in self.dims)
        if int(np.prod(dims)) != vec.size:
            raise ValidationError(f"dims {dims} do not match vector length {vec.size}")
        if not np.all(np.isfinite(vec)):
            raise ValidationError("state vector has non-finite entries")
        norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > DEFAULT_TOL:
            raise ValidationError(f"state vector norm {norm:.12g} != 1 within {DEFAULT_TOL:g}")
        vec.setflags(write=False)
        object.__setattr__(self, "vector", vec)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.vector.size


@dataclass(frozen=True)
class DensityMatrix:
    """Positive unit-trace operator on a declared tensor factorization."""

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=complex)
        dims = tuple(int(d) for d in self.dims)
        side = int(np.prod(dims))
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValidationError("density matrix must be square")
        if mat.shape[0] != side:
            raise ValidationError(f"dims {dims} imply side {side}, got {mat.shape[0]}")
        if not np.all(np.isfinite(mat)):
            raise ValidationError("density matrix has non-finite entries")
        if hermitian_deviation(mat) > DEFAULT_TOL:
            raise ValidationError("density matrix is not Hermitian within tolerance")
        trace = complex(np.trace(mat))
        if abs(trace - 1.0) > DEFAULT_TOL:
            raise ValidationError(f"trace {trace.real:.12g} != 1 within {DEFAULT_TOL:g}")
        lowest = float(np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)[0])
        if lowest < -DEFAULT_TOL:
            raise ValidationError(f"negative eigenvalue {lowest:.3g} below -{DEFAULT_TOL:g}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduced state on the kept subsystems, in their original relative order."""
    keep = sorted({int(k) for k in keep})
    reduced = ptrace_array(rho.matrix, rho.dims, keep)
    return DensityMatrix(reduced, tuple(rho.dims[k] for k in keep))
