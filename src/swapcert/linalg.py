"""Dense complex linear algebra for small multi-qudit systems.

Operators are plain complex numpy arrays. States carry an explicit tensor
factorization as a ``dims`` tuple ordered most-significant factor first, so
the composite index of ``dims = (d0, d1, ...)`` unrolls as
``i0*d1*d2*... + i1*d2*... + ...``, matching the Kronecker convention of
:func:`tensor`. Everything here is pure: inputs are never mutated.
"""

from __future__ import annotations

import math
import sys
from dataclasses import InitVar, dataclass
from typing import Iterable, Sequence

import numpy as np

DEFAULT_TOL = 1e-9

# Units of eps * (side + 1)^2 * (1 + (side + 2) tol) by which the Cholesky positivity test stays inside -tol:
# the bound of the factorization's backward error plus that of eigvalsh, with room for complex arithmetic.
_CHOLESKY_ROUNDING = 4


class ValidationError(ValueError):
    """Raised when a value violates one of its declared invariants."""


def _checked_int(value: object, name: str) -> int:
    """``value`` as an ``int`` if it is a Python or numpy integer (not a bool); else ``ValidationError``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _checked_tol(tol: float) -> None:
    """Raise ``ValidationError`` unless ``tol``, which a check compares a deviation with, is finite and nonnegative."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValidationError(f"tolerance must be finite and nonnegative, got {tol}")


def _checked_dims(dims: Iterable[object], count: int | None = None) -> tuple[int, ...]:
    """``dims`` as ``int``s, each read by :func:`_checked_int`; a dimension below 1, or not ``count`` of them, raises.

    Two negative dimensions can multiply to a valid side, and a reshape to them then fails inside numpy.
    A tuple of Python ints (bools excluded) is already what :func:`_checked_int` returns, so it is kept as it is.
    """
    if type(dims) is tuple and all(type(d) is int for d in dims):
        out = dims
    else:
        try:
            out = tuple([_checked_int(d, "each dimension") for d in dims])
        except TypeError:  # not iterable
            raise ValidationError(f"dims must be a sequence of integers, got {dims!r}") from None
    if min(out, default=1) < 1:
        raise ValidationError(f"dims {out} must all be at least 1")
    if count is not None and len(out) != count:
        raise ValidationError(f"dims {out} must have {count} entries")
    return out


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
    order they are listed in. ``dims`` are read by :func:`_checked_dims` and
    each kept index by :func:`_checked_int`.
    """
    dims = _checked_dims(dims)
    n = len(dims)
    keep = sorted({_checked_int(k, "each keep index") for k in keep})
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
        dims = _checked_dims(self.dims)
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


def _clears_lowest_eigenvalue(sym: np.ndarray, tol: float) -> bool:
    """Whether a Cholesky factorization shows the Hermitian ``sym`` has no eigenvalue below ``-tol``.

    ``sym`` has trace within ``tol`` of 1 and ``tol`` is nonnegative. It
    factors ``sym + (tol - margin) I``, shifting ``sym`` in place, so the
    caller passes a copy it does not keep. Only a finite factor counts: an
    inf or NaN entry of ``sym``, as an overflow leaves, can run to the end
    with NaN in the factor. A factorization that runs to the end is exact
    for a perturbation at most a multiple of eps times the trace (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., section
    10.1), and that trace is at most 1 + (side + 1) tol; the margin covers
    that and the rounding of ``eigvalsh``, so a success is a matrix
    ``eigvalsh`` would also read at or above ``-tol``. A failure decides
    nothing: the caller reads the lowest eigenvalue.
    """
    side = sym.shape[0]
    margin = _CHOLESKY_ROUNDING * (side + 1) ** 2 * sys.float_info.epsilon * (1.0 + (side + 2) * tol)
    sym.flat[:: side + 1] += tol - margin
    try:
        factor = np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        return False
    return bool(np.isfinite(factor).all())


@dataclass(frozen=True)
class DensityMatrix:
    """Positive unit-trace operator on a declared tensor factorization.

    Positivity is read by :func:`_clears_lowest_eigenvalue`; only when it fails does the lowest eigenvalue decide.
    Finiteness is read only when the Hermiticity check fails: an inf or NaN entry always fails it, since
    the deviation of a NaN, or of inf less itself, is NaN, and that of inf less a finite entry is inf.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]
    tol: InitVar[float] = DEFAULT_TOL

    def __post_init__(self, tol: float) -> None:
        _checked_tol(tol)
        mat = np.array(self.matrix, dtype=complex)
        dims = _checked_dims(self.dims)
        side = math.prod(dims)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValidationError("density matrix must be square")
        if mat.shape[0] != side:
            raise ValidationError(f"dims {dims} imply side {side}, got {mat.shape[0]}")
        adjoint = mat.conj().T  # one adjoint for the Hermiticity deviation and the symmetrized matrix
        with np.errstate(all="ignore"):  # inf less inf, or an overflow, reads as a NaN or inf, which every check fails
            hermitian = np.abs(mat - adjoint).max() <= tol
            trace = complex(mat.trace())
            sym = (mat + adjoint) / 2.0
        if not hermitian:
            if not np.isfinite(mat).all():
                raise ValidationError("density matrix has non-finite entries")
            raise ValidationError("density matrix is not Hermitian within tolerance")
        if not abs(trace - 1.0) <= tol:
            raise ValidationError(f"trace {trace.real:.12g} != 1 within {tol:g}")
        if not _clears_lowest_eigenvalue(sym, tol):  # shifts sym in place
            # halved before the sum, which no entry then overflows: the same matrix entry by entry unless subnormal
            lowest = float(np.linalg.eigvalsh(mat / 2.0 + adjoint / 2.0)[0])
            if not lowest >= -tol:
                raise ValidationError(f"negative eigenvalue {lowest:.3g} below -{tol:g}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduced state on the kept subsystems, in their original relative order."""
    keep = list(keep)
    reduced = ptrace_array(rho.matrix, rho.dims, keep)
    return DensityMatrix(reduced, tuple(rho.dims[k] for k in sorted(set(keep))))
