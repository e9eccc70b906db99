"""Certification criteria, outcome relabeling and trace-distance bounds.

The decision rules operate on observed CHSH values: the two swap-side values
and the four conditional values between the end parties. Conditional values
come in four sign variants; :func:`relabel` matches observed outcomes to the
variant slots so that each outcome is scored by its best-fitting variant.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import DEFAULT_TOL, ValidationError
from .measurements import BELL_VECTORS, FourOutcomeMeasurement

SQRT2 = math.sqrt(2.0)
TSIRELSON = 2.0 * SQRT2
QUANTUM_CEILING = TSIRELSON + DEFAULT_TOL  # largest exact CHSH value accepted: rounding slack above 2*sqrt(2)
CLASSICAL_BOUND = 2.0

# A slot passes only above threshold + SLACK: an exact value on a threshold, as a separable
# middle measurement's can be, lands at most a few 1e-15 past it by rounding (DEFAULT_TOL is 1e-9).
SLACK = 1e-12

# Sign pattern of each conditional-CHSH variant on (E11, E12, E21, E22).
# Variant 3 is the negative of variant 2, variant 4 the negative of variant 1.
VERSION_SIGNS = (
    (1, 1, 1, -1),
    (1, 1, -1, 1),
    (-1, -1, 1, -1),
    (-1, -1, -1, 1),
)

# The 24 bijections of outcomes to slots in itertools order, which is
# lexicographic: row p maps outcome c to slot _PERMUTATION_TABLE[p, c].
_PERMUTATION_TABLE = np.array(list(itertools.permutations(range(4))))


@dataclass(frozen=True)
class VerdictWitness:
    """Which conditions held, and by how much."""

    s_ac_hit: bool
    s_bc_hit: bool
    s_ac_dev: float
    s_bc_dev: float
    best_outcome: int | None  # 1-based slot of the largest conditional value
    best_value: float | None
    threshold: float
    margin: float | None  # best_value - threshold


@dataclass(frozen=True)
class Verdict:
    criterion: str
    passed: bool
    tolerance: float
    witness: VerdictWitness


@dataclass(frozen=True)
class DistanceBounds:
    """Two-sided bound on the worst-case distance to the ideal joint measurement."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.lower <= self.upper <= 1.0):
            raise ValidationError(f"bounds ({self.lower}, {self.upper}) are not ordered in [0, 1]")


def relabel(version_matrix: np.ndarray) -> tuple[tuple[int, int, int, int], tuple[float, ...]]:
    """Assign each observed outcome to a variant slot, maximizing the total value.

    ``version_matrix[c, v]`` is the variant-(v+1) CHSH value conditioned on raw
    outcome c+1; rows of non-finite values mark outcomes with no statistics.
    All 24 bijections are scored by the sum over usable outcomes and the best
    one is returned (first in lexicographic order on ties), together with the
    value landing in each slot. Slots fed by unusable outcomes get NaN.
    """
    m = np.asarray(version_matrix, dtype=float)
    if m.shape != (4, 4):
        raise ValidationError(f"version matrix must be 4x4, got {m.shape}")
    finite = np.isfinite(m)
    usable = [c for c in range(4) if finite[c].all()]
    for c in range(4):
        if c not in usable and finite[c].any():
            raise ValidationError(f"outcome {c + 1} has a partially defined row")
    landed = m[range(4), _PERMUTATION_TABLE]  # [p, c]: the value outcome c brings to its slot
    scores = np.zeros(len(_PERMUTATION_TABLE))
    for c in usable:  # summed in outcome order, as the score of each bijection is defined
        scores += landed[:, c]
    best_perm = tuple(_PERMUTATION_TABLE[int(np.argmax(scores))].tolist())  # the first maximum wins ties
    values = [math.nan] * 4
    for c in usable:
        values[best_perm[c]] = float(m[c, best_perm[c]])
    return best_perm, tuple(values)


def _verdict(criterion: str, s_ac: float, s_bc: float, values: Sequence[float],
             tol: float, threshold: float, need_both: bool) -> Verdict:
    if not (math.isfinite(tol) and tol >= 0):
        raise ValidationError(f"tolerance must be finite and nonnegative, got {tol}")
    values = [float(v) for v in values]
    for c, v in enumerate(values):
        if math.isinf(v):
            raise ValidationError(f"conditional value for slot {c + 1} is infinite")
    dev_ac = abs(s_ac - TSIRELSON)
    dev_bc = abs(s_bc - TSIRELSON)
    hit_ac = dev_ac <= tol
    hit_bc = dev_bc <= tol
    defined = [v for v in values if not math.isnan(v)]
    if defined:
        best_value = max(defined)
        best_outcome = 1 + values.index(best_value)  # the first slot holding it
        margin = best_value - threshold
    else:
        best_value = best_outcome = margin = None
    side_ok = (hit_ac and hit_bc) if need_both else (hit_ac or hit_bc)
    passed = side_ok and best_value is not None and best_value > threshold + SLACK
    witness = VerdictWitness(hit_ac, hit_bc, dev_ac, dev_bc,
                             best_outcome, best_value, threshold, margin)
    return Verdict(criterion, passed, tol, witness)


def certify_crit1(s_ac: float, s_bc: float, s_ab_values: Sequence[float], tol: float) -> Verdict:
    """One-sided rule: a maximal swap-side violation on either side plus a
    conditional value above the classical bound (by more than ``SLACK``)
    certifies the joint measurement as entangling (hence entangled)."""
    return _verdict("crit1", s_ac, s_bc, s_ab_values, tol, CLASSICAL_BOUND, need_both=False)


def certify_crit2(s_ac: float, s_bc: float, s_ab_values: Sequence[float], tol: float) -> Verdict:
    """Two-sided rule: maximal violations on both swap sides lower the needed
    conditional value to sqrt(2), the ceiling reachable by separable joint
    measurements under that premise; a value must exceed it by more than ``SLACK``."""
    return _verdict("crit2", s_ac, s_bc, s_ab_values, tol, SQRT2, need_both=True)


def _reference_overlaps(meas: FourOutcomeMeasurement) -> np.ndarray:
    """overlaps[c, v] = |<e_c|ref_v>|^2 as the quadratic form <ref_v|P_c|ref_v>.

    Working with the projector avoids extracting eigenvectors, which keeps the
    square-root-amplified quantities downstream as clean as double precision
    allows. Two stacked matrix products, P_c ref_v and then its inner
    product with ref_v, round as one form at a time does.
    """
    if meas.dims != (2, 2):
        raise ValidationError(f"measurement acts on {meas.dims}, expected (2, 2)")
    meas.require_rank_one()
    images = meas.projector_stack[:, None] @ BELL_VECTORS[None, :, :, None]  # [c, v] = P_c ref_v, a column
    return (BELL_VECTORS.conj()[None, :, None, :] @ images)[:, :, 0, 0].real


def trace_distance(meas: FourOutcomeMeasurement, relabeling: Sequence[int]) -> float:
    """Worst-case distance of a rank-1 projective measurement from the ideal one.

    ``relabeling`` maps 0-based outcome index to slot, as returned by
    :func:`relabel`; it is applied before comparing eigenstate c against
    reference state c. Global and per-outcome phases are irrelevant.
    """
    relabeling = tuple(int(s) for s in relabeling)
    if sorted(relabeling) != [0, 1, 2, 3]:
        raise ValidationError(f"{relabeling!r} is not a permutation of outcomes")
    matched = _reference_overlaps(meas)[range(4), relabeling]
    return float(np.max(np.sqrt(np.maximum(0.0, 1.0 - matched))))


def distance_bounds(s_ab_values: Sequence[float]) -> DistanceBounds:
    """Two-sided bound on the trace distance from relabeled conditional values.

    Values may exceed the quantum ceiling by at most ``DEFAULT_TOL`` (they are
    clamped); a larger excess, or any non-finite value, is an error. Both
    bounds are clipped into [0, 1], where the upper bound is vacuous anyway.
    """
    values = [float(v) for v in s_ab_values]
    if len(values) != 4:
        raise ValidationError("expected four conditional values")
    for c, v in enumerate(values):
        if not math.isfinite(v):
            raise ValidationError(f"conditional value for outcome {c + 1} is undefined")
        if v > QUANTUM_CEILING:
            raise ValidationError(f"conditional value {v:.12g} exceeds the quantum ceiling")
    clamped = [min(v, TSIRELSON) for v in values]
    lower = math.sqrt(max(0.0, 0.5 * (1.0 - max(clamped) / TSIRELSON)))
    upper = math.sqrt(max(0.0, 1.0 - min(clamped) / TSIRELSON))
    return DistanceBounds(lower, min(1.0, upper))


def threshold_for_distance(t_target: float) -> float:
    """Smallest common conditional CHSH value certifying distance <= t_target."""
    if not (0.0 < t_target <= 1.0):
        raise ValidationError("t_target must lie in (0, 1]")
    return TSIRELSON * (1.0 - t_target * t_target)


def overlap_version_matrix(meas: FourOutcomeMeasurement) -> np.ndarray:
    """Predicted variant-v CHSH value for each outcome of a rank-1 measurement.

    Entry [c, v] is 2*sqrt(2) times the difference between the overlaps of
    eigenstate c with reference states v+1 and 4-v. With the ideal end-party
    settings this equals the simulated conditional value exactly.
    """
    overlaps = _reference_overlaps(meas)
    return TSIRELSON * (overlaps - overlaps[:, ::-1])


def overlap_chsh(meas: FourOutcomeMeasurement) -> tuple[float, float, float, float]:
    """Predicted conditional CHSH per outcome, each in its own variant."""
    return tuple(overlap_version_matrix(meas).diagonal().tolist())
