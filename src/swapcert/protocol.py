"""Three-party scenario: exact statistics, CHSH values and sampling.

The global state lives on four factors ordered (A, B, C_A, C_B); the middle
party holds the last two. Settings are 1-based throughout: x, y in {1, 2} for
the end parties, z in {1, 2, 3} for the middle party, raw outcomes c in
{1, 2, 3, 4}. End-party outcomes are the observable values +1/-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Sequence

import numpy as np

from . import certify
from .certify import QUANTUM_CEILING, SQRT2
from .linalg import (
    DEFAULT_TOL,
    DensityMatrix,
    ValidationError,
    _checked_int,
)
from .measurements import (
    CANONICAL_BIT_FOR_A,
    CANONICAL_BIT_FOR_B,
    BinnedMeasurement,
    DichotomicObservable,
    FourOutcomeMeasurement,
    bell_measurement,
    charlie_settings_ideal,
    checked_bits,
    ideal_qubit_observables,
    perturbed_bell_measurement,
)

# Conditional outcomes with probability below this are flagged as undefined
# rather than producing NaN ratios from degenerate states.
PROB_FLOOR = 1e-12

# A counts table's grand total must fit in int64, which caps the sample size per setting triple.
_INT64_MAX = 2**63 - 1
MAX_N_PER_SETTING = _INT64_MAX // 12

# theorem_check: largest |A0 A1 + A1 A0| entry of either end party's planted settings. Its slack over
# sqrt(2) is certify.SLACK, the one slack of the separable bound that the criteria use too.
ANTICOMMUTE_TOL = 1e-8

OUTCOME_SIGNS = (1.0, -1.0)  # index 0 is the +1 outcome, index 1 the -1 outcome
_SIGNS = np.array(OUTCOME_SIGNS)
_VERSION_SIGNS = np.array(certify.VERSION_SIGNS, dtype=float)  # [v, (x, y)]
_SWAP_SUBSCRIPTS = ("xyzabc,a,zc->xz", "xyzabc,b,zc->yz")  # E[s, z] of the first, second party

# The two terms of each noisy pair state v * ideal + (1 - v) * I/4, shared read-only: the ideal
# pair density is the first projector of the cached bell_measurement().
_PAIR_IDEAL = bell_measurement().projectors[0]
_PAIR_NOISE = np.eye(4) / 4.0
_PAIR_NOISE.setflags(write=False)


def _check_parties(state: DensityMatrix, alice: Sequence[DichotomicObservable],
                   bob: Sequence[DichotomicObservable], charlie3: FourOutcomeMeasurement) -> None:
    """Four factors, two settings per end party, dims that match: shared by Scenario and theorem_check."""
    dims = state.dims
    if len(dims) != 4:
        raise ValidationError(f"state must have four factors, got dims {dims}")
    if len(alice) != 2 or len(bob) != 2:
        raise ValidationError("each party needs exactly two settings")
    for name, settings, dim in (("alice", alice, dims[0]), ("bob", bob, dims[1])):
        for k, obs in enumerate(settings):
            if obs.dim != dim:
                raise ValidationError(f"{name} setting {k + 1} acts on dim {obs.dim}, state has {dim}")
    if charlie3.dims != dims[2:]:
        raise ValidationError(f"charlie3 acts on dims {charlie3.dims}, state has {dims[2:]}")


@dataclass(frozen=True)
class Scenario:
    """Full experiment description: state, settings and binnings of all parties."""

    state: DensityMatrix
    alice: tuple[DichotomicObservable, DichotomicObservable]
    bob: tuple[DichotomicObservable, DichotomicObservable]
    charlie12: tuple[BinnedMeasurement, BinnedMeasurement]
    charlie3: FourOutcomeMeasurement

    def __post_init__(self) -> None:
        _check_parties(self.state, self.alice, self.bob, self.charlie3)
        if len(self.charlie12) != 2:
            raise ValidationError("each party needs exactly two settings")
        for k, binned in enumerate(self.charlie12):
            if binned.base.dims != self.dims[2:]:
                raise ValidationError(f"charlie setting {k + 1} acts on dims {binned.base.dims}, "
                                      f"state has {self.dims[2:]}")

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return self.state.dims

    @cached_property
    def born_tables(self) -> np.ndarray:
        """:func:`born_tables` as one read-only array, computed on first use and shared."""
        pa = np.array([obs.projector_stack for obs in self.alice])
        pb = np.array([obs.projector_stack for obs in self.bob])
        pc = np.array([*(binned.base.projector_stack for binned in self.charlie12),
                       self.charlie3.projector_stack])
        tables = _born(pa, pb, pc, self.state)
        tables.setflags(write=False)
        return tables

    @cached_property
    def _sampling(self) -> np.ndarray:
        """The multinomial table of :func:`sample_counts`, computed on first use and kept read-only.

        One row of 16 per setting triple in (x, y, z) order: the Born tables
        with negative rounding residue clipped to 0, each row divided by its sum.
        """
        tables = np.clip(self.born_tables, 0.0, None).reshape(12, 16)
        tables /= tables.sum(axis=-1, keepdims=True)
        tables.setflags(write=False)
        return tables


# A sampled report may sit above 2*sqrt(2) by sampling noise, but no CHSH
# value of +/-1 correlators exceeds 4 in magnitude.
CHSH_ALGEBRAIC_MAX = 4.0
# Probabilities read back at 9 significant digits sum to 1 within about 2e-9, computed ones within a few ulp.
PROB_SUM_TOL = 1e-6


@dataclass(frozen=True)
class ReportStdErr:
    """Propagated standard errors of an estimated report, four conditional: each nonnegative, or NaN where undefined."""

    s_ac: float
    s_bc: float
    s_ab_given_c: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        if len(self.s_ab_given_c) != 4:
            raise ValidationError(f"stderr s_ab_given_c must hold four values, got {len(self.s_ab_given_c)}")
        if any(v < 0 for v in (self.s_ac, self.s_bc, *self.s_ab_given_c)):
            raise ValidationError("standard errors must be nonnegative")


@dataclass(frozen=True)
class ChshReport:
    """All CHSH values of one run, with conditional values already relabeled.

    ``s_ab_given_c`` and ``outcome_probs`` are aligned to the relabeled slots;
    ``relabeling`` maps 0-based raw outcome to its slot. Undefined conditional
    values (outcomes with no statistics) are NaN.

    Every report is checked where it is built, whatever its source: both
    lists hold four values, the relabeling is a permutation of the four
    slots (named 1-based in the message, as files and the CLI write it),
    the probabilities are no lower than -``DEFAULT_TOL`` and sum to 1
    within ``PROB_SUM_TOL``, and every CHSH value is at most
    ``CHSH_ALGEBRAIC_MAX`` in magnitude. A report without ``stderr`` is
    exact, so its values also keep to ``QUANTUM_CEILING``; a sampled one
    may exceed it by sampling noise. NaN passes every check.
    """

    s_ac: float
    s_bc: float
    s_ab_given_c: tuple[float, float, float, float]
    outcome_probs: tuple[float, float, float, float]
    relabeling: tuple[int, int, int, int]
    stderr: ReportStdErr | None = None

    def __post_init__(self) -> None:
        for name, values in (("s_ab_given_c", self.s_ab_given_c), ("outcome_probs", self.outcome_probs)):
            if len(values) != 4:
                raise ValidationError(f"{name} must hold four values, got {len(values)}")
        for value in (self.s_ac, self.s_bc, *self.s_ab_given_c):  # NaN (undefined) compares False
            if abs(value) > CHSH_ALGEBRAIC_MAX:
                raise ValidationError(f"CHSH value {value} exceeds the algebraic maximum {CHSH_ALGEBRAIC_MAX:g}")
            if self.stderr is None and abs(value) > QUANTUM_CEILING:
                raise ValidationError(f"CHSH value {value} exceeds the quantum ceiling")
        probs = self.outcome_probs
        if min(probs) < -DEFAULT_TOL or abs(sum(probs) - 1.0) > PROB_SUM_TOL:
            raise ValidationError(f"outcome_probs {list(probs)} are not a probability distribution")
        if sorted(self.relabeling) != [0, 1, 2, 3]:
            shown = [slot + 1 for slot in self.relabeling]
            raise ValidationError(f"relabeling {shown} is not a permutation of 1..4")


def _steered(pc: np.ndarray, state: DensityMatrix) -> np.ndarray:
    """Tr_C[rho (I x P)] for each projector ``pc[z, c]``, indexed ``[z, c, j, l, i, k]`` (row jl).

    One matrix product: ``pc`` as rows ``(z c)`` over ``(m n)`` times the
    state permuted to ``[(m n), (j l i k)]``.
    """
    d_a, d_b, d_ca, d_cb = state.dims
    d_c = d_ca * d_cb
    rho = state.matrix.reshape(d_a, d_b, d_c, d_a, d_b, d_c).transpose(5, 2, 0, 1, 3, 4)
    steered = pc.reshape(-1, d_c * d_c) @ rho.reshape(d_c * d_c, -1)
    return steered.reshape(*pc.shape[:2], d_a, d_b, d_a, d_b)


def _born(pa: np.ndarray, pb: np.ndarray, pc: np.ndarray, state: DensityMatrix) -> np.ndarray:
    """Probabilities ``[x, y, z, a, b, c]`` from projector stacks ``pa[x, a]``, ``pb[y, b]``, ``pc[z, c]``.

    It is ``einsum('xaij,ybkl,zcmn,jlnikm->xyzabc', PA, PB, PC, rho)`` with
    the state reshaped to ``(dA, dB, dC, dA, dB, dC)``, contracted one party
    at a time as three matrix products, the middle party first: each party's
    stack as rows ``(setting outcome)`` over its two indices, times what is
    left permuted to bring those two indices first.
    """
    n_zc = pc.shape[0] * pc.shape[1]
    d_a, d_b = pa.shape[-1], pb.shape[-1]
    steered = _steered(pc, state).reshape(n_zc, d_a, d_b, d_a, d_b)  # [(z c), j, l, i, k]
    t = pb.reshape(-1, d_b * d_b) @ steered.transpose(4, 2, 0, 1, 3).reshape(d_b * d_b, -1)  # [(y b), (z c j i)]
    t = t.reshape(-1, n_zc, d_a, d_a).transpose(3, 2, 0, 1).reshape(d_a * d_a, -1)  # [(i j), (y b z c)]
    probs = (pa.reshape(-1, d_a * d_a) @ t).real  # [(x a), (y b z c)]
    probs = probs.reshape(*pa.shape[:2], *pb.shape[:2], *pc.shape[:2])
    return np.ascontiguousarray(probs.transpose(0, 2, 4, 1, 3, 5))


def born_tables(sc: Scenario) -> np.ndarray:
    """Every outcome probability of the scenario, from one Born-rule contraction.

    The result is real and indexed ``[x-1, y-1, z-1, a, b, c]`` like
    :attr:`CountsTable.counts`: a (resp. b) is 0 for outcome +1 and 1 for
    outcome -1, and c is the 0-based raw outcome of the middle party. It is
    :func:`_born` over the stacked projectors of the three parties, computed
    on first use and kept read-only on the scenario, as a measurement keeps
    its projector stack: every later call returns the same array. Copy it
    before writing to it.
    """
    return sc.born_tables


def joint_distribution(sc: Scenario, x: int, y: int, z: int) -> np.ndarray:
    """Exact outcome table p[a, b, c] for one setting triple: a read-only view into :func:`born_tables`.

    Index a (resp. b) is 0 for outcome +1 and 1 for outcome -1; c is the
    0-based raw outcome of the middle party. Each setting is read by :func:`_checked_int`.
    """
    x, y, z = _checked_int(x, "x"), _checked_int(y, "y"), _checked_int(z, "z")
    if x not in (1, 2) or y not in (1, 2):
        raise ValidationError("x and y must be in {1, 2}")
    if z not in (1, 2, 3):
        raise ValidationError("z must be in {1, 2, 3}")
    return born_tables(sc)[x - 1, y - 1, z - 1]


@cache
def _bit_array(bit_maps: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]) -> np.ndarray:
    """``bit_maps``, the pair ``(bit_for_a, bit_for_b)`` of each setting z = 1, 2, as a read-only float array.

    Every bit has been read by :func:`checked_bits`, so there are at most
    2**16 keys, and each binning's array is built once and shared.
    """
    bits = np.array(bit_maps, dtype=float)
    bits.setflags(write=False)
    return bits


def _bit_maps(sc: Scenario) -> np.ndarray:
    """The middle party's bits as ``[z, side, c]``: side 0 goes with the first party."""
    first, second = sc.charlie12
    return _bit_array(((first.bit_for_a, first.bit_for_b), (second.bit_for_a, second.bit_for_b)))


def _swap_side(table: np.ndarray, bits: np.ndarray, party: int) -> tuple[np.ndarray, np.ndarray]:
    """Correlators E[s, z] of one end party (0 first, 1 second) with its bit of settings z = 1, 2.

    ``table`` is laid out like :func:`born_tables` and ``bits`` like
    :func:`_bit_maps`. Each correlator pools over the other end party's
    setting and outcome; the weights it is read from are returned with it.
    """
    binned = table[:, :, :2]  # the middle party's settings z = 1, 2
    weights = binned.sum(axis=(1 - party, 3, 4, 5))
    return np.einsum(_SWAP_SUBSCRIPTS[party], binned, _SIGNS, bits[:, party]) / weights, weights


def _chsh(e: np.ndarray) -> float:
    return float(e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1])


def _conditional(joint: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Version matrix of the setting-3 tables ``joint[x, y, a, b, c]``, with the correlators and weights.

    Returns ``(matrix, e, weights)``: ``matrix[c, v]`` is the variant-(v+1)
    value given raw outcome c+1, and ``e``/``weights`` are indexed
    ``[x, y, c]``. An outcome is undefined, and its row and correlators NaN,
    when any (x, y) block of it weighs less than ``PROB_FLOOR``.
    """
    weights = joint.sum(axis=(2, 3))
    e = np.einsum("xyabc,a,b->xyc", joint, _SIGNS, _SIGNS)
    if weights.min() >= PROB_FLOOR:  # every outcome defined
        e = e / weights
    else:
        defined = np.all(weights >= PROB_FLOOR, axis=(0, 1))
        e = e / np.where(defined, weights, 1)
        e[:, :, ~defined] = math.nan
    # summed term by term in (x, y) order, as the variants' sign patterns are written
    matrix = (_VERSION_SIGNS[:, :, None] * e.reshape(4, 4)).sum(axis=1).T
    return matrix, e, weights


def chsh_ac(sc: Scenario) -> float:
    """CHSH value between the first party and the middle party's 'a' bit."""
    return _chsh(_swap_side(born_tables(sc), _bit_maps(sc), 0)[0])


def chsh_bc(sc: Scenario) -> float:
    """CHSH value between the second party and the middle party's 'b' bit."""
    return _chsh(_swap_side(born_tables(sc), _bit_maps(sc), 1)[0])


def conditional_version_matrix(sc: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """All four CHSH variants conditioned on each raw outcome of setting 3.

    Returns ``(matrix, probs)`` where ``matrix[c, v]`` is the variant-(v+1)
    value given outcome c+1 and ``probs[c]`` the outcome probability. Rows for
    outcomes below the probability floor are NaN.
    """
    matrix, _, weights = _conditional(born_tables(sc)[:, :, 2])
    return matrix, weights.sum(axis=(0, 1)) / weights.sum()


@dataclass(frozen=True)
class TheoremCheckReport:
    """Outcome of the separable-steering check on a planted maximal instance."""

    version_values: np.ndarray  # [c, v], NaN for outcomes without statistics
    max_value: float
    bound: float
    satisfied: bool


def theorem_check(
    state: DensityMatrix,
    alice: Sequence[DichotomicObservable],
    bob: Sequence[DichotomicObservable],
    charlie3: FourOutcomeMeasurement,
) -> TheoremCheckReport:
    """Check that all conditional CHSH values stay at or below sqrt(2), up to ``certify.SLACK``.

    The inputs are checked as :class:`Scenario` checks them, and each end
    party's settings must anticommute to ``ANTICOMMUTE_TOL``: by Landau's
    identity, the planted structure with every block pair at 2*sqrt(2).
    Anything else is rejected as an invalid construction. All four variants
    are read for every outcome from the Born-rule contraction of
    :func:`born_tables`, with ``charlie3`` as the only middle-party setting,
    so the maximum covers any relabeling.
    """
    _check_parties(state, alice, bob, charlie3)
    for name, (o0, o1) in (("alice", alice), ("bob", bob)):
        anti = float(np.max(np.abs(o0.matrix @ o1.matrix + o1.matrix @ o0.matrix)))
        if anti > ANTICOMMUTE_TOL:
            raise ValidationError(f"{name}'s settings do not anticommute: max|A0A1 + A1A0| = {anti:.3g}")
    pa, pb = (np.array([obs.projector_stack for obs in side]) for side in (alice, bob))
    table = _born(pa, pb, charlie3.projector_stack[None], state)
    values, _, _ = _conditional(table[:, :, 0])
    max_value = float(np.nanmax(values))
    return TheoremCheckReport(values, max_value, SQRT2, max_value <= SQRT2 + certify.SLACK)


def steer(state: DensityMatrix, meas: FourOutcomeMeasurement) -> list[tuple[float, DensityMatrix | None]]:
    """Per-outcome probability and conditional end-party state.

    The state must have four factors; the measurement acts on the last two.
    The state left by projector P is Tr_C[rho (I x P)] / p, the middle-party
    contraction of :func:`born_tables`; for a projector it equals
    Tr_C[(I x P) rho (I x P)] / p. Outcomes below the probability floor
    yield ``(p, None)``.
    """
    dims = state.dims
    if len(dims) != 4:
        raise ValidationError("steering expects a four-factor state")
    if meas.dims != dims[2:]:
        raise ValidationError(f"measurement dims {meas.dims} do not match state dims {dims[2:]}")
    d_ab = dims[0] * dims[1]
    out: list[tuple[float, DensityMatrix | None]] = []
    for reduced in _steered(meas.projector_stack[None], state)[0].reshape(4, d_ab, d_ab):
        p = float(np.trace(reduced).real)
        out.append((p, None) if p < PROB_FLOOR else (p, DensityMatrix(reduced / p, dims[:2])))
    return out


def steered_states(sc: Scenario) -> list[tuple[float, DensityMatrix]]:
    """Conditional end-party states under setting 3; zero-probability outcomes omitted."""
    return [(p, dm) for p, dm in steer(sc.state, sc.charlie3) if dm is not None]


def _two_pair_state(rho_pair_a: np.ndarray, rho_pair_b: np.ndarray) -> DensityMatrix:
    """Assemble a (A,CA) x (B,CB) product into the global (A,B,CA,CB) ordering.

    Each entry is one product of an entry of each pair state: the outer
    product ``[a, ca, a', ca', b, cb, b', cb']`` is transposed to
    ``[a, b, ca, cb, a', b', ca', cb']`` and copied once by the reshape.
    """
    pair_a = np.asarray(rho_pair_a).reshape(2, 2, 2, 2)  # [a, ca, a', ca']
    pair_b = np.asarray(rho_pair_b).reshape(2, 2, 2, 2)  # [b, cb, b', cb']
    joint = np.multiply.outer(pair_a, pair_b).transpose(0, 4, 1, 5, 2, 6, 3, 7)
    return DensityMatrix(joint.reshape(16, 16), (2, 2, 2, 2))


@cache
def _ideal_settings() -> tuple[
    tuple[DichotomicObservable, DichotomicObservable],
    tuple[DichotomicObservable, DichotomicObservable],
    tuple[BinnedMeasurement, BinnedMeasurement],
]:
    """The ideal settings of the first, second and middle party, built once.

    They are frozen dataclasses over read-only arrays, so every scenario can
    share them.
    """
    z, x, diag, anti = ideal_qubit_observables()
    return (z, x), (diag, anti), charlie_settings_ideal()


def ideal_scenario() -> Scenario:
    """The four-qubit scenario reaching the quantum ceiling on every tested value.

    It is ``noisy_scenario(1, 1, 0)``: noiseless pairs and the unrotated
    entangled basis.
    """
    return noisy_scenario(1.0, 1.0, 0.0)


def noisy_scenario(v_ac: float, v_bc: float, theta: float) -> Scenario:
    """Ideal scenario with isotropic noise on each pair and a rotated joint basis.

    Each source emits ``v * ideal + (1 - v) * I/4``; the joint measurement is
    the outcome-1/4 plane rotated by ``theta``.
    """
    for name, v in (("v_ac", v_ac), ("v_bc", v_bc)):
        if not 0.0 <= v <= 1.0:
            raise ValidationError(f"{name} must lie in [0, 1]")
    rho_a = v_ac * _PAIR_IDEAL + (1.0 - v_ac) * _PAIR_NOISE
    rho_b = v_bc * _PAIR_IDEAL + (1.0 - v_bc) * _PAIR_NOISE
    alice, bob, charlie12 = _ideal_settings()
    return Scenario(
        state=_two_pair_state(rho_a, rho_b),
        alice=alice,
        bob=bob,
        charlie12=charlie12,
        charlie3=perturbed_bell_measurement(theta, pair=1),
    )


def _report(table: np.ndarray, bits: np.ndarray) -> ChshReport:
    """The relabeled CHSH report of a table laid out like :func:`born_tables`.

    ``table`` holds probabilities, or counts when its dtype is integer;
    ``bits`` is laid out like :func:`_bit_maps`. Outcome probabilities pool
    over (x, y). Only counts get standard errors, from the plug-in variance
    (1 - E^2)/n of each correlator, one independent multinomial per setting
    triple.
    """
    swap = [_swap_side(table, bits, party) for party in (0, 1)]
    matrix, e, weights = _conditional(table[:, :, 2])
    perm, values = certify.relabel(matrix)
    slots = certify._SLOT_SOURCES[perm]  # raw outcome landing in each slot
    probs = (weights.sum(axis=(0, 1)) / weights.sum()).take(slots)
    stderr = None
    if table.dtype.kind in "iu":  # counts
        se_swap = [math.sqrt(np.maximum(0.0, (1.0 - e_s * e_s) / w_s).sum()) for e_s, w_s in swap]
        var_c = np.maximum(0.0, (1.0 - e * e) / weights).reshape(4, 4)
        se_c = np.sqrt(var_c.sum(axis=0))  # NaN for undefined outcomes
        stderr = ReportStdErr(*se_swap, tuple(se_c.take(slots).tolist()))
    return ChshReport(_chsh(swap[0][0]), _chsh(swap[1][0]), values, tuple(probs.tolist()), perm, stderr)


def exact_report(sc: Scenario) -> ChshReport:
    """Exact CHSH report with conditional values relabeled to their best variants."""
    return _report(born_tables(sc), _bit_maps(sc))


@dataclass(frozen=True)
class CountsTable:
    """Outcome counts per setting triple, indexed [x-1, y-1, z-1, a, b, c].

    Counts are nonnegative whole numbers whose grand total fits in int64, and
    every setting triple has a positive total. ``n_per_setting`` is the
    largest triple total.
    """

    counts: np.ndarray
    n_per_setting: int = field(init=False)

    def __post_init__(self) -> None:
        raw = np.asarray(self.counts)
        if raw.shape != (2, 2, 3, 2, 2, 4):
            raise ValidationError(f"counts must have shape (2,2,3,2,2,4), got {raw.shape}")
        if raw.dtype.kind not in "biuf":
            raise ValidationError(f"counts must be a numeric array of whole numbers, got dtype {raw.dtype}")
        if np.can_cast(raw.dtype, np.int64):  # bool and every integer type but uint64: each value is kept
            arr = raw.astype(np.int64)
        else:
            with np.errstate(invalid="ignore"):  # a NaN or out-of-range value casts to garbage, caught below
                arr = raw.astype(np.int64)
            if not np.array_equal(arr, raw):
                raise ValidationError("counts must be whole numbers that fit in int64")
        if arr.min() < 0:
            raise ValidationError("counts must be nonnegative")
        # a total over _INT64_MAX needs a count over _INT64_MAX // size; only then is it summed, as Python
        # ints, since an int64 sum would wrap
        if arr.max() > _INT64_MAX // arr.size and sum(arr.ravel().tolist()) > _INT64_MAX:
            raise ValidationError("total count does not fit in int64")
        totals = arr.sum(axis=(3, 4, 5))
        if not totals.all():
            x, y, z = np.argwhere(totals == 0)[0] + 1
            raise ValidationError(f"empty cells: zero total count for setting triple ({x},{y},{z})")
        arr.setflags(write=False)
        object.__setattr__(self, "counts", arr)
        object.__setattr__(self, "n_per_setting", int(totals.max()))


def sample_counts(sc: Scenario, n_per_setting: int, seed: int) -> CountsTable:
    """Draw i.i.d. samples from every setting triple.

    One generator, ``np.random.default_rng(seed)``, draws the 12 triples in
    (x, y, z) order, so the result is byte-identical for a fixed seed and
    numpy version. Each triple's 16 cell counts are one multinomial draw of
    ``n_per_setting`` trials over its outcome table from :func:`born_tables`,
    clipped at 0 and normalized. A scenario computes that table once and keeps
    it read-only beside its Born tables, so sampling it again draws at once,
    with no new contraction and no new normalization. ``n_per_setting`` lies
    in 1..``MAX_N_PER_SETTING``.
    """
    if _checked_int(n_per_setting, "n_per_setting") < 1:
        raise ValidationError("n_per_setting must be at least 1")
    if n_per_setting > MAX_N_PER_SETTING:
        raise ValidationError(f"n_per_setting must be at most {MAX_N_PER_SETTING}")
    if _checked_int(seed, "seed") < 0:
        raise ValidationError("seed must be a nonnegative integer")
    counts = np.random.default_rng(seed).multinomial(n_per_setting, sc._sampling)
    return CountsTable(counts.reshape(2, 2, 3, 2, 2, 4))


def _stacked_bits(bit_maps: tuple[tuple[Sequence[int], Sequence[int]], ...]) -> np.ndarray:
    """The bit maps of middle-party settings 1 and 2, checked, laid out like :func:`_bit_maps`."""
    try:
        well_formed = len(bit_maps) == 2 and all(len(pair) == 2 for pair in bit_maps)
    except TypeError:
        well_formed = False
    if not well_formed:
        raise ValidationError("bit_maps must give (bit_for_a, bit_for_b) for middle-party settings 1 and 2")
    bits = tuple(tuple(checked_bits(b, f"setting {z + 1} bit_for_{side}") for side, b in zip("ab", pair))
                 for z, pair in enumerate(bit_maps))
    return _bit_array(bits)


# The canonical binning of the ideal protocol for both settings, checked once and shared read-only.
_CANONICAL_BITS = _stacked_bits(((CANONICAL_BIT_FOR_A, CANONICAL_BIT_FOR_B),) * 2)


def estimate_report(
    counts: CountsTable,
    bit_maps: tuple[tuple[Sequence[int], Sequence[int]], ...] | None = None,
) -> ChshReport:
    """Plug-in CHSH estimates with propagated standard errors.

    ``bit_maps`` gives ``(bit_for_a, bit_for_b)`` per middle-party setting 1
    and 2; by default the canonical binning of the ideal protocol is used.
    Standard errors use the independent-multinomial approximation per setting.
    Estimates are relabeled the same way exact reports are; finite-sample
    values are not forced under the quantum ceiling. Every bit must be -1 or
    +1, as for :class:`BinnedMeasurement`.
    """
    bits = _CANONICAL_BITS if bit_maps is None else _stacked_bits(bit_maps)
    return _report(counts.counts, bits)
