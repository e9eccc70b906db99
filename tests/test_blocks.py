import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from swapcert import (
    DichotomicObservable,
    ValidationError,
    bell_measurement,
    block_chsh,
    chsh_operator,
    chsh_spectrum,
    ideal_scenario,
    jordan_blocks,
    product_measurement,
    qubit_observable,
    sep_bound,
    sep_bound_formula,
    sep_bound_value,
    theorem_check,
    version_operator,
)
from swapcert.blocks import EDGE_TOL, RECONSTRUCTION_TOL, block_witness
from swapcert.serialize import json_dumps, observable_from_json, observable_to_json
from support import (
    I2,
    SQRT2,
    TSIRELSON,
    X,
    Z,
    expected_alpha,
    four_factor_state,
    haar_unitary,
    kron_all,
    maximally_entangled_pair,
    planted_layout,
    planted_observables,
    planted_pair,
    random_bloch_observable,
    random_observable,
    reference_block_chsh,
    reference_chsh_operator,
    reference_jordan_blocks,
    reference_sep_bound_formula,
    reference_sep_bound_oracle,
    reference_version_operator,
    skewed_observable,
)

Z_OBS = qubit_observable((0, 0, 1))
X_OBS = qubit_observable((1, 0, 0))
DIAG_OBS = qubit_observable((1 / SQRT2, 0, 1 / SQRT2))
ANTI_OBS = qubit_observable((-1 / SQRT2, 0, 1 / SQRT2))


def embed_error(blocks, a0, a1):
    r0, r1 = blocks.embed()
    return max(np.max(np.abs(r0 - a0.matrix)), np.max(np.abs(r1 - a1.matrix)))


class TestJordanBlocks:
    def test_commuting_pair_gives_one_dim_blocks(self):
        blocks = jordan_blocks(Z_OBS, Z_OBS)
        assert sorted(b.size for b in blocks.blocks) == [1, 1]
        assert embed_error(blocks, Z_OBS, Z_OBS) <= 1e-12
        for b in blocks.blocks:
            np.testing.assert_allclose(b.a0, b.a1, atol=1e-12)

    def test_anticommuting_pair_gives_single_block(self):
        blocks = jordan_blocks(Z_OBS, X_OBS)
        assert [b.size for b in blocks.blocks] == [2]
        assert embed_error(blocks, Z_OBS, X_OBS) <= 1e-12

    def test_planted_two_blocks(self):
        angles = (math.pi / 2, math.pi / 5)
        a0, a1 = planted_observables(angles)
        blocks = jordan_blocks(a0, a1)
        assert sorted(b.size for b in blocks.blocks) == [2, 2]
        assert embed_error(blocks, a0, a1) <= 1e-8
        # recovered block angles match the planted ones (any order)
        recovered = sorted(
            abs(np.angle(np.linalg.eigvals(b.a0 @ b.a1)))[1] for b in blocks.blocks
        )
        np.testing.assert_allclose(recovered, sorted(angles), atol=1e-8)

    def test_conjugated_planted_blocks(self):
        rng = np.random.default_rng(90)
        a0, a1 = planted_observables((1.1, 0.4, math.pi / 2), rng=rng)
        blocks = jordan_blocks(a0, a1)
        assert all(b.size <= 2 for b in blocks.blocks)
        assert embed_error(blocks, a0, a1) <= 1e-8

    def test_random_pairs_reconstruct(self):
        from support import random_observable

        for d in (2, 4, 6, 8):
            for seed in range(5):
                rng = np.random.default_rng(100 * d + seed)
                a0 = random_observable(d, rng)
                a1 = random_observable(d, rng)
                blocks = jordan_blocks(a0, a1)
                assert all(b.size <= 2 for b in blocks.blocks)
                assert sum(b.size for b in blocks.blocks) == d
                assert embed_error(blocks, a0, a1) <= 1e-8

    def test_invariance_of_block_bases(self):
        rng = np.random.default_rng(17)
        from support import random_observable

        a0 = random_observable(6, rng)
        a1 = random_observable(6, rng)
        blocks = jordan_blocks(a0, a1)
        eye = np.eye(6)
        for b in blocks.blocks:
            proj = b.basis @ b.basis.conj().T
            for mat in (a0.matrix, a1.matrix):
                leak = np.max(np.abs((eye - proj) @ mat @ proj))
                assert leak <= 1e-8

    def test_mixed_one_and_two_dim_blocks(self):
        # d=4 with a common eigenvector pair plus a rotated pair
        a0 = np.zeros((4, 4), dtype=complex)
        a1 = np.zeros((4, 4), dtype=complex)
        a0[:2, :2], a1[:2, :2] = Z, Z
        a0[2:, 2:], a1[2:, 2:] = Z, X
        o0, o1 = DichotomicObservable(a0), DichotomicObservable(a1)
        blocks = jordan_blocks(o0, o1)
        assert sorted(b.size for b in blocks.blocks) == [1, 1, 2]
        assert embed_error(blocks, o0, o1) <= 1e-10

    def test_rejects_non_involution(self):
        good = Z_OBS
        with pytest.raises(ValidationError):
            jordan_blocks(good, DichotomicObservable(np.eye(3)))


GOLDEN = Path(__file__).resolve().parent / "golden"

# Interior phases that fill a planted layout up to d = 16 after its first block.
FILL_PHASES = (0.7, 1.9, 2.6, 1.1, 0.4, 2.3, 1.5)


def assembly_pair(kind: str, d: int, seed: int) -> tuple[DichotomicObservable, DichotomicObservable]:
    """A seeded pair of each layout the assembly must reproduce.

    ``generic``: balanced Haar observables. ``repeated`` and ``ones_repeated``:
    two eigenphases repeated over every 2x2 block, the second after 1x1 blocks
    at 0 and pi. ``mixed_edge``: 1x1 blocks at 0 and pi beside a 2x2 block 5e-8
    from 0. ``near_edge``: a 2x2 block 5e-8 from pi beside interior ones.
    """
    rng = np.random.default_rng([seed, d])
    if kind == "generic":
        return random_observable(d, rng), random_observable(d, rng)
    if kind in ("repeated", "ones_repeated"):
        phases = rng.uniform(0.3, math.pi - 0.3, size=2)
        sign = float(rng.choice([-1.0, 1.0]))
        ones = ((sign, sign), (sign, -sign)) if kind == "ones_repeated" else ()
        return planted_layout(ones, tuple(phases[k % 2] for k in range((d - len(ones)) // 2)), rng)
    if kind == "mixed_edge":
        return planted_layout(((1.0, 1.0), (-1.0, 1.0)), ((5e-8,) + FILL_PHASES)[:(d - 2) // 2], rng)
    return planted_layout((), ((math.pi - 5e-8,) + FILL_PHASES)[:d // 2], rng)


def assert_matches_reference(a0: DichotomicObservable, a1: DichotomicObservable) -> None:
    """jordan_blocks against the principal-angle-first reference, through gauge-free quantities only.

    The same block sizes in the same order, sines and cosines within 1e-14,
    the summed projector of each run of blocks at one phase within 1e-10,
    and every block invariant: max|A B - B r| <= 1e-13 for both observables.
    """
    got = jordan_blocks(a0, a1)
    want, sines, cosines = reference_jordan_blocks(a0, a1)
    assert [block.size for block in got.blocks] == [basis.shape[1] for basis, _, _ in want]
    assert np.max(np.abs(np.array(got.sines) - sines)) <= 1e-14
    assert np.max(np.abs(np.array(got.cosines) - cosines)) <= 1e-14
    phases = np.arctan2(sines, cosines)
    runs: list[list[int]] = []  # consecutive blocks of one size at one phase
    for k, (basis, _, _) in enumerate(want):
        if runs and want[runs[-1][0]][0].shape == basis.shape and abs(phases[k] - phases[runs[-1][0]]) <= 1e-8:
            runs[-1].append(k)
        else:
            runs.append([k])
    for run in runs:
        mine = sum(got.blocks[k].basis @ got.blocks[k].basis.conj().T for k in run)
        theirs = sum(want[k][0] @ want[k][0].conj().T for k in run)
        assert np.max(np.abs(mine - theirs)) <= 1e-10
    for block in got.blocks:
        for mat, restricted in ((a0.matrix, block.a0), (a1.matrix, block.a1)):
            assert np.max(np.abs(mat @ block.basis - block.basis @ restricted)) <= 1e-13


class TestJordanBlocksAssembly:
    """One eig and one QR against the principal-angle-first reference loop, gauge-free, and what they record."""

    @pytest.mark.parametrize("kind", ["generic", "repeated", "ones_repeated", "mixed_edge", "near_edge"])
    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_matches_reference(self, kind, d):
        for seed in range(3):
            assert_matches_reference(*assembly_pair(kind, d, seed))

    @pytest.mark.parametrize("name", ["planted_d4", "mixed_edge"])
    def test_golden_settings_match_reference(self, name):
        obj = json.loads((GOLDEN / f"{name}_settings.json").read_text(encoding="utf-8"))
        a0, a1, b0, b1 = (observable_from_json(obj[key], key) for key in ("a0", "a1", "b0", "b1"))
        assert_matches_reference(a0, a1)
        assert_matches_reference(b0, b1)

    @pytest.mark.parametrize("kind", ["generic", "planted"])
    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
    def test_sep_bound_inputs_match_reference(self, kind, d):
        # the settings of test_witness_matches_operator_builder and of TestWitnessOracle's oracle_input
        for seed in range(3):
            obs = oracle_input(kind, d, seed)
            for pair in (setting_pair(kind, d, np.random.default_rng([seed, d, 5])), obs[:2], obs[2:]):
                assert_matches_reference(*pair)

    @pytest.mark.parametrize("kind", ["generic", "ones_repeated", "mixed_edge"])
    @pytest.mark.parametrize("d", [2, 8])
    def test_records_split_and_reconstruction_error(self, kind, d):
        a0, a1 = assembly_pair(kind, d, 0)
        blocks = jordan_blocks(a0, a1)
        residual = max(float(np.max(np.abs(o.matrix @ o.matrix - np.eye(d)))) for o in (a0, a1))
        assert blocks.split == max(EDGE_TOL, 8.0 * residual)
        assert blocks.reconstruction_error == embed_error(blocks, a0, a1) <= RECONSTRUCTION_TOL

    @pytest.mark.parametrize("seed", range(5))
    def test_records_split_margin(self, seed):
        # a 2x2 block 5e-8 from phase 0 and no 1x1 block: its eigenvalues lie 2 sin(2.5e-8) from 1,
        # and every other one much farther from +/-1
        a0, a1 = planted_layout((), (5e-8, 0.7, 1.9, 2.6), np.random.default_rng(seed))
        blocks = jordan_blocks(a0, a1)
        assert [b.size for b in blocks.blocks] == [2] * 4
        assert abs(blocks.split_margin - (2.0 * math.sin(2.5e-8) - blocks.split)) <= 1e-14


SIGN_PAIRS = ((1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0))

# Scale of the near-edge layouts: 2x2 blocks within this of 0 or pi, where
# A1 -/+ A0 is still far above jordan_blocks' split threshold.
ANGLE_TOL = 1e-7


@st.composite
def degenerate_layouts(draw):
    """Planted 1x1 blocks and 2x2 blocks at repeated phases, d <= 16.

    The 2x2 phases come from a pool of interior phases in (0.05, pi - 0.05)
    and phases 2 to 10 ANGLE_TOL away from 0 or pi. Pool phases closer than
    2 ANGLE_TOL to an earlier one are dropped, so every planted phase is
    either repeated exactly or resolvable.
    """
    n_two = draw(st.integers(0, 8))
    n_one = draw(st.integers(0 if n_two else 2, 16 - 2 * n_two))
    interior = draw(st.lists(st.floats(0.05, math.pi - 0.05, exclude_min=True, exclude_max=True),
                             min_size=1, max_size=2))
    near_edge = draw(st.lists(st.tuples(st.sampled_from((0.0, math.pi)), st.floats(2.0, 10.0)),
                              max_size=2))
    pool: list[float] = []
    for phase in interior + [abs(edge - k * ANGLE_TOL) for edge, k in near_edge]:
        if all(abs(phase - kept) > 2 * ANGLE_TOL for kept in pool):
            pool.append(phase)
    # One seed assigns phases and sign pairs and draws the Haar unitary, which
    # keeps the number of hypothesis draws (and their cost) small.
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng([seed, 0])
    angles = tuple(pool[k] for k in rng.integers(len(pool), size=n_two))
    ones = tuple(SIGN_PAIRS[k] for k in rng.integers(len(SIGN_PAIRS), size=n_one))
    return ones, angles, seed


class TestJordanBlocksDegenerate:
    @given(degenerate_layouts())
    @settings(max_examples=1000, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_planted_layout_recovered(self, layout):
        ones, angles, seed = layout
        a0, a1 = planted_layout(ones, angles, np.random.default_rng(seed))
        u = haar_unitary(a0.dim, np.random.default_rng(seed))  # the conjugation planted_layout applied
        blocks = jordan_blocks(a0, a1)
        assert sorted(b.size for b in blocks.blocks) == [1] * len(ones) + [2] * len(angles)
        assert embed_error(blocks, a0, a1) <= 1e-8

        # Each block's restrictions are gauge-free: +/-1 on a 1x1 block, and
        # (X, cos(phi) X + sin(phi) Y) on the basis (u, A0 u) of a 2x2 block.
        # Blocks sharing a label together span the planted span of that label.
        recovered: dict[tuple, np.ndarray] = {}
        for b in blocks.blocks:
            if b.size == 1:
                label = (round(b.a0[0, 0].real), round(b.a1[0, 0].real))
                assert np.abs(np.array([b.a0[0, 0], b.a1[0, 0]]) - label).max() <= 1e-8
            else:
                phase = abs(np.angle(np.linalg.eigvals(b.a0 @ b.a1))).max()
                label = min(set(angles), key=lambda a: abs(a - phase))
                assert abs(phase - label) <= 1e-9
                want0, want1 = planted_pair(label)
                assert max(np.abs(b.a0 - want0).max(), np.abs(b.a1 - want1).max()) <= 1e-8
            proj = b.basis @ b.basis.conj().T
            recovered[label] = recovered.get(label, 0) + proj
        planted: dict[tuple, np.ndarray] = {}
        columns = [(pair, [k]) for k, pair in enumerate(ones)]
        columns += [(a, [len(ones) + 2 * k, len(ones) + 2 * k + 1]) for k, a in enumerate(angles)]
        for label, idx in columns:
            planted[label] = planted.get(label, 0) + u[:, idx] @ u[:, idx].conj().T
        assert recovered.keys() == planted.keys()
        for label, proj in planted.items():
            assert np.abs(recovered[label] - proj).max() <= 1e-8

    @pytest.mark.parametrize("edge", [0.0, math.pi])
    @pytest.mark.parametrize("offset", [2e-8, 5e-8, 9e-8])
    def test_near_edge_layout_is_accepted(self, edge, offset):
        # A 2x2 block this close to 0 or pi lies inside ANGLE_TOL of the edge,
        # but A1 -/+ A0 does not vanish on it, so its phases are paired.
        assert offset < ANGLE_TOL
        for seed in range(50):
            a0, a1 = planted_layout((), (abs(edge - offset), 0.7, 1.9, 2.6), np.random.default_rng(seed))
            blocks = jordan_blocks(a0, a1)
            assert [b.size for b in blocks.blocks] == [2] * 4
            assert embed_error(blocks, a0, a1) <= 1e-8

    @pytest.mark.parametrize("edge, ones, nine_digits", [
        pytest.param(edge, ones, nine_digits, id=f"{edge}-ones{k}" + "-nine_digits" * nine_digits)
        for nine_digits in (False, True)
        for k, (edge, ones) in enumerate([
            (0.0, ((1.0, 1.0), (-1.0, -1.0))),
            (0.0, ((1.0, 1.0), (1.0, 1.0))),
            (math.pi, ((1.0, -1.0), (-1.0, 1.0))),
            (math.pi, ((-1.0, 1.0), (-1.0, 1.0))),
        ])
    ])
    def test_exact_edge_blocks_beside_a_near_edge_block(self, edge, ones, nine_digits):
        # The 1x1 blocks' phases sit exactly at the edge with either rounding
        # sign; they split off before the near-edge 2x2 block is paired. Read
        # back from json_dumps, A1 -/+ A0 is about 1e-9 on them, yet the split
        # follows the files' own rounding.
        for seed in range(100):
            a0, a1 = planted_layout(ones, (abs(edge - 5e-8), 0.7), np.random.default_rng(seed))
            if nine_digits:
                a0, a1 = (observable_from_json(json.loads(json_dumps(observable_to_json(o)))) for o in (a0, a1))
            blocks = jordan_blocks(a0, a1)
            assert sorted(b.size for b in blocks.blocks) == [1, 1, 2, 2]
            labels = [(round(b.a0[0, 0].real), round(b.a1[0, 0].real)) for b in blocks.blocks if b.size == 1]
            assert sorted(labels) == sorted(ones)
            assert embed_error(blocks, a0, a1) <= 1e-8

    @pytest.mark.parametrize("edge", [0.0, math.pi])
    def test_close_near_edge_blocks_are_accepted(self, edge):
        # Two blocks a few 1e-9 from the edge: each +phase eigenvector carries
        # about 1e-7 of the other block's -phase eigenvector.
        for seed in range(50):
            a0, a1 = planted_layout((), (abs(edge - 3e-9), abs(edge - 5e-9), 0.7), np.random.default_rng(seed))
            blocks = jordan_blocks(a0, a1)
            assert [b.size for b in blocks.blocks] == [2] * 3
            assert embed_error(blocks, a0, a1) <= 1e-8

    def test_close_interior_phases_read_back_from_nine_digits(self):
        # Read back from json_dumps, eigenvectors at 1.10 and 1.11 carry about
        # 1e-9 / 0.01 of each other; each block is built orthogonal to the
        # earlier ones, so the reconstruction stays within 1e-8.
        for seed in range(200):
            a0, a1 = planted_layout((), (1.10, 1.11, 0.4, 2.3), np.random.default_rng(seed))
            a0, a1 = (observable_from_json(json.loads(json_dumps(observable_to_json(o)))) for o in (a0, a1))
            blocks = jordan_blocks(a0, a1)
            assert [b.size for b in blocks.blocks] == [2] * 4
            assert embed_error(blocks, a0, a1) <= 1e-8

    def test_blocks_are_listed_by_ascending_phase(self):
        # 1x1 blocks at pi come after every 2x2 block, even one 5e-8 from pi.
        for seed in range(20):
            a0, a1 = planted_layout(((1.0, -1.0),), (0.7, math.pi - 5e-8), np.random.default_rng(seed))
            blocks = jordan_blocks(a0, a1)
            assert [b.size for b in blocks.blocks] == [2, 2, 1]
            phases = [abs(np.angle(np.linalg.eigvals(b.a0 @ b.a1))).max() for b in blocks.blocks]
            np.testing.assert_allclose(phases, [0.7, math.pi - 5e-8, math.pi], atol=1e-9)
            assert embed_error(blocks, a0, a1) <= 1e-8


def setting_pair(kind: str, d: int, rng: np.random.Generator):
    """Generic settings, or planted ones: one 1x1 block at odd d, the rest 2x2 blocks at two phases."""
    if kind == "generic":
        return random_observable(d, rng), random_observable(d, rng)
    phases = rng.uniform(0.2, math.pi - 0.2, size=2)
    return planted_layout(((1.0, -1.0),) * (d % 2), tuple(phases[k % 2] for k in range(d // 2)), rng)


@st.composite
def bound_layouts(draw):
    """Settings of one party: generic, planted degenerate (1x1-only included), near-edge or ideal.

    Near-edge settings hold 2x2 blocks within ANGLE_TOL of 0 or pi beside
    interior ones, at offsets from 1e-8, where A1 -/+ A0 is too large on
    them for jordan_blocks to split them into 1x1 blocks. Returns the two
    observables and whether every block sits at phase pi/2.
    """
    kind = draw(st.sampled_from(("generic", "planted", "near_edge", "ideal")))
    if kind == "planted":
        ones, angles, seed = draw(degenerate_layouts())
        return (*planted_layout(ones, angles, np.random.default_rng(seed)), False)
    if kind == "near_edge":
        near = draw(st.lists(st.tuples(st.sampled_from((0.0, math.pi)), st.floats(1e-8, 0.99 * ANGLE_TOL)),
                             min_size=1, max_size=3))
        interior = draw(st.lists(st.floats(0.05, math.pi - 0.05), max_size=3))
        seed = draw(st.integers(0, 2**32 - 1))
        angles = tuple(abs(edge - offset) for edge, offset in near) + tuple(interior)
        return (*planted_layout((), angles, np.random.default_rng([seed, 3])), False)
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "generic":
        d = draw(st.integers(1, 16))
        return (*setting_pair("generic", d, np.random.default_rng([seed, 1])), False)
    n_two = draw(st.integers(1, 8))
    return (*planted_layout((), (math.pi / 2,) * n_two, np.random.default_rng([seed, 2])), True)


class TestClosedFormBound:
    """sep_bound reads lambda and the bound from the Jordan blocks; one eigvals of X0 X1 per party is the reference."""

    @given(bound_layouts(), bound_layouts())
    @settings(max_examples=400, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_matches_block_path(self, a_layout, b_layout):
        a0, a1, ideal_a = a_layout
        b0, b1, ideal_b = b_layout
        blocks = block_chsh(jordan_blocks(a0, a1), jordan_blocks(b0, b1))
        structure, result = sep_bound(a0, a1, b0, b1, with_oracle=False)
        assert result.oracle_value is None
        assert (structure.pairs, structure.lam, structure.bound) == (blocks.pairs, blocks.lam, blocks.bound)
        assert sep_bound_formula(structure) == result.formula_value == sep_bound(a0, a1, b0, b1)[1].formula_value
        lam, formula = reference_sep_bound_formula(a0, a1, b0, b1)
        assert abs(structure.lam - lam) <= 1e-12
        if not (ideal_a and ideal_b):
            # at lambda = 2*sqrt(2) the bound is infinitely steep in lambda
            assert abs(result.formula_value - formula) <= 1e-12
        if ideal_a and ideal_b:
            assert abs(result.formula_value - SQRT2) <= 1e-15

    def test_ideal_settings_give_sqrt2(self):
        structure, result = sep_bound(Z_OBS, X_OBS, DIAG_OBS, ANTI_OBS, with_oracle=False)
        assert abs(structure.lam - TSIRELSON) <= 1e-15
        assert abs(result.formula_value - SQRT2) <= 1e-15

    @pytest.mark.parametrize("edge", [0.0, math.pi])
    @pytest.mark.parametrize("offset", [5e-8, 9e-8])
    def test_near_edge_dead_zone_does_not_reach_bound(self, edge, offset):
        # layouts of test_near_edge_layout_is_accepted, which jordan_blocks rejected before
        # it paired near-edge phases
        a0, a1 = planted_layout((), (abs(edge - offset), 0.7, 1.9, 2.6), np.random.default_rng(5))
        b0, b1 = planted_layout((), (1.2, 0.5, 2.0), np.random.default_rng(6))
        p = math.sin(offset) * math.sin(0.5)
        structure, result = sep_bound(a0, a1, b0, b1, with_oracle=False)
        assert abs(structure.lam - 2.0 * math.sqrt(1.0 + p)) <= 1e-12
        assert abs(result.formula_value - (math.sqrt(1.0 + p) + math.sqrt(1.0 - p))) <= 1e-12

    @pytest.mark.parametrize("deltas", [(3e-8, 3e-8), (1e-7, 0.0), (1e-6, 2e-6), (1e-4, 1e-5)])
    def test_near_ideal_phases_keep_accuracy(self, deltas):
        # phases pi/2 - delta: 1 - p is of order delta^2, where (lam + sqrt(8 - lam^2)) / 2
        # and 1 - |sin| taken as a difference lose digits
        rng = np.random.default_rng(17)
        (a0, a1), (b0, b1) = (planted_layout((), (math.pi / 2 - d, math.pi / 2 - d), rng) for d in deltas)
        (gap_a, gap_b), (s_a, _) = ([2.0 * math.sin(d / 2) ** 2 for d in deltas], [math.cos(d) for d in deltas])
        want = math.sqrt(2.0 - gap_a - s_a * gap_b) + math.sqrt(gap_a + s_a * gap_b)
        _, result = sep_bound(a0, a1, b0, b1, with_oracle=False)
        assert abs(result.formula_value - want) <= 1e-12

    @pytest.mark.parametrize("stretch,accepted", [(0.2, False), (1e-6, False), (5e-9, True)])
    def test_eigenvalues_off_the_unit_circle(self, stretch, accepted):
        # observables only under a loose tolerance: A0 A1 = diag(1 + stretch, 1)
        loose = DichotomicObservable(np.diag([1.0 + stretch, -1.0]), tol=1.0)
        minus_z = qubit_observable((0, 0, -1))
        if accepted:
            assert sep_bound(loose, minus_z, Z_OBS, X_OBS, with_oracle=False)[1].formula_value == 2.0
        else:
            with pytest.raises(ValidationError, match="unit circle"):
                sep_bound(loose, minus_z, Z_OBS, X_OBS, with_oracle=False)

    @pytest.mark.parametrize("stretch,accepted", [(0.2, False), (1e-6, False), (5e-9, True)])
    def test_one_dim_blocks_off_the_unit_circle(self, stretch, accepted):
        # every block of (A0, -Z) is 1x1, with A0 A1 = -diag(1 + stretch, 1) on them
        loose = DichotomicObservable(np.diag([1.0 + stretch, -1.0]), tol=1.0)
        minus_z = qubit_observable((0, 0, -1))
        if accepted:
            blocks = jordan_blocks(loose, minus_z)
            assert blocks.sines == (0.0, 0.0) and all(abs(c) == 1.0 for c in blocks.cosines)
        else:
            with pytest.raises(ValidationError, match="unit circle"):
                jordan_blocks(loose, minus_z)

    @pytest.mark.parametrize("arg,value,match", [
        ("restarts", 0, "restart"), ("iters", 0, "iteration"), ("seed", -1, "seed"),
        ("restarts", 2.5, "restarts"), ("restarts", True, "restarts"), ("iters", 1.5, "iters"),
        ("iters", "3", "iters"), ("seed", 1.5, "seed"), ("seed", None, "seed"),
    ])
    def test_rejects_bad_oracle_arguments(self, arg, value, match):
        with pytest.raises(ValidationError, match=match):
            sep_bound(Z_OBS, X_OBS, DIAG_OBS, ANTI_OBS, **{arg: value})

    @pytest.mark.parametrize("with_oracle", [False, True])
    @pytest.mark.parametrize("arg,value,message", [
        ("restarts", 0, "need at least one restart"), ("iters", -3, "need at least one iteration"),
        ("seed", -1, "seed must be a nonnegative integer"), ("seed", 1.5, "seed must be an integer, got 1.5"),
    ], ids=["restarts 0", "iters -3", "seed -1", "seed 1.5"])
    def test_checks_oracle_arguments_before_any_work(self, monkeypatch, arg, value, message, with_oracle):
        # one error, with or without the witness, raised before either party's blocks are built
        monkeypatch.setattr("swapcert.blocks.jordan_blocks", lambda *args: pytest.fail("jordan_blocks ran"))
        with pytest.raises(ValidationError) as excinfo:
            sep_bound(Z_OBS, X_OBS, Z_OBS, X_OBS, with_oracle=with_oracle, **{arg: value})
        assert str(excinfo.value) == message

    def test_rejects_settings_on_different_spaces(self):
        with pytest.raises(ValidationError, match="same space"):
            sep_bound(Z_OBS, X_OBS, Z_OBS, DichotomicObservable(np.eye(3)), with_oracle=False)

    @pytest.mark.parametrize("kind", ["generic", "planted"])
    @pytest.mark.parametrize("d_a,d_b", [(2, 2), (3, 3), (4, 4), (8, 8), (3, 2), (4, 8), (16, 16)])
    def test_witness_matches_operator_builder(self, kind, d_a, d_b):
        # the witness value is its product state's Rayleigh quotient on the dense operator,
        # meets the formula, bounds a reference see-saw and does not depend on the see-saw arguments
        rng = np.random.default_rng([d_a, d_b, kind == "planted"])
        obs = setting_pair(kind, d_a, rng) + setting_pair(kind, d_b, rng)
        beta = chsh_operator(*obs)
        _, result = sep_bound(*obs)
        vec = result.oracle_state.vector
        assert result.oracle_state.dims == (d_a, d_b)
        assert abs(float(np.real(vec.conj() @ beta @ vec)) - result.oracle_value) <= 1e-12
        assert abs(result.oracle_value - result.formula_value) <= 1e-12
        ref_value, _ = reference_sep_bound_oracle(beta, (d_a, d_b), restarts=4, iters=100, seed=3)
        assert ref_value <= result.oracle_value + 1e-9
        for restarts, iters, seed in ((8, 1, 3), (8, 500, 2**32 + 5), (1, 1, 2**40)):
            _, again = sep_bound(*obs, restarts=restarts, iters=iters, seed=seed)
            assert again.oracle_value == result.oracle_value
            assert again.oracle_state.vector.tobytes() == vec.tobytes()

    @given(bound_layouts(), bound_layouts())
    @settings(max_examples=300, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_witness_meets_closed_form(self, a_layout, b_layout):
        # the block-wise maximum is the separable maximum, which the formula gives unless
        # both parties commute; there the operator is diagonal in a product basis, so its
        # top eigenvalue is the truth. The witness state reaches its value on the operator.
        obs = (*a_layout[:2], *b_layout[:2])
        _, result = sep_bound(*obs)
        beta = chsh_operator(*obs)
        if all(block.size == 1 for x0, x1 in (obs[:2], obs[2:]) for block in jordan_blocks(x0, x1).blocks):
            assert result.oracle_value <= result.formula_value + 1e-12
            assert abs(result.oracle_value - np.linalg.eigvalsh(beta)[-1]) <= 1e-12
        else:
            assert abs(result.oracle_value - result.formula_value) <= 1e-12
        vec = result.oracle_state.vector
        assert abs(float(np.real(vec.conj() @ beta @ vec)) - result.oracle_value) <= 1e-12
        svals = np.linalg.svd(vec.reshape(result.oracle_state.dims), compute_uv=False)
        assert svals[1:].max(initial=0.0) <= 1e-12  # really a product state

    @given(bound_layouts(), bound_layouts())
    @settings(max_examples=150, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_reference_see_saw_never_exceeds_witness(self, a_layout, b_layout):
        # a see-saw over product states reaches at most the separable maximum
        obs = (*a_layout[:2], *b_layout[:2])
        _, result = sep_bound(*obs)
        beta = chsh_operator(*obs)
        ref_value, _ = reference_sep_bound_oracle(beta, (obs[0].dim, obs[2].dim), restarts=4, iters=200)
        assert ref_value <= result.oracle_value + 1e-9

    def test_witness_stays_below_one_dense_operator(self):
        # the CHSH operator at d = 32 holds 32**4 complex entries, 16 MiB
        rng = np.random.default_rng(32)
        obs = [random_observable(32, rng) for _ in range(4)]
        tracemalloc.start()
        try:
            sep_bound(*obs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32**4 * np.dtype(complex).itemsize


class TestChshOperator:
    def test_ideal_settings(self):
        beta = chsh_operator(Z_OBS, X_OBS, DIAG_OBS, ANTI_OBS)
        expected = SQRT2 * (kron_all(Z, Z) + kron_all(X, X))
        np.testing.assert_allclose(beta, expected, atol=1e-12)

    def test_ideal_spectrum(self):
        beta = chsh_operator(Z_OBS, X_OBS, DIAG_OBS, ANTI_OBS)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(beta), [-TSIRELSON, 0, 0, TSIRELSON], atol=1e-12
        )

    def test_traceless_for_bloch_settings(self):
        for seed in range(20):
            rng = np.random.default_rng(200 + seed)
            beta = chsh_operator(*(random_bloch_observable(rng) for _ in range(4)))
            assert abs(np.trace(beta)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            chsh_operator(Z_OBS, DichotomicObservable(np.eye(4)), Z_OBS, X_OBS)

    @pytest.mark.parametrize("d_a,d_b", [(1, 1), (2, 2), (2, 3), (3, 3), (4, 2), (4, 4), (5, 8), (8, 8)])
    def test_matches_kron_bytes(self, d_a, d_b):
        rng = np.random.default_rng(10 * d_a + d_b)
        for _ in range(5):
            a0, a1 = random_observable(d_a, rng), random_observable(d_a, rng)
            b0, b1 = random_observable(d_b, rng), random_observable(d_b, rng)
            expected = reference_chsh_operator(a0, a1, b0, b1)
            got = chsh_operator(a0, a1, b0, b1)
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
            assert got.flags.c_contiguous


class TestVersionOperator:
    @pytest.mark.parametrize("d_a,d_b", [(1, 1), (2, 2), (2, 3), (4, 4), (8, 2)])
    def test_matches_four_term_sum(self, d_a, d_b):
        rng = np.random.default_rng([d_a, d_b])
        for _ in range(5):
            alice = (random_observable(d_a, rng), random_observable(d_a, rng))
            bob = (random_observable(d_b, rng), random_observable(d_b, rng))
            for version in (1, 2, 3, 4):
                got = version_operator(alice, bob, version)
                expected = reference_version_operator(alice, bob, version)
                assert got.shape == expected.shape
                assert np.max(np.abs(got - expected)) <= 1e-15

    @pytest.mark.parametrize("alice,bob", [((Z_OBS, DichotomicObservable(np.eye(4))), (Z_OBS, X_OBS)),
                                           ((Z_OBS, X_OBS), (DichotomicObservable(np.eye(3)), X_OBS))])
    def test_rejects_settings_of_one_party_on_different_spaces(self, alice, bob):
        with pytest.raises(ValidationError, match="share a dimension"):
            version_operator(alice, bob, 2)

    @pytest.mark.parametrize("version", [0, 5])
    def test_rejects_unknown_version(self, version):
        with pytest.raises(ValidationError, match="version must be in 1..4"):
            version_operator((Z_OBS, X_OBS), (Z_OBS, X_OBS), version)

    @pytest.mark.parametrize("version", [1.0, 3.0, True, "2", None])
    def test_rejects_non_integer_version(self, version):
        with pytest.raises(ValidationError, match=f"^version must be an integer, got {version!r}$"):
            version_operator((Z_OBS, X_OBS), (Z_OBS, X_OBS), version)


EIGENSOLVERS = ("eig", "eigvals", "eigh", "eigvalsh", "svd", "qr")


def count_eigensolves(monkeypatch) -> dict[str, int]:
    """Count the calls of each eigensolver, the SVD and the QR from here on, through wrappers set on ``np.linalg``."""
    calls = dict.fromkeys(EIGENSOLVERS, 0)
    for name in EIGENSOLVERS:
        def counted(*args, _name=name, _solver=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _solver(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestBlockChsh:
    @pytest.mark.parametrize("a_layout,b_layout", [
        ((((1, 1), (1, -1)), (0.7, 1.1)), (((-1, 1),), (0.4,))),
        (((), (math.pi / 2,)), (((1, 1), (-1, -1)), ())),
    ])
    def test_runs_no_eigensolver(self, monkeypatch, a_layout, b_layout):
        rng = np.random.default_rng(41)
        a_blocks, b_blocks = (jordan_blocks(*planted_layout(*layout, rng=rng)) for layout in (a_layout, b_layout))
        calls = count_eigensolves(monkeypatch)
        structure = block_chsh(a_blocks, b_blocks)
        assert calls == dict.fromkeys(EIGENSOLVERS, 0)
        pairs, lam = reference_block_chsh(a_blocks, b_blocks)
        assert len(structure.pairs) == len(pairs)
        assert all(abs(got.alpha - alpha) <= 1e-12 for got, (_, _, _, alpha) in zip(structure.pairs, pairs))
        assert abs(structure.lam - lam) <= 1e-12

    @given(bound_layouts())
    @settings(max_examples=300, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_sines_are_each_blocks_own(self, layout):
        # jordan_blocks reads the sines off its eig of the restricted A0 A1; each block's own
        # restrictions, orthogonalized against the earlier blocks, give the same |sin phi|
        blocks = jordan_blocks(*layout[:2])
        assert len(blocks.sines) == len(blocks.blocks)
        for block, sine in zip(blocks.blocks, blocks.sines):
            if block.size == 1:
                assert sine == 0.0
            else:
                w = np.linalg.eigvals(block.a0 @ block.a1)
                assert np.all(np.abs(np.abs(w.imag) / np.abs(w) - sine) <= 1e-12)

    def test_single_qubit_parties(self):
        a_blocks = jordan_blocks(Z_OBS, X_OBS)
        b_blocks = jordan_blocks(DIAG_OBS, ANTI_OBS)
        structure = block_chsh(a_blocks, b_blocks)
        assert len(structure.pairs) == 1
        # the one pair is the whole operator, so its alpha is the operator's top eigenvalue
        beta = chsh_operator(Z_OBS, X_OBS, DIAG_OBS, ANTI_OBS)
        assert structure.pairs[0].alpha == pytest.approx(np.linalg.eigvalsh(beta)[-1], abs=1e-10)
        assert structure.lam == pytest.approx(TSIRELSON, abs=1e-9)

    def test_planted_pairs_dimensions(self):
        rng = np.random.default_rng(31)
        a0, a1 = planted_observables((0.9, 1.4), rng=rng)
        b0, b1 = planted_observables((0.5, 1.2), rng=rng)
        a, b = jordan_blocks(a0, a1), jordan_blocks(b0, b1)
        structure = block_chsh(a, b)
        assert len(structure.pairs) == 4
        assert sum(a.blocks[p.row].size * b.blocks[p.col].size for p in structure.pairs) == 16

    def test_planted_alphas_match_closed_form(self):
        angles_a = (0.9, 1.4)
        angles_b = (0.5, 1.2)
        a0, a1 = planted_observables(angles_a)
        b0, b1 = planted_observables(angles_b)
        structure = block_chsh(jordan_blocks(a0, a1), jordan_blocks(b0, b1))
        got = sorted(p.alpha for p in structure.pairs)
        expected = sorted(expected_alpha(ta, tb) for ta in angles_a for tb in angles_b)
        np.testing.assert_allclose(got, expected, atol=1e-8)
        assert structure.lam == pytest.approx(min(expected), abs=1e-8)

    def test_landau_floor(self):
        from support import random_observable

        for seed in range(20):
            rng = np.random.default_rng(400 + seed)
            d_a, d_b = rng.choice([2, 4], size=2)
            structure = block_chsh(
                jordan_blocks(random_observable(int(d_a), rng), random_observable(int(d_a), rng)),
                jordan_blocks(random_observable(int(d_b), rng), random_observable(int(d_b), rng)),
            )
            for pair in structure.pairs:
                assert 2.0 - 1e-9 <= pair.alpha <= TSIRELSON + 1e-9

    @pytest.mark.parametrize("case", range(12))
    def test_matches_reference_loop(self, case):
        # 1x1 blocks only, 2x2 only, mixed, odd dimensions, and planted pairs at pi/2
        rng = np.random.default_rng(900 + case)
        layouts = [
            (((1, 1), (1, -1)), ()), ((), (0.7, 1.1)), (((-1, 1),), (0.4,)), (((1, 1), (-1, -1)), (1.3, 1.3)),
            ((), (math.pi / 2,)), (((1, -1),), (math.pi / 2, math.pi / 2)),
        ]
        if case < 6:
            a0, a1 = planted_layout(*layouts[case], rng=rng)
            b0, b1 = planted_layout(*layouts[(case + 1) % 6], rng=rng)
        else:
            d_a, d_b = (2, 2, 3, 4, 5, 8)[case - 6], (3, 4, 2, 4, 6, 8)[case - 6]
            a0, a1 = random_observable(d_a, rng), random_observable(d_a, rng)
            b0, b1 = random_observable(d_b, rng), random_observable(d_b, rng)
        a_blocks, b_blocks = jordan_blocks(a0, a1), jordan_blocks(b0, b1)
        structure = block_chsh(a_blocks, b_blocks)
        pairs, lam = reference_block_chsh(a_blocks, b_blocks)
        assert len(structure.pairs) == len(pairs)
        for got, (row, col, _, alpha) in zip(structure.pairs, pairs):
            assert (got.row, got.col) == (row, col) and abs(got.alpha - alpha) <= 1e-12
        assert abs(structure.lam - lam) <= 1e-12

    @given(bound_layouts(), bound_layouts())
    @settings(max_examples=300, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_alpha_matches_reference_eigvalsh(self, a_layout, b_layout):
        a_blocks, b_blocks = jordan_blocks(*a_layout[:2]), jordan_blocks(*b_layout[:2])
        structure = block_chsh(a_blocks, b_blocks)
        pairs, lam = reference_block_chsh(a_blocks, b_blocks)
        assert [(got.row, got.col) for got in structure.pairs] == [(row, col) for row, col, _, _ in pairs]
        for got, (_, _, _, alpha) in zip(structure.pairs, pairs):
            assert abs(got.alpha - alpha) <= 1e-12
        assert abs(structure.lam - lam) <= 1e-12

    def test_scalar_blocks_pin_alpha_to_classical(self):
        structure = block_chsh(jordan_blocks(Z_OBS, Z_OBS), jordan_blocks(Z_OBS, Z_OBS))
        assert len(structure.pairs) == 4
        for pair in structure.pairs:
            assert pair.alpha == 2.0
        assert structure.lam == 2.0


class TestChshSpectrum:
    def test_rejects_a_two_by_two_operator(self):
        with pytest.raises(ValidationError, match="^expected a 4x4 operator$"):
            chsh_spectrum(np.eye(2))

    def test_ideal(self):
        beta = chsh_operator(Z_OBS, X_OBS, DIAG_OBS, ANTI_OBS)
        a1, a2 = chsh_spectrum(beta)
        assert a1 == pytest.approx(TSIRELSON, abs=1e-9)
        assert a2 == pytest.approx(0.0, abs=1e-9)

    def test_degenerate_settings(self):
        beta = chsh_operator(Z_OBS, Z_OBS, Z_OBS, Z_OBS)  # 2 Z x Z
        a1, a2 = chsh_spectrum(beta)
        assert (a1, a2) == (pytest.approx(2.0, abs=1e-9), pytest.approx(2.0, abs=1e-9))
        assert a1 * a1 + a2 * a2 == pytest.approx(8.0, abs=1e-8)

    def test_random_settings_pair_and_sum(self):
        for seed in range(100):
            rng = np.random.default_rng(500 + seed)
            beta = chsh_operator(*(random_bloch_observable(rng) for _ in range(4)))
            a1, a2 = chsh_spectrum(beta)
            assert a1 >= a2 >= 0
            assert a1 * a1 + a2 * a2 == pytest.approx(8.0, abs=1e-8)

    def test_eigenvectors_maximally_entangled(self):
        for seed in range(30):
            rng = np.random.default_rng(600 + seed)
            beta = chsh_operator(*(random_bloch_observable(rng) for _ in range(4)))
            w, v = np.linalg.eigh(beta)
            gaps = np.min(np.abs(w[:, None] - w[None, :]) + np.eye(4), axis=1)
            for k in range(4):
                if gaps[k] < 1e-6:
                    continue
                svals = np.linalg.svd(v[:, k].reshape(2, 2), compute_uv=False)
                np.testing.assert_allclose(svals, [1 / SQRT2, 1 / SQRT2], atol=1e-6)

    def test_rejects_unpaired_spectrum(self):
        with pytest.raises(ValidationError):
            chsh_spectrum(np.diag([3.0, 1.0, -1.0, -2.0]))

    def test_rejects_wrong_invariant(self):
        with pytest.raises(ValidationError):
            chsh_spectrum(np.diag([3.0, 1.0, -1.0, -3.0]))


class TestSepBoundFormula:
    def test_endpoints(self):
        assert sep_bound_value(2.0) == pytest.approx(2.0, abs=1e-9)
        assert sep_bound_value(TSIRELSON) == pytest.approx(SQRT2, abs=1e-9)

    def test_intermediate(self):
        assert sep_bound_value(2.5) == pytest.approx((2.5 + math.sqrt(1.75)) / 2, abs=1e-12)

    @given(st.floats(min_value=2.0, max_value=2.0 * math.sqrt(2.0) - 1e-9))
    @settings(max_examples=100, deadline=None)
    def test_strictly_decreasing(self, lam):
        step = min(1e-3, TSIRELSON - lam)
        assert sep_bound_value(lam + step) < sep_bound_value(lam)

    def test_from_structures(self):
        ideal = block_chsh(jordan_blocks(Z_OBS, X_OBS), jordan_blocks(DIAG_OBS, ANTI_OBS))
        assert sep_bound_formula(ideal) == pytest.approx(SQRT2, abs=1e-9)
        commuting = block_chsh(jordan_blocks(Z_OBS, Z_OBS), jordan_blocks(X_OBS, X_OBS))
        assert sep_bound_formula(commuting) == pytest.approx(2.0, abs=1e-9)


class TestSepBoundOracle:
    def test_ideal_operator(self):
        beta = chsh_operator(Z_OBS, X_OBS, DIAG_OBS, ANTI_OBS)
        _, result = sep_bound(Z_OBS, X_OBS, DIAG_OBS, ANTI_OBS, restarts=16, seed=5)
        value, state = result.oracle_value, result.oracle_state
        assert value == pytest.approx(SQRT2, abs=1e-6)
        achieved = np.real(state.vector.conj() @ beta @ state.vector)
        assert achieved == pytest.approx(value, abs=1e-10)
        svals = np.linalg.svd(state.vector.reshape(2, 2), compute_uv=False)
        assert svals[1] < 1e-9  # really a product state

    def test_classical_operator(self):
        # Z x (Z + X) + Z x (Z - X) = 2 Z x Z
        assert np.array_equal(chsh_operator(Z_OBS, Z_OBS, Z_OBS, X_OBS), 2.0 * kron_all(Z, Z))
        _, result = sep_bound(Z_OBS, Z_OBS, Z_OBS, X_OBS, restarts=8, seed=2)
        assert result.oracle_value == pytest.approx(2.0, abs=1e-9)

    def test_agrees_with_formula_on_random_qubit_settings(self):
        for seed in range(10):
            rng = np.random.default_rng(700 + seed)
            obs = [random_bloch_observable(rng) for _ in range(4)]
            structure, result = sep_bound(*obs, restarts=32, seed=seed)
            assert abs(result.formula_value - result.oracle_value) <= 1e-4

    def test_agrees_on_planted_qudit_instance(self):
        rng = np.random.default_rng(55)
        a0, a1 = planted_observables((1.3, 0.7), rng=rng)
        b0, b1 = planted_observables((0.9, 1.5), rng=rng)
        structure, result = sep_bound(a0, a1, b0, b1, restarts=32, seed=9)
        assert abs(result.formula_value - result.oracle_value) <= 1e-4

    @pytest.mark.parametrize("seed", [0, 17, 29, 48])
    def test_accepts_settings_whose_operator_is_off_hermitian(self, seed):
        # four observables each within 4e-10 of Hermitian build a CHSH operator
        # more than 1e-9 off: sep_bound runs on the checked observables
        rng = np.random.default_rng(seed)
        obs = [skewed_observable(4, rng) for _ in range(4)]
        beta = chsh_operator(*obs)
        assert np.max(np.abs(beta - beta.conj().T)) > 1e-9
        _, result = sep_bound(*obs, seed=7)
        assert abs(result.formula_value - result.oracle_value) <= 1e-9

    def test_rejects_zero_iterations(self):
        with pytest.raises(ValidationError):
            sep_bound(Z_OBS, X_OBS, DIAG_OBS, ANTI_OBS, iters=0)


def oracle_input(kind: str, d: int, seed: int) -> tuple[DichotomicObservable, ...]:
    """Seeded generic or planted settings (a0, a1, b0, b1), or fixed qubit ones."""
    if kind == "ideal":
        return Z_OBS, X_OBS, DIAG_OBS, ANTI_OBS
    if kind == "classical":  # CHSH operator 2 Z x Z
        return Z_OBS, Z_OBS, Z_OBS, X_OBS
    rng = np.random.default_rng([seed, d])
    if kind == "generic":
        return tuple(random_observable(d, rng) for _ in range(4))
    return (*planted_observables(tuple(rng.uniform(0.2, math.pi - 0.2, size=d // 2)), rng),
            *planted_observables(tuple(rng.uniform(0.2, math.pi - 0.2, size=d // 2)), rng))


ORACLE_CASES = [("ideal", 2, 0), ("classical", 2, 0)] + [
    (kind, d, seed) for kind in ("generic", "planted") for d in (2, 4, 8) for seed in (0, 1, 2)
]


class TestWitnessOracle:
    """The block witness of sep_bound against the one-restart-at-a-time reference see-saw."""

    @pytest.mark.parametrize("kind,d,seed", ORACLE_CASES)
    def test_matches_reference_loop(self, kind, d, seed):
        obs = oracle_input(kind, d, seed)
        beta, dims = chsh_operator(*obs), (d, d)
        _, result = sep_bound(*obs, seed=seed)
        value, state = result.oracle_value, result.oracle_state
        ref_value, _ = reference_sep_bound_oracle(beta, dims, seed=seed)
        assert abs(value - ref_value) <= 1e-12
        assert f"{value:.9g}" == f"{ref_value:.9g}"
        svals = np.linalg.svd(state.vector.reshape(dims), compute_uv=False)
        assert svals[1] < 1e-9
        achieved = float(np.real(state.vector.conj() @ beta @ state.vector))
        assert abs(achieved - value) <= 1e-12
        _, again = sep_bound(*obs, seed=seed)
        assert again.oracle_value == value
        assert again.oracle_state.vector.tobytes() == state.vector.tobytes()

    @pytest.mark.parametrize("restarts,iters,seed", [(1, 1, 0), (8, 1, 3), (32, 500, 2**32), (2, 7, 2**40 + 3)])
    def test_see_saw_arguments_do_not_change_the_result(self, restarts, iters, seed):
        obs = oracle_input("generic", 3, 1)
        _, want = sep_bound(*obs)
        _, got = sep_bound(*obs, restarts=restarts, iters=iters, seed=seed)
        assert got.oracle_value == want.oracle_value
        assert got.oracle_state.vector.tobytes() == want.oracle_state.vector.tobytes()

    def test_accepts_numpy_integers(self):
        _, result = sep_bound(Z_OBS, X_OBS, DIAG_OBS, ANTI_OBS, restarts=np.int64(4), iters=np.int32(50),
                              seed=np.uint8(3))
        assert result.oracle_value == pytest.approx(SQRT2, abs=1e-9)

    # (kind, d, the number of parties with a 1x1 block): Z, Z in "classical" and every pair at odd d have one
    SOLVER_CASES = [("ideal", 2, 0), ("classical", 2, 1), ("generic", 3, 2), ("planted", 4, 0)]

    @pytest.mark.parametrize("kind,d,with_ones", SOLVER_CASES)
    def test_eigensolvers_on_the_witness_path(self, monkeypatch, kind, d, with_ones):
        # one eig and one QR per party, and one eigh and four principal-angle SVDs per party with
        # a 1x1 block, which the formula reads too; the witness itself runs one SVD and no eigensolver
        obs = oracle_input(kind, d, 0)
        calls = count_eigensolves(monkeypatch)
        _, result = sep_bound(*obs, with_oracle=True, restarts=4, iters=50)
        assert calls == {"eig": 2, "eigvals": 0, "eigh": with_ones, "eigvalsh": 0, "svd": 4 * with_ones + 1, "qr": 2}
        assert abs(result.formula_value - result.oracle_value) <= 1e-12

    @pytest.mark.parametrize("kind,d,with_ones", SOLVER_CASES)
    def test_eigensolvers_without_the_witness(self, monkeypatch, kind, d, with_ones):
        # the same jordan_blocks per party, and no witness SVD
        obs = oracle_input(kind, d, 0)
        calls = count_eigensolves(monkeypatch)
        sep_bound(*obs, with_oracle=False)
        assert calls == {"eig": 2, "eigvals": 0, "eigh": with_ones, "eigvalsh": 0, "svd": 4 * with_ones, "qr": 2}

    def test_commuting_parties_keep_the_sign(self):
        # beta = -2 I: every state scores -2, which the formula's unsigned bound 2 does not see
        minus = DichotomicObservable(-np.eye(2))
        one = DichotomicObservable(np.eye(2))
        _, result = sep_bound(one, one, minus, one)
        assert result.formula_value == 2.0 and result.oracle_value == -2.0

    @pytest.mark.parametrize("a_signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    @pytest.mark.parametrize("b_signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_one_dim_parties_take_the_signed_value(self, a_signs, b_signs):
        # two 1x1 blocks: the one product state scores a0 (b0 + b1) + a1 (b0 - b1)
        a0, a1, b0, b1 = (DichotomicObservable(np.array([[float(s)]])) for s in (*a_signs, *b_signs))
        want = a_signs[0] * (b_signs[0] + b_signs[1]) + a_signs[1] * (b_signs[0] - b_signs[1])
        _, result = sep_bound(a0, a1, b0, b1)
        assert result.oracle_value == want == chsh_operator(a0, a1, b0, b1)[0, 0].real
        assert result.formula_value == 2.0
        assert result.oracle_state.dims == (1, 1)
        assert abs(abs(result.oracle_state.vector[0]) - 1.0) <= 1e-15

    @pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    @pytest.mark.parametrize("one_dim_side", ["alice", "bob"])
    def test_one_dim_block_against_a_qubit_block_reaches_two(self, signs, one_dim_side):
        # a 1x1 block beside a 2x2 one: T is 1x3 or 3x1, and (s0 + s1, s0 - s1) holds one +/-2
        # and one 0, so the pair's maximum is 2 whatever the signs
        scalar = tuple(DichotomicObservable(np.array([[float(s)]])) for s in signs)
        qubit = planted_layout((), (1.1,), np.random.default_rng(11))
        obs = (*scalar, *qubit) if one_dim_side == "alice" else (*qubit, *scalar)
        _, result = sep_bound(*obs)
        assert abs(result.oracle_value - 2.0) <= 1e-12
        assert abs(result.formula_value - 2.0) <= 1e-12
        vec = result.oracle_state.vector
        assert abs(float(np.real(vec.conj() @ chsh_operator(*obs) @ vec)) - result.oracle_value) <= 1e-12

    def test_takes_the_blocks_it_is_given(self):
        obs = oracle_input("planted", 4, 1)
        a_blocks, b_blocks = jordan_blocks(*obs[:2]), jordan_blocks(*obs[2:])
        value, state = block_witness(*obs, a_blocks, b_blocks)
        _, result = sep_bound(*obs)
        assert value == result.oracle_value
        assert state.vector.tobytes() == result.oracle_state.vector.tobytes()


class TestTheoremCheck:
    def ideal_args(self):
        sc = ideal_scenario()
        return sc.state, sc.alice, sc.bob

    def test_product_measurement_obeys_bound(self):
        state, alice, bob = self.ideal_args()
        z_projs = ((I2 + Z) / 2, (I2 - Z) / 2)
        report = theorem_check(state, alice, bob, product_measurement(z_projs, z_projs))
        assert report.satisfied
        assert report.max_value == pytest.approx(SQRT2, abs=1e-9)  # tight here

    def test_random_product_measurements(self):
        from support import random_product_measurement

        state, alice, bob = self.ideal_args()
        worst = -math.inf
        for seed in range(25):
            rng = np.random.default_rng(800 + seed)
            report = theorem_check(state, alice, bob, random_product_measurement(rng))
            assert report.satisfied
            worst = max(worst, report.max_value)
        assert worst <= SQRT2 + 1e-8

    def test_entangled_control_violates(self):
        state, alice, bob = self.ideal_args()
        report = theorem_check(state, alice, bob, bell_measurement())
        assert not report.satisfied
        assert report.max_value == pytest.approx(TSIRELSON, abs=1e-9)

    def test_planted_direct_sum_instance(self):
        a0 = DichotomicObservable(np.block([[Z, np.zeros((2, 2))],
                                            [np.zeros((2, 2)), (Z + X) / SQRT2]]))
        a1 = DichotomicObservable(np.block([[X, np.zeros((2, 2))],
                                            [np.zeros((2, 2)), (Z - X) / SQRT2]]))
        state = four_factor_state(maximally_entangled_pair(4), maximally_entangled_pair(4), d=4)
        rng = np.random.default_rng(13)
        u_a = haar_unitary(4, rng)
        u_b = haar_unitary(4, rng)
        p_a = u_a[:, :2] @ u_a[:, :2].conj().T
        p_b = u_b[:, :1] @ u_b[:, :1].conj().T
        charlie3 = product_measurement((p_a, np.eye(4) - p_a), (p_b, np.eye(4) - p_b))
        report = theorem_check(state, (a0, a1), (a0, a1), charlie3)
        assert report.satisfied
        assert report.max_value <= SQRT2 + 1e-8

    def test_rejects_non_maximal_settings(self):
        state, alice, _ = self.ideal_args()
        with pytest.raises(ValidationError):
            theorem_check(state, alice, (Z_OBS, Z_OBS), bell_measurement())

    def test_rejects_slightly_rotated_settings(self):
        # Bob's settings turned by delta towards Z: every alpha is within 1e-8 of
        # 2*sqrt(2), but the separable Z x Z measurement reaches sqrt(2) + O(delta)
        state, alice, _ = self.ideal_args()
        delta = 1e-5
        s, c = math.sin(math.pi / 4 - delta), math.cos(math.pi / 4 - delta)
        bob = (qubit_observable((s, 0.0, c)), qubit_observable((-s, 0.0, c)))
        z_projs = ((I2 + Z) / 2, (I2 - Z) / 2)
        with pytest.raises(ValidationError, match="bob's settings do not anticommute"):
            theorem_check(state, alice, bob, product_measurement(z_projs, z_projs))

    @pytest.mark.parametrize("fault,match", [
        ("one_setting", "exactly two settings"), ("three_settings", "exactly two settings"),
        ("setting_dim", "alice setting 2 acts on dim 3"), ("measurement_dims", "charlie3 acts on dims"),
    ])
    def test_rejects_malformed_inputs(self, fault, match):
        state, alice, bob = self.ideal_args()
        charlie3 = bell_measurement()
        if fault == "one_setting":
            alice = alice[:1]
        elif fault == "three_settings":
            bob = (*bob, bob[0])
        elif fault == "setting_dim":
            alice = (alice[0], DichotomicObservable(np.diag([1.0, -1.0, 1.0])))
        else:
            qutrit = (np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0]))
            charlie3 = product_measurement(((I2 + Z) / 2, (I2 - Z) / 2), qutrit)
        with pytest.raises(ValidationError, match=match):
            theorem_check(state, alice, bob, charlie3)
