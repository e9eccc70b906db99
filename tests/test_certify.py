import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapcert import (
    DistanceBounds,
    ValidationError,
    bell_basis,
    bell_measurement,
    certify_crit1,
    certify_crit2,
    conditional_version_matrix,
    distance_bounds,
    exact_report,
    overlap_chsh,
    overlap_version_matrix,
    perturbed_bell_measurement,
    relabel,
    threshold_for_distance,
    trace_distance,
    version_operator,
)
from swapcert.certify import SLACK, _reference_overlaps
from support import (
    SQRT2,
    TSIRELSON,
    conditional_chsh_ab,
    eigenstates,
    ideal_with_charlie3,
    kron_all,
    local_unitary_copies,
    reference_overlap_version_matrix,
    reference_overlaps,
    reference_relabel,
    reference_trace_distance,
    rotated_bell_measurement,
    scenario_settings_ideal,
    separable_on_threshold,
)

IDEAL_MATRIX, _ = conditional_version_matrix(ideal_with_charlie3(bell_measurement()))


class TestRelabel:
    def test_ideal_is_identity(self):
        perm, values = relabel(IDEAL_MATRIX)
        assert perm == (0, 1, 2, 3)
        np.testing.assert_allclose(values, [TSIRELSON] * 4, atol=1e-9)

    def test_swapped_source_outcomes(self):
        swapped = IDEAL_MATRIX[[3, 1, 2, 0], :]
        perm, values = relabel(swapped)
        assert perm == (3, 1, 2, 0)
        np.testing.assert_allclose(values, [TSIRELSON] * 4, atol=1e-9)

    @given(st.permutations(range(4)))
    @settings(max_examples=24, deadline=None)
    def test_row_permutation_invariance(self, row_order):
        permuted = IDEAL_MATRIX[list(row_order), :]
        _, values = relabel(permuted)
        np.testing.assert_allclose(sorted(values), sorted(relabel(IDEAL_MATRIX)[1]), atol=1e-9)

    def test_all_zero_ties_break_lexicographically(self):
        perm, values = relabel(np.zeros((4, 4)))
        assert perm == (0, 1, 2, 3)
        assert values == (0.0, 0.0, 0.0, 0.0)

    def test_flagged_row_gives_partial_assignment(self):
        matrix = IDEAL_MATRIX.copy()
        matrix[2, :] = math.nan
        perm, values = relabel(matrix)
        assert math.isnan(values[perm[2]])
        finite = [v for v in values if math.isfinite(v)]
        assert len(finite) == 3
        np.testing.assert_allclose(finite, [TSIRELSON] * 3, atol=1e-9)

    def test_exhaustive_matches_brute_force(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            matrix = rng.normal(size=(4, 4))
            perm, values = relabel(matrix)
            best = max(
                sum(matrix[c, p[c]] for c in range(4))
                for p in itertools.permutations(range(4))
            )
            assert sum(values) == pytest.approx(best, abs=1e-12)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValidationError):
            relabel(np.zeros((3, 4)))


def _outcome(fn, *args):
    """The repr of ``fn(*args)``, or the message of the ``ValidationError`` it raises."""
    try:
        return repr(fn(*args))
    except ValidationError as exc:
        return f"ValidationError: {exc}"


class TestRelabelAgainstReference:
    @staticmethod
    def _matrices(seed):
        """Small-integer matrices, which tie heavily, some with undefined rows."""
        rng = np.random.default_rng(seed)
        for k in range(200):
            low, high = ((0, 2), (-1, 2), (-2, 3))[k % 3]
            matrix = rng.integers(low, high, size=(4, 4)).astype(float)
            for c in rng.choice(4, size=int(rng.integers(0, 5)), replace=False):
                matrix[c] = math.nan
            yield matrix

    @pytest.mark.parametrize("seed", range(4))
    def test_same_assignment_and_values(self, seed):
        for matrix in self._matrices(seed):
            perm, values = relabel(matrix)
            assert all(type(slot) is int for slot in perm)
            assert repr((perm, values)) == repr(reference_relabel(matrix))

    @pytest.mark.parametrize("seed", range(2))
    def test_same_error_on_partially_defined_rows(self, seed):
        rng = np.random.default_rng([seed, 5])
        for matrix in self._matrices(seed):
            for _ in range(int(rng.integers(1, 3))):
                matrix[rng.integers(0, 4), rng.integers(0, 4)] = rng.choice([math.nan, math.inf, -math.inf])
            expected = _outcome(reference_relabel, matrix)
            assert _outcome(relabel, matrix) == expected
            if not all(np.isfinite(row).all() or not np.isfinite(row).any() for row in matrix):
                assert "partially defined row" in expected

    def test_real_valued_matrices(self):
        rng = np.random.default_rng(91)
        for _ in range(100):
            matrix = rng.normal(size=(4, 4))
            assert repr(relabel(matrix)) == repr(reference_relabel(matrix))

    @pytest.mark.parametrize("matrix", [
        [[2.9e-16, 1.1, 0.3, 0.1], [1.1, 3.0, 0.1, -0.3], [1.1, 0.1, 1.1, 2.9e-16], [2.9e-16, 3.0, 1.1, -0.3]],
        [[0.7, 0.7, 2.9e-16, 0.7], [0.7, 1.1, -0.3, 0.2], [3.0, 0.7, 0.2, 0.1], [0.7, 2.9e-16, 0.3, 1.0]],
    ])
    def test_scores_summed_in_outcome_order(self, matrix):
        # two bijections tie to the last bit only when summed in outcome order: summed in reverse,
        # each of these picks another bijection
        matrix = np.array(matrix)
        assert repr(relabel(matrix)) == repr(reference_relabel(matrix))


class TestCriteria:
    def test_crit1_ideal_passes(self):
        verdict = certify_crit1(TSIRELSON, TSIRELSON, [TSIRELSON] * 4, 1e-9)
        assert verdict.passed
        assert verdict.witness.margin > 0

    def test_crit1_needs_value_above_two(self):
        verdict = certify_crit1(TSIRELSON, TSIRELSON, [SQRT2] * 4, 1e-9)
        assert not verdict.passed

    def test_crit1_needs_a_maximal_side(self):
        verdict = certify_crit1(2.5, 2.5, [TSIRELSON] * 4, 1e-9)
        assert not verdict.passed
        assert not verdict.witness.s_ac_hit
        assert not verdict.witness.s_bc_hit

    def test_crit1_one_side_suffices(self):
        verdict = certify_crit1(TSIRELSON, 2.1, [2.4] * 4, 1e-9)
        assert verdict.passed

    def test_crit2_sqrt2_threshold(self):
        assert certify_crit2(TSIRELSON, TSIRELSON, [1.5] * 4, 1e-9).passed
        assert not certify_crit2(TSIRELSON, TSIRELSON, [1.4] * 4, 1e-9).passed

    def test_crit2_threshold_is_strict(self):
        # separable joint measurements can reach sqrt(2) exactly, so equality
        # must not certify
        assert not certify_crit2(TSIRELSON, TSIRELSON, [SQRT2] * 4, 1e-9).passed

    @pytest.mark.parametrize("rule,threshold", [(certify_crit1, 2.0), (certify_crit2, SQRT2)])
    def test_a_value_must_clear_the_slack(self, rule, threshold):
        # the last bits of an exact value on the threshold do not pass; the margin is still best - threshold
        above = threshold + 3e-15
        verdict = rule(TSIRELSON, TSIRELSON, [above] * 4, 1e-9)
        assert not verdict.passed and verdict.witness.margin == above - threshold
        assert rule(TSIRELSON, TSIRELSON, [threshold + 2.0 * SLACK] * 4, 1e-9).passed

    def test_crit2_needs_both_sides(self):
        assert not certify_crit2(TSIRELSON, 2.0, [TSIRELSON] * 4, 1e-9).passed

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValidationError):
            certify_crit1(TSIRELSON, TSIRELSON, [2.5] * 4, -1.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tolerance_rejected(self, tol):
        for rule in (certify_crit1, certify_crit2):
            with pytest.raises(ValidationError):
                rule(TSIRELSON, TSIRELSON, [2.5] * 4, tol)


    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_infinite_conditional_value_rejected(self, value):
        for rule in (certify_crit1, certify_crit2):
            with pytest.raises(ValidationError, match="slot 2 is infinite"):
                rule(2.828427, 2.0, [1.0, value, 0.5, 0.2], 1e-3)

    def test_undefined_values_are_skipped(self):
        witness = certify_crit1(TSIRELSON, TSIRELSON, [math.nan, 2.1, math.nan, 2.4], 1e-9).witness
        assert (witness.best_outcome, witness.best_value) == (4, 2.4)
        witness = certify_crit2(TSIRELSON, TSIRELSON, [math.nan] * 4, 1e-9).witness
        assert witness.best_outcome is witness.best_value is witness.margin is None

    @given(st.lists(st.one_of(st.sampled_from([math.nan, -1.0, 0.0, -0.0, 1.5, 2.5]),
                              st.floats(-4.0, 4.0)), min_size=4, max_size=4))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_best_outcome_names_the_slot_of_best_value(self, values):
        for rule in (certify_crit1, certify_crit2):
            witness = rule(TSIRELSON, TSIRELSON, values, 1e-9).witness
            defined = [v for v in values if not math.isnan(v)]
            if not defined:
                assert witness.best_outcome is None and witness.best_value is None
                continue
            assert witness.best_value == max(defined)
            slot = witness.best_outcome - 1
            assert values[slot] == witness.best_value
            assert all(math.isnan(v) or v < witness.best_value for v in values[:slot])


class TestRoundingOnTheThreshold:
    """Separable middle measurements whose best value is the threshold as built, in 400 local bases each."""

    @pytest.mark.parametrize("rule,seed", [(certify_crit1, 11), (certify_crit2, 12)])
    def test_no_copy_passes(self, rule, seed):
        criterion = rule.__name__.removeprefix("certify_")
        copies = local_unitary_copies(separable_on_threshold(criterion), 400, np.random.default_rng(seed))
        reports = [exact_report(sc) for sc in copies]
        for tol in (1e-9, 1e-6):
            verdicts = [rule(r.s_ac, r.s_bc, r.s_ab_given_c, tol) for r in reports]
            margins = np.array([v.witness.margin for v in verdicts])
            # the swap-side premise holds, every best value sits on the threshold, and rounding puts some past it
            assert all(v.witness.s_bc_hit and (v.witness.s_ac_hit or criterion == "crit1") for v in verdicts)
            assert np.max(np.abs(margins)) <= 1e-14 and np.any(margins > 0.0)
            assert sum(v.passed for v in verdicts) == 0


class TestTraceDistance:
    def test_ideal_measurement(self):
        # t = sqrt(1 - F) has an irreducible sqrt(eps) noise floor at F = 1
        assert trace_distance(bell_measurement(), (0, 1, 2, 3)) == pytest.approx(0.0, abs=1e-7)

    def test_small_rotation(self):
        meas = perturbed_bell_measurement(math.pi / 12, pair=1)
        t = trace_distance(meas, (0, 1, 2, 3))
        assert t == pytest.approx(math.sin(math.pi / 12), abs=1e-12)

    def test_quarter_turn_vanishes_after_relabeling(self):
        meas = perturbed_bell_measurement(math.pi / 2, pair=1)
        matrix = overlap_version_matrix(meas)
        perm, _ = relabel(matrix)
        assert perm == (3, 1, 2, 0)
        assert trace_distance(meas, perm) == pytest.approx(0.0, abs=1e-7)

    def test_rank_two_rejected(self):
        from swapcert import FourOutcomeMeasurement
        from support import I2, Z

        projs = (kron_all((I2 + Z) / 2, I2), kron_all((I2 - Z) / 2, I2),
                 np.zeros((4, 4)), np.zeros((4, 4)))
        meas = FourOutcomeMeasurement(projs, (2, 2))
        with pytest.raises(ValidationError):
            trace_distance(meas, (0, 1, 2, 3))

    def test_bad_relabeling_rejected(self):
        with pytest.raises(ValidationError):
            trace_distance(bell_measurement(), (0, 0, 1, 2))

    def test_measurement_not_on_two_qubits_rejected(self):
        from swapcert import FourOutcomeMeasurement

        meas = FourOutcomeMeasurement(tuple(np.diag(np.eye(4)[k]) for k in range(4)), (4, 1))
        with pytest.raises(ValidationError, match=r"^measurement acts on \(4, 1\), expected \(2, 2\)$"):
            trace_distance(meas, (0, 1, 2, 3))


class TestDistanceBounds:
    def test_ideal_values(self):
        bounds = distance_bounds([TSIRELSON] * 4)
        assert bounds.lower == pytest.approx(0.0, abs=1e-12)
        assert bounds.upper == pytest.approx(0.0, abs=1e-12)

    def test_five_percent_threshold(self):
        s = threshold_for_distance(0.05)
        bounds = distance_bounds([s] * 4)
        assert bounds.upper == pytest.approx(0.05, abs=1e-9)

    def test_rotation_bounds_contain_distance(self):
        meas = perturbed_bell_measurement(math.pi / 12, pair=1)
        values, _ = conditional_chsh_ab(ideal_with_charlie3(meas))
        bounds = distance_bounds(values)
        assert bounds.lower == pytest.approx(0.0, abs=1e-7)
        assert bounds.upper == pytest.approx(math.sqrt(1 - math.cos(math.pi / 6)), abs=1e-9)
        t = trace_distance(meas, relabel(overlap_version_matrix(meas))[0])
        assert bounds.lower <= t <= bounds.upper + 1e-9

    def test_small_excess_clamped(self):
        bounds = distance_bounds([TSIRELSON + 5e-10] * 4)
        assert bounds.upper == pytest.approx(0.0, abs=1e-12)

    def test_large_excess_rejected(self):
        with pytest.raises(ValidationError):
            distance_bounds([3.0] * 4)

    def test_flagged_value_rejected(self):
        with pytest.raises(ValidationError):
            distance_bounds([TSIRELSON, math.nan, TSIRELSON, TSIRELSON])

    def test_three_values_rejected(self):
        with pytest.raises(ValidationError, match="^expected four conditional values$"):
            distance_bounds([TSIRELSON] * 3)

    def test_bounds_ordered(self):
        with pytest.raises(ValidationError):
            DistanceBounds(0.5, 0.2)


class TestThreshold:
    def test_five_percent(self):
        assert round(threshold_for_distance(0.05), 4) == 2.8214

    def test_no_constraint(self):
        assert threshold_for_distance(1.0) == pytest.approx(0.0, abs=1e-12)

    def test_half(self):
        assert threshold_for_distance(0.5) == pytest.approx(TSIRELSON * 0.75, abs=1e-12)

    @given(st.floats(min_value=1e-6, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_strictly_decreasing(self, t):
        smaller = t * 0.9
        assert threshold_for_distance(smaller) > threshold_for_distance(t)

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            threshold_for_distance(0.0)
        with pytest.raises(ValidationError):
            threshold_for_distance(1.5)


class TestOverlapPrediction:
    def test_ideal(self):
        np.testing.assert_allclose(overlap_chsh(bell_measurement()), [TSIRELSON] * 4, atol=1e-12)

    def test_rotation_closed_form(self):
        theta = 0.41
        values = overlap_chsh(perturbed_bell_measurement(theta, pair=1))
        assert values[0] == pytest.approx(TSIRELSON * math.cos(2 * theta), abs=1e-12)
        assert values[1] == pytest.approx(TSIRELSON, abs=1e-12)

    def test_within_quantum_range(self):
        for seed in range(25):
            rng = np.random.default_rng(6000 + seed)
            values = overlap_chsh(rotated_bell_measurement(rng))
            for v in values:
                assert -TSIRELSON - 1e-12 <= v <= TSIRELSON + 1e-12

    def test_matches_simulation_per_outcome(self):
        for seed in range(20):
            rng = np.random.default_rng(7000 + seed)
            meas = rotated_bell_measurement(rng)
            predicted = overlap_chsh(meas)
            simulated, _ = conditional_chsh_ab(ideal_with_charlie3(meas))
            np.testing.assert_allclose(predicted, simulated, atol=1e-8)


class TestVersionOperators:
    def test_match_projector_difference(self):
        alice, bob = scenario_settings_ideal()
        basis = bell_basis()
        for c in range(4):
            op = version_operator(alice, bob, c + 1)
            expected = TSIRELSON * (
                np.outer(basis[c].vector, basis[c].vector.conj())
                - np.outer(basis[3 - c].vector, basis[3 - c].vector.conj())
            )
            assert np.max(np.abs(op - expected)) <= 1e-10

    def test_sandwich_property(self):
        for seed in range(20):
            rng = np.random.default_rng(8000 + seed)
            meas = rotated_bell_measurement(rng)
            matrix, _ = conditional_version_matrix(ideal_with_charlie3(meas))
            perm, values = relabel(matrix)
            bounds = distance_bounds(values)
            t = trace_distance(meas, perm)
            assert bounds.lower <= t <= bounds.upper + 1e-9


def _overlap_measurements():
    """The 100 rotated measurements of criterion 04 and 150 rotations of each entangled pair."""
    out = [rotated_bell_measurement(np.random.default_rng(140_000 + seed)) for seed in range(100)]
    thetas = np.random.default_rng(23).uniform(-math.pi, math.pi, 150)
    out += [perturbed_bell_measurement(float(theta), pair) for pair in (1, 2) for theta in thetas]
    return out


class TestOverlapReadsAgainstReference:
    """The stacked overlap reads give the bytes of the loops in ``support``."""

    def test_same_bytes(self):
        permutations = list(itertools.permutations(range(4)))
        for meas in _overlap_measurements():
            assert _reference_overlaps(meas).tobytes() == reference_overlaps(meas).tobytes()
            assert overlap_version_matrix(meas).tobytes() == reference_overlap_version_matrix(meas).tobytes()
            got = np.array([trace_distance(meas, perm) for perm in permutations])
            expected = np.array([reference_trace_distance(meas, perm) for perm in permutations])
            assert got.tobytes() == expected.tobytes()

    def test_eigenstates_same_bytes(self):
        for meas in _overlap_measurements()[::10]:
            for got, proj in zip(eigenstates(meas), meas.projectors):
                expected = np.linalg.eigh((proj + proj.conj().T) / 2.0)[1][:, -1]
                assert got.tobytes() == expected.tobytes()
