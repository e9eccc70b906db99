"""Physics invariants of the reports and verdicts over random inputs, as seeded hypothesis properties.

Any correct Born-rule simulator, sampler and certification rule satisfies
them, wherever the scenario lies, so they catch a wrong contraction, sign or
draw that the golden files would only catch at their few points. The
separable bound and the Jordan blocks' sines are held to the symmetries of
the CHSH operator in the same way.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapcert import (
    DichotomicObservable,
    FourOutcomeMeasurement,
    Scenario,
    TSIRELSON,
    certify_crit1,
    certify_crit2,
    conditional_version_matrix,
    estimate_report,
    exact_report,
    jordan_blocks,
    noisy_scenario,
    overlap_version_matrix,
    sample_counts,
    sep_bound,
)
from support import (
    conjugated,
    haar_unitary,
    ideal_with_charlie3,
    local_unitary_copies,
    random_observable,
    random_scenario,
    rotated_bell_measurement,
)

# Largest move of any report value or probability; the measured moves are 1.3e-15 and 5.6e-17.
INVARIANCE_TOL = 1e-12

# Sampled values lie within this many plug-in standard errors of the exact ones;
# over 300 seeded scenarios the worst was 3.7.
SAMPLED_SIGMAS = 6.0
SAMPLED_N = 10**6

SCENARIOS = st.tuples(st.integers(0, 2**32 - 1), st.sampled_from((2, 3)), st.sampled_from((2, 3)))


def report_values(sc: Scenario) -> tuple[np.ndarray, tuple[int, int, int, int]]:
    """Every value and probability of the exact report, and its relabeling."""
    report = exact_report(sc)
    return np.array([report.s_ac, report.s_bc, *report.s_ab_given_c, *report.outcome_probs]), report.relabeling


@given(SCENARIOS)
@settings(max_examples=100, derandomize=True, deadline=None)
def test_local_unitary_invariance(drawn):
    seed, d_a, d_b = drawn
    rng = np.random.default_rng(seed)
    sc = random_scenario(rng, d_a, d_b)
    u_c = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))  # U_CA x U_CB
    rotated = conjugated(sc, haar_unitary(d_a, rng), haar_unitary(d_b, rng), u_c)
    values, relabeling = report_values(sc)
    rotated_values, rotated_relabeling = report_values(rotated)
    assert rotated_relabeling == relabeling
    assert np.max(np.abs(rotated_values - values)) <= INVARIANCE_TOL


# Noiseless to visibly noisy pairs, so that the verdicts below are not all failures.
VISIBILITIES = st.sampled_from((1.0, 0.9999999, 0.999, 0.9))


@given(VISIBILITIES, VISIBILITIES, st.floats(0.0, math.pi / 4), st.integers(0, 2**32 - 1))
@settings(max_examples=100, derandomize=True, deadline=None)
def test_verdict_local_unitary_invariance(v_ac, v_bc, theta, seed):
    # random_scenario would leave this vacuous: its reports pass neither rule, even at tol 1
    sc = noisy_scenario(v_ac, v_bc, theta)
    (rotated,) = local_unitary_copies(sc, 1, np.random.default_rng(seed))
    reports = exact_report(sc), exact_report(rotated)
    for rule in (certify_crit1, certify_crit2):
        for tol in (1e-9, 1e-6, 1e-2):
            passed, rotated_passed = (rule(r.s_ac, r.s_bc, r.s_ab_given_c, tol).passed for r in reports)
            assert rotated_passed == passed


@given(SCENARIOS, st.permutations(range(4)))
@settings(max_examples=100, derandomize=True, deadline=None)
def test_outcome_permutation_invariance(drawn, perm):
    # raw outcome k of the permuted measurement is raw outcome perm[k] of the original
    seed, d_a, d_b = drawn
    sc = random_scenario(np.random.default_rng(seed), d_a, d_b)
    projectors = sc.charlie3.projectors
    permuted = Scenario(sc.state, sc.alice, sc.bob, sc.charlie12,
                        FourOutcomeMeasurement(tuple(projectors[k] for k in perm), sc.charlie3.dims))
    values, relabeling = report_values(sc)
    permuted_values, permuted_relabeling = report_values(permuted)
    assert permuted_relabeling == tuple(relabeling[k] for k in perm)
    assert np.max(np.abs(permuted_values - values)) <= INVARIANCE_TOL


@given(SCENARIOS)
@settings(max_examples=100, derandomize=True, deadline=None)
def test_sampled_report_is_near_the_exact_one(drawn):
    # each sampled value is compared with the exact one of the same raw outcome and
    # variant, so a near-tie that relabels the sample differently still compares like with like
    seed, d_a, d_b = drawn
    sc = random_scenario(np.random.default_rng(seed), d_a, d_b)
    bit_maps = tuple((b.bit_for_a, b.bit_for_b) for b in sc.charlie12)
    est = estimate_report(sample_counts(sc, SAMPLED_N, seed), bit_maps)
    exact = exact_report(sc)
    matrix, probs = conditional_version_matrix(sc)
    perm = est.relabeling
    pairs = [(est.s_ac, exact.s_ac, est.stderr.s_ac), (est.s_bc, exact.s_bc, est.stderr.s_bc)]
    for c, slot in enumerate(perm):
        p_hat = est.outcome_probs[slot]
        pairs.append((est.s_ab_given_c[slot], matrix[c, slot], est.stderr.s_ab_given_c[slot]))
        pairs.append((p_hat, probs[c], math.sqrt(p_hat * (1.0 - p_hat) / (4 * SAMPLED_N))))
    for got, want, se in pairs:
        assert abs(got - want) <= SAMPLED_SIGMAS * se
    # the sampled relabeling is optimal for the exact values up to the same noise, counted twice
    exact_score = sum(matrix[c, slot] for c, slot in enumerate(perm))
    slack = 2 * SAMPLED_SIGMAS * sum(est.stderr.s_ab_given_c)
    assert exact_score >= sum(exact.s_ab_given_c) - slack


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_simulated_version_matrix_matches_the_overlaps(seed):
    # overlap_version_matrix does not read VERSION_SIGNS, so a flipped sign moves only
    # the simulated side; every entry is compared, not only the diagonal
    meas = rotated_bell_measurement(np.random.default_rng(seed))
    matrix, _ = conditional_version_matrix(ideal_with_charlie3(meas))
    assert np.max(np.abs(matrix - overlap_version_matrix(meas))) <= INVARIANCE_TOL


# Near the ceiling and the thresholds, so that 15-20% of the draws pass and are then raised.
CONDITIONAL = st.one_of(st.floats(1.0, TSIRELSON), st.just(math.nan))
VERDICT_INPUTS = st.tuples(
    st.floats(TSIRELSON - 0.1, TSIRELSON + 0.1),  # s_ac
    st.floats(TSIRELSON - 0.1, TSIRELSON + 0.1),  # s_bc
    st.lists(CONDITIONAL, min_size=4, max_size=4),
    st.floats(0.0, 0.2),  # tol
)
RAISE = st.floats(0.0, 1.0)


@pytest.mark.parametrize("rule", [certify_crit1, certify_crit2])
@given(VERDICT_INPUTS, RAISE, st.integers(0, 3), RAISE)
@settings(max_examples=500, derandomize=True, deadline=None)
def test_verdicts_are_monotone(rule, inputs, tol_raise, slot, value_raise):
    # a passing verdict still passes with a larger tolerance or a larger conditional value
    s_ac, s_bc, values, tol = inputs
    if not rule(s_ac, s_bc, values, tol).passed:
        return
    assert rule(s_ac, s_bc, values, tol + tol_raise).passed
    raised = list(values)
    raised[slot] += value_raise  # an undefined value stays undefined
    assert rule(s_ac, s_bc, raised, tol).passed


# Settings of two parties, each a pair of Haar +/-1 observables on dimension 2, 3 or 4.
SETTINGS = st.tuples(st.integers(0, 2**32 - 1), st.sampled_from((2, 3, 4)), st.sampled_from((2, 3, 4)))
PARTY = st.sampled_from((0, 1))


def random_settings(drawn) -> tuple[list[tuple[DichotomicObservable, DichotomicObservable]], np.random.Generator]:
    """Both parties' (X0, X1) and the generator that drew them, to draw transformations from."""
    seed, d_a, d_b = drawn
    rng = np.random.default_rng([seed, 17])
    return [(random_observable(d, rng), random_observable(d, rng)) for d in (d_a, d_b)], rng


def commutes(x0: DichotomicObservable, x1: DichotomicObservable) -> bool:
    return bool(np.max(np.abs(x0.matrix @ x1.matrix - x1.matrix @ x0.matrix)) <= INVARIANCE_TOL)


def bound_and_sines(parties) -> tuple[float, list[list[float]]]:
    """sep_bound's formula value, after checking the witness against it, and each party's sorted sines."""
    (a0, a1), (b0, b1) = parties
    _, result = sep_bound(a0, a1, b0, b1)
    if not (commutes(a0, a1) and commutes(b0, b1)):
        assert abs(result.oracle_value - result.formula_value) <= INVARIANCE_TOL
    return result.formula_value, [sorted(jordan_blocks(*party).sines) for party in parties]


def assert_same_bound(parties, moved, order=(0, 1)) -> None:
    """``moved`` has the bound of ``parties`` and, party ``order[k]`` of ``parties`` at place k, its sines."""
    value, sines = bound_and_sines(parties)
    moved_value, moved_sines = bound_and_sines(moved)
    assert abs(moved_value - value) <= INVARIANCE_TOL
    for k, j in enumerate(order):
        assert len(moved_sines[k]) == len(sines[j])
        assert np.max(np.abs(np.subtract(moved_sines[k], sines[j])), initial=0.0) <= INVARIANCE_TOL


@given(SETTINGS, PARTY)
@settings(max_examples=60, derandomize=True, deadline=None)
def test_separable_bound_local_unitary_invariance(drawn, party):
    parties, rng = random_settings(drawn)
    u = haar_unitary(parties[party][0].dim, rng)
    moved = list(parties)
    moved[party] = tuple(DichotomicObservable(u @ x.matrix @ u.conj().T) for x in parties[party])
    assert_same_bound(parties, moved)


@given(SETTINGS)
@settings(max_examples=60, derandomize=True, deadline=None)
def test_separable_bound_party_swap_invariance(drawn):
    parties, _ = random_settings(drawn)
    assert_same_bound(parties, parties[::-1], order=(1, 0))


@given(SETTINGS, PARTY)
@settings(max_examples=60, derandomize=True, deadline=None)
def test_separable_bound_setting_swap_invariance(drawn, party):
    # X1 X0 is the adjoint of X0 X1: its eigenphases are the conjugates, with the same |sin|
    parties, _ = random_settings(drawn)
    moved = list(parties)
    moved[party] = parties[party][::-1]
    assert_same_bound(parties, moved)
