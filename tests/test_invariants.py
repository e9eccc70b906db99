"""Physics invariants of the exact report over random scenarios, as seeded hypothesis properties.

Any correct Born-rule simulator satisfies them, wherever the scenario lies,
so they catch a wrong contraction that the golden files would only catch
at their few points.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from swapcert import (
    BinnedMeasurement,
    DensityMatrix,
    DichotomicObservable,
    FourOutcomeMeasurement,
    Scenario,
    exact_report,
)
from support import haar_unitary, kron_all, random_scenario

# Largest move of any report value or probability; the measured moves are 1.3e-15 and 5.6e-17.
INVARIANCE_TOL = 1e-12

SCENARIOS = st.tuples(st.integers(0, 2**32 - 1), st.sampled_from((2, 3)), st.sampled_from((2, 3)))


def conjugated(sc: Scenario, u_a: np.ndarray, u_b: np.ndarray, u_c: np.ndarray) -> Scenario:
    """The scenario seen in a local basis: the state by U_A x U_B x U_C, each setting by its factor's unitary."""
    u = kron_all(u_a, u_b, u_c)

    def obs(o: DichotomicObservable, v: np.ndarray) -> DichotomicObservable:
        return DichotomicObservable(v @ o.matrix @ v.conj().T)

    def meas(m: FourOutcomeMeasurement) -> FourOutcomeMeasurement:
        return FourOutcomeMeasurement(tuple(u_c @ p @ u_c.conj().T for p in m.projectors), m.dims)

    return Scenario(
        state=DensityMatrix(u @ sc.state.matrix @ u.conj().T, sc.dims),
        alice=tuple(obs(o, u_a) for o in sc.alice),
        bob=tuple(obs(o, u_b) for o in sc.bob),
        charlie12=tuple(BinnedMeasurement(meas(b.base), b.bit_for_a, b.bit_for_b) for b in sc.charlie12),
        charlie3=meas(sc.charlie3),
    )


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
