import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from swapcert import (
    BinnedMeasurement,
    ChshReport,
    CountsTable,
    DensityMatrix,
    FourOutcomeMeasurement,
    Scenario,
    ValidationError,
    bell_basis,
    bell_measurement,
    born_tables,
    chsh_ac,
    chsh_bc,
    conditional_version_matrix,
    estimate_report,
    exact_report,
    ideal_scenario,
    joint_distribution,
    noisy_scenario,
    overlap_version_matrix,
    partial_trace,
    product_measurement,
    qubit_observable,
    relabel,
    sample_counts,
    steer,
    steered_states,
)
from swapcert.linalg import tensor
from swapcert.protocol import _CANONICAL_BITS, MAX_N_PER_SETTING, _born, _two_pair_state
from swapcert.serialize import counts_from_csv, counts_to_csv
from support import (
    I2,
    SQRT2,
    TSIRELSON,
    Z,
    conditional_chsh_ab,
    four_factor_state,
    kron_all,
    maximally_entangled_pair,
    permute_subsystems,
    random_scenario,
    reference_estimate_report,
    reference_exact_report,
    reference_sample_counts,
    reference_steer,
    rotated_bell_measurement,
    to_density,
)

IDEAL = ideal_scenario()
# A valid four-outcome measurement on a (4, 1) factor, which no qubit-pair scenario accepts.
ON_4_1 = FourOutcomeMeasurement(tuple(np.diag(np.eye(4)[k]) for k in range(4)), (4, 1))
TRIPLES = list(itertools.product((1, 2), (1, 2), (1, 2, 3)))


def mixed_scenario() -> Scenario:
    return replace(IDEAL, state=DensityMatrix(np.eye(16) / 16, (2, 2, 2, 2)))


def kron_born_tables(sc: Scenario) -> np.ndarray:
    """Born rule cell by cell: the trace of one full Kronecker product per outcome."""
    pa = [[(np.eye(o.dim) + s * o.matrix) / 2 for s in (1, -1)] for o in sc.alice]
    pb = [[(np.eye(o.dim) + s * o.matrix) / 2 for s in (1, -1)] for o in sc.bob]
    pc = [binned.base.projectors for binned in sc.charlie12] + [sc.charlie3.projectors]
    out = np.empty((2, 2, 3, 2, 2, 4))
    for x, y, z, a, b, c in np.ndindex(out.shape):
        op = kron_all(pa[x][a], pb[y][b], pc[z][c])
        out[x, y, z, a, b, c] = np.trace(op @ sc.state.matrix).real
    return out


class TestBornTables:
    def test_matches_kronecker_reference(self):
        rng = np.random.default_rng(6000)
        scenarios = [IDEAL, noisy_scenario(0.9, 0.8, 0.4)]
        for d_a, d_b in itertools.product((2, 3), (2, 3)):
            scenarios += [random_scenario(rng, d_a, d_b) for _ in range(2)]
        for sc in scenarios:
            tables = born_tables(sc)
            assert tables.shape == (2, 2, 3, 2, 2, 4)
            np.testing.assert_allclose(tables, kron_born_tables(sc), rtol=0, atol=1e-12)

    def test_joint_distribution_is_a_slice(self):
        sc = random_scenario(np.random.default_rng(6001), 3, 2)
        tables = born_tables(sc)
        for x, y, z in TRIPLES:
            np.testing.assert_array_equal(joint_distribution(sc, x, y, z), tables[x - 1, y - 1, z - 1])


class TestBornTablesCache:
    """A scenario computes its Born tables once and shares them read-only."""

    def test_computed_once_and_shared(self):
        sc = random_scenario(np.random.default_rng(6002), 2, 3)
        assert born_tables(sc) is born_tables(sc)
        assert born_tables(sc) is sc.born_tables

    def test_read_only(self):
        tables = born_tables(random_scenario(np.random.default_rng(6003)))
        assert not tables.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            tables[0, 0, 0, 0, 0, 0] = 1.0

    def test_bytes_equal_a_fresh_contraction(self):
        rng = np.random.default_rng(6004)
        for sc in (IDEAL, noisy_scenario(0.9, 0.8, 0.4), random_scenario(rng, 3, 3)):
            pa = np.array([np.array(obs.projectors()) for obs in sc.alice])
            pb = np.array([np.array(obs.projectors()) for obs in sc.bob])
            pc = np.array([np.array(m.projectors) for m in (*(b.base for b in sc.charlie12), sc.charlie3)])
            assert born_tables(sc).tobytes() == _born(pa, pb, pc, sc.state).tobytes()

    def test_replaced_scenario_gets_its_own_tables(self):
        rng = np.random.default_rng(6005)
        sc = random_scenario(rng)
        before = born_tables(sc).copy()
        other = replace(sc, charlie3=rotated_bell_measurement(rng))
        assert born_tables(other) is not born_tables(sc)
        np.testing.assert_array_equal(born_tables(other)[:, :, :2], before[:, :, :2])
        assert not np.allclose(born_tables(other)[:, :, 2], before[:, :, 2])
        np.testing.assert_array_equal(born_tables(sc), before)
        np.testing.assert_allclose(born_tables(other), kron_born_tables(other), rtol=0, atol=1e-12)

    def test_joint_distribution_is_a_read_only_view(self):
        sc = noisy_scenario(0.9, 0.8, 0.4)
        for x, y, z in TRIPLES:
            table = joint_distribution(sc, x, y, z)
            assert table.base is born_tables(sc)
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0, 0] = 1.0


class TestJointDistribution:
    def test_uniform_outcomes_under_joint_basis(self):
        table = joint_distribution(IDEAL, 1, 1, 3)
        np.testing.assert_allclose(table.sum(axis=(0, 1)), [0.25] * 4, atol=1e-12)

    def test_normalized(self):
        for z in (1, 2, 3):
            table = joint_distribution(IDEAL, 2, 1, z)
            assert table.sum() == pytest.approx(1.0, abs=1e-10)
            assert np.all(table >= -1e-12)

    def test_maximally_mixed_factorizes(self):
        sc = mixed_scenario()
        table = joint_distribution(sc, 1, 2, 3)
        pa = table.sum(axis=(1, 2))
        pb = table.sum(axis=(0, 2))
        pc = table.sum(axis=(0, 1))
        expected = np.einsum("a,b,c->abc", pa, pb, pc)
        np.testing.assert_allclose(table, expected, atol=1e-12)

    def test_bad_setting(self):
        with pytest.raises(ValidationError):
            joint_distribution(IDEAL, 3, 1, 1)
        with pytest.raises(ValidationError):
            joint_distribution(IDEAL, 1, 1, 4)


class TestSwapSideChsh:
    def test_ideal_maximal(self):
        assert chsh_ac(IDEAL) == pytest.approx(TSIRELSON, abs=1e-9)
        assert chsh_bc(IDEAL) == pytest.approx(TSIRELSON, abs=1e-9)

    def test_maximally_mixed_vanishes(self):
        sc = mixed_scenario()
        assert chsh_ac(sc) == pytest.approx(0.0, abs=1e-12)
        assert chsh_bc(sc) == pytest.approx(0.0, abs=1e-12)

    def test_visibility_scales_linearly(self):
        for v in (0.3, 0.62, 0.9):
            sc = noisy_scenario(v, 1.0, 0.0)
            assert chsh_ac(sc) == pytest.approx(TSIRELSON * v, abs=1e-9)
            assert chsh_bc(sc) == pytest.approx(TSIRELSON, abs=1e-9)

    def test_degenerate_bob_settings_classical(self):
        b = qubit_observable((1 / SQRT2, 0, 1 / SQRT2))
        sc = replace(IDEAL, bob=(b, b))
        s = chsh_bc(sc)
        # both settings equal: S = 2*E11, here E11 = 1/sqrt2
        assert abs(s) <= 2.0 + 1e-12
        assert s == pytest.approx(SQRT2, abs=1e-9)


class TestConditional:
    def test_ideal_all_maximal(self):
        values, probs = conditional_chsh_ab(IDEAL)
        np.testing.assert_allclose(values, [TSIRELSON] * 4, atol=1e-9)
        np.testing.assert_allclose(probs, [0.25] * 4, atol=1e-10)

    def test_double_werner(self):
        values, _ = conditional_chsh_ab(noisy_scenario(0.8, 0.8, 0.0))
        # steered states are 0.64-visibility isotropic states
        np.testing.assert_allclose(values, [TSIRELSON * 0.64] * 4, atol=1e-9)

    def test_rotated_joint_basis(self):
        theta = 0.37
        values, _ = conditional_chsh_ab(noisy_scenario(1.0, 1.0, theta))
        assert values[0] == pytest.approx(TSIRELSON * math.cos(2 * theta), abs=1e-9)
        assert values[1] == pytest.approx(TSIRELSON, abs=1e-9)
        assert values[2] == pytest.approx(TSIRELSON, abs=1e-9)
        assert values[3] == pytest.approx(TSIRELSON * math.cos(2 * theta), abs=1e-9)

    def test_product_joint_measurement_stays_below_sqrt2(self):
        z_projs = ((I2 + Z) / 2, (I2 - Z) / 2)
        sc = replace(IDEAL, charlie3=product_measurement(z_projs, z_projs))
        matrix, _ = conditional_version_matrix(sc)
        assert np.nanmax(matrix) <= SQRT2 + 1e-9
        # the bound is tight for this measurement
        assert np.nanmax(matrix) == pytest.approx(SQRT2, abs=1e-9)


class TestSteering:
    def test_ideal_swap(self):
        entries = steered_states(IDEAL)
        assert len(entries) == 4
        for (p, dm), reference in zip(entries, bell_basis()):
            assert p == pytest.approx(0.25, abs=1e-10)
            np.testing.assert_allclose(dm.matrix, to_density(reference).matrix, atol=1e-10)

    def test_average_recovers_marginal(self):
        for seed in range(5):
            rng = np.random.default_rng(2000 + seed)
            sc = random_scenario(rng)
            total = np.zeros((sc.dims[0] * sc.dims[1],) * 2, dtype=complex)
            for p, dm in steered_states(sc):
                total += p * dm.matrix
            marginal = partial_trace(sc.state, (0, 1)).matrix
            np.testing.assert_allclose(total, marginal, atol=1e-10)

    @pytest.mark.parametrize("case", ["random0", "random1", "random2", "random3", "ideal", "zz", "zero"])
    def test_matches_reference_sandwich(self, case):
        z_projs = ((I2 + Z) / 2, (I2 - Z) / 2)
        if case.startswith("random"):
            sc = random_scenario(np.random.default_rng(2100 + int(case[-1])), 2 + int(case[-1]) % 2, 2)
            state, meas = sc.state, sc.charlie3
        elif case == "ideal":
            state, meas = IDEAL.state, IDEAL.charlie3
        else:
            # "zero": the second pair is |00>, so outcomes with C_B = 1 never occur
            pair_b = maximally_entangled_pair(2) if case == "zz" else np.diag([1.0, 0.0, 0.0, 0.0])
            state = four_factor_state(maximally_entangled_pair(2), pair_b)
            meas = product_measurement(z_projs, z_projs)
        got, want = steer(state, meas), reference_steer(state, meas)
        assert [dm is None for _, dm in got] == [dm is None for _, dm in want]
        assert (case == "zero") == any(dm is None for _, dm in got)
        for (p, dm), (ref_p, ref_dm) in zip(got, want):
            assert abs(p - ref_p) <= 1e-12
            if dm is not None:
                assert dm.dims == ref_dm.dims
                np.testing.assert_allclose(dm.matrix, ref_dm.matrix, rtol=0, atol=1e-12)

    def test_product_measurement_steers_to_products(self):
        z_projs = ((I2 + Z) / 2, (I2 - Z) / 2)
        sc = replace(IDEAL, charlie3=product_measurement(z_projs, z_projs))
        for _, dm in steered_states(sc):
            w, v = np.linalg.eigh(dm.matrix)
            top = v[:, -1]
            svals = np.linalg.svd(top.reshape(2, 2), compute_uv=False)
            assert w[-1] == pytest.approx(1.0, abs=1e-10)  # pure
            assert svals[1] < 1e-9  # product

    @pytest.mark.parametrize("state,meas,message", [
        (DensityMatrix(np.eye(8) / 8, (2, 2, 2)), IDEAL.charlie3, "^steering expects a four-factor state$"),
        (IDEAL.state, ON_4_1, r"^measurement dims \(4, 1\) do not match state dims \(2, 2\)$"),
    ], ids=["three-factor state", "mismatched dims"])
    def test_malformed_input_rejected(self, state, meas, message):
        with pytest.raises(ValidationError, match=message):
            steer(state, meas)


class TestScenarios:
    def test_ideal_marginal_is_uncorrelated(self):
        marginal = partial_trace(IDEAL.state, (0, 1))
        np.testing.assert_allclose(marginal.matrix, np.eye(4) / 4, atol=1e-10)

    def test_noiseless_limit_matches_ideal(self):
        sc = noisy_scenario(1.0, 1.0, 0.0)
        np.testing.assert_allclose(sc.state.matrix, IDEAL.state.matrix, atol=1e-12)
        for p, q in zip(sc.charlie3.projectors, IDEAL.charlie3.projectors):
            np.testing.assert_allclose(p, q, atol=1e-12)
        # and both match an independent construction of the ideal state and basis
        pair = maximally_entangled_pair(2)
        np.testing.assert_allclose(IDEAL.state.matrix, four_factor_state(pair, pair).matrix, atol=1e-12)
        for p, q in zip(IDEAL.charlie3.projectors, bell_measurement().projectors):
            np.testing.assert_allclose(p, q, atol=1e-12)

    def test_ideal_settings_are_shared_and_read_only(self):
        sc = noisy_scenario(0.9, 0.8, 0.1)
        assert sc.alice is IDEAL.alice and sc.bob is IDEAL.bob and sc.charlie12 is IDEAL.charlie12
        arrays = [obs.matrix for obs in (*sc.alice, *sc.bob)]
        arrays += [proj for binned in sc.charlie12 for proj in binned.base.projectors]
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[0, 0] = 7.0
        assert IDEAL.alice[0].matrix[0, 0] == 1.0

    def test_two_pair_state_matches_kronecker_reorder(self):
        rng = np.random.default_rng(17)
        for v_ac, v_bc in [(1.0, 1.0), (0.0, 0.3), *rng.uniform(0, 1, size=(20, 2))]:
            pair = maximally_entangled_pair(2)
            rho_a = v_ac * pair + (1 - v_ac) * np.eye(4) / 4
            rho_b = v_bc * pair + (1 - v_bc) * np.eye(4) / 4
            expected = permute_subsystems(tensor(rho_a, rho_b), (2, 2, 2, 2), (0, 2, 1, 3))
            state = _two_pair_state(rho_a, rho_b)
            assert state.dims == (2, 2, 2, 2)
            assert state.matrix.tobytes() == expected.tobytes()

    def test_two_pair_state_checks_positivity(self):
        not_positive = np.diag([1.5, -0.5, 0.0, 0.0])
        with pytest.raises(ValidationError, match="negative eigenvalue"):
            _two_pair_state(not_positive, np.eye(4) / 4)

    def test_non_finite_rotation_rejected(self):
        with pytest.raises(ValidationError):
            noisy_scenario(1.0, 1.0, math.nan)

    def test_out_of_range_visibility(self):
        with pytest.raises(ValidationError):
            noisy_scenario(1.2, 1.0, 0.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            replace(IDEAL, alice=(qubit_observable((0, 0, 1)),
                                  qubit_observable((0, 0, 1)).__class__(np.eye(4))))

    @pytest.mark.parametrize("changes,message", [
        ({"state": DensityMatrix(np.eye(8) / 8, (2, 2, 2))}, r"^state must have four factors, got dims \(2, 2, 2\)$"),
        ({"charlie12": IDEAL.charlie12 + IDEAL.charlie12[:1]}, "^each party needs exactly two settings$"),
        ({"charlie12": (IDEAL.charlie12[0], BinnedMeasurement(ON_4_1, (1, 1, -1, -1), (1, -1, 1, -1)))},
         r"^charlie setting 2 acts on dims \(4, 1\), state has \(2, 2\)$"),
    ], ids=["three-factor state", "three charlie12 settings", "charlie12 on wrong dims"])
    def test_malformed_scenario_rejected(self, changes, message):
        with pytest.raises(ValidationError, match=message):
            replace(IDEAL, **changes)


class TestInvariants:
    def test_tsirelson_ceiling(self):
        for seed in range(8):
            rng = np.random.default_rng(3000 + seed)
            d_a, d_b = rng.choice([2, 3, 4], size=2)
            sc = random_scenario(rng, int(d_a), int(d_b))
            values = [chsh_ac(sc), chsh_bc(sc)]
            matrix, _ = conditional_version_matrix(sc)
            values.extend(matrix[np.isfinite(matrix)].tolist())
            for value in values:
                assert abs(value) <= TSIRELSON + 1e-9

    def test_no_signalling(self):
        rng = np.random.default_rng(4000)
        sc = random_scenario(rng)
        tables = {(x, y, z): joint_distribution(sc, x, y, z)
                  for x in (1, 2) for y in (1, 2) for z in (1, 2, 3)}
        for x in (1, 2):
            reference = tables[(x, 1, 1)].sum(axis=(1, 2))
            for y in (1, 2):
                for z in (1, 2, 3):
                    np.testing.assert_allclose(
                        tables[(x, y, z)].sum(axis=(1, 2)), reference, atol=1e-10
                    )
        for y in (1, 2):
            reference = tables[(1, y, 1)].sum(axis=(0, 2))
            for x in (1, 2):
                for z in (1, 2, 3):
                    np.testing.assert_allclose(
                        tables[(x, y, z)].sum(axis=(0, 2)), reference, atol=1e-10
                    )
        for z in (1, 2, 3):
            reference = tables[(1, 1, z)].sum(axis=(0, 1))
            for x in (1, 2):
                for y in (1, 2):
                    np.testing.assert_allclose(
                        tables[(x, y, z)].sum(axis=(0, 1)), reference, atol=1e-10
                    )

    def test_average_version_identity(self):
        # weighting the raw variant-1 values by outcome probabilities gives the
        # variant-1 value of the unconditioned end-party state
        from swapcert import version_operator

        for seed, sc in [(0, IDEAL), (1, random_scenario(np.random.default_rng(5000)))]:
            matrix, probs = conditional_version_matrix(sc)
            averaged = float(np.dot(probs, matrix[:, 0]))
            rho_ab = partial_trace(sc.state, (0, 1)).matrix
            op = version_operator(sc.alice, sc.bob, 1)
            unconditioned = float(np.trace(op @ rho_ab).real)
            assert averaged == pytest.approx(unconditioned, abs=1e-10)
            if seed == 0:
                assert unconditioned == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("s_ac,probs,message", [
        (2.0, (0.3, 0.3, 0.3, 0.3), "^outcome probabilities do not sum to 1$"),
        (3.0, (0.25, 0.25, 0.25, 0.25), "^CHSH value 3.0 exceeds the quantum ceiling$"),
    ], ids=["probabilities off 1", "value above the ceiling"])
    def test_report_validate_rejects(self, s_ac, probs, message):
        report = ChshReport(s_ac, 2.0, (2.0,) * 4, probs, (0, 1, 2, 3))
        with pytest.raises(ValidationError, match=message):
            report.validate()


class TestExactReport:
    def test_ideal(self):
        report = exact_report(IDEAL)
        assert report.relabeling == (0, 1, 2, 3)
        np.testing.assert_allclose(report.s_ab_given_c, [TSIRELSON] * 4, atol=1e-9)
        np.testing.assert_allclose(report.outcome_probs, [0.25] * 4, atol=1e-10)
        assert report.stderr is None

    def test_noisy_grid_matches_overlap_prediction(self):
        rng = np.random.default_rng(6200)
        for _ in range(64):
            v_ac, v_bc = rng.uniform(0.8, 1.0, size=2)
            theta = rng.uniform(0.0, math.pi / 4)
            sc = noisy_scenario(v_ac, v_bc, theta)
            perm, values = relabel(v_ac * v_bc * overlap_version_matrix(sc.charlie3))
            report = exact_report(sc)
            assert report.relabeling == perm
            np.testing.assert_allclose(report.s_ab_given_c, values, rtol=0, atol=1e-12)
            assert report.s_ac == pytest.approx(TSIRELSON * v_ac, abs=1e-12)
            assert report.s_bc == pytest.approx(TSIRELSON * v_bc, abs=1e-12)

    def test_quarter_turn_relabels(self):
        sc = noisy_scenario(1.0, 1.0, math.pi / 2)
        report = exact_report(sc)
        assert report.relabeling == (3, 1, 2, 0)
        np.testing.assert_allclose(report.s_ab_given_c, [TSIRELSON] * 4, atol=1e-9)


class TestSampling:
    def test_each_triple_is_its_own_multinomial_draw(self):
        # the per-triple generators make the table independent of how the
        # triples are split up: each one is a single draw from its own stream
        sc = random_scenario(np.random.default_rng(6100), 3, 2)
        n, seed = 1000, 17
        table = sample_counts(sc, n, seed)
        for x, y, z in TRIPLES:
            p = np.clip(joint_distribution(sc, x, y, z), 0.0, None).reshape(-1)
            expected = np.random.default_rng([seed, x, y, z]).multinomial(n, p / p.sum())
            np.testing.assert_array_equal(table.counts[x - 1, y - 1, z - 1].reshape(-1), expected)
        assert np.all(table.counts.sum(axis=(3, 4, 5)) == n)
        np.testing.assert_array_equal(sample_counts(sc, n, seed).counts, table.counts)

    @pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**40])
    def test_matches_default_rng_reference(self, seed):
        # the uint32 seed path and the list path give the streams of default_rng([seed, x, y, z])
        rng = np.random.default_rng(6200)
        scenarios = [IDEAL, noisy_scenario(0.95, 0.97, 0.26), random_scenario(rng, 3, 2), random_scenario(rng)]
        for sc, n in itertools.product(scenarios, (1, 1000, 10**12)):
            table = sample_counts(sc, n, seed)
            assert table.counts.tobytes() == reference_sample_counts(sc, n, seed).counts.tobytes()

    def test_pooled_estimates_within_5_sigma_of_exact(self):
        sc = noisy_scenario(0.95, 0.97, 0.26)
        n, seeds = 20_000, range(5)
        pooled = sum(sample_counts(sc, n, seed).counts for seed in seeds)
        est = estimate_report(CountsTable(pooled))
        exact = exact_report(sc)
        assert est.relabeling == exact.relabeling
        pairs = [(est.s_ac, exact.s_ac, est.stderr.s_ac), (est.s_bc, exact.s_bc, est.stderr.s_bc)]
        pairs += zip(est.s_ab_given_c, exact.s_ab_given_c, est.stderr.s_ab_given_c)
        z3_total = 4 * n * len(seeds)
        pairs += [(p_hat, p, math.sqrt(p * (1 - p) / z3_total))
                  for p_hat, p in zip(est.outcome_probs, exact.outcome_probs)]
        for got, want, se in pairs:
            assert abs(got - want) <= 5 * se

    def test_counts_sum_per_setting(self):
        table = sample_counts(IDEAL, 500, seed=9)
        totals = table.counts.sum(axis=(3, 4, 5))
        assert np.all(totals == 500)

    def test_deterministic(self):
        t1 = sample_counts(IDEAL, 300, seed=123)
        t2 = sample_counts(IDEAL, 300, seed=123)
        np.testing.assert_array_equal(t1.counts, t2.counts)
        t3 = sample_counts(IDEAL, 300, seed=124)
        assert np.any(t1.counts != t3.counts)

    def test_empirical_correlator_within_5_sigma(self):
        n = 40000
        table = sample_counts(IDEAL, n, seed=42)
        # E11 for the first party and the 'a' bit of setting 1, pooled over y
        block = table.counts[0, :, 0].sum(axis=0)  # (a, b, c)
        bits = np.array([1, 1, -1, -1])
        signs = np.einsum("a,c->ac", [1, -1], bits)
        e_hat = float((signs * block.sum(axis=1)).sum()) / (2 * n)
        exact = 1 / SQRT2
        sigma = math.sqrt((1 - exact**2) / (2 * n))
        assert abs(e_hat - exact) <= 5 * sigma

    def test_invalid_n(self):
        with pytest.raises(ValidationError):
            sample_counts(IDEAL, 0, seed=1)

    def test_negative_seed(self):
        with pytest.raises(ValidationError, match="^seed must be a nonnegative integer$"):
            sample_counts(IDEAL, 10, seed=-1)

    @pytest.mark.parametrize("arg,value", [
        ("n_per_setting", 2.5), ("n_per_setting", 10.0), ("n_per_setting", True), ("n_per_setting", "10"),
        ("seed", 1.5), ("seed", False), ("seed", None),
    ])
    def test_rejects_non_integer_arguments(self, arg, value):
        kwargs = {"n_per_setting": 10, "seed": 1, arg: value}
        with pytest.raises(ValidationError, match=f"{arg} must be an integer"):
            sample_counts(IDEAL, **kwargs)

    @pytest.mark.parametrize("n", [MAX_N_PER_SETTING + 1, 10**19])
    def test_rejects_n_whose_total_overflows_int64(self, n):
        with pytest.raises(ValidationError, match=f"at most {MAX_N_PER_SETTING}"):
            sample_counts(IDEAL, n, seed=1)

    def test_largest_n_reads_back(self):
        assert 12 * MAX_N_PER_SETTING <= 2**63 - 1 < 12 * (MAX_N_PER_SETTING + 1)
        table = sample_counts(IDEAL, MAX_N_PER_SETTING, seed=1)
        assert np.all(table.counts.sum(axis=(3, 4, 5)) == MAX_N_PER_SETTING)
        parsed = counts_from_csv(counts_to_csv(table))
        np.testing.assert_array_equal(parsed.counts, table.counts)

    def test_accepts_numpy_integers(self):
        table = sample_counts(IDEAL, np.int32(10), np.uint8(1))
        np.testing.assert_array_equal(table.counts, sample_counts(IDEAL, 10, 1).counts)
        assert table.n_per_setting == 10 and type(table.n_per_setting) is int


class TestCountsTable:
    SHAPE = (2, 2, 3, 2, 2, 4)

    @pytest.mark.parametrize("counts", [
        np.full(SHAPE, 1.7),
        np.full(SHAPE, np.nan),
        np.full(SHAPE, 2.0**63),
        np.full(SHAPE, 2**63, dtype=np.uint64),
        np.full(SHAPE, 2**63, dtype=object),
        np.full(SHAPE, "1"),
    ])
    def test_rejects_counts_that_are_not_int64_integers(self, counts):
        with pytest.raises(ValidationError, match="whole numbers"):
            CountsTable(counts)

    def test_accepts_whole_numbers_of_any_numeric_dtype(self):
        big = (2**63 - 1) // 192
        for counts, n in ((np.full(self.SHAPE, 3.0), 48), (np.full(self.SHAPE, 3, dtype=np.uint16), 48),
                          (np.full(self.SHAPE, big, dtype=np.uint64), 16 * big)):
            table = CountsTable(counts)
            assert table.counts.dtype == np.int64
            np.testing.assert_array_equal(table.counts, counts)
            assert table.n_per_setting == n and type(table.n_per_setting) is int

    def test_n_per_setting_is_the_largest_triple_total(self):
        counts = sample_counts(IDEAL, 1000, seed=1).counts.copy()
        counts[1, 0, 2, 0, 0, 0] += 7
        counts[0, 1, 1, 1, 1, 3] += 3
        assert CountsTable(counts).n_per_setting == 1007

    @pytest.mark.parametrize("counts,message", [
        (np.ones((2, 2, 3, 16), dtype=np.int64), r"counts must have shape \(2,2,3,2,2,4\), got \(2, 2, 3, 16\)"),
        (np.full(SHAPE, -1), "^counts must be nonnegative$"),
        (np.full(SHAPE, 2**63 - 1, dtype=np.uint64), "^total count does not fit in int64$"),
        (np.full(SHAPE, 2**62), "^total count does not fit in int64$"),
    ], ids=["wrong shape", "negative", "all 2**63-1", "all 2**62"])
    def test_rejects_malformed_counts(self, counts, message):
        with pytest.raises(ValidationError, match=message):
            CountsTable(counts)

    def test_rejects_a_total_that_wraps_int64(self):
        counts = sample_counts(IDEAL, 1000, seed=1).counts.copy()
        counts[0, 0, 0].flat[:5] = 2**62
        with pytest.raises(ValidationError, match="^total count does not fit in int64$"):
            CountsTable(counts)

    def test_largest_int64_total_is_accepted(self):
        counts = np.zeros(self.SHAPE, dtype=np.int64)
        counts[..., 0, 0, 0] = 1
        counts[1, 1, 2, 0, 0, 0] = 2**63 - 12
        assert CountsTable(counts).n_per_setting == 2**63 - 12

    @pytest.mark.parametrize("triple", [(0, 0, 0), (1, 0, 2), (1, 1, 2)])
    def test_rejects_a_triple_with_zero_total(self, triple):
        counts = sample_counts(IDEAL, 100, seed=3).counts.copy()
        counts[triple] = 0
        x, y, z = (i + 1 for i in triple)
        with pytest.raises(ValidationError, match=rf"^empty cells: zero total count for setting triple \({x},{y},{z}\)$"):
            CountsTable(counts)


class TestEstimateReport:
    def test_exact_counts_reproduce_exact_values(self):
        n = 1_000_000
        counts = np.zeros((2, 2, 3, 2, 2, 4), dtype=np.int64)
        for x in (1, 2):
            for y in (1, 2):
                for z in (1, 2, 3):
                    table = joint_distribution(IDEAL, x, y, z)
                    counts[x - 1, y - 1, z - 1] = np.round(table * n)
        report = estimate_report(CountsTable(counts))
        exact = exact_report(IDEAL)
        # per-cell rounding is at most 0.5/n and a CHSH value sums 4 pooled
        # correlators over 32 cells each, so 5e-5 is "within rounding" at n=1e6
        assert report.s_ac == pytest.approx(exact.s_ac, abs=5e-5)
        assert report.s_bc == pytest.approx(exact.s_bc, abs=5e-5)
        np.testing.assert_allclose(report.s_ab_given_c, exact.s_ab_given_c, atol=5e-5)

    def test_sampled_ideal_close(self):
        table = sample_counts(IDEAL, 100_000, seed=7)
        report = estimate_report(table)
        assert abs(report.s_ac - TSIRELSON) <= 5 * report.stderr.s_ac
        assert abs(report.s_bc - TSIRELSON) <= 5 * report.stderr.s_bc
        for value, se in zip(report.s_ab_given_c, report.stderr.s_ab_given_c):
            assert abs(value - TSIRELSON) <= 5 * se

    def test_doubling_counts_shrinks_errors(self):
        table = sample_counts(IDEAL, 50_000, seed=11)
        doubled = CountsTable(table.counts * 2)
        r1 = estimate_report(table)
        r2 = estimate_report(doubled)
        assert r2.s_ac == pytest.approx(r1.s_ac, abs=1e-12)
        assert r2.stderr.s_ac == pytest.approx(r1.stderr.s_ac / SQRT2, rel=1e-9)
        assert r2.stderr.s_ab_given_c[0] == pytest.approx(
            r1.stderr.s_ab_given_c[0] / SQRT2, rel=1e-9
        )

    def test_missing_setting_rejected(self):
        counts = sample_counts(IDEAL, 100, seed=3).counts.copy()
        counts[0, 0, 0] = 0
        with pytest.raises(ValidationError):
            estimate_report(CountsTable(counts))

    def test_default_bit_maps_are_built_once(self):
        assert not _CANONICAL_BITS.flags.writeable
        table = sample_counts(noisy_scenario(0.9, 0.95, 0.3), 500, seed=5)
        canonical = (((1, 1, -1, -1), (1, -1, 1, -1)),) * 2
        assert repr(estimate_report(table)) == repr(estimate_report(table, canonical))

    @pytest.mark.parametrize("bit_maps", [
        (((0, 0, 0, 0), (2, 2, 2, 2)),) * 2,
        (((1, 1, -1, -1), (1, -1, 1, 0.5)),) * 2,
        (((1, 1, -1, -1), (1, -1, 1)),) * 2,
        (((1, 1, -1, -1), (1, -1, 1, -1)),),
        (((1, 1, -1, -1),),) * 2,
        5,
    ])
    def test_bad_bit_maps_rejected(self, bit_maps):
        table = sample_counts(IDEAL, 100, seed=3)
        with pytest.raises(ValidationError):
            estimate_report(table, bit_maps)


def assert_same_report(report, reference, atol=1e-12):
    """Every field equal within ``atol``, undefined (NaN) entries in the same places."""
    assert report.relabeling == reference.relabeling
    for name in ("s_ac", "s_bc", "s_ab_given_c", "outcome_probs"):
        np.testing.assert_allclose(getattr(report, name), getattr(reference, name), rtol=0, atol=atol)
    assert (report.stderr is None) == (reference.stderr is None)
    if reference.stderr is not None:
        for name in ("s_ac", "s_bc", "s_ab_given_c"):
            np.testing.assert_allclose(getattr(report.stderr, name), getattr(reference.stderr, name),
                                       rtol=0, atol=atol)


class TestOneReportPath:
    """Exact and estimated reports against independent loop and slice readers."""

    @pytest.mark.parametrize("d_a,d_b", list(itertools.product((2, 3), repeat=2)))
    def test_exact_matches_slice_reader(self, d_a, d_b):
        rng = np.random.default_rng(7100 + 10 * d_a + d_b)
        for _ in range(8):
            sc = random_scenario(rng, d_a, d_b)
            assert_same_report(exact_report(sc), reference_exact_report(sc))

    @pytest.mark.parametrize("n", [3, 50])
    @pytest.mark.parametrize("d_a,d_b", list(itertools.product((2, 3), repeat=2)))
    def test_estimate_matches_loop_reference(self, d_a, d_b, n):
        rng = np.random.default_rng(7200 + 10 * d_a + d_b)
        undefined = 0
        for seed in range(8):
            sc = random_scenario(rng, d_a, d_b)
            bit_maps = tuple((binned.bit_for_a, binned.bit_for_b) for binned in sc.charlie12)
            counts = sample_counts(sc, n, seed)
            report = estimate_report(counts, bit_maps)
            assert_same_report(report, reference_estimate_report(counts, bit_maps))
            undefined += int(np.isnan(report.s_ab_given_c).sum())
        if n == 3:  # four (x, y) blocks of three draws cannot reach all four outcomes
            assert undefined >= 8
