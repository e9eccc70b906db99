import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapcert import CountsTable, ValidationError, bell_measurement, estimate_report, ideal_scenario, noisy_scenario
from swapcert.blocks import ObservableBlock
from swapcert.certify import DistanceBounds, certify_crit1, certify_crit2
from swapcert.protocol import exact_report, sample_counts
from swapcert.serialize import (
    SNAP_TOL,
    _writer_counts,
    binned_from_json,
    binned_to_json,
    counts_from_csv,
    counts_to_csv,
    json_dumps,
    key_value_csv,
    matrix_from_json,
    matrix_to_json,
    measurement_from_json,
    measurement_to_json,
    observable_from_json,
    observable_to_json,
    report_from_json,
    report_to_json,
    round9,
    scenario_from_json,
    scenario_to_json,
)
from support import (
    TSIRELSON,
    conditional_chsh_ab,
    eigenstates,
    four_factor_state,
    haar_unitary,
    maximally_entangled_pair,
    random_binned,
    random_observable,
    reference_counts_from_csv,
    reference_counts_to_csv,
    rotated_bell_measurement,
)


class TestMatrixFormat:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        mat = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
        recovered = matrix_from_json(matrix_to_json(mat))
        np.testing.assert_allclose(recovered, mat, atol=1e-12)

    def test_schema_fields(self):
        obj = matrix_to_json(np.eye(2))
        assert obj["rows"] == 2 and obj["cols"] == 2
        assert obj["data"] == [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]

    def test_rejects_bad_length(self):
        with pytest.raises(ValidationError):
            matrix_from_json({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]})

    def test_rejects_bad_cell(self):
        with pytest.raises(ValidationError):
            matrix_from_json({"rows": 1, "cols": 1, "data": [[1.0]]})

    def test_rejects_non_object(self):
        with pytest.raises(ValidationError):
            matrix_from_json([1, 2, 3])

    # json.loads keeps an integer entry as an int, on which float() raises OverflowError past the float range
    @pytest.mark.parametrize("entry", ["NaN", "Infinity", "1e400", "1" + "0" * 400, "-1" + "0" * 309],
                             ids=["NaN", "Infinity", "1e400", "int 1e400", "int -1e309"])
    def test_rejects_non_finite_entry(self, entry):
        obj = json.loads(f'{{"rows": 1, "cols": 2, "data": [[1.0, 0.0], [0.0, {entry}]]}}')
        with pytest.raises(ValidationError, match="^matrix: non-finite entries$"):
            matrix_from_json(obj)

    @pytest.mark.parametrize("rows,cols", [
        (1.9, "1"), (1.0, 1), (1, "1"), (True, 1), (1, None), (1, [1]),
    ])
    def test_rejects_non_integer_shape(self, rows, cols):
        with pytest.raises(ValidationError, match="rows/cols: expected a list of integers"):
            matrix_from_json({"rows": rows, "cols": cols, "data": [[1.0, 0.0]]})


class TestRounding:
    def test_round9(self):
        assert round9(2.8284271247461903) == 2.82842712
        assert round9(math.nan) != round9(1.0)

    def test_json_is_deterministic(self):
        payload = {"b": [1.234567891234, 2.0], "a": {"x": 1e-17}}
        assert json_dumps(payload) == json_dumps(json.loads(json_dumps(payload)))


class TestPayloadWalk:
    """Dataclasses, arrays and undefined floats are written by the walk under json_dumps and key_value_csv."""

    def test_verdict_without_best_value(self):
        verdict = certify_crit2(2.8284271247461903, 2.5, [math.nan] * 4, 1e-9)
        assert verdict.witness.best_value is None
        expected = {
            "criterion": "crit2", "passed": False, "tolerance": 1e-9,
            "witness": {"s_ac_hit": True, "s_bc_hit": False, "s_ac_dev": 0.0, "s_bc_dev": 0.328427125,
                        "best_outcome": None, "best_value": None, "threshold": 1.41421356, "margin": None},
        }
        assert json_dumps(verdict) == json_dumps(expected)
        assert key_value_csv(verdict) == key_value_csv(expected)
        assert "witness.best_value,None" in key_value_csv(verdict).splitlines()

    def test_distance_bounds(self):
        bounds = DistanceBounds(0.125, 0.5)
        assert json_dumps(bounds) == '{\n  "lower": 0.125,\n  "upper": 0.5\n}'
        assert key_value_csv({"distance_bounds": bounds}) == "key,value\ndistance_bounds.lower,0.125\ndistance_bounds.upper,0.5"

    def test_observable_block(self):
        basis = np.array([[1.0], [1j]]) / math.sqrt(2.0)
        block = ObservableBlock(basis, np.array([[1.0]]), np.array([[-1.0]]))
        expected = {"basis": matrix_to_json(basis), "a0": matrix_to_json(np.eye(1)), "a1": matrix_to_json(-np.eye(1))}
        assert json_dumps(block) == json_dumps(expected)
        assert key_value_csv([block]) == key_value_csv([expected])

    def test_vector_is_a_column(self):
        vec = np.array([0.6, 0.8j])
        assert json_dumps(vec) == json_dumps(matrix_to_json(vec.reshape(-1, 1)))
        assert json.loads(json_dumps(vec))["cols"] == 1

    def test_non_finite_floats_are_null_outside_reports(self):
        verdict = certify_crit1(math.nan, 2.8284271247461903, [2.0] * 4, 1e-9)
        assert json.loads(json_dumps(verdict))["witness"]["s_ac_dev"] is None
        payload = {"a": [math.nan, math.inf, -math.inf, 1.0], "b": np.array([[math.nan]])}
        assert json.loads(json_dumps(payload)) == {
            "a": [None, None, None, 1.0], "b": {"rows": 1, "cols": 1, "data": [[None, 0.0]]}}
        assert key_value_csv(payload).splitlines()[1:4] == ["a.0,None", "a.1,None", "a.2,None"]


class TestMeasurementFormat:
    @pytest.mark.parametrize("obj,message", [
        ({"dims": [2, 2]}, "^measurement: expected object with 'projectors'$"),
        ({"projectors": [matrix_to_json(np.eye(3))] * 4}, r"^measurement: cannot infer dims for side 3; provide 'dims'$"),
    ], ids=["no projectors", "3x3 without dims"])
    def test_malformed_measurement_rejected(self, obj, message):
        with pytest.raises(ValidationError, match=message):
            measurement_from_json(obj)

    def test_round_trip(self):
        meas = bell_measurement()
        recovered = measurement_from_json(measurement_to_json(meas))
        assert recovered.dims == meas.dims
        for p, q in zip(recovered.projectors, meas.projectors):
            np.testing.assert_allclose(p, q, atol=1e-8)

    def test_binned_round_trip(self):
        sc = ideal_scenario()
        binned = sc.charlie12[0]
        recovered = binned_from_json(binned_to_json(binned))
        assert recovered.bit_for_a == binned.bit_for_a
        assert recovered.bit_for_b == binned.bit_for_b

    def test_missing_bits_rejected(self):
        obj = measurement_to_json(bell_measurement())
        with pytest.raises(ValidationError):
            binned_from_json(obj)

    @given(st.sampled_from(["bell", (3, 3), (4, 4)]), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_nine_digit_round_trip_loads(self, kind, seed):
        rng = np.random.default_rng(seed)
        meas = rotated_bell_measurement(rng) if kind == "bell" else random_binned(kind, rng).base
        recovered = measurement_from_json(json.loads(json_dumps(measurement_to_json(meas))))
        assert recovered.dims == meas.dims
        assert max(np.max(np.abs(p - q)) for p, q in zip(recovered.projectors, meas.projectors)) <= 1e-8

    def test_passing_measurement_loads_unchanged(self):
        rng = np.random.default_rng(6)
        for meas in (bell_measurement(), ideal_scenario().charlie3, ideal_scenario().charlie12[1].base,
                     rotated_bell_measurement(rng), random_binned((3, 3), rng).base):
            obj = measurement_to_json(meas)
            recovered = measurement_from_json(obj)
            for k, proj in enumerate(recovered.projectors):
                assert proj.tobytes() == matrix_from_json(obj["projectors"][k]).tobytes()

    @pytest.mark.parametrize("kind,message", [
        ("off-hermitian", "projector 2 is not Hermitian within tolerance"),
        ("scaled", "projector 1 is not idempotent within tolerance"),
        ("overlap", "projectors 1 and 2 are not orthogonal"),
        # within the snap tolerance of Hermitian but not of idempotent: the
        # default-tolerance checks fail on Hermiticity first, and that error stands
        ("both", "projector 1 is not Hermitian within tolerance"),
        ("three", "expected 4 projectors, got 3"),
    ])
    def test_beyond_snap_tolerance_keeps_message(self, kind, message):
        meas = rotated_bell_measurement(np.random.default_rng(8))
        projs = [p.copy() for p in meas.projectors]
        if kind == "off-hermitian":
            projs[1][0, 1] += 1e-5
        elif kind == "scaled":
            projs[0] *= 1.0 + 1e-5
        elif kind == "overlap":
            first, second = eigenstates(meas)[:2]
            tilted = (second + 1e-5 * first) / np.linalg.norm(second + 1e-5 * first)
            projs[1] = np.outer(tilted, tilted.conj())  # still a projector, no longer orthogonal to the first
        elif kind == "both":
            projs[0] *= 1.0 + 1e-3
            projs[0][0, 1] += 5e-7
        else:
            projs = projs[:3]
        obj = {"dims": [2, 2], "projectors": [matrix_to_json(p) for p in projs]}
        with pytest.raises(ValidationError) as excinfo:
            measurement_from_json(obj)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("offset,loads", [(0.5 * SNAP_TOL, True), (2 * SNAP_TOL, False)])
    def test_one_snap_tolerance_for_observables_and_measurements(self, offset, loads):
        projs = [p.copy() for p in bell_measurement().projectors]
        projs[0][0, 3] += offset
        obs = random_observable(4, np.random.default_rng(3)).matrix.copy()
        obs[0, 3] += offset
        scenario = scenario_to_json(ideal_scenario())
        state = ideal_scenario().state.matrix.copy()
        state[0, 3] += offset
        scenario["state"] = matrix_to_json(state)
        for parse, obj in ((measurement_from_json, {"projectors": [matrix_to_json(p) for p in projs]}),
                           (observable_from_json, matrix_to_json(obs)),
                           (scenario_from_json, scenario)):
            if loads:
                parse(obj)
            else:
                with pytest.raises(ValidationError, match="not Hermitian"):
                    parse(obj)


class TestObservableFormat:
    @given(st.integers(1, 16), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_nine_digit_round_trip_loads(self, dim, seed):
        obs = random_observable(dim, np.random.default_rng(seed))
        recovered = observable_from_json(json.loads(json_dumps(observable_to_json(obs))))
        assert np.max(np.abs(recovered.matrix - obs.matrix)) <= 1e-8

    def test_passing_matrix_loads_unchanged(self):
        rng = np.random.default_rng(5)
        for obs in (*ideal_scenario().alice, *ideal_scenario().bob, random_observable(6, rng)):
            obj = observable_to_json(obs)
            assert observable_from_json(obj).matrix.tobytes() == matrix_from_json(obj).tobytes()

    @pytest.mark.parametrize("kind,message", [
        ("off-hermitian", "observable is not Hermitian within tolerance"),
        ("scaled", "observable does not square to the identity within tolerance"),
        # within the snap tolerance of Hermitian but not of involutive: the
        # default-tolerance checks fail on Hermiticity first, and that error stands
        ("both", "observable is not Hermitian within tolerance"),
        ("non-square", "observable must be square"),
    ])
    def test_beyond_snap_tolerance_keeps_message(self, kind, message):
        mat = random_observable(4, np.random.default_rng(8)).matrix.copy()
        if kind == "off-hermitian":
            mat[0, 1] += 1e-5
        elif kind == "scaled":
            mat *= 1.0 + 1e-5
        elif kind == "both":
            mat *= 1.0 + 1e-3
            mat[0, 1] += 5e-7
        else:
            mat = mat[:, :3]
        with pytest.raises(ValidationError) as excinfo:
            observable_from_json(matrix_to_json(mat))
        assert str(excinfo.value) == message


class TestScenarioFormat:
    def test_round_trip_preserves_statistics(self):
        from swapcert import chsh_ac

        sc = noisy_scenario(0.9, 0.85, 0.2)
        recovered = scenario_from_json(json.loads(json_dumps(scenario_to_json(sc))))
        assert chsh_ac(recovered) == pytest.approx(chsh_ac(sc), abs=1e-7)
        got, _ = conditional_chsh_ab(recovered)
        want, _ = conditional_chsh_ab(sc)
        np.testing.assert_allclose(got, want, atol=1e-7)

    def test_nine_digit_states_read_back(self):
        # a state written at 9 digits can miss trace 1 or positivity by a few
        # 1e-9 (19 of these 50 do); it is snapped back on load
        rng = np.random.default_rng(1)
        scenarios = [noisy_scenario(*rng.uniform(0.5, 1.0, 2), rng.uniform(0.0, math.pi / 4)) for _ in range(30)]
        for _ in range(20):
            pairs = []
            for _ in range(2):
                local = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
                pairs.append(local @ maximally_entangled_pair(2) @ local.conj().T)
            scenarios.append(replace(ideal_scenario(), state=four_factor_state(*pairs)))
        for sc in scenarios:
            recovered = scenario_from_json(json.loads(json_dumps(scenario_to_json(sc))))
            assert np.max(np.abs(recovered.state.matrix - sc.state.matrix)) <= 1e-8
            assert exact_report(recovered).s_ac == pytest.approx(exact_report(sc).s_ac, abs=1e-7)

    def test_passing_state_loads_unchanged(self):
        for sc in (ideal_scenario(), noisy_scenario(0.9, 0.85, 0.2)):
            obj = scenario_to_json(sc)
            assert scenario_from_json(obj).state.matrix.tobytes() == matrix_from_json(obj["state"]).tobytes()

    @pytest.mark.parametrize("kind,message", [
        ("trace", "trace 1.00001 != 1 within 1e-09"),
        ("negative", "negative eigenvalue -1e-05 below -1e-09"),
    ])
    def test_state_beyond_snap_tolerance_keeps_message(self, kind, message):
        obj = scenario_to_json(ideal_scenario())
        state = np.eye(16) / 16
        if kind == "trace":
            state[0, 0] += 1e-5
        else:
            state[0, 0] -= 1e-5 + 1 / 16
            state[1, 1] += 1e-5 + 1 / 16
        obj["state"] = matrix_to_json(state)
        with pytest.raises(ValidationError) as excinfo:
            scenario_from_json(obj)
        assert str(excinfo.value) == message

    def test_missing_key_rejected(self):
        obj = scenario_to_json(ideal_scenario())
        del obj["charlie3"]
        with pytest.raises(ValidationError):
            scenario_from_json(obj)

    @pytest.mark.parametrize("parse,name", [(scenario_from_json, "scenario"), (report_from_json, "report")])
    @pytest.mark.parametrize("obj", [[], "text", None])
    def test_non_object_rejected(self, parse, name, obj):
        with pytest.raises(ValidationError, match=f"^{name}: expected a JSON object$"):
            parse(obj)


class TestReportFormat:
    def test_round_trip(self):
        report = exact_report(ideal_scenario())
        recovered = report_from_json(json.loads(json_dumps(report_to_json(report))))
        assert recovered.s_ac == pytest.approx(report.s_ac, abs=1e-8)
        assert recovered.relabeling == report.relabeling
        np.testing.assert_allclose(recovered.s_ab_given_c, report.s_ab_given_c, atol=1e-8)

    def test_round_trip_with_stderr(self):
        from swapcert import estimate_report

        report = estimate_report(sample_counts(ideal_scenario(), 2000, seed=4))
        recovered = report_from_json(json.loads(json_dumps(report_to_json(report))))
        assert recovered.stderr is not None
        assert recovered.stderr.s_ac == pytest.approx(report.stderr.s_ac, rel=1e-6)

    def test_nan_serializes_as_null(self):
        report = exact_report(ideal_scenario())
        obj = report_to_json(report)
        obj["s_ab_given_c"][2] = None
        recovered = report_from_json(obj)
        assert math.isnan(recovered.s_ab_given_c[2])

    def test_missing_field_rejected(self):
        obj = report_to_json(exact_report(ideal_scenario()))
        del obj["s_bc"]
        with pytest.raises(ValidationError):
            report_from_json(obj)

    @pytest.mark.parametrize("key, value", [
        ("relabeling", [1, 1, 1, 1]),
        ("relabeling", [0, 1, 2, 3]),
        ("relabeling", [1, 2, 3]),
        ("relabeling", [1.0, 2, 3, 4]),
        ("relabeling", "1234"),
        ("s_ab_given_c", [2.8, 2.8, 2.8]),
        ("outcome_probs", [0.25, 0.25, 0.5]),
        ("outcome_probs", [0.5, 0.5, 0.5, -0.5]),
        ("outcome_probs", [0.9, 0.9, 0.9, 0.9]),
        ("outcome_probs", [0.25, 0.25, 0.25, 0.2500011]),
        ("s_ab_given_c", [5.0, 2.8, 2.8, 2.8]),
        ("s_ab_given_c", [2.8, 2.8, "2.8", 2.8]),
        ("s_ac", -4.5),
        ("s_bc", math.inf),
        ("s_ac", None),
        ("s_ac", True),
    ])
    def test_impossible_report_rejected(self, key, value):
        obj = report_to_json(exact_report(ideal_scenario()))
        obj[key] = value
        with pytest.raises(ValidationError):
            report_from_json(obj)

    @pytest.mark.parametrize("stderr", [
        {"s_ac": 0.01},
        {"s_ac": 0.01, "s_bc": 0.01, "s_ab_given_c": [0.01, 0.01]},
        {"s_ac": "x", "s_bc": 0.01, "s_ab_given_c": [0.01] * 4},
        {"s_ac": -0.01, "s_bc": 0.01, "s_ab_given_c": [0.01] * 4},
        [0.01, 0.01],
    ])
    def test_bad_stderr_rejected(self, stderr):
        obj = report_to_json(exact_report(ideal_scenario()))
        obj["stderr"] = stderr
        with pytest.raises(ValidationError):
            report_from_json(obj)

    def test_values_above_quantum_ceiling_accepted(self):
        # sampled reports can exceed 2*sqrt(2); only the algebraic 4 is a hard limit
        obj = report_to_json(exact_report(ideal_scenario()))
        obj["stderr"] = {"s_ac": 0.01, "s_bc": 0.01, "s_ab_given_c": [0.01, 0.01, None, 0.01]}
        obj["s_ac"] = 2.9
        obj["s_ab_given_c"] = [2.9, 2.83, None, -4.0]
        obj["outcome_probs"] = [0.25, 0.25, 0.25, 0.250000002]
        report = report_from_json(obj)
        assert report.s_ac == 2.9 and report.s_ab_given_c[3] == -4.0

    @pytest.mark.parametrize("key,value", [
        ("s_ac", 2.82842713), ("s_bc", -2.9), ("s_ab_given_c", [2.82842712, 2.82842712, 3.9, None]),
    ])
    def test_exact_values_above_quantum_ceiling_rejected(self, key, value):
        # a report without stderr is exact: ChshReport.validate's ceiling applies
        obj = report_to_json(exact_report(ideal_scenario()))
        obj[key] = value
        with pytest.raises(ValidationError, match="^report: CHSH value -?[0-9.]+ exceeds the quantum ceiling$"):
            report_from_json(obj)

    def test_exact_values_at_quantum_ceiling_read_back(self):
        # 2*sqrt(2) at 9 digits, 2.82842712, is below the ceiling; 1e-9 above it is within DEFAULT_TOL
        obj = report_to_json(exact_report(ideal_scenario()))
        obj["s_ac"], obj["s_bc"] = -2.82842712, TSIRELSON + 0.9e-9
        report = report_from_json(obj)
        assert report.s_ac == -2.82842712 and report.stderr is None

    @pytest.mark.parametrize("path", [("s_ac",), ("s_ab_given_c", 1), ("outcome_probs", 0), ("stderr", "s_bc")],
                             ids=["s_ac", "s_ab_given_c", "outcome_probs", "stderr"])
    def test_integer_past_float_range_rejected(self, path):
        # json.loads keeps 1 followed by 400 zeros as an int, which float() cannot convert
        obj = report_to_json(estimate_report(sample_counts(ideal_scenario(), 200, seed=3)))
        *parents, key = path
        target = obj
        for step in parents:
            target = target[step]
        target[key] = 10**400
        with pytest.raises(ValidationError, match=r"must be a finite number, got 10{19}\.\.\. \(401 digits\)$"):
            report_from_json(obj)


class TestCountsCsv:
    def test_round_trip(self):
        table = sample_counts(ideal_scenario(), 750, seed=21)
        text = counts_to_csv(table)
        assert text.splitlines()[0] == "x,y,z,a,b,c,count"
        recovered = counts_from_csv(text)
        np.testing.assert_array_equal(recovered.counts, table.counts)
        assert recovered.n_per_setting == 750

    def test_writer_matches_row_by_row_reference(self):
        # seeded tables with zero cells, and one with a count of 18 digits, the writer's longest
        rng = np.random.default_rng(2500)
        tables = [sample_counts(noisy_scenario(0.9, 0.8, 0.4), 7, seed=3)]
        for _ in range(20):
            counts = rng.integers(0, 10 ** rng.integers(1, 12), size=(2, 2, 3, 2, 2, 4))
            counts[rng.random(counts.shape) < 0.3] = 0
            counts[..., 0] += 1  # every setting triple keeps a positive total
            tables.append(CountsTable(counts))
        long_count = tables[-1].counts.copy()
        long_count[1, 0, 2, 1, 0, 3] = 987_654_321_012_345_678
        tables.append(CountsTable(long_count))
        assert any(not t.counts.all() for t in tables)
        for table in tables:
            assert counts_to_csv(table) == reference_counts_to_csv(table)
        assert "2,1,3,-1,1,4,987654321012345678\n" in counts_to_csv(tables[-1])

    def test_malformed_row_reports_line(self):
        table = sample_counts(ideal_scenario(), 10, seed=1)
        lines = counts_to_csv(table).splitlines()
        lines[5] = "1,1,oops,1,1,1,3"
        with pytest.raises(ValidationError, match="line 6"):
            counts_from_csv("\n".join(lines))

    def test_out_of_range_outcome_reports_line(self):
        table = sample_counts(ideal_scenario(), 10, seed=1)
        lines = counts_to_csv(table).splitlines()
        lines[3] = "1,1,1,2,1,1,3"
        with pytest.raises(ValidationError, match="line 4"):
            counts_from_csv("\n".join(lines))

    def test_missing_setting_rejected(self):
        table = sample_counts(ideal_scenario(), 10, seed=1)
        lines = [
            line
            for line in counts_to_csv(table).splitlines()
            if not line.startswith("2,2,3")
        ]
        with pytest.raises(ValidationError, match=r"\(2,2,3\)"):
            counts_from_csv("\n".join(lines))

    def test_wrong_header_rejected(self):
        with pytest.raises(ValidationError, match="line 1"):
            counts_from_csv("a,b,c\n1,2,3")


COUNTS_SHAPE = (2, 2, 3, 2, 2, 4)
HEADER = "x,y,z,a,b,c,count"


def canonical_rows(counts: np.ndarray) -> list[list[str]]:
    """The fields of every cell, zeros included, in the writer's row order, by explicit loops."""
    rows = []
    for x in (1, 2):
        for y in (1, 2):
            for z in (1, 2, 3):
                for ia, a in enumerate((1, -1)):
                    for ib, b in enumerate((1, -1)):
                        for c in (1, 2, 3, 4):
                            n = int(counts[x - 1, y - 1, z - 1, ia, ib, c - 1])
                            rows.append([str(v) for v in (x, y, z, a, b, c, n)])
    return rows


def random_counts(rng: np.random.Generator) -> np.ndarray:
    """Counts of up to 15 digits with about a fifth of the cells zero and every triple positive."""
    counts = rng.integers(0, 10 ** rng.integers(1, 16, size=COUNTS_SHAPE)) * (rng.random(COUNTS_SHAPE) > 0.2)
    counts[..., 0, 0, 0] += 1
    return counts


def respell(field: str, rng: np.random.Generator) -> str:
    """Another spelling ``int()`` reads as the same integer: padded, signed, zero-led or quoted."""
    sign, digits = ("-", field[1:]) if field.startswith("-") else ("", field)
    options = [f" {field}", f"{field} ", f"{sign}0{digits}", f'"{field}"', f" {sign}00{digits} "]
    if not sign:
        options.append(f"+{field}")
    return options[rng.integers(len(options))]


def noisy(rows: list[list[str]], rng: np.random.Generator) -> list[list[str]]:
    """Rows shuffled, with about a tenth of the fields respelled."""
    rows = [[respell(f, rng) if rng.random() < 0.1 else f for f in row] for row in rows]
    rng.shuffle(rows)
    return rows


def split_duplicates(rows: list[list[str]], rng: np.random.Generator) -> list[list[str]]:
    """Some rows split in two whose counts add up, and some zero rows repeated."""
    out = []
    for row in rows:
        n = int(row[6])
        if n and rng.random() < 0.3:
            part = int(rng.integers(0, n + 1))
            out += [row[:6] + [str(part)], row[:6] + [str(n - part)]]
        else:
            out += [row] * (2 if n == 0 and rng.random() < 0.3 else 1)
    return out


def render(rows: list[list[str]], rng: np.random.Generator, crlf: bool, blanks: bool) -> str:
    """CSV text of ``rows`` under the header, with CRLF line ends and blank lines if asked."""
    lines = [HEADER, *(",".join(row) for row in rows)]
    if blanks:
        for _ in range(int(rng.integers(1, 6))):
            lines.insert(int(rng.integers(1, len(lines) + 1)), ["", "  "][rng.integers(2)])
        lines += [""] * int(rng.integers(0, 3))
    eol = "\r\n" if crlf else "\n"
    return eol.join(lines) + eol


# Malformations of one row. Each touches only its own fields (the wrong field
# count, applied last, excepted), so several can land on one line.
def _setting(row, rng, untouched):
    field = int(rng.integers(3))
    row[field] = str(rng.choice([0, 3, -1] if field < 2 else [0, 4]))
    untouched.discard(field)


def _outcome(row, rng, untouched):
    field = int(3 + rng.integers(3))
    row[field] = str(rng.choice([0, 2, -2] if field < 5 else [0, 5]))
    untouched.discard(field)


def _negative(row, rng, untouched):
    row[6] = f"-{rng.integers(1, 10)}"
    untouched.discard(6)


def _non_integer(row, rng, untouched):
    row[rng.choice(sorted(untouched))] = str(rng.choice(["x", "1.5", "", "1e3", "--1"]))


def _field_count(row, rng, untouched):
    if rng.random() < 0.5:
        row.append("1")
    else:
        del row[rng.integers(len(row))]


ROW_ERRORS = {
    "setting": (_setting, "setting"),
    "outcome": (_outcome, "outcome"),
    "negative": (_negative, "negative count"),
    "non_integer": (_non_integer, "non-integer field"),
    "field_count": (_field_count, "expected 7 fields"),
}
# Malformations put on one line, and the one whose message that line gives:
# field count, non-integer field, setting range, outcome range, negative count.
LINE_CASES = [((kind,), kind) for kind in ROW_ERRORS] + [
    (("setting", "non_integer"), "non_integer"),
    (("outcome", "non_integer"), "non_integer"),
    (("negative", "non_integer"), "non_integer"),
    (("setting", "outcome"), "setting"),
    (("setting", "negative"), "setting"),
    (("outcome", "negative"), "outcome"),
    (("non_integer", "field_count"), "field_count"),
    (("setting", "outcome", "negative", "non_integer"), "non_integer"),
]
CORPUS_KINDS = ["clean", "noisy", "duplicates", "spaced_header", "bad_header", "missing_triple",
                "zero_triple", *(f"line_{'+'.join(kinds)}" for kinds, _ in LINE_CASES)]


def break_line(rows, rng, kinds, lo=0) -> int:
    """Apply the malformations ``kinds`` to one random row at or after ``lo``; return its index."""
    k = int(rng.integers(lo, len(rows)))
    untouched = set(range(7))
    for kind in kinds:
        ROW_ERRORS[kind][0](rows[k], rng, untouched)
    return k


def corpus_case(kind: str, rng: np.random.Generator) -> tuple[str, str | None]:
    """A counts CSV of one kind, with a fragment of the message it must give (None: it parses)."""
    rows = canonical_rows(random_counts(rng))
    crlf, blanks = bool(rng.integers(2)), bool(rng.integers(2))
    if kind == "clean":
        return render(rows, rng, False, False), None
    if kind == "spaced_header":
        return render(rows, rng, crlf, blanks).replace(HEADER, " x, y ,z,a,b ,c,count ", 1), None
    if kind == "bad_header":
        return render(rows, rng, crlf, blanks).replace("count", "counts", 1), "line 1"
    if kind == "duplicates":
        return render(noisy(split_duplicates(rows, rng), rng), rng, crlf, blanks), None
    if kind in ("missing_triple", "zero_triple"):
        triple = [str(rng.integers(1, 3)), str(rng.integers(1, 3)), str(rng.integers(1, 4))]
        if kind == "missing_triple":
            rows = [row for row in rows if row[:3] != triple]
        else:
            rows = [row[:6] + ["0"] if row[:3] == triple else row for row in rows]
        return render(noisy(rows, rng), rng, crlf, blanks), f"({','.join(triple)})"
    rows = noisy(rows, rng)
    if kind == "noisy":
        return render(rows, rng, crlf, blanks), None
    kinds, first = next(case for case in LINE_CASES if kind == f"line_{'+'.join(case[0])}")
    k = break_line(rows, rng, kinds)
    if k + 1 < len(rows) and rng.random() < 0.5:  # a later bad line must not win
        break_line(rows, rng, [str(rng.choice(list(ROW_ERRORS)))], lo=k + 1)
    return render(rows, rng, crlf, blanks), ROW_ERRORS[first][1]


def parse_outcome(parser, text: str) -> tuple[str, np.ndarray | None, int | None]:
    """``(message, None, None)`` if ``parser`` rejects ``text``, else ``("", counts, n_per_setting)``."""
    try:
        table = parser(text)
    except ValidationError as exc:
        return str(exc), None, None
    return "", table.counts, table.n_per_setting


def assert_same_parse(text: str) -> str:
    """Both parsers give the same table or the same message; returns the message."""
    message, counts, n = parse_outcome(counts_from_csv, text)
    want_message, want_counts, want_n = parse_outcome(reference_counts_from_csv, text)
    assert message == want_message
    if not message:
        np.testing.assert_array_equal(counts, want_counts)
        assert n == want_n
    return message


class TestCountsCsvAgainstReference:
    @pytest.mark.parametrize("kind", CORPUS_KINDS)
    def test_same_table_or_message_as_reference(self, kind):
        for seed in range(8):
            text, fragment = corpus_case(kind, np.random.default_rng([seed, CORPUS_KINDS.index(kind)]))
            message = assert_same_parse(text)
            assert (fragment or "") in message and bool(fragment) == bool(message)

    def test_empty_text(self):
        for text in ("", "\n", "\r\n\r\n"):
            assert assert_same_parse(text)

    def test_other_spellings_read_as_integers(self):
        counts = random_counts(np.random.default_rng(5))
        rows = canonical_rows(counts)
        rows[0][:6] = [" 1", "+1", "01", '"1"', "+01", " 1 "]
        rows[1][3:] = ["01", " +1", '"2"', "+" + rows[1][6]]
        rows[16 + 15][3:6] = ["-01", " -1 ", '"4"']  # cell (1,1,2,-1,-1,4), respelled
        text = render(rows, None, True, False) + "\r\n\r\n"
        np.testing.assert_array_equal(counts_from_csv(text).counts, counts)

    @given(st.lists(
        st.lists(st.integers(0, 2**62 // 192), min_size=16, max_size=16).map(
            lambda cells: cells if any(cells) else [1, *cells[1:]]),
        min_size=12, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random_tables(self, triples):
        counts = np.array(triples, dtype=np.int64).reshape(COUNTS_SHAPE)
        table = CountsTable(counts)
        text = counts_to_csv(table)
        recovered = counts_from_csv(text)
        assert np.array_equal(recovered.counts, counts)
        assert recovered.n_per_setting == table.n_per_setting
        assert counts_to_csv(recovered) == text
        assert text.splitlines()[1:] == [",".join(row) for row in canonical_rows(counts)]


class TestCountsOverflow:
    def rows(self):
        return canonical_rows(random_counts(np.random.default_rng(9)))

    @pytest.mark.parametrize("count,shown", [
        (str(2**63), str(2**63)),
        ("100000000000000000000", "100000000000000000000"),
        ("9" * 400, "99999999999999999999... (400 digits)"),
        ("9" * 21, "99999999999999999999... (21 digits)"),
        ("1" + "0" * 5000, "10000000000000000000... (5001 digits)"),
        (" +" + "0" * 5000 + "9" * 5000, "99999999999999999999... (5000 digits)"),
        ("٣" * 30, "33333333333333333333... (30 digits)"),
    ], ids=["2**63", "10**20", "400 digits", "21 digits", "5001 digits", "zero-led 5000 digits", "arabic-indic"])
    def test_count_above_int64_names_its_line(self, count, shown):
        # past 20 digits a count is echoed as its first 20 and its length, also past int()'s 4300
        rows = self.rows()
        rows[40][6] = count
        assert assert_same_parse(render(rows, None, False, False)) == f"line 42: count {shown} does not fit in int64"

    @pytest.mark.parametrize("field,value,message", [
        (6, "-" + "9" * 5000, "negative count"),
        (0, "9" * 5000, "setting (99999999999999999999... (5000 digits),{1},{2}) out of range"),
        (4, " -" + "0" * 10 + "8" * 5000, "outcome ({3},-88888888888888888888... (5000 digits),{5}) out of range"),
    ], ids=["negative count", "setting", "negative outcome"])
    def test_long_field_is_read_as_a_number(self, field, value, message):
        # every field is read past int()'s 4300 digits, and echoed as a long count is
        rows = self.rows()
        rows[40][field] = value
        want = f"line 42: {message.format(*rows[40])}"
        assert assert_same_parse(render(rows, None, False, False)) == want

    @pytest.mark.parametrize("count", ["0" * 5000 + "7", "٠" * 30 + "7"], ids=["5000 zeros", "arabic-indic zeros"])
    def test_zero_led_count_is_read(self, count):
        rows = self.rows()
        rows[40][6] = count
        text = render(rows, None, False, False)
        assert assert_same_parse(text) == ""
        assert counts_from_csv(text).counts.reshape(-1)[40] == 7

    def test_largest_int64_count_is_read(self):
        rows = [row[:6] + ["0"] for row in self.rows()]
        for k in range(0, 192, 16):
            rows[k][6] = "1"
        rows[17][6] = str(2**63 - 13)
        table = counts_from_csv(render(rows, None, False, False))
        assert table.counts.sum() == 2**63 - 1 and table.n_per_setting == 2**63 - 12

    def test_total_above_int64_rejected(self):
        rows = self.rows()
        rows += [rows[0][:6] + [str(2**62)], rows[0][:6] + [str(2**62)]]
        with pytest.raises(ValidationError, match="^total count does not fit in int64$"):
            counts_from_csv(render(rows, None, False, False))


def writer_layout_rows(rng: np.random.Generator) -> list[list[str]]:
    """The rows of a random table in the writer's order: zeros, and counts up to 2**62 // 192."""
    counts = rng.integers(0, 2**62 // 192, size=COUNTS_SHAPE, endpoint=True) * (rng.random(COUNTS_SHAPE) > 0.3)
    counts[..., 0, 0, 0] += 1
    return canonical_rows(counts)


def swapped(rows):
    rows = [list(row) for row in rows]
    rows[7], rows[8] = rows[8], rows[7]
    return rows


# Texts one step from the writer's layout, read row by row.
NEAR_MISSES = {
    "crlf": lambda rows: render(rows, None, True, False),
    "trailing_blank_line": lambda rows: render(rows, None, False, False) + "\n",
    "no_final_newline": lambda rows: render(rows, None, False, False)[:-1],
    "plus_count": lambda rows: render([rows[0][:6] + ["+" + rows[0][6]], *rows[1:]], None, False, False),
    "zero_led_prefix": lambda rows: render([["01", *rows[0][1:]], *rows[1:]], None, False, False),
    "rows_swapped": lambda rows: render(swapped(rows), None, False, False),
    "row_duplicated": lambda rows: render([*rows[:9], rows[8], *rows[9:]], None, False, False),
    "zero_led_count": lambda rows: render([rows[0][:6] + ["0" + rows[0][6]], *rows[1:]], None, False, False),
}


class TestCountsWriterLayout:
    """The writer's own layout is read in one match, with the result of the row-by-row reader."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_writer_output_matches_reference(self, seed):
        text = render(writer_layout_rows(np.random.default_rng(seed)), None, False, False)
        assert _writer_counts(text) is not None
        assert assert_same_parse(text) == ""

    @pytest.mark.parametrize("count,fast,message", [
        ("0", True, "empty cells: zero total count for setting triple (1,1,2)"),
        ("9" * 18, True, ""),
        (str(2**63 - 1), False, "total count does not fit in int64"),
        (str(2**63), False, f"line 18: count {2**63} does not fit in int64"),
        ("9" * 5000, False, "line 18: count 99999999999999999999... (5000 digits) does not fit in int64"),
    ], ids=["zero_total_triple", "18_digits", "int64_max", "above_int64", "5000_digits"])
    def test_edge_counts_match_reference(self, count, fast, message):
        rows = [row[:6] + ["0"] if row[:3] == ["1", "1", "2"] else row
                for row in writer_layout_rows(np.random.default_rng(4))]
        rows[16][6] = count  # the first cell of triple (1,1,2), on line 18
        text = render(rows, None, False, False)
        assert (_writer_counts(text) is not None) == fast
        assert assert_same_parse(text) == message

    def test_total_above_int64_in_writer_layout(self):
        rows = writer_layout_rows(np.random.default_rng(5))
        for k in range(0, 160, 16):
            rows[k][6] = "9" * 18
        text = render(rows, None, False, False)
        assert _writer_counts(text) is not None
        assert assert_same_parse(text) == "total count does not fit in int64"

    @pytest.mark.parametrize("line,message", [
        ("123", "line 6: expected 7 fields, got 1"),
        ("1,1,1,1,1,1,", "line 6: non-integer field"),
        ("1,1,1,1,1,1,5,6", "line 6: expected 7 fields, got 8"),
        ("1,1,1,1,1,1,5x", "line 6: non-integer field"),
        ("1,1,1,1,1,1,٣", ""),  # a digit int() reads, though not ASCII
    ])
    def test_bad_row_in_writer_layout_is_read_row_by_row(self, line, message):
        rows = writer_layout_rows(np.random.default_rng(6))
        lines = render(rows, None, False, False).split("\n")
        lines[5] = line.replace("1,1,1,1,1,1,", ",".join(rows[4][:6]) + ",")
        text = "\n".join(lines)
        assert _writer_counts(text) is None
        assert assert_same_parse(text) == message

    @pytest.mark.parametrize("kind", list(NEAR_MISSES))
    def test_near_misses_are_read_row_by_row(self, kind):
        for seed in range(4):
            text = NEAR_MISSES[kind](writer_layout_rows(np.random.default_rng([seed, 11])))
            assert _writer_counts(text) is None
            assert assert_same_parse(text) == ""

    def test_writer_output_never_reaches_csv_reader(self, monkeypatch):
        import csv

        def refuse(*args, **kwargs):
            raise AssertionError("csv.reader called on writer output")

        monkeypatch.setattr(csv, "reader", refuse)
        tables = [sample_counts(noisy_scenario(0.95, 0.97, 0.26), n, seed=seed)
                  for n, seed in ((1, 0), (50, 7), (250_000, 2**32 + 1))]
        for table in tables:
            recovered = counts_from_csv(counts_to_csv(table))
            assert recovered.counts.tobytes() == table.counts.tobytes()
            assert recovered.n_per_setting == table.n_per_setting
        for seed in range(20):
            rows = writer_layout_rows(np.random.default_rng([seed, 12]))
            counts_from_csv(render(rows, None, False, False))
        with pytest.raises(AssertionError, match="csv.reader"):
            counts_from_csv(NEAR_MISSES["crlf"](rows))
