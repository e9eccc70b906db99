import json
import math

import numpy as np
import pytest

from swapcert import ValidationError, bell_measurement, ideal_scenario, noisy_scenario
from swapcert.protocol import exact_report, sample_counts
from swapcert.serialize import (
    binned_from_json,
    binned_to_json,
    counts_from_csv,
    counts_to_csv,
    json_dumps,
    matrix_from_json,
    matrix_to_json,
    measurement_from_json,
    measurement_to_json,
    report_from_json,
    report_to_json,
    round9,
    scenario_from_json,
    scenario_to_json,
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


class TestMeasurementFormat:
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


class TestScenarioFormat:
    def test_round_trip_preserves_statistics(self):
        from swapcert import chsh_ac, conditional_chsh_ab

        sc = noisy_scenario(0.9, 0.85, 0.2)
        recovered = scenario_from_json(json.loads(json_dumps(scenario_to_json(sc))))
        assert chsh_ac(recovered) == pytest.approx(chsh_ac(sc), abs=1e-7)
        got, _ = conditional_chsh_ab(recovered)
        want, _ = conditional_chsh_ab(sc)
        np.testing.assert_allclose(got, want, atol=1e-7)

    def test_missing_key_rejected(self):
        obj = scenario_to_json(ideal_scenario())
        del obj["charlie3"]
        with pytest.raises(ValidationError):
            scenario_from_json(obj)


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
        obj["s_ac"] = 2.9
        obj["s_ab_given_c"] = [2.9, 2.83, None, -4.0]
        obj["outcome_probs"] = [0.25, 0.25, 0.25, 0.250000002]
        report = report_from_json(obj)
        assert report.s_ac == 2.9 and report.s_ab_given_c[3] == -4.0


class TestCountsCsv:
    def test_round_trip(self):
        table = sample_counts(ideal_scenario(), 750, seed=21)
        text = counts_to_csv(table)
        assert text.splitlines()[0] == "x,y,z,a,b,c,count"
        recovered = counts_from_csv(text)
        np.testing.assert_array_equal(recovered.counts, table.counts)
        assert recovered.n_per_setting == 750

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
