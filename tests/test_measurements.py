import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapcert import (
    BinnedMeasurement,
    DichotomicObservable,
    FourOutcomeMeasurement,
    ValidationError,
    bell_basis,
    bell_measurement,
    charlie_settings_ideal,
    perturbed_bell_measurement,
    product_measurement,
    qubit_observable,
)
from swapcert import measurements
from swapcert.measurements import checked_bits
from swapcert.serialize import matrix_to_json, observable_from_json, observable_to_json
from support import (
    I2,
    X,
    Z,
    bit_observable,
    eigenstates,
    haar_unitary,
    kron_all,
    random_binned,
    random_observable,
    reference_perturbed_bell_measurement,
    reference_validate_factor,
    reference_validate_projectors,
    rotated_bell_measurement,
    to_density,
)

SQRT2 = math.sqrt(2.0)
# a seeded sweep over two full turns each way, and the extremes of the finite doubles
THETA_SWEEP = [float(t) for t in np.random.default_rng(27).uniform(-2 * math.pi, 2 * math.pi, 200)]
THETA_SWEEP += [1e-300, 1e300]


class TestQubitObservable:
    def test_z(self):
        np.testing.assert_allclose(qubit_observable((0, 0, 1)).matrix, Z, atol=1e-12)

    def test_diagonal_setting_squares_to_identity(self):
        obs = qubit_observable((1 / SQRT2, 0, 1 / SQRT2))
        np.testing.assert_allclose(obs.matrix, (Z + X) / SQRT2, atol=1e-12)
        np.testing.assert_allclose(obs.matrix @ obs.matrix, I2, atol=1e-12)

    def test_x_eigenvectors(self):
        obs = qubit_observable((1, 0, 0))
        w, v = np.linalg.eigh(obs.matrix)
        np.testing.assert_allclose(w, [-1, 1], atol=1e-12)
        plus = np.array([1, 1]) / SQRT2
        assert abs(np.vdot(v[:, 1], plus)) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_unit(self):
        with pytest.raises(ValidationError):
            qubit_observable((1, 1, 0))

    def test_rejects_non_involution(self):
        with pytest.raises(ValidationError):
            DichotomicObservable(np.diag([1.0, 0.5]))


@pytest.mark.parametrize("build,message", [
    (lambda: qubit_observable([1.0, 0.0]), "^Bloch vector must have three components$"),
    (lambda: checked_bits(5, "bits"), r"^bits must map all four outcomes to -1 or \+1$"),
    (lambda: DichotomicObservable(np.zeros((0, 0))), "^observable must be at least 1x1$"),
], ids=["two-component Bloch vector", "bits not a sequence", "empty observable"])
def test_rejections_name_their_cause(build, message):
    with pytest.raises(ValidationError, match=message):
        build()


class TestBellBasis:
    def test_first_state(self):
        expected = np.array([1, 0, 0, 1]) / SQRT2
        np.testing.assert_allclose(bell_basis()[0].vector, expected, atol=1e-12)

    def test_order(self):
        b = [s.vector for s in bell_basis()]
        np.testing.assert_allclose(b[1], np.array([1, 0, 0, -1]) / SQRT2, atol=1e-12)
        np.testing.assert_allclose(b[2], np.array([0, 1, 1, 0]) / SQRT2, atol=1e-12)
        np.testing.assert_allclose(b[3], np.array([0, 1, -1, 0]) / SQRT2, atol=1e-12)

    def test_orthonormal(self):
        basis = bell_basis()
        for i in range(4):
            for j in range(4):
                expected = 1.0 if i == j else 0.0
                assert abs(np.vdot(basis[i].vector, basis[j].vector)) == pytest.approx(
                    expected, abs=1e-12
                )

    def test_built_once_and_read_only(self):
        basis = bell_basis()
        assert bell_basis() is basis
        before = [s.vector.copy() for s in basis]
        perturbed_bell_measurement(0.4, pair=1)
        perturbed_bell_measurement(-1.1, pair=2)
        for state, vector in zip(basis, before):
            assert not state.vector.flags.writeable
            np.testing.assert_array_equal(state.vector, vector)
        with pytest.raises(ValueError):
            basis[0].vector[0] = 1.0

    def test_marginals_maximally_mixed(self):
        from swapcert import partial_trace

        for state in bell_basis():
            for keep in ((0,), (1,)):
                reduced = partial_trace(to_density(state), keep)
                np.testing.assert_allclose(reduced.matrix, I2 / 2, atol=1e-12)


class TestBellMeasurement:
    def test_completeness(self):
        total = sum(bell_measurement().projectors)
        np.testing.assert_allclose(total, np.eye(4), atol=1e-12)

    def test_projection_probability_from_00(self):
        ket00 = np.zeros(4)
        ket00[0] = 1.0
        p = ket00 @ bell_measurement().projectors[0] @ ket00
        assert p.real == pytest.approx(0.5, abs=1e-12)

    def test_equals_unperturbed(self):
        ideal = bell_measurement()
        perturbed = perturbed_bell_measurement(0.0)
        for p, q in zip(ideal.projectors, perturbed.projectors):
            np.testing.assert_allclose(p, q, atol=1e-12)

    def test_built_once_and_read_only(self):
        meas = bell_measurement()
        assert bell_measurement() is meas
        for proj in meas.projectors:
            with pytest.raises(ValueError):
                proj[0, 0] = 0.0


class TestPerturbedBellMeasurement:
    def test_quarter_turn_swaps_pair(self):
        meas = perturbed_bell_measurement(math.pi / 2, pair=1)
        ideal = bell_measurement()
        np.testing.assert_allclose(meas.projectors[0], ideal.projectors[3], atol=1e-12)
        np.testing.assert_allclose(meas.projectors[3], ideal.projectors[0], atol=1e-12)

    def test_rotation_overlap(self):
        meas = perturbed_bell_measurement(math.pi / 12, pair=1)
        e1 = eigenstates(meas)[0]
        overlap = abs(np.vdot(e1, bell_basis()[0].vector)) ** 2
        assert overlap == pytest.approx(math.cos(math.pi / 12) ** 2, abs=1e-12)

    @pytest.mark.parametrize("pair", [1, 2])
    @pytest.mark.parametrize("theta", [0.1, 0.7, 1.3, 2.9])
    def test_rotated_pair_overlaps_sum_to_one(self, theta, pair):
        meas = perturbed_bell_measurement(theta, pair=pair)
        states = eigenstates(meas)
        basis = [s.vector for s in bell_basis()]
        for c in (pair - 1, 4 - pair):
            total = (
                abs(np.vdot(states[c], basis[c])) ** 2
                + abs(np.vdot(states[c], basis[3 - c])) ** 2
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("pair", [1, 2])
    @pytest.mark.parametrize("theta", [0.0, math.pi / 4, -math.pi / 4, math.pi, 1e-12, *THETA_SWEEP])
    def test_matches_reference_bytes(self, theta, pair):
        meas = perturbed_bell_measurement(theta, pair=pair)
        expected = reference_perturbed_bell_measurement(theta, pair)
        for p, q in zip(meas.projectors, expected.projectors):
            assert p.dtype == q.dtype and p.shape == q.shape
            assert p.tobytes() == q.tobytes()
        assert meas.projector_stack.tobytes() == expected.projector_stack.tobytes()

    def test_always_valid(self):
        for theta in np.linspace(0, math.pi, 7):
            perturbed_bell_measurement(float(theta), pair=2).validate()

    def test_bad_pair(self):
        with pytest.raises(ValidationError):
            perturbed_bell_measurement(0.3, pair=3)

    @pytest.mark.parametrize("pair", [1.0, 2.0, True, "1", None])
    def test_rejects_non_integer_pair(self, pair):
        with pytest.raises(ValidationError, match=f"^pair must be an integer, got {pair!r}$"):
            perturbed_bell_measurement(0.1, pair=pair)

    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
    def test_non_finite_theta(self, theta):
        with pytest.raises(ValidationError, match="theta"):
            perturbed_bell_measurement(theta)


class TestFromVectors:
    @pytest.mark.parametrize("vectors,dims,message", [
        (np.eye(4)[:3], (2, 2), r"^expected 4 vectors of length 4, got shape \(3, 4\)$"),
        (np.eye(4), (2, 3), r"^expected 4 vectors of length 6, got shape \(4, 4\)$"),
        (np.eye(4).reshape(4, 2, 2), (2, 2), r"^expected 4 vectors of length 4, got shape \(4, 2, 2\)$"),
        (np.where(np.eye(4) == 1, np.nan, 0.0), (2, 2), "^vectors have non-finite entries$"),
        (np.diag([1.0, 1.0, 1.0, np.inf]), (2, 2), "^vectors have non-finite entries$"),
        (np.eye(4)[[0, 0, 1, 2]], (2, 2), "^vectors are not orthonormal within tolerance$"),
        (np.eye(4) * (1.0 + 1e-8), (2, 2), "^vectors are not orthonormal within tolerance$"),
        (np.eye(6)[:4], (2, 3), "^vectors do not span the space within tolerance$"),
    ], ids=["three vectors", "short vectors", "not 2-D", "NaN", "inf", "repeated", "not unit", "incomplete"])
    def test_rejections_name_their_cause(self, vectors, dims, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=message):
                FourOutcomeMeasurement.from_vectors(vectors, dims)

    @pytest.mark.parametrize("dims", [(-2, -2), (0, 4)])
    def test_rejects_dims_below_one(self, dims):
        with pytest.raises(ValidationError, match="must all be at least 1"):
            FourOutcomeMeasurement.from_vectors(np.eye(4), dims)

    @pytest.mark.parametrize("dims,message", [
        ((4,), r"^dims \(4,\) must have 2 entries$"),
        ((2, 2, 1), r"^dims \(2, 2, 1\) must have 2 entries$"),
        (4, r"^dims must be a sequence of integers, got 4$"),
        ((2.0, 2), r"^each dimension must be an integer, got 2.0$"),
    ])
    def test_rejects_dims_of_wrong_shape_or_type(self, dims, message):
        with pytest.raises(ValidationError, match=message):
            FourOutcomeMeasurement.from_vectors(np.eye(4), dims)

    def test_projectors_are_views_of_one_read_only_stack(self):
        meas = FourOutcomeMeasurement.from_vectors(haar_unitary(4, np.random.default_rng(3)), (2, 2))
        assert meas.projector_stack.shape == (4, 4, 4) and not meas.projector_stack.flags.writeable
        for k, proj in enumerate(meas.projectors):
            assert proj.base is meas.projector_stack
            assert np.shares_memory(proj, meas.projector_stack[k])
            with pytest.raises(ValueError):
                proj[0, 0] = 0.0

    def test_entries_are_the_bytes_of_np_outer(self):
        rng = np.random.default_rng(4)
        for dims in ((2, 2), (1, 4), (4, 1)):
            vecs = haar_unitary(4, rng)
            meas = FourOutcomeMeasurement.from_vectors(vecs, dims)
            assert meas.dims == dims
            for v, proj in zip(vecs, meas.projectors):
                assert proj.tobytes() == np.outer(v, v.conj()).tobytes()

    @pytest.mark.parametrize("theta", [0.0, 0.26, -1.3, 2.9, 1e300])
    def test_bell_stacks_are_exactly_hermitian(self, theta):
        for meas in (bell_measurement(), perturbed_bell_measurement(theta, 1), perturbed_bell_measurement(theta, 2)):
            stack = meas.projector_stack
            assert np.array_equal(stack, stack.conj().swapaxes(1, 2))

    def test_bell_measurements_skip_the_projector_checks(self, monkeypatch):
        def fail(*args):
            raise AssertionError("projector checks run")
        monkeypatch.setattr(measurements, "_projector_failures", fail)
        bell_measurement.__wrapped__()
        perturbed_bell_measurement(0.26, 1)
        perturbed_bell_measurement(-1.3, 2)

    @given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([0.0, 1e-12, 3e-10, 1e-9, 3e-9, 1e-6]))
    @settings(max_examples=400, derandomize=True, deadline=None)
    def test_accepted_vectors_give_valid_projectors(self, seed, scale):
        """Soundness: if the rows V pass at ``tol``, their outer products pass the projector checks at tol (1 + tol).

        With G = V* V^T, P_j P_k - delta_jk P_k = G_jk v_j v_k^dagger, and
        every entry of v is at most |v| <= sqrt(1 + tol); the sum of the
        P_k is V^T V*, which is checked directly.
        """
        tol = 1e-9
        rng = np.random.default_rng(seed)
        noise = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        vecs = haar_unitary(4, rng) + scale * noise / np.max(np.abs(noise))
        try:
            FourOutcomeMeasurement.from_vectors(vecs, (2, 2), tol)
        except ValidationError:
            assert scale > 0.0
            return
        reference_validate_projectors([np.outer(v, v.conj()) for v in vecs], 4, tol * (1.0 + tol))


def involution_residual(mat: np.ndarray) -> float:
    return float(np.max(np.abs(mat @ mat - np.eye(mat.shape[0]))))


class TestInvolutionResidual:
    """The construction check's max|A^2 - I| is kept, preset, and equal bit for bit to a fresh computation."""

    @staticmethod
    def assert_preset(obs: DichotomicObservable) -> None:
        assert "involution_residual" in obs.__dict__
        assert obs.involution_residual == involution_residual(obs.matrix)
        assert type(obs.involution_residual) is float

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 16])
    def test_built_directly(self, d):
        rng = np.random.default_rng(d)
        for obs in (random_observable(d, rng), DichotomicObservable(np.eye(d) * (1.0 + 2e-10))):
            self.assert_preset(obs)
        assert DichotomicObservable(np.eye(d) * (1.0 + 2e-10)).involution_residual > 0.0

    def test_read_from_json(self):
        exact = observable_from_json(observable_to_json(qubit_observable((0.6, 0.0, 0.8))))
        self.assert_preset(exact)
        # 2e-7 from squaring to I: only the snap tolerance accepts it, and the snapped matrix is kept
        off = (1.0 + 1e-7) * Z
        snapped = observable_from_json(matrix_to_json(off))
        assert involution_residual(off) > 1e-9 >= snapped.involution_residual
        self.assert_preset(snapped)

    def test_replaced_observable_recomputes(self):
        obs = random_observable(4, np.random.default_rng(5))
        other = dataclasses.replace(obs, matrix=-obs.matrix)
        self.assert_preset(other)
        assert dataclasses.replace(obs).involution_residual == obs.involution_residual

    def test_cannot_be_assigned(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            qubit_observable((0.0, 0.0, 1.0)).involution_residual = 0.0


def _observables():
    rng = np.random.default_rng(17)
    return [qubit_observable((0.0, 0.0, 1.0)), qubit_observable((0.6, 0.0, 0.8)),
            *(random_observable(d, rng) for d in (1, 2, 3, 5))]


def _measurements():
    rng = np.random.default_rng(18)
    return [bell_measurement(), perturbed_bell_measurement(0.3, pair=2), rotated_bell_measurement(rng),
            charlie_settings_ideal()[0].base,
            random_binned((2, 3), rng).base, random_binned((3, 3), rng).base]


class TestProjectorStacks:
    @pytest.mark.parametrize("k", range(6))
    def test_observable_stack(self, k):
        obs = _observables()[k]
        stack = obs.projector_stack
        assert obs.projector_stack is stack
        assert stack.shape == (2, obs.dim, obs.dim)
        expected = np.array(obs.projectors())
        assert stack.dtype == expected.dtype and stack.tobytes() == expected.tobytes()
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 0.0

    @pytest.mark.parametrize("k", range(6))
    def test_measurement_stack(self, k):
        meas = _measurements()[k]
        stack = meas.projector_stack
        assert meas.projector_stack is stack
        assert stack.shape == (4, meas.dim, meas.dim)
        assert all(proj.base is stack for proj in meas.projectors)  # either constructor: views of its rows
        expected = np.array(meas.projectors)
        assert stack.dtype == expected.dtype and stack.tobytes() == expected.tobytes()
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 0.0

    def test_shared_ideal_settings_keep_their_stacks(self):
        from swapcert import noisy_scenario

        first, second = noisy_scenario(0.9, 0.8, 0.2), noisy_scenario(0.5, 1.0, -1.0)
        for a, b in zip((*first.alice, *first.bob), (*second.alice, *second.bob)):
            assert a.projector_stack is b.projector_stack
        for a, b in zip(first.charlie12, second.charlie12):
            assert a.base.projector_stack is b.base.projector_stack


class TestProductMeasurement:
    def test_zz_basis(self):
        z_projs = ((I2 + Z) / 2, (I2 - Z) / 2)
        meas = product_measurement(z_projs, z_projs)
        for c, ket in enumerate(np.eye(4)):
            np.testing.assert_allclose(meas.projectors[c], np.outer(ket, ket), atol=1e-12)

    def test_rank_one_factors(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            vec = rng.normal(size=3)
            vec /= np.linalg.norm(vec)
            obs = vec[0] * X + vec[1] * 1j * np.array([[0, -1], [1, 0]]) + vec[2] * Z
            projs = ((I2 + obs) / 2, (I2 - obs) / 2)
            meas = product_measurement(projs, projs)
            for p in meas.projectors:
                assert np.trace(p).real == pytest.approx(1.0, abs=1e-9)

    def test_eigenstates_are_product(self):
        # oracle: Schmidt rank via SVD of the reshaped eigenvector
        rng = np.random.default_rng(43)
        for _ in range(10):
            v1, v2 = rng.normal(size=3), rng.normal(size=3)
            v1 /= np.linalg.norm(v1)
            v2 /= np.linalg.norm(v2)
            o1 = v1[0] * X + v1[2] * Z + v1[1] * np.array([[0, -1j], [1j, 0]])
            o2 = v2[0] * X + v2[2] * Z + v2[1] * np.array([[0, -1j], [1j, 0]])
            meas = product_measurement(((I2 + o1) / 2, (I2 - o1) / 2), ((I2 + o2) / 2, (I2 - o2) / 2))
            for state in eigenstates(meas):
                svals = np.linalg.svd(state.reshape(2, 2), compute_uv=False)
                assert svals[1] < 1e-9

    def test_invalid_factor(self):
        bad = (I2, I2)  # sums to 2I
        with pytest.raises(ValidationError):
            product_measurement(bad, bad)

    def test_overflowing_factor_rejected_without_warnings(self):
        # Hermitian, but its complex square is inf - inf: a NaN idempotence
        # deviation, which must fail rather than pass by comparison with NaN
        huge = np.array([[0, 1e155 + 1e155j], [1e155 - 1e155j, 0]])
        z_projs = ((I2 + Z) / 2, (I2 - Z) / 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="first factor outcome 1 is not a projector within tolerance"):
                product_measurement((huge, I2 - huge), z_projs)


class TestCharlieSettings:
    def test_completeness(self):
        c1, c2 = charlie_settings_ideal()
        for binned in (c1, c2):
            np.testing.assert_allclose(sum(binned.base.projectors), np.eye(4), atol=1e-12)

    def test_bit_marginals(self):
        c1, c2 = charlie_settings_ideal()
        # oracle: assemble expected marginals with raw kron
        np.testing.assert_allclose(
            bit_observable(c1, "a"), kron_all((Z + X) / SQRT2, I2), atol=1e-12
        )
        np.testing.assert_allclose(bit_observable(c1, "b"), kron_all(I2, Z), atol=1e-12)
        np.testing.assert_allclose(
            bit_observable(c2, "a"), kron_all((Z - X) / SQRT2, I2), atol=1e-12
        )
        np.testing.assert_allclose(bit_observable(c2, "b"), kron_all(I2, X), atol=1e-12)

    def test_bit_observables_square_to_identity(self):
        for binned in charlie_settings_ideal():
            for side in ("a", "b"):
                obs = bit_observable(binned, side)
                np.testing.assert_allclose(obs @ obs, np.eye(4), atol=1e-9)

    def test_bad_bits_rejected(self):
        base = bell_measurement()
        with pytest.raises(ValidationError):
            BinnedMeasurement(base, (1, 1, 1, 0), (1, -1, 1, -1))


class TestValidation:
    def test_random_rotated_bases_validate(self):
        for seed in range(25):
            rng = np.random.default_rng(1000 + seed)
            rotated_bell_measurement(rng).validate()

    def test_incomplete_projectors_rejected(self):
        basis = bell_basis()
        projs = [np.outer(s.vector, s.vector.conj()) for s in basis[:3]]
        projs.append(np.zeros((4, 4)))
        with pytest.raises(ValidationError):
            FourOutcomeMeasurement(tuple(projs), (2, 2))

    @pytest.mark.parametrize("dims,message", [
        ((2, 2, 5), r"^dims \(2, 2, 5\) must have 2 entries$"),  # only (2, 2) was read before
        ((4,), r"^dims \(4,\) must have 2 entries$"),
        (4, r"^dims must be a sequence of integers, got 4$"),
        ((2, 2.5), r"^each dimension must be an integer, got 2.5$"),
        ((True, 4), r"^each dimension must be an integer, got True$"),
    ])
    def test_dims_of_wrong_shape_or_type_rejected(self, dims, message):
        with pytest.raises(ValidationError, match=message):
            FourOutcomeMeasurement(bell_measurement().projectors, dims)

    def test_negative_dims_rejected(self):
        # (-2, -2) multiplies to the side 4 of the Bell projectors
        with pytest.raises(ValidationError, match=r"^dims \(-2, -2\) must all be at least 1$"):
            FourOutcomeMeasurement(bell_measurement().projectors, (-2, -2))

    def test_non_orthogonal_rejected(self):
        basis = bell_basis()
        p0 = np.outer(basis[0].vector, basis[0].vector.conj())
        with pytest.raises(ValidationError):
            FourOutcomeMeasurement((p0, p0, p0, p0), (2, 2))

    @pytest.mark.parametrize("entries,message", [
        # the square overflows: an inf deviation
        ({(0, 0): 1e200}, "observable does not square to the identity within tolerance"),
        # the complex square is inf - inf: a NaN deviation, which no comparison passes
        ({(0, 1): 1e155 + 1e155j, (1, 0): 1e155 - 1e155j}, "observable does not square to the identity"),
        ({(0, 1): 1e200, (1, 0): -1e200}, "observable is not Hermitian within tolerance"),
    ])
    def test_huge_observable_rejected_without_warnings(self, entries, message):
        mat = np.array([[0, 1], [1, 0]], dtype=complex)
        for index, value in entries.items():
            mat[index] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=message):
                DichotomicObservable(mat)

    def test_nan_deviation_rejected(self):
        # P and I - P with a huge off-diagonal pair sum to I exactly, but P @ P
        # is NaN: idempotence must fail rather than pass by comparison with NaN
        huge = np.zeros((4, 4), dtype=complex)
        huge[0, 1], huge[1, 0] = 1e155 + 1e155j, 1e155 - 1e155j
        projs = (huge, np.diag([1.0, 1.0, 0.0, 0.0]) - huge, np.diag([0.0, 0.0, 1.0, 0.0]),
                 np.diag([0.0, 0.0, 0.0, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="projector 1 is not idempotent"):
                FourOutcomeMeasurement(projs, (2, 2))

    def test_eigenstates_require_rank_one(self):
        z_projs = ((I2 + Z) / 2, (I2 - Z) / 2)
        rank2 = (kron_all(z_projs[0], I2), kron_all(z_projs[1], I2),
                 np.zeros((4, 4)), np.zeros((4, 4)))
        meas = FourOutcomeMeasurement(rank2, (2, 2))
        with pytest.raises(ValidationError):
            eigenstates(meas)

    @pytest.mark.parametrize("ranks,first", [((2, 2, 0, 0), 1), ((1, 1, 2, 0), 3), ((1, 1, 1, 1), None),
                                             ((1, 0, 1, 2), 2), ((1, 1, 0, 2), 3)])
    def test_rank_one_check_names_the_first_failure(self, ranks, first):
        basis = np.eye(4)
        starts = np.cumsum((0, *ranks[:-1]))
        projs = tuple(basis[:, s:s + r] @ basis[:, s:s + r].T for s, r in zip(starts, ranks))
        meas = FourOutcomeMeasurement(projs, (2, 2))
        if first is None:
            meas.require_rank_one()
        else:
            with pytest.raises(ValidationError, match=f"^projector {first} has rank != 1$"):
                meas.require_rank_one()


def _valid_projectors(rng, dims):
    """Four orthogonal projectors summing to the identity, from the columns of a Haar unitary."""
    side = dims[0] * dims[1]
    u = haar_unitary(side, rng)
    cuts = np.sort(rng.choice(np.arange(1, side), size=3, replace=False)) if side > 4 else [1, 2, 3]
    groups = np.split(np.arange(side), cuts)
    return [u[:, g] @ u[:, g].conj().T for g in groups]


def _break(projs, rng, kind, where, size=None):
    """Perturb ``projs`` in place so that one property fails at projector or pair ``where``.

    The perturbation has the given ``size``, or one drawn from ``rng``.
    """
    side = projs[0].shape[0]
    size = float(rng.choice([1e-3, 1e-6, 3e-9, 2e-9])) if size is None else size
    if kind == "hermitian":
        projs[where] = projs[where] + size * np.triu(np.ones((side, side)), 1)
    elif kind == "idempotent":
        projs[where] = projs[where] * (1.0 + size)
    elif kind == "orthogonal":  # a projector again, tilted towards the range of projector i
        i, j = where
        vec = projs[i][:, int(np.argmax(np.abs(np.diag(projs[i]))))]
        vec = vec / np.linalg.norm(vec)
        _, vecs = np.linalg.eigh(projs[j])
        tilted = vecs[:, -1] + size * vec
        tilted /= np.linalg.norm(tilted)
        projs[j] = projs[j] - np.outer(vecs[:, -1], vecs[:, -1].conj()) + np.outer(tilted, tilted.conj())
    else:  # completeness: a projector is dropped, which keeps every other property
        projs[where] = np.zeros_like(projs[where])


class TestValidateAgainstReference:
    KINDS = [("hermitian", k) for k in range(4)] + [("idempotent", k) for k in range(4)]
    KINDS += [("orthogonal", (i, j)) for i in range(4) for j in range(i + 1, 4)] + [("complete", 3)]

    @staticmethod
    def _outcomes(projs, dims, tol=1e-9):
        try:
            reference_validate_projectors(projs, dims[0] * dims[1], tol)
            expected = None
        except ValidationError as exc:
            expected = str(exc)
        try:
            FourOutcomeMeasurement(tuple(projs), dims, tol)
            got = None
        except ValidationError as exc:
            got = str(exc)
        return got, expected

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_same_message_for_each_failure(self, dims):
        rng = np.random.default_rng([41, *dims])
        for first in self.KINDS:
            for second in [None, *self.KINDS]:  # a second failure may come earlier or later
                projs = _valid_projectors(rng, dims)
                _break(projs, rng, *first)
                if second is not None:
                    _break(projs, rng, *second)
                got, expected = self._outcomes(projs, dims)
                assert got == expected

    @pytest.mark.parametrize("kind,where", KINDS)
    def test_each_failure_is_named(self, kind, where):
        rng = np.random.default_rng(7)
        projs = _valid_projectors(rng, (2, 2))
        _break(projs, rng, kind, where)
        got, expected = self._outcomes(projs, (2, 2), tol=1e-12)
        if kind == "orthogonal":
            assert got == expected == f"projectors {where[0] + 1} and {where[1] + 1} are not orthogonal"
        elif kind == "complete":
            assert got == expected == "projectors do not sum to the identity within tolerance"
        else:
            word = {"hermitian": "Hermitian", "idempotent": "idempotent"}[kind]
            assert got == expected == f"projector {where + 1} is not {word} within tolerance"

    def test_valid_sets_accepted(self):
        rng = np.random.default_rng(43)
        for dims in ((2, 2), (2, 3), (1, 4)):
            for _ in range(20):
                assert self._outcomes(_valid_projectors(rng, dims), dims) == (None, None)


def _valid_factor(rng, d):
    """A two-outcome projective factor on C^d from the columns of a Haar unitary, both outcomes nonzero."""
    u = haar_unitary(d, rng)[:, : int(rng.integers(1, d))]
    p0 = u @ u.conj().T
    return [p0, np.eye(d) - p0]


class TestValidateFactorAgainstReference:
    KINDS = [(kind, where) for kind in ("hermitian", "idempotent", "complete") for where in range(2)]

    @staticmethod
    def _outcomes(ma, mb):
        try:
            pa = reference_validate_factor(ma, "first factor")
            pb = reference_validate_factor(mb, "second factor")
            dims = (pa[0].shape[0], pb[0].shape[0])
            FourOutcomeMeasurement(tuple(np.kron(pa[a], pb[b]) for a in range(2) for b in range(2)), dims)
            expected = None
        except ValidationError as exc:
            expected = str(exc)
        try:
            product_measurement(ma, mb)
            got = None
        except ValidationError as exc:
            got = str(exc)
        return got, expected

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_same_message_for_each_failure(self, d):
        rng = np.random.default_rng([43, d])
        for first in self.KINDS:
            for second in [None, *self.KINDS]:  # a second failure may come earlier or later
                for position in range(2):
                    factors = [_valid_factor(rng, d), _valid_factor(rng, d)]
                    _break(factors[position], rng, *first)
                    if second is not None:
                        _break(factors[position], rng, *second)
                    got, expected = self._outcomes(*factors)
                    assert got == expected

    @pytest.mark.parametrize("kind,where", KINDS)
    @pytest.mark.parametrize("position", [0, 1])
    def test_each_failure_is_named(self, kind, where, position):
        rng = np.random.default_rng(9)
        factors = [_valid_factor(rng, 3), _valid_factor(rng, 2)]
        _break(factors[position], rng, kind, where, size=1e-6)
        name = ("first factor", "second factor")[position]
        message = f"{name} outcomes do not sum to the identity" if kind == "complete" else (
            f"{name} outcome {where + 1} is not a projector within tolerance")
        assert self._outcomes(*factors) == (message, message)

    @pytest.mark.parametrize("position", [0, 1])
    @pytest.mark.parametrize("outcomes", [1, 3])
    def test_wrong_outcome_count(self, position, outcomes):
        rng = np.random.default_rng(10)
        factors = [_valid_factor(rng, 2), _valid_factor(rng, 2)]
        factors[position] = (factors[position] * 2)[:outcomes]
        name = ("first factor", "second factor")[position]
        message = f"{name} must have exactly two outcomes"
        assert self._outcomes(*factors) == (message, message)

    @pytest.mark.parametrize("position", [0, 1])
    @pytest.mark.parametrize("shapes", [((2, 2), (3, 3)), ((3, 3), (2, 2)), ((2, 3), (2, 3))])
    def test_shape_mismatch(self, position, shapes):
        rng = np.random.default_rng(11)
        factors = [_valid_factor(rng, 2), _valid_factor(rng, 2)]
        factors[position] = [np.zeros(shape) for shape in shapes]
        name = ("first factor", "second factor")[position]
        message = f"{name} projectors must be square and equal-sized"
        assert self._outcomes(*factors) == (message, message)

    def test_valid_factors_accepted(self):
        rng = np.random.default_rng(12)
        for d_a, d_b in ((2, 2), (2, 3), (4, 3), (1, 2)):
            for _ in range(10):
                factor_a = _valid_factor(rng, d_a) if d_a > 1 else [np.eye(1), np.zeros((1, 1))]
                assert self._outcomes(factor_a, _valid_factor(rng, d_b)) == (None, None)
