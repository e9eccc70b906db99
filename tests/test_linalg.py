import math

import numpy as np
import pytest

from swapcert import (
    DensityMatrix,
    PureState,
    ValidationError,
    bell_basis,
    partial_trace,
    ptrace_array,
    tensor,
)
from swapcert.linalg import hermitian_deviation, seeded_generator
from support import I2, X, Z, eig_hermitian, kron_all, overlap_sq, permute_subsystems, ptrace_loops, to_density


class TestTensor:
    def test_identity(self):
        np.testing.assert_array_equal(tensor(I2, I2), np.eye(4))

    def test_zz_on_00(self):
        ket00 = np.zeros(4)
        ket00[0] = 1.0
        np.testing.assert_allclose(tensor(Z, Z) @ ket00, ket00)

    def test_zx_eigenvalues(self):
        # independent oracle: direct 4x4 eigensolve of the explicit matrix
        expected = np.linalg.eigvalsh(kron_all(Z, X))
        np.testing.assert_allclose(expected, [-1.0, -1.0, 1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(np.linalg.eigvalsh(tensor(Z, X)), expected, atol=1e-12)

    def test_associative_exact_on_integer_entries(self):
        # entrywise products of small integers are exact in floating point
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.integers(-4, 5, size=(2, 2)) + 1j * rng.integers(-4, 5, size=(2, 2))
            b = rng.integers(-4, 5, size=(3, 3)) + 1j * rng.integers(-4, 5, size=(3, 3))
            c = rng.integers(-4, 5, size=(2, 2)) + 1j * rng.integers(-4, 5, size=(2, 2))
            np.testing.assert_array_equal(tensor(tensor(a, b), c), tensor(a, tensor(b, c)))

    def test_associative_generic(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            np.testing.assert_allclose(
                tensor(tensor(a, b), c), tensor(a, tensor(b, c)), rtol=0, atol=1e-14
            )

    def test_tensor_of_densities_is_density(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            g2 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            r1 = g1 @ g1.conj().T
            r2 = g2 @ g2.conj().T
            r1 /= np.trace(r1).real
            r2 /= np.trace(r2).real
            DensityMatrix(tensor(r1, r2), (2, 3))  # constructor validates

    def test_empty_raises(self):
        with pytest.raises(ValidationError):
            tensor()


class TestPartialTrace:
    def test_bell_marginal(self):
        rho = to_density(bell_basis()[0])
        reduced = partial_trace(rho, (0,))
        np.testing.assert_allclose(reduced.matrix, I2 / 2, atol=1e-12)

    def test_product_state(self):
        rng = np.random.default_rng(11)
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho_a = g @ g.conj().T
        rho_a /= np.trace(rho_a).real
        rho = DensityMatrix(tensor(rho_a, I2 / 2), (2, 2))
        np.testing.assert_allclose(partial_trace(rho, (0,)).matrix, rho_a, atol=1e-12)

    def test_two_pair_state_marginal(self):
        # oracle: assemble the four-qubit pure state by hand, trace with loops
        phi = bell_basis()[0].vector.reshape(2, 2)
        psi = np.einsum("ac,bd->abcd", phi, phi).reshape(-1)
        rho = np.outer(psi, psi.conj())
        oracle = ptrace_loops(rho, (2, 2, 2, 2), (0, 1))
        np.testing.assert_allclose(oracle, np.eye(4) / 4, atol=1e-12)
        dm = DensityMatrix(rho, (2, 2, 2, 2))
        np.testing.assert_allclose(partial_trace(dm, (0, 1)).matrix, oracle, atol=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        dims = (2, 3, 2)
        side = 12
        for _ in range(5):
            g = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            for keep in [(0,), (1,), (2,), (0, 2), (1, 2), (0, 1, 2)]:
                np.testing.assert_allclose(
                    ptrace_array(rho, dims, keep), ptrace_loops(rho, dims, keep), atol=1e-12
                )

    def test_sequential_equals_joint(self):
        rng = np.random.default_rng(13)
        dims = (2, 2, 3)
        side = 12
        for _ in range(5):
            g = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            joint = ptrace_array(rho, dims, (0,))
            step = ptrace_array(ptrace_array(rho, dims, (0, 2)), (2, 3), (0,))
            np.testing.assert_allclose(joint, step, atol=1e-12)

    def test_trace_preserved(self):
        rng = np.random.default_rng(17)
        g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        dm = DensityMatrix(rho, (2, 2, 2))
        assert abs(np.trace(partial_trace(dm, (1,)).matrix) - 1.0) < 1e-12

    def test_bad_index(self):
        rho = to_density(bell_basis()[0])
        with pytest.raises(ValidationError):
            partial_trace(rho, (2,))


class TestEigHermitian:
    def test_pauli_z(self):
        w, v = eig_hermitian(Z)
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-12)
        # ascending order puts |1> first, |0> second (up to phase)
        assert abs(v[1, 0]) == pytest.approx(1.0, abs=1e-12)
        assert abs(v[0, 1]) == pytest.approx(1.0, abs=1e-12)

    def test_rotated_observable(self):
        w, _ = eig_hermitian((Z + X) / math.sqrt(2))
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-12)

    def test_chsh_operator_spectrum(self):
        beta = math.sqrt(2) * (kron_all(Z, Z) + kron_all(X, X))
        w, _ = eig_hermitian(beta)
        t = 2 * math.sqrt(2)
        np.testing.assert_allclose(w, [-t, 0.0, 0.0, t], atol=1e-12)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(23)
        for d in (2, 3, 5, 8, 16):
            for _ in range(5):
                g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                h = (g + g.conj().T) / 2
                w, v = eig_hermitian(h)
                scale = 1.0 + np.max(np.abs(h))
                assert np.max(np.abs(v @ np.diag(w) @ v.conj().T - h)) <= 1e-10 * scale
                assert np.max(np.abs(v.conj().T @ v - np.eye(d))) <= 1e-10

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValidationError):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestHermitianDeviation:
    @pytest.mark.parametrize("shape", [(1, 1), (3, 3), (16, 16), (64, 64), (4, 2, 2), (6, 5, 5), (2, 3, 4, 4)])
    def test_matches_strided_difference(self, shape):
        rng = np.random.default_rng(sum(shape))
        mat = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        mat = mat + mat.conj().swapaxes(-1, -2) + 1e-7 * rng.normal(size=shape)
        expected = np.max(np.abs(mat - mat.conj().swapaxes(-1, -2)), axis=(-2, -1))
        got = hermitian_deviation(mat)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("layout", ["C", "F", "1x1", "real", "read-only"])
    def test_input_untouched(self, layout):
        rng = np.random.default_rng(3)
        mat = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        if layout == "F":
            mat = np.asfortranarray(mat)  # its transpose is C-contiguous already
        elif layout == "1x1":
            mat = np.array([[1.0 + 2.0j]])
        elif layout == "real":
            mat = mat.real.copy()
        elif layout == "read-only":
            mat.setflags(write=False)
        before = mat.copy()
        value = hermitian_deviation(mat)
        np.testing.assert_array_equal(mat, before)
        assert value == np.max(np.abs(before - before.conj().T))


class TestOverlap:
    def test_self(self):
        phi = bell_basis()[0]
        assert overlap_sq(phi, phi) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        basis = bell_basis()
        assert overlap_sq(basis[0], basis[3]) == pytest.approx(0.0, abs=1e-12)

    def test_product_with_entangled(self):
        ket00 = PureState(np.array([1.0, 0, 0, 0]), (2, 2))
        # oracle: direct inner product <00|(|00>+|11>)/sqrt2 = 1/sqrt2
        assert overlap_sq(ket00, bell_basis()[0]) == pytest.approx(0.5, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            overlap_sq(PureState(np.array([1.0, 0]), (2,)), bell_basis()[0])


class TestStateTypes:
    def test_density_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.eye(2), (2,))

    def test_density_rejects_negative(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.diag([1.5, -0.5]), (2,))

    def test_density_rejects_non_hermitian(self):
        mat = np.array([[0.5, 0.3], [0.0, 0.5]])
        with pytest.raises(ValidationError):
            DensityMatrix(mat, (2,))

    def test_density_rejects_wrong_dims(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.eye(4) / 4, (2, 3))

    def test_pure_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            PureState(np.array([1.0, 1.0]), (2,))

    def test_pure_to_density(self):
        dm = to_density(bell_basis()[2])
        assert dm.dims == (2, 2)
        assert abs(np.trace(dm.matrix) - 1.0) < 1e-12

    def test_immutable(self):
        dm = to_density(bell_basis()[0])
        with pytest.raises(ValueError):
            dm.matrix[0, 0] = 2.0

    @pytest.mark.parametrize("build,message", [
        (lambda: ptrace_array(np.ones(4), (2, 2), [0]), r"^matrix must be 2-dimensional, got shape \(4,\)$"),
        (lambda: ptrace_array(np.eye(4), (2, 3), [0]), r"^operator side 4 does not match dims \(2, 3\)$"),
        (lambda: PureState(np.ones(3) / math.sqrt(3), (2,)), r"^dims \(2,\) do not match vector length 3$"),
        (lambda: PureState(np.array([np.nan, 0.0]), (2,)), "^state vector has non-finite entries$"),
        (lambda: DensityMatrix(np.ones((2, 4)) / 8, (2,)), "^density matrix must be square$"),
        (lambda: DensityMatrix(np.array([[np.nan, 0.0], [0.0, 0.5]]), (2,)), "^density matrix has non-finite entries$"),
    ], ids=["matrix not 2-D", "ptrace side", "pure length", "pure non-finite", "density not square",
            "density non-finite"])
    def test_rejections_name_their_cause(self, build, message):
        with pytest.raises(ValidationError, match=message):
            build()


class TestPermuteSubsystems:
    def test_swap_matches_kron(self):
        rng = np.random.default_rng(31)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        swapped = permute_subsystems(kron_all(a, b), (2, 3), (1, 0))
        np.testing.assert_allclose(swapped, kron_all(b, a), atol=1e-12)

    def test_identity_permutation(self):
        rng = np.random.default_rng(37)
        m = rng.normal(size=(6, 6))
        np.testing.assert_array_equal(permute_subsystems(m, (2, 3), (0, 1)), m)

    def test_invalid_permutation(self):
        with pytest.raises(ValidationError):
            permute_subsystems(np.eye(4), (2, 2), (0, 0))


class TestSeededGenerator:
    @pytest.mark.parametrize("key", [
        (), (0,), (0, 0, 0, 0), (2**31, 1, 2, 3), (7, 2**32 - 1), (2**32, 1, 1, 1), (5, 2**32),
        (2**64, 2, 2, 3), (2**40, 0), (np.int64(9), np.uint32(2), 1), (True, 2),
    ])
    def test_same_stream_as_default_rng(self, key):
        got, want = seeded_generator(*key), np.random.default_rng(list(key))
        assert got.bit_generator.state == want.bit_generator.state
        assert got.integers(0, 2**63, size=16).tolist() == want.integers(0, 2**63, size=16).tolist()
        assert got.normal(size=(2, 5)).tobytes() == want.normal(size=(2, 5)).tobytes()
        assert got.multinomial(10**6, [0.25] * 4).tolist() == want.multinomial(10**6, [0.25] * 4).tolist()

    @pytest.mark.parametrize("key,error", [((-1, 1), ValueError), ((1.5,), TypeError), ((2, -(2**40)), ValueError)])
    def test_invalid_key_fails_like_default_rng(self, key, error):
        with pytest.raises(error):
            np.random.default_rng(list(key))
        with pytest.raises(error):
            seeded_generator(*key)
