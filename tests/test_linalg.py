import numpy as np
import pytest

from conftest import expm_taylor, random_density_matrix
from oracles import NegativeEigenvalue, matrix_sqrt_psd
from qsteer.errors import DimensionMismatch
from qsteer.model import (
    IDENTITY_2,
    PAULI_X,
    PAULI_Z,
    ModelParams,
    build_hamiltonian,
    build_propagator,
    kron_all,
    partial_trace_first,
)

I2 = np.eye(2)
I4 = np.eye(4)


class TestKron:
    def test_identity_times_identity(self):
        assert np.array_equal(kron_all(I2, I2), I4)

    def test_sigma_z_with_identity(self):
        assert np.allclose(kron_all(PAULI_Z, I2), np.diag([1, 1, -1, -1]))

    def test_projector_extended_by_identities(self):
        # |z+><z+| (x) I4: rank-4 projector with ones at the first four
        # diagonal slots, expanded by hand from the definition
        zplus = np.zeros((2, 2), dtype=complex)
        zplus[0, 0] = 1.0
        result = kron_all(zplus, I2, I2)
        expected = np.zeros((8, 8), dtype=complex)
        for i in range(4):
            expected[i, i] = 1.0
        assert np.allclose(result, expected)
        assert np.linalg.matrix_rank(result) == 4

    def test_associative_and_bilinear(self, rng):
        a, b, c = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                   for _ in range(3))
        left = kron_all(kron_all(a, b), c)
        right = kron_all(a, kron_all(b, c))
        assert np.allclose(left, right, atol=1e-12)
        x = rng.standard_normal((2, 2))
        assert np.allclose(kron_all(a + x, b), kron_all(a, b) + kron_all(x, b), atol=1e-12)
        assert np.allclose(kron_all(2.5 * a, b), 2.5 * kron_all(a, b), atol=1e-12)


class TestExpm:
    def test_zero_time_is_identity(self):
        # tau must be positive, so zero phase comes from a model with no
        # frequencies: H = 0 evolves nothing over any interval
        p = ModelParams.uniform(coupling=(0.0, 0.0, 0.0), omega=0.0, tau=0.7)
        assert np.allclose(build_propagator(p), np.eye(8), atol=1e-12)

    def test_pauli_z_quarter_period(self):
        # one uncoupled bath spin precessing: H = 1 (x) sigma_z
        p = ModelParams.uniform(n_bath=1, coupling=(0.0, 0.0, 0.0), omega=1.0, tau=np.pi / 2)
        u = build_propagator(p)
        assert np.allclose(u, np.kron(IDENTITY_2, np.diag([-1j, 1j])), atol=1e-12)

    def test_against_taylor_oracle(self):
        p = ModelParams()
        u = build_propagator(p)
        reference = expm_taylor(-1j * p.tau * build_hamiltonian(p))
        assert np.linalg.norm(u - reference) < 1e-9

    def test_unitary_and_inverse(self, rng):
        couplings = tuple(tuple(rng.standard_normal(3)) for _ in range(2))
        omega = float(rng.standard_normal())
        u = build_propagator(ModelParams(couplings=couplings, omega=omega, tau=0.7))
        assert np.linalg.norm(u @ u.conj().T - np.eye(8)) < 1e-10
        # negating every coupling and omega negates H
        negated = ModelParams(couplings=tuple(tuple(-g for g in c) for c in couplings),
                              omega=-omega, tau=0.7)
        assert np.linalg.norm(u @ build_propagator(negated) - np.eye(8)) < 1e-10


class TestMatrixSqrt:
    def test_identity(self):
        assert np.allclose(matrix_sqrt_psd(np.eye(3, dtype=complex)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(matrix_sqrt_psd(np.diag([4.0, 9.0]).astype(complex)),
                           np.diag([2.0, 3.0]))

    def test_maximally_mixed(self):
        assert np.allclose(matrix_sqrt_psd(I4.astype(complex) / 4), I4 / 2)

    def test_square_recovers_input(self, rng):
        for _ in range(10):
            m = random_density_matrix(rng, 6)
            root = matrix_sqrt_psd(m)
            assert np.linalg.norm(root @ root - m) < 1e-8
            assert np.linalg.norm(root - root.conj().T) < 1e-12

    def test_clamps_tiny_negative_drift(self):
        m = np.diag([1.0, -5e-11]).astype(complex)
        root = matrix_sqrt_psd(m)
        assert np.allclose(root, np.diag([1.0, 0.0]))

    def test_rejects_genuinely_negative(self):
        with pytest.raises(NegativeEigenvalue):
            matrix_sqrt_psd(np.diag([1.0, -1e-3]).astype(complex))


class TestPartialTrace:
    def test_product_state_factorization(self, rng):
        xplus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        rho_bath = random_density_matrix(rng, 4)
        full = np.kron(np.outer(xplus, xplus.conj()), rho_bath)
        assert np.allclose(partial_trace_first(full, 2), rho_bath, atol=1e-12)

    def test_maximally_mixed(self):
        assert np.allclose(partial_trace_first(np.eye(8, dtype=complex) / 8, 2),
                           np.eye(4) / 4)

    def test_kron_identity(self, rng):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        reduced = partial_trace_first(np.kron(a, b), 2)
        assert np.allclose(reduced, np.trace(a) * b, atol=1e-12)

    def test_trace_preserved(self, rng):
        m = random_density_matrix(rng, 8)
        assert abs(np.trace(partial_trace_first(m, 2)) - 1.0) < 1e-12

    def test_stack_rows_match_single_matrices(self, rng):
        stack = np.stack([random_density_matrix(rng, 8) for _ in range(5)])
        reduced = partial_trace_first(stack, 2)
        assert reduced.shape == (5, 4, 4)
        for m, r in zip(stack, reduced):
            assert np.array_equal(partial_trace_first(m, 2), r)

    def test_bad_dims(self):
        with pytest.raises(DimensionMismatch):
            partial_trace_first(np.eye(6, dtype=complex), 4)
        with pytest.raises(DimensionMismatch):
            partial_trace_first(np.zeros((4, 6)), 2)


def test_kron_all_matches_nested():
    ms = [PAULI_X, IDENTITY_2, PAULI_Z]
    assert np.array_equal(kron_all(*ms), np.kron(PAULI_X, np.kron(IDENTITY_2, PAULI_Z)))
