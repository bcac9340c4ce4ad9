"""Unit tests for cost-operator construction."""

import numpy as np
import pytest

from qwasser.cost import CostOperator, build_cost, conjugate_generators, sym_cost, z_cost
from qwasser.errors import DomainError
from qwasser.linalg import vec
from qwasser.sampling import random_unitary
from qwasser.states import PAULI

C_SYM = np.array([[4, 0, 0, -4], [0, 8, 0, 0], [0, 0, 8, 0], [-4, 0, 0, 4]], dtype=complex)
C_Z = np.diag([0.0, 4.0, 4.0, 0.0]).astype(complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def kernel_residual(c: CostOperator) -> float:
    """|C @ vec(I)| -- zero for every generator-built cost."""
    return float(np.abs(c.matrix @ vec(np.eye(2, dtype=complex))).max())


def random_hermitian(rng):
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return 0.5 * (m + m.conj().T)


class TestBuildCost:
    def test_sym_matrix_exact(self):
        assert np.array_equal(build_cost(PAULI[1:]).matrix, C_SYM)
        assert np.array_equal(sym_cost().matrix, C_SYM)

    def test_z_matrix_exact(self):
        assert np.array_equal(build_cost([PAULI[3]]).matrix, C_Z)
        assert np.array_equal(z_cost().matrix, C_Z)

    def test_identity_generator_gives_zero(self):
        assert np.array_equal(build_cost([PAULI[0]]).matrix, np.zeros((4, 4)))

    def test_expansion_identity(self):
        # 6 I (x) I - 2 sum_j s_j (x) s_j^T, entrywise
        expected = 6 * np.eye(4, dtype=complex)
        for j in (1, 2, 3):
            expected -= 2 * np.kron(PAULI[j], PAULI[j].T)
        np.testing.assert_allclose(sym_cost().matrix, expected, atol=0)

    def test_kernel_contains_vec_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            gens = [random_hermitian(rng) for _ in range(rng.integers(1, 4))]
            c = build_cost(gens)
            assert kernel_residual(c) <= 1e-12
            assert np.abs(c.matrix @ vec(np.eye(2, dtype=complex))).max() <= 1e-12

    def test_psd(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            gens = [random_hermitian(rng) for _ in range(rng.integers(1, 4))]
            w = np.linalg.eigvalsh(build_cost(gens).matrix)
            assert w[0] >= -1e-10

    def test_rejects_non_hermitian_generator(self):
        with pytest.raises(DomainError):
            build_cost([np.array([[0.0, 1.0], [0.0, 0.0]])])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    def test_rejects_non_finite_generator(self, bad, entry):
        g = np.array(PAULI[1])
        g[entry] = g[entry[::-1]] = bad
        with pytest.raises(DomainError, match="generator 1 is not finite and Hermitian"):
            build_cost([PAULI[3], g])

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            build_cost([])


class TestConjugateGenerators:
    def test_identity(self):
        gens = conjugate_generators(PAULI[1:], np.eye(2))
        for g, p in zip(gens, PAULI[1:]):
            np.testing.assert_allclose(g, p, atol=1e-15)

    def test_sx_flips_sz(self):
        (g,) = conjugate_generators([PAULI[3]], PAULI[1])
        np.testing.assert_allclose(g, -PAULI[3], atol=1e-15)

    def test_hadamard(self):
        gens = conjugate_generators(PAULI[1:], HADAMARD)
        np.testing.assert_allclose(gens[0], PAULI[3], atol=1e-14)
        np.testing.assert_allclose(gens[1], -PAULI[2], atol=1e-14)
        np.testing.assert_allclose(gens[2], PAULI[1], atol=1e-14)

    def test_rejects_non_unitary(self):
        with pytest.raises(DomainError):
            conjugate_generators([PAULI[3]], np.diag([1.0, 2.0]))

    @pytest.mark.parametrize(
        "gens,u",
        [
            ([PAULI[3]], np.diag([1.0, np.nan])),
            ([PAULI[3]], np.diag([np.inf, 1.0])),
            ([np.diag([np.nan, 1.0])], np.eye(2)),
        ],
        ids=["nan-unitary", "inf-unitary", "nan-generator"],
    )
    def test_rejects_non_finite_input(self, gens, u):
        with pytest.raises(DomainError):
            conjugate_generators(gens, u)

    def test_rotated_basis_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            u = random_unitary(rng)
            rotated = build_cost(conjugate_generators(PAULI[1:], u))
            assert np.abs(rotated.matrix - C_SYM).max() <= 1e-10

    def test_cost_equality_is_matrix_equality(self):
        u = HADAMARD
        rotated = build_cost(conjugate_generators(PAULI[1:], u))
        assert np.abs(rotated.matrix - sym_cost().matrix).max() <= 1e-12
        # provenance differs even though the matrices coincide
        assert not all(
            np.allclose(a, b) for a, b in zip(rotated.generators, sym_cost().generators)
        )
