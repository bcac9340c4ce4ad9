"""Unit tests for the 2x2/4x4 linear algebra layer."""

import warnings
from pathlib import Path

import numpy as np
import pytest

import qwasser
from qwasser.errors import ContractViolation
from qwasser.linalg import (
    bra_cost_ket,
    cholesky_lo,
    eig_hermitian,
    eigh_lo,
    eigvalsh_lo,
    inv,
    partial_trace_first,
    partial_trace_second,
    solve,
    sqrt_psd,
    tensor,
    transpose_op,
    vec,
)
from qwasser.states import PAULI

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)

C_SYM = np.array(
    [[4, 0, 0, -4], [0, 8, 0, 0], [0, 0, 8, 0], [-4, 0, 0, 4]], dtype=complex
)
C_Z = np.diag([0.0, 4.0, 4.0, 0.0]).astype(complex)


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (m + m.conj().T)


def random_psd2(rng):
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return m @ m.conj().T


class TestTensor:
    def test_identity(self):
        assert np.array_equal(tensor(I2, I2), I4)

    def test_sz_sz(self):
        assert np.array_equal(tensor(PAULI[3], PAULI[3]), np.diag([1.0, -1.0, -1.0, 1.0]))

    def test_sx_identity_entrywise(self):
        # direct expansion of the row-major convention
        expected = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        expected[2 * i + k, 2 * j + l] = PAULI[1][i, j] * I2[k, l]
        assert np.array_equal(tensor(PAULI[1], I2), expected)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolation):
            tensor(I4, I2)


class TestTransposeOp:
    def test_sy_antisymmetric(self):
        assert np.array_equal(transpose_op(PAULI[2]), -PAULI[2])

    def test_sz_diagonal(self):
        assert np.array_equal(transpose_op(PAULI[3]), PAULI[3])

    def test_sx_symmetric(self):
        assert np.array_equal(transpose_op(PAULI[1]), PAULI[1])


class TestPartialTraces:
    def test_product_factorization(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = random_hermitian(rng, 2), random_hermitian(rng, 2)
            m = tensor(a, b)
            np.testing.assert_allclose(partial_trace_second(m), a * np.trace(b), atol=1e-12)
            np.testing.assert_allclose(partial_trace_first(m), b * np.trace(a), atol=1e-12)

    def test_identity(self):
        np.testing.assert_allclose(partial_trace_second(I4), 2 * I2)
        np.testing.assert_allclose(partial_trace_first(I4), 2 * I2)

    def test_c_sym_partial_trace(self):
        # termwise: sum_j (s_j^2 tr I + I tr s_j^2 - 2 s_j tr s_j) = 12 I
        termwise = sum(
            PAULI[j] @ PAULI[j] * 2 + I2 * np.trace(PAULI[j] @ PAULI[j]) - 2 * PAULI[j] * np.trace(PAULI[j])
            for j in (1, 2, 3)
        )
        np.testing.assert_allclose(termwise, 12 * I2, atol=1e-12)
        np.testing.assert_allclose(partial_trace_second(C_SYM), 12 * I2, atol=1e-12)

    def test_trace_consistency(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            t1 = np.trace(partial_trace_first(m))
            t2 = np.trace(partial_trace_second(m))
            assert abs(t1 - np.trace(m)) < 1e-12
            assert abs(t2 - np.trace(m)) < 1e-12


class TestEigHermitian:
    def test_sz(self):
        w, _ = eig_hermitian(PAULI[3])
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14)

    def test_c_z_spectrum(self):
        w, _ = eig_hermitian(C_Z)
        np.testing.assert_allclose(w, [0.0, 0.0, 4.0, 4.0], atol=1e-12)

    def test_c_sym_spectrum(self):
        w, _ = eig_hermitian(C_SYM)
        np.testing.assert_allclose(w, [0.0, 8.0, 8.0, 8.0], atol=1e-12)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(2)
        for k in range(1000):
            dim = 2 if k % 2 else 4
            m = random_hermitian(rng, dim)
            w, v = eig_hermitian(m)
            assert np.all(np.diff(w) >= -1e-14)
            recon = (v * w) @ v.conj().T
            norm = np.linalg.norm(m)
            assert np.linalg.norm(m - recon) <= 1e-10 * (1 + norm)
            assert np.abs(v.conj().T @ v - np.eye(dim)).max() <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ContractViolation):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize(
        "m",
        [
            np.array([[np.nan, 0.0], [0.0, 1.0]]),
            np.array([[np.inf, 0.0], [0.0, 1.0]]),
            np.stack([I4, np.diag([1.0, 0.0, np.nan, 0.0])]),
        ],
        ids=["nan", "inf", "nan-in-stack"],
    )
    def test_rejects_non_finite_input(self, m):
        with pytest.raises(ContractViolation):
            eig_hermitian(m)


class TestSqrtPsd:
    def test_maximally_mixed(self):
        np.testing.assert_allclose(sqrt_psd(I2 / 2), I2 / np.sqrt(2), atol=1e-14)

    def test_pure_state_idempotent(self):
        rho = 0.5 * (I2 + PAULI[1])
        np.testing.assert_allclose(sqrt_psd(rho), rho, atol=1e-12)

    def test_half_z_state(self):
        rho = 0.5 * (I2 + 0.5 * PAULI[3])
        lam = 0.75
        plus = 0.5 * (I2 + PAULI[3])
        minus = 0.5 * (I2 - PAULI[3])
        expected = np.sqrt(lam) * plus + np.sqrt(1 - lam) * minus
        np.testing.assert_allclose(sqrt_psd(rho), expected, atol=1e-12)
        np.testing.assert_allclose(sqrt_psd(rho) @ sqrt_psd(rho), rho, atol=1e-12)

    def test_square_back_random(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            m = random_psd2(rng)
            s = sqrt_psd(m)
            assert np.linalg.norm(s @ s - m) <= 1e-10 * (1 + np.linalg.norm(m))

    def test_rejects_negative(self):
        with pytest.raises(ContractViolation):
            sqrt_psd(np.diag([1.0, -1e-6]))


class TestVecAndBraKet:
    def test_pauli_orthogonality(self):
        for i in range(4):
            for j in range(4):
                inner = np.vdot(vec(PAULI[i]), vec(PAULI[j]))
                assert inner == (2.0 if i == j else 0.0)

    def test_bra_cost_ket_sx(self):
        assert bra_cost_ket(PAULI[1], C_Z) == pytest.approx(8.0, abs=1e-12)

    def test_bra_cost_ket_identity_kernel(self):
        assert bra_cost_ket(I2 / np.sqrt(2), C_Z) == pytest.approx(0.0, abs=1e-12)

    def test_bra_cost_ket_sz(self):
        assert bra_cost_ket(PAULI[3], C_Z) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [(2, 2), (3, 2, 2)], ids=["one", "stack"])
    def test_bra_cost_ket_rejects_a_non_finite_operator_or_cost(self, bad, shape):
        x = np.broadcast_to(I2 / np.sqrt(2), shape).copy()
        x[..., 0, 1] = bad
        with pytest.raises(ContractViolation, match="bra_cost_ket"):
            bra_cost_ket(x, C_Z)
        cost = C_Z.copy()
        cost[2, 1] = bad
        with pytest.raises(ContractViolation, match="bra_cost_ket"):
            bra_cost_ket(np.broadcast_to(I2, shape), cost)


class TestStacks:
    def test_stack_matches_per_matrix_calls(self):
        rng = np.random.default_rng(4)
        psd = np.array([random_psd2(rng) for _ in range(50)])
        herm = np.array([random_hermitian(rng, 2) for _ in range(50)])
        roots = sqrt_psd(psd.reshape(5, 10, 2, 2)).reshape(50, 2, 2)
        for i in range(50):
            np.testing.assert_allclose(roots[i], sqrt_psd(psd[i]), rtol=0, atol=1e-14)
            np.testing.assert_array_equal(vec(herm)[i], vec(herm[i]))
        for c in (C_SYM, C_Z):
            vals = bra_cost_ket(herm, c)
            assert vals.shape == (50,)
            np.testing.assert_allclose(vals, [bra_cost_ket(x, c) for x in herm], rtol=0, atol=1e-14)

    def test_stack_with_one_negative_matrix_is_rejected(self):
        stack = np.array([I2 / 2, np.diag([1.0, -1e-6]), I2 / 2])
        with pytest.raises(ContractViolation):
            sqrt_psd(stack)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: sqrt_psd(np.zeros((3, 4, 4))),
            lambda: sqrt_psd(np.zeros((3, 2, 3))),
            lambda: vec(np.zeros((3, 3, 3))),
            lambda: bra_cost_ket(np.zeros((3, 2, 2)), np.zeros((3, 4, 4))),
        ],
    )
    def test_wrong_trailing_shape(self, call):
        with pytest.raises(ContractViolation):
            call()

    @pytest.mark.parametrize(
        "call",
        [
            lambda: tensor(np.stack([I2, I2]), I2),
            lambda: tensor(I2, np.stack([I2, I2])),
            lambda: transpose_op(np.stack([I2, I2])),
            lambda: partial_trace_second(np.stack([I4, I4])),
            lambda: partial_trace_first(np.stack([I4, I4])),
        ],
    )
    def test_single_matrix_helpers_reject_stacks(self, call):
        with pytest.raises(ContractViolation):
            call()


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def kernel_inputs(rng, kind, lanes):
    """(lanes, d, d) positive definite matrices: 2x2 states, 4x4 complex
    Hermitian, or 9x9 real symmetric; lanes=None gives one matrix."""
    n = 1 if lanes is None else lanes
    if kind == "state":
        b = rng.normal(size=(n, 3))
        b *= rng.uniform(0.0, 1.0, size=(n, 1)) / np.linalg.norm(b, axis=1, keepdims=True)
        m = 0.5 * (I2 + np.einsum("nk,kij->nij", b, np.array(PAULI[1:])))
    else:
        d, cplx = (4, True) if kind == "herm4" else (9, False)
        a = rng.normal(size=(n, d, d)) + (1j * rng.normal(size=(n, d, d)) if cplx else 0.0)
        m = a @ np.swapaxes(a.conj(), -1, -2) + 0.1 * np.eye(d)
    return m[0] if lanes is None else m


def public_and_kernel(rng, name, m):
    """The public numpy function and the bound kernel, applied to m."""
    b = rng.normal(size=m.shape[:-1])
    return {
        "cholesky": (lambda: np.linalg.cholesky(m), lambda: cholesky_lo(m)),
        "inv": (lambda: np.linalg.inv(m), lambda: inv(m)),
        "solve": (lambda: np.linalg.solve(m, b[..., None]), lambda: solve(m, b[..., None])),
        "eigh": (lambda: tuple(np.linalg.eigh(m)), lambda: eigh_lo(m)),
        "eigvalsh": (lambda: np.linalg.eigvalsh(m), lambda: eigvalsh_lo(m)),
    }[name]


KERNELS = ("cholesky", "inv", "solve", "eigh", "eigvalsh")
# the kernels that fail on a lane, each with a stack as its one argument
FAILING = {"cholesky": cholesky_lo, "inv": inv, "solve": lambda m: solve(m, np.ones((*m.shape[:-1], 1)))}


class TestKernels:
    """The LAPACK kernels bound in `qwasser.linalg` against numpy's public
    functions, which wrap the same gufuncs; a numpy release that renames or
    changes the private gufuncs fails here."""

    @pytest.mark.parametrize("lanes", [None, 1, 7])
    @pytest.mark.parametrize("kind", ["state", "herm4", "spd9"])
    @pytest.mark.parametrize("name", KERNELS)
    def test_kernel_matches_the_public_function_bit_for_bit(self, name, kind, lanes):
        rng = np.random.default_rng(KERNELS.index(name))
        public, kernel = public_and_kernel(rng, name, kernel_inputs(rng, kind, lanes))
        want, got = public(), kernel()
        if name == "eigh":
            assert all(same_bits(w, g) for w, g in zip(want, got, strict=True))
        else:
            assert same_bits(want, got)

    @staticmethod
    def failing_stack(name):
        """Five 9x9 SPD lanes, lane 2 replaced by one the kernel fails on."""
        m = kernel_inputs(np.random.default_rng(5), "spd9", 5)
        bad = m[2].copy()
        if name == "cholesky":
            bad[4, 4] = -1.0  # not positive definite
        else:
            bad[:, 6] = 0.0  # an exactly zero column: singular
        return m, np.concatenate((m[:2], bad[None], m[3:]))

    @pytest.mark.parametrize("name", sorted(FAILING))
    def test_a_failing_lane_is_nan_and_leaves_the_others(self, name):
        good, stack = self.failing_stack(name)
        kernel = FAILING[name]
        with np.errstate(invalid="ignore"):
            out, ref = kernel(stack), kernel(good)
        assert np.isnan(out[2]).all()
        keep = [0, 1, 3, 4]
        assert same_bits(out[keep], ref[keep])
        assert same_bits(out[keep], kernel(good[keep]))

    @pytest.mark.parametrize("name", sorted(FAILING))
    def test_a_failure_warns_only_outside_an_invalid_ignore_scope(self, name):
        _, stack = self.failing_stack(name)
        kernel = FAILING[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(invalid="ignore"):
                kernel(stack)
        with pytest.warns(RuntimeWarning, match="invalid value"):
            kernel(stack)


def test_the_private_gufuncs_are_bound_in_one_place():
    # every other module takes the kernels from qwasser.linalg, and none
    # calls the public wrappers these kernels replace
    src = Path(qwasser.__file__).parent
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        if path.name != "linalg.py":
            assert "_umath_linalg" not in text, path.name
        for fn in ("cholesky", "inv", "solve", "eigh", "eigvalsh"):
            assert f"np.linalg.{fn}(" not in text, (path.name, fn)
