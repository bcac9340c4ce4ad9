"""Unit tests for states and Bloch coordinates."""

import numpy as np
import pytest

from qwasser.errors import ContractViolation, DomainError
from qwasser.sampling import random_bloch_in_ball
from qwasser.states import (
    PAULI,
    bloch_from_state,
    is_pure,
    named_state,
    pauli,
    state_from_bloch,
    validate_state,
)


class TestPauli:
    def test_constants(self):
        assert np.array_equal(pauli(0), np.eye(2))
        assert np.array_equal(pauli(1), np.array([[0, 1], [1, 0]]))
        assert np.array_equal(pauli(2), np.array([[0, -1j], [1j, 0]]))
        assert np.array_equal(pauli(3), np.diag([1.0, -1.0]))

    def test_index_error(self):
        with pytest.raises(DomainError):
            pauli(4)


class TestBlochMaps:
    def test_center(self):
        assert np.array_equal(state_from_bloch([0, 0, 0]), np.eye(2) / 2)

    def test_north_pole(self):
        assert np.array_equal(state_from_bloch([0, 0, 1]), np.diag([1.0, 0.0]))

    def test_plus_x(self):
        np.testing.assert_allclose(
            state_from_bloch([1, 0, 0]), 0.5 * np.array([[1, 1], [1, 1]]), atol=1e-15
        )

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            b = random_bloch_in_ball(rng)
            np.testing.assert_allclose(bloch_from_state(state_from_bloch(b)), b, atol=1e-12)

    def test_clamps_small_overshoot(self):
        b = np.array([0.0, 0.0, 1.0 + 5e-7])
        rho = state_from_bloch(b)
        assert np.linalg.norm(bloch_from_state(rho)) <= 1.0 + 1e-12

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DomainError):
            state_from_bloch([bad, 0.0, 0.0])

    def test_rejects_far_outside(self):
        with pytest.raises(DomainError):
            state_from_bloch([0.0, 0.0, 1.01])


class TestPurity:
    def test_pole_is_pure(self):
        assert is_pure(np.diag([1.0, 0.0]))

    def test_center_is_mixed(self):
        assert not is_pure(np.eye(2) / 2)

    def test_pythagorean_pure(self):
        assert is_pure(state_from_bloch([0.6, 0.0, 0.8]))

    def test_boundary_eigenvalues(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            w = np.linalg.eigvalsh(state_from_bloch(v))
            assert abs(w[0]) <= 1e-10
            inner = state_from_bloch(0.9 * v)
            assert np.linalg.eigvalsh(inner)[0] > 0.0


class TestValidateState:
    def test_accepts_valid(self):
        validate_state(state_from_bloch([0.2, -0.3, 0.4]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError):
            validate_state(np.array([[0.5, 0.1], [0.0, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(DomainError):
            validate_state(np.eye(2))

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            validate_state(np.diag([1.2, -0.2]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, bad):
        m = np.diag([1.0, 0.0]).astype(complex)
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(DomainError):
            validate_state(m)


class TestValidateStack:
    BAD = {
        "non-finite": np.array([[np.nan, 0.0], [0.0, 0.5]]),
        "non-Hermitian": np.array([[0.5, 0.1], [0.0, 0.5]]),
        "trace": np.eye(2),
        "negative": np.diag([1.2, -0.2]),
    }

    def test_stack_is_accepted_and_returned(self):
        rng = np.random.default_rng(2)
        stack = np.array([state_from_bloch(random_bloch_in_ball(rng)) for _ in range(12)])
        np.testing.assert_array_equal(validate_state(stack.reshape(3, 4, 2, 2)), stack.reshape(3, 4, 2, 2))
        assert validate_state(np.empty((0, 2, 2))).shape == (0, 2, 2)

    @pytest.mark.parametrize("kind", sorted(BAD))
    def test_one_bad_state_fails_the_stack_as_it_fails_alone(self, kind):
        bad = self.BAD[kind]
        with pytest.raises(DomainError) as alone:
            validate_state(bad, "rho")
        good = state_from_bloch([0.1, 0.2, -0.3])
        with pytest.raises(DomainError) as in_stack:
            validate_state(np.array([good, good, bad, good]), "rho")
        assert str(in_stack.value) == str(alone.value).replace("rho:", "rho[2]:", 1)

    @pytest.mark.parametrize("shape", [(3, 3, 3), (4, 2), (2,), (5, 4, 4)])
    def test_wrong_trailing_shape(self, shape):
        with pytest.raises(ContractViolation):
            validate_state(np.zeros(shape))


class TestNamedStates:
    def test_all_named(self):
        assert np.array_equal(named_state("plus_z"), np.diag([1.0, 0.0]))
        assert np.array_equal(named_state("minus_z"), np.diag([0.0, 1.0]))
        np.testing.assert_allclose(named_state("plus_x"), 0.5 * (PAULI[0] + PAULI[1]))
        np.testing.assert_allclose(named_state("plus_y"), 0.5 * (PAULI[0] + PAULI[2]))
        assert np.array_equal(named_state("maximally_mixed"), np.eye(2) / 2)

    def test_unknown(self):
        with pytest.raises(DomainError):
            named_state("plus_w")
