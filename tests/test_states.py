"""Unit tests for states and Bloch coordinates."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qwasser.errors import ContractViolation, DomainError
from qwasser.sampling import random_bloch_in_ball
from qwasser.states import (
    BLOCH_CLAMP,
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


def one_point_state_from_bloch(b):
    """state_from_bloch as written for a single point: the reference a stack
    must match row by row, bit for bit and error for error."""
    b = np.asarray(b, dtype=float)
    if not np.isfinite(b).all():
        raise DomainError(f"state_from_bloch: non-finite Bloch coordinate in {b.tolist()}")
    norm = float(np.linalg.norm(b))
    if norm > 1.0 + BLOCH_CLAMP:
        raise DomainError(f"state_from_bloch: Bloch norm {norm:.12g} outside the unit ball")
    if norm > 1.0:
        b = b / norm
    return 0.5 * (PAULI[0] + b[0] * PAULI[1] + b[1] * PAULI[2] + b[2] * PAULI[3])


def same_bits(a, b) -> bool:
    a, b = np.asarray(a).view(float), np.asarray(b).view(float)
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _row(theta, phi, kind, t):
    """A Bloch row of one kind; t in [0, 1] places it within its band."""
    if kind == "nan":
        row = np.zeros(3)
        row[int(3 * t) % 3] = np.nan
        return row
    norm = {
        "ball": t,
        "sphere": 1.0,
        "clamp": 1.0 + t * BLOCH_CLAMP,
        "outside": 1.0 + BLOCH_CLAMP * (1.0 + 1e3 * t) + 1e-12,
    }[kind]
    return norm * np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)])


bloch_rows = st.builds(
    _row,
    st.floats(0.0, math.pi),
    st.floats(0.0, 2.0 * math.pi),
    st.sampled_from(["ball", "ball", "sphere", "clamp", "outside", "nan"]),
    st.floats(0.0, 1.0),
)


class TestBlochStacks:
    @settings(max_examples=150)
    @given(rows=st.lists(bloch_rows, min_size=1, max_size=6), nested=st.booleans())
    @example(rows=[_row(0.3, 0.2, "ball", 0.5), _row(1.1, 2.0, "clamp", 0.7)], nested=False)
    @example(rows=[_row(0.3, 0.2, "ball", 0.5), _row(1.1, 2.0, "outside", 0.1)], nested=False)
    @example(rows=[_row(0.3, 0.2, "sphere", 0.0), _row(2.0, 1.0, "ball", 0.9),
                   _row(1.1, 2.0, "nan", 0.5), _row(0.7, 0.4, "outside", 0.0)], nested=True)
    def test_stack_matches_one_point_at_a_time(self, rows, nested):
        stack = np.array(rows)
        if nested and len(rows) % 2 == 0:
            stack = stack.reshape(2, -1, 3)
        expected = []
        for i, row in enumerate(rows):
            try:
                expected.append(one_point_state_from_bloch(row))
            except DomainError as alone:
                # the first bad row fails the stack with its own error and index
                with pytest.raises(DomainError) as in_stack:
                    state_from_bloch(stack)
                assert str(in_stack.value) == str(alone).replace("state_from_bloch:", f"state_from_bloch[{i}]:", 1)
                with pytest.raises(DomainError) as single:
                    state_from_bloch(row)
                assert str(single.value) == str(alone)
                return
        assert same_bits(state_from_bloch(stack), np.reshape(expected, (*stack.shape[:-1], 2, 2)))
        for row, rho in zip(rows, expected):
            assert same_bits(state_from_bloch(row), rho)

    def test_empty_stack(self):
        assert state_from_bloch(np.empty((0, 3))).shape == (0, 2, 2)

    @pytest.mark.parametrize("shape", [(), (2,), (4,), (3, 2)])
    def test_wrong_trailing_shape(self, shape):
        with pytest.raises(DomainError, match="expected 3 real coordinates"):
            state_from_bloch(np.zeros(shape))


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
