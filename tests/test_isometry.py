"""Tests for state maps, the SU(2)/SO(3) bridge, and the isometry harness."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qwasser.errors import DomainError
from qwasser.isometry import (
    MAP_FAMILIES,
    METRICS,
    antiunitary_conj_map,
    apply_state_map,
    bloch_action_matrix,
    bloch_self_map,
    check_isometries,
    check_isometry,
    discontinuous_z_phase_field_map,
    dz_condition_report,
    fixed_panel_states,
    orthogonal_bloch_map,
    rotation_to_unitary,
    sample_b3_negating_bloch_map,
    sample_state_pairs,
    sample_wigner_map,
    sample_z_phase_field_map,
    satisfies_dz_condition,
    theorem_crosscheck_dz,
    unitary_conj_map,
    z_phase_field_map,
    z_phase_unitary,
)
from qwasser.sampling import (
    derived_rng,
    random_bloch_in_ball,
    random_bloch_on_sphere,
    random_rotation,
    random_unitary,
)
from qwasser.states import PAULI, bloch_from_state, state_from_bloch
from qwasser.cost import z_cost
from qwasser.transport import solve_min_coupling


def rot_x(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def axis_rotation(axis, theta):
    """Rodrigues' formula: rotation by theta about the direction of axis."""
    n = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    k = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
    return np.eye(3) + math.sin(theta) * k + (1.0 - math.cos(theta)) * k @ k


class TestApply:
    def test_sx_flips_poles(self):
        m = unitary_conj_map(PAULI[1], "sx")
        out = apply_state_map(m, state_from_bloch([0, 0, 1]))
        np.testing.assert_allclose(out, state_from_bloch([0, 0, -1]), atol=1e-14)

    def test_conjugation_bloch_action(self):
        m = antiunitary_conj_map(np.eye(2, dtype=complex), "K")
        out = apply_state_map(m, state_from_bloch([0.3, 0.4, 0.5]))
        np.testing.assert_allclose(bloch_from_state(out), [0.3, -0.4, 0.5], atol=1e-14)

    def test_constant_zero_phase_field_is_identity(self):
        m = z_phase_field_map(lambda rho: 0.0, "zero")
        rho = state_from_bloch([0.2, -0.1, 0.6])
        np.testing.assert_allclose(apply_state_map(m, rho), rho, atol=1e-14)

    def test_bloch_map_outside_ball_rejected(self):
        m = bloch_self_map(lambda b: 2.0 * b + np.array([1.0, 0, 0]), "bad")
        with pytest.raises(DomainError):
            apply_state_map(m, state_from_bloch([0.9, 0, 0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_phase_rejected_without_a_warning(self, bad):
        m = z_phase_field_map(lambda rho: bad if rho[0, 0].real > 0.5 else 0.3, "bad-phase")
        states = state_from_bloch([[0.2, 0.0, -0.4], [0.0, 0.3, 0.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rho in (states[1], states):
                with pytest.raises(DomainError, match="non-finite phase"):
                    apply_state_map(m, rho)


def one_state_apply(state_map, rho):
    """apply_state_map as written for a single state: the reference a stack
    must match state by state, bit for bit and error for error."""
    f = state_map.payload
    if state_map.kind == "unitary_conj":
        return f @ rho @ f.conj().T
    if state_map.kind == "antiunitary_conj":
        return f @ rho.conj() @ f.conj().T
    if state_map.kind == "bloch_map":
        return state_from_bloch(np.asarray(f(bloch_from_state(rho)), dtype=float))
    t = float(f(rho))
    u = np.array([[np.exp(1j * t), 0.0], [0.0, np.exp(-1j * t)]], dtype=complex)
    return u @ rho @ u.conj().T


def same_bits(a, b) -> bool:
    a, b = np.asarray(a).view(float), np.asarray(b).view(float)
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _map_of_kind(kind: str, seed: int):
    rng = derived_rng(seed, 0)
    if kind == "unitary_conj":
        return unitary_conj_map(random_unitary(rng))
    if kind == "antiunitary_conj":
        return antiunitary_conj_map(random_unitary(rng))
    if kind == "z_phase_field":
        return sample_z_phase_field_map(rng)
    if seed % 2:
        return sample_b3_negating_bloch_map(rng)
    s = float(rng.uniform(0.5, 1.5))  # images of outer states leave the ball when s > 1
    return bloch_self_map(lambda b: s * b, f"scale({s:.3f})")


class TestApplyStacks:
    @settings(max_examples=80)
    @given(
        kind=st.sampled_from(["unitary_conj", "antiunitary_conj", "bloch_map", "z_phase_field"]),
        seed=st.integers(0, 10_000),
        n=st.integers(1, 6),
        nested=st.booleans(),
    )
    @example(kind="bloch_map", seed=6, n=4, nested=True)  # images 1 and 2 leave the ball
    def test_stack_matches_one_state_at_a_time(self, kind, seed, n, nested):
        state_map = _map_of_kind(kind, seed)
        rng = derived_rng(seed, 1)
        rhos = state_from_bloch([
            random_bloch_on_sphere(rng) if rng.uniform() < 0.3 else random_bloch_in_ball(rng) for _ in range(n)
        ])
        stack = rhos.reshape(2, -1, 2, 2) if nested and n % 2 == 0 else rhos
        expected = []
        for i, rho in enumerate(rhos):
            try:
                expected.append(one_state_apply(state_map, rho))
            except DomainError as alone:
                with pytest.raises(DomainError) as in_stack:
                    apply_state_map(state_map, stack)
                assert str(in_stack.value) == str(alone).replace("state_from_bloch:", f"state_from_bloch[{i}]:", 1)
                with pytest.raises(DomainError) as single:
                    state_map(rho)
                assert str(single.value) == str(alone)
                return
        assert same_bits(apply_state_map(state_map, stack), np.reshape(expected, stack.shape))
        for rho, image in zip(rhos, expected):
            assert same_bits(state_map(rho), image)

    def test_sampled_pairs_are_one_stack(self):
        pairs = sample_state_pairs(derived_rng(3, 0), 11)
        assert pairs.shape == (11, 2, 2, 2)
        np.testing.assert_array_equal(pairs[:2], state_from_bloch([[[0, 0, 1], [0, 0, -1]], [[0, 0, 0], [0, 0, 1]]]))
        np.testing.assert_array_equal(pairs[5, 0], pairs[5, 1])  # every fourth drawn pair is a self-pair
        assert fixed_panel_states().shape == (7, 2, 2)


class TestRotationToUnitary:
    def test_identity_rotation(self):
        u = rotation_to_unitary(np.eye(3))
        assert np.allclose(u, np.eye(2)) or np.allclose(u, -np.eye(2))

    def test_pi_about_z(self):
        u = rotation_to_unitary(np.diag([-1.0, -1.0, 1.0]))
        # up to global phase this is sigma_z; the Bloch action is what matters
        act = bloch_action_matrix(u)
        np.testing.assert_allclose(act, np.diag([-1.0, -1.0, 1.0]), atol=1e-12)

    def test_quarter_turn_about_x(self):
        u = rotation_to_unitary(rot_x(math.pi / 2))
        rho = state_from_bloch([0, 0, 1])
        out = bloch_from_state(u @ rho @ u.conj().T)
        np.testing.assert_allclose(out, [0.0, -1.0, 0.0], atol=1e-12)

    def test_bloch_action_faithful(self):
        rng = np.random.default_rng(0)
        rotations = [random_rotation(rng) for _ in range(100)]
        # turns by pi and just below it about a generic axis, and the three axis half-turns
        rotations += [axis_rotation((0.3, -0.5, 0.8), math.pi - eps) for eps in (0.0, 1e-8, 1e-12)]
        rotations += [np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, -1.0]), np.diag([-1.0, -1.0, 1.0])]
        worst = 0.0
        for o in rotations:
            u = rotation_to_unitary(o)
            for _ in range(5):
                b = random_bloch_in_ball(rng)
                rho = state_from_bloch(b)
                out = bloch_from_state(u @ rho @ u.conj().T)
                worst = max(worst, float(np.abs(out - o @ b).max()))
        assert worst <= 1e-8

    def test_rejects_reflections(self):
        with pytest.raises(DomainError):
            rotation_to_unitary(np.diag([1.0, 1.0, -1.0]))

    def test_rejects_non_orthogonal(self):
        with pytest.raises(DomainError):
            rotation_to_unitary(np.eye(3) * 1.1)


# Map constructors and the size of the matrix each checks.
MATRIX_CHECKS = {
    "unitary_conj_map": (unitary_conj_map, 2),
    "antiunitary_conj_map": (antiunitary_conj_map, 2),
    "orthogonal_bloch_map": (orthogonal_bloch_map, 3),
    "rotation_to_unitary": (rotation_to_unitary, 3),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", sorted(MATRIX_CHECKS))
def test_non_finite_matrix_is_rejected(name, bad):
    build, dim = MATRIX_CHECKS[name]
    m = np.eye(dim)
    m[-1, -1] = bad
    with pytest.raises(DomainError):
        build(m)


@pytest.mark.parametrize("build", [orthogonal_bloch_map, rotation_to_unitary])
def test_complex_matrix_is_rejected_without_a_warning(build):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="not real"):
            build(np.eye(3) + 0.5j * np.ones((3, 3)))
        build(np.eye(3).astype(complex))  # a zero imaginary part is fine


class TestDzCondition:
    def test_sx_negates_sign(self):
        holds, detail = dz_condition_report(unitary_conj_map(PAULI[1], "sx"))
        assert holds and detail["sign"] == -1

    def test_z_rotation_keeps_sign(self):
        holds, detail = dz_condition_report(unitary_conj_map(z_phase_unitary(0.8), "zrot"))
        assert holds and detail["sign"] == +1

    def test_quarter_x_rotation_fails(self):
        assert not satisfies_dz_condition(orthogonal_bloch_map(rot_x(math.pi / 2), "xr"))

    def test_radial_shrink_fails_on_length(self):
        holds, detail = dz_condition_report(bloch_self_map(lambda b: 0.5 * b, "shrink"))
        assert not holds and detail["reason"] == "bloch-length-changed"

    def test_b3_flipped_on_a_region_fails_with_a_witness(self):
        tol = 1e-5
        flip = bloch_self_map(lambda b: np.array([b[0], b[1], abs(b[2])]), "b3-absolute-value")
        holds, detail = dz_condition_report(flip, tol=tol)
        assert not holds and detail["reason"] == "no-global-sign"
        b, image, sign = detail["witness_bloch"], detail["image_bloch"], detail["sign"]
        assert abs(b[2]) > tol
        assert abs(image[2] - sign * b[2]) > tol
        assert np.sign(image[2]) == -sign * np.sign(b[2])
        assert detail["max_b3_deviation"] == abs(image[2] - sign * b[2])


class TestCheckIsometry:
    def test_unitary_conjugation_preserves_dsym(self):
        u = random_unitary(derived_rng(1, 0))
        report = check_isometry(unitary_conj_map(u, "u"), "D_sym", n_samples=8, seed=2)
        assert report.verdict == "isometry_within_tol"
        assert report.max_abs_deviation <= 1e-6

    def test_z_phase_field_preserves_dz(self):
        def t_fn(rho):
            b = bloch_from_state(rho)
            return 0.4 + 1.3 * b[2] + 0.7 * float(b @ b)

        report = check_isometry(z_phase_field_map(t_fn, "field"), "D_z", n_samples=8, seed=3)
        assert report.verdict == "isometry_within_tol"

    def test_discontinuous_phase_field_still_dz_isometry(self):
        report = check_isometry(discontinuous_z_phase_field_map(), "D_z", n_samples=8, seed=4)
        assert report.verdict == "isometry_within_tol"

    def test_length_changing_swap_violates_dz(self):
        def fn(b):
            swapped = np.array([b[1], b[0], b[2]])
            return 0.6 * swapped

        report = check_isometry(bloch_self_map(fn, "swap+shrink"), "D_z", n_samples=8, seed=5)
        assert report.verdict == "violated"
        assert report.witness_pair is not None
        rho, omega, dev = report.witness_pair
        assert dev > 1e-5

    def test_maps_checked_together_match_one_map_checks(self):
        maps = [sample_wigner_map(derived_rng(20, k)) for k in range(2)] + [
            discontinuous_z_phase_field_map(),
            bloch_self_map(lambda b: 0.6 * b, "shrink"),
        ]
        seeds = [5, 6, 5, 8]  # maps 0 and 2 share their pairs
        for metric in METRICS:
            together = check_isometries(maps, seeds, metric, n_samples=6)
            for state_map, seed, report in zip(maps, seeds, together):
                alone = check_isometry(state_map, metric, n_samples=6, seed=seed)
                assert report.verdict == alone.verdict
                assert report.max_abs_deviation == pytest.approx(alone.max_abs_deviation, abs=1e-9)

    def test_unknown_metric(self):
        with pytest.raises(DomainError):
            check_isometry(unitary_conj_map(np.eye(2), "id"), "D_xz")


IDENTITY_MAP = unitary_conj_map(np.eye(2), "id")
# Harness calls whose arguments the harness cannot use.
BAD_HARNESS_CALLS = {
    "no-maps": lambda: check_isometries([], [], "D_z"),
    "too-few-seeds": lambda: check_isometries([IDENTITY_MAP, IDENTITY_MAP], [0], "D_z"),
    "too-many-seeds": lambda: check_isometries([IDENTITY_MAP], [0, 1], "D_sym"),
    "no-samples": lambda: check_isometries([IDENTITY_MAP], [0], "d_sym", n_samples=0),
    "crosscheck-no-maps": lambda: theorem_crosscheck_dz(MAP_FAMILIES["z_rotations"], n_maps=0),
    # a NaN tol called every map violated, an infinite one every map an isometry
    "nan-tol": lambda: check_isometry(IDENTITY_MAP, "D_z", tol=math.nan),
    "negative-tol": lambda: check_isometries([IDENTITY_MAP], [0], "d_sym", tol=-1e-5),
    "zero-tol": lambda: check_isometries([IDENTITY_MAP], [0], "D_sym", tol=0.0),
    "infinite-tol": lambda: check_isometry(bloch_self_map(lambda b: 0.5 * b, "shrink"), "D_z", tol=math.inf),
    "crosscheck-nan-tol": lambda: theorem_crosscheck_dz(MAP_FAMILIES["adversarial"], n_maps=2, tol=math.nan),
    "crosscheck-infinite-tol": lambda: theorem_crosscheck_dz(MAP_FAMILIES["adversarial"], n_maps=2, tol=math.inf),
    "condition-nan-tol": lambda: dz_condition_report(IDENTITY_MAP, tol=math.nan),
    "condition-negative-tol": lambda: satisfies_dz_condition(IDENTITY_MAP, tol=-1.0),
    "condition-infinite-tol": lambda: satisfies_dz_condition(IDENTITY_MAP, tol=math.inf),
}


@pytest.mark.parametrize("call", sorted(BAD_HARNESS_CALLS))
def test_bad_harness_arguments_are_domain_errors(call):
    with pytest.raises(DomainError):
        BAD_HARNESS_CALLS[call]()


class TestWignerClosure:
    def test_compositions_remain_dsym_isometries(self):
        rng = derived_rng(6, 0)
        u1, u2 = random_unitary(rng), random_unitary(rng)
        # antiunitary(u2) after unitary(u1) is antiunitary with u2 conj(u1)
        composite = antiunitary_conj_map(u2 @ u1.conj(), "antiunitary-after-unitary")
        direct_then = check_isometry(composite, "d_sym", n_samples=8, seed=7)
        assert direct_then.verdict == "isometry_within_tol"
        # two antiunitaries compose to a unitary
        composite2 = unitary_conj_map(u1 @ u2.conj(), "two-antiunitaries")
        assert (
            check_isometry(composite2, "d_sym", n_samples=8, seed=8).verdict
            == "isometry_within_tol"
        )


class TestCrosscheck:
    @pytest.mark.parametrize("family", sorted(MAP_FAMILIES))
    def test_families_agree(self, family):
        report = theorem_crosscheck_dz(MAP_FAMILIES[family], n_maps=8, n_samples=8, seed=9)
        assert report.all_agree, report.disagreements

    def test_families_checked_together_match_one_family_crosschecks(self):
        from qwasser.isometry import _crosscheck_dz

        together = _crosscheck_dz(list(MAP_FAMILIES.values()), n_maps=4, n_samples=6, tol=1e-5, seed=13)
        for sampler, report in zip(MAP_FAMILIES.values(), together):
            alone = theorem_crosscheck_dz(sampler, n_maps=4, n_samples=6, seed=13)
            assert (report.n_maps, report.n_agreements) == (alone.n_maps, alone.n_agreements)
            for a, b in zip(report.per_map, alone.per_map):
                assert (a.map_id, a.isometry_verdict, a.condition_holds, a.agree) == (
                    b.map_id, b.isometry_verdict, b.condition_holds, b.agree)
                assert a.max_abs_deviation == pytest.approx(b.max_abs_deviation, abs=1e-9)

    def test_adversarial_produce_witnesses(self):
        report = theorem_crosscheck_dz(MAP_FAMILIES["adversarial"], n_maps=8, n_samples=8, seed=10)
        for r in report.per_map:
            assert r.isometry_verdict == "violated"
            assert not r.condition_holds
            assert r.witness is not None


class TestDiameter:
    def test_sampled_pairs_within_diameter(self):
        rng = np.random.default_rng(11)
        c = z_cost()
        worst = 0.0
        for _ in range(200):
            rho = state_from_bloch(random_bloch_in_ball(rng))
            omega = state_from_bloch(random_bloch_in_ball(rng))
            val = solve_min_coupling(rho, omega, c).optimal_value
            worst = max(worst, val)
        assert worst <= 4.0 + 1e-9

    def test_wigner_map_sampler_runs(self):
        m = sample_wigner_map(derived_rng(12, 0))
        assert m.kind in ("unitary_conj", "antiunitary_conj")
