"""Unit tests for couplings, the transport solver, and divergences."""

import math
import warnings

import numpy as np
import pytest

from qwasser import transport
from qwasser.cost import build_cost, sym_cost, z_cost
from qwasser.errors import ContractViolation, DomainError, InternalConsistencyError
from qwasser.isometry import apply_state_map, sample_wigner_map
from qwasser.linalg import bra_cost_ket, sqrt_psd, tensor, transpose_op
from qwasser.sampling import derived_rng, random_bloch_in_ball, random_bloch_on_sphere, random_unitary
from qwasser.states import bloch_from_state, state_from_bloch
from qwasser.transport import (
    Coupling,
    SolverConfig,
    coupling_cost,
    divergence_breakdown,
    divergence_breakdowns,
    product_coupling,
    purification_coupling,
    self_distance_sq,
    solve_min_coupling,
    solve_min_couplings,
    sym_self_distance_sq_closed,
    sym_self_distance_sq_published,
    wasserstein_distance,
    wasserstein_divergence,
    z_self_distance_sq_closed,
    z_self_distance_sq_published,
)

C_SYM = sym_cost()
C_Z = z_cost()
FORCED = SolverConfig(fast_paths=False)


def raw_psd_cost():
    """A 4x4 PSD matrix that no generator set builds; for rho = (0.3, -0.2, 0.4)
    the identical-state closed form would claim 2.1116 with gap 0, while the
    forced barrier certifies 1.8789."""
    rng = np.random.default_rng(1)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return a @ a.conj().T


RAW_PAIR_STATE = state_from_bloch((0.3, -0.2, 0.4))
# Every public entry point that takes a cost, on the identical pair above.
COST_ENTRY_POINTS = {
    "solve_min_coupling": lambda c: solve_min_coupling(RAW_PAIR_STATE, RAW_PAIR_STATE, c),
    "solve_min_couplings": lambda c: solve_min_couplings([RAW_PAIR_STATE], [RAW_PAIR_STATE], c),
    "divergence_breakdown": lambda c: divergence_breakdown(RAW_PAIR_STATE, RAW_PAIR_STATE, c),
    "divergence_breakdowns": lambda c: divergence_breakdowns([RAW_PAIR_STATE], [RAW_PAIR_STATE], c),
    "wasserstein_distance": lambda c: wasserstein_distance(RAW_PAIR_STATE, RAW_PAIR_STATE, c),
    "wasserstein_divergence": lambda c: wasserstein_divergence(RAW_PAIR_STATE, RAW_PAIR_STATE, c),
    "self_distance_sq": lambda c: self_distance_sq(RAW_PAIR_STATE, c),
    "coupling_cost": lambda c: coupling_cost(purification_coupling(RAW_PAIR_STATE), c),
}


class TestProductCoupling:
    def test_maximally_mixed(self):
        pi = product_coupling(np.eye(2) / 2, np.eye(2) / 2)
        np.testing.assert_allclose(pi.matrix, np.eye(4) / 4, atol=1e-15)

    def test_marginals_hold(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            rho = state_from_bloch(random_bloch_in_ball(rng))
            omega = state_from_bloch(random_bloch_in_ball(rng))
            pi = product_coupling(rho, omega)
            assert pi.marginal_residual() < 1e-14
            assert abs(np.trace(pi.matrix) - 1.0) < 1e-14

    def test_matches_tensor_construction(self):
        rho = state_from_bloch([0.1, 0.2, -0.3])
        omega = state_from_bloch([0.0, -0.5, 0.2])
        pi = product_coupling(rho, omega)
        np.testing.assert_allclose(pi.matrix, tensor(omega, transpose_op(rho)), atol=0)


class TestCouplingCost:
    def test_pure_pair_sym(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            b1, b2 = random_bloch_on_sphere(rng), random_bloch_on_sphere(rng)
            pi = product_coupling(state_from_bloch(b1), state_from_bloch(b2))
            assert coupling_cost(pi, C_SYM) == pytest.approx(6.0 - 2.0 * b1 @ b2, abs=1e-12)

    def test_pure_self_sym_is_4(self):
        b = np.array([0.6, 0.0, 0.8])
        pi = product_coupling(state_from_bloch(b), state_from_bloch(b))
        assert coupling_cost(pi, C_SYM) == pytest.approx(4.0, abs=1e-12)

    def test_product_z_cost(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            b1, b2 = random_bloch_in_ball(rng), random_bloch_in_ball(rng)
            pi = product_coupling(state_from_bloch(b1), state_from_bloch(b2))
            assert coupling_cost(pi, C_Z) == pytest.approx(2.0 - 2.0 * b1[2] * b2[2], abs=1e-12)

    def test_rejects_large_imaginary_part(self):
        with pytest.raises(InternalConsistencyError):
            coupling_cost(1j * np.eye(4) / 4, C_SYM)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
    @pytest.mark.parametrize("stack", [False, True], ids=["one", "stack"])
    def test_rejects_a_non_finite_matrix(self, bad, stack):
        # the caller's input, not the program, is at fault: the shape check's error
        m = np.stack([np.eye(4) / 4] * 3) if stack else np.eye(4) / 4
        m = m.astype(complex)
        m[..., 1, 2] = bad
        rho = state_from_bloch([0.1, 0.2, 0.3])
        for pi in (m, Coupling(m[0] if stack else m, rho, rho.T)):
            with pytest.raises(ContractViolation, match="coupling_cost"):
                coupling_cost(pi, C_SYM)

    @pytest.mark.parametrize("shape", [(2, 2), (4, 2), (3, 2, 2), (4,)])
    def test_rejects_a_matrix_that_is_not_4x4(self, shape):
        with pytest.raises(ContractViolation, match="coupling_cost"):
            coupling_cost(np.ones(shape) / 4, C_SYM)

    @pytest.mark.parametrize("entry_point", sorted(COST_ENTRY_POINTS))
    def test_raw_matrix_cost_is_rejected(self, entry_point):
        # only build_cost makes a cost, so the identical-state closed form is exact for every cost
        with pytest.raises(DomainError, match="CostOperator"):
            COST_ENTRY_POINTS[entry_point](raw_psd_cost())

    def test_coupling_cost_of_a_stack(self):
        rng = np.random.default_rng(4)
        pis = [product_coupling(state_from_bloch(random_bloch_in_ball(rng)),
                                state_from_bloch(random_bloch_in_ball(rng))) for _ in range(5)]
        costs = coupling_cost(np.stack([pi.matrix for pi in pis]), C_SYM)
        assert costs.shape == (5,)
        assert costs == pytest.approx([coupling_cost(pi, C_SYM) for pi in pis], abs=1e-15)


class TestPurificationCoupling:
    def test_marginals(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            rho = state_from_bloch(random_bloch_in_ball(rng))
            pi = purification_coupling(rho)
            assert pi.marginal_residual() < 1e-12
            w = np.linalg.eigvalsh(pi.matrix)
            assert w[0] >= -1e-12
            assert sum(w > 1e-10) == 1  # rank one

    def test_pure_state_purification_is_product(self):
        # sqrt(rho) is 1/2-Hoelder at the pure boundary, so eigensolver
        # roundoff ~1e-16 can surface as ~1e-8 here; the tolerance reflects it
        b = random_bloch_on_sphere(np.random.default_rng(4))
        rho = state_from_bloch(b)
        pur = purification_coupling(rho)
        prod = product_coupling(rho, rho)
        np.testing.assert_allclose(pur.matrix, prod.matrix, atol=1e-7)


class TestSolver:
    def test_pure_pair_closed_form(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            b1, b2 = random_bloch_on_sphere(rng), random_bloch_on_sphere(rng)
            r1, r2 = state_from_bloch(b1), state_from_bloch(b2)
            res = solve_min_coupling(r1, r2, C_SYM)
            assert res.solver_status == "closed_form"
            assert res.optimal_value == pytest.approx(6.0 - 2.0 * b1 @ b2, abs=1e-9)
            res_z = solve_min_coupling(r1, r2, C_Z)
            assert res_z.optimal_value == pytest.approx(2.0 - 2.0 * b1[2] * b2[2], abs=1e-9)

    def test_poles_z_diameter(self):
        res = solve_min_coupling(state_from_bloch([0, 0, 1]), state_from_bloch([0, 0, -1]), C_Z)
        assert res.optimal_value == pytest.approx(4.0, abs=1e-12)
        assert wasserstein_distance(
            state_from_bloch([0, 0, 1]), state_from_bloch([0, 0, -1]), C_Z
        ) == pytest.approx(2.0, abs=1e-12)

    def test_maximally_mixed_self_z(self):
        res = solve_min_coupling(np.eye(2) / 2, np.eye(2) / 2, C_Z)
        assert res.optimal_value == pytest.approx(0.0, abs=1e-12)

    def test_antipodal_pure_sym(self):
        b = random_bloch_on_sphere(np.random.default_rng(6))
        d = wasserstein_distance(state_from_bloch(b), state_from_bloch(-b), C_SYM)
        assert d == pytest.approx(math.sqrt(8.0), abs=1e-9)

    def test_diagonal_pair_classical_law(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            t, u = rng.uniform(-0.95, 0.95, size=2)
            res = solve_min_coupling(
                state_from_bloch([0, 0, t]), state_from_bloch([0, 0, u]), C_Z, FORCED
            )
            assert res.solver_status == "converged"
            assert res.optimal_value == pytest.approx(2.0 * abs(t - u), abs=1e-6)

    def test_self_distance_consistency_forced(self):
        # the identical-state closed form is exact for every generator-built cost
        rng = np.random.default_rng(8)
        for _ in range(25):
            rho = state_from_bloch(random_bloch_in_ball(rng))
            gens = [g + g.conj().T for g in rng.normal(size=(rng.integers(1, 4), 2, 2, 2)) @ [1.0, 1j]]
            for c in (C_SYM, C_Z, build_cost(gens)):
                res = solve_min_coupling(rho, rho, c, FORCED)
                assert res.solver_status == "converged"
                assert res.optimal_value == pytest.approx(self_distance_sq(rho, c), abs=1e-6)

    def test_upper_bound_and_feasibility(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            rho = state_from_bloch(random_bloch_in_ball(rng))
            omega = state_from_bloch(random_bloch_in_ball(rng))
            for c in (C_SYM, C_Z):
                res = solve_min_coupling(rho, omega, c)
                bound = coupling_cost(product_coupling(rho, omega), c)
                assert res.optimal_value <= bound + 1e-9
                assert res.optimal_value >= 0.0
                assert res.optimal_coupling.marginal_residual() <= 1e-8
                assert res.optimal_coupling.min_eigenvalue() >= -1e-10
                assert res.duality_gap_or_residual <= 1e-8

    def test_symmetry(self):
        rng = np.random.default_rng(10)
        for _ in range(15):
            rho = state_from_bloch(random_bloch_in_ball(rng))
            omega = state_from_bloch(random_bloch_in_ball(rng))
            for c in (C_SYM, C_Z):
                ab = solve_min_coupling(rho, omega, c).optimal_value
                ba = solve_min_coupling(omega, rho, c).optimal_value
                assert ab == pytest.approx(ba, abs=1e-6)

    def test_unitary_invariance_sym(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            u = random_unitary(rng)
            rho = state_from_bloch(random_bloch_in_ball(rng))
            omega = state_from_bloch(random_bloch_in_ball(rng))
            before = wasserstein_distance(rho, omega, C_SYM)
            after = wasserstein_distance(u @ rho @ u.conj().T, u @ omega @ u.conj().T, C_SYM)
            assert after == pytest.approx(before, abs=1e-6)

    def test_zero_cost_operator(self):
        from qwasser.cost import build_cost

        zero = build_cost([np.eye(2, dtype=complex)])
        res = solve_min_coupling(
            state_from_bloch([0.3, 0, 0]), state_from_bloch([0, 0, 0.4]), zero
        )
        assert res.optimal_value == pytest.approx(0.0, abs=1e-10)

    def test_one_pure_marginal_is_singleton(self):
        # with one rank-one marginal the only coupling is the product
        rng = np.random.default_rng(12)
        pure = state_from_bloch(random_bloch_on_sphere(rng))
        mixed = state_from_bloch(0.5 * random_bloch_in_ball(rng))
        for args in ((pure, mixed), (mixed, pure)):
            res = solve_min_coupling(*args, C_SYM)
            assert res.solver_status == "closed_form"
            assert res.optimal_value == pytest.approx(
                coupling_cost(product_coupling(*args), C_SYM), abs=1e-12
            )
            forced = solve_min_coupling(*args, C_SYM, FORCED)
            assert forced.solver_status == "closed_form"

    def test_conjugated_pure_states_are_singletons(self):
        # a Haar unitary or antiunitary conjugation leaves a sphere point up
        # to about 2e-15 from unit norm; within PURITY_TOL it is still pure, so
        # under either config its coupling set is the product coupling alone
        conj = []
        for i in range(300):
            rng = derived_rng(0, i)
            conj.append(apply_state_map(sample_wigner_map(rng), state_from_bloch(random_bloch_on_sphere(rng))))
        conj = np.array(conj)
        assert np.abs(np.linalg.norm(bloch_from_state(conj), axis=1) - 1.0).max() > 1e-15
        mixed = np.broadcast_to(state_from_bloch([0.2, 0.3, -0.1]), conj.shape)
        product = coupling_cost(np.einsum("nij,nlk->nikjl", mixed, conj).reshape(-1, 4, 4), C_SYM)
        for cfg in (SolverConfig(), FORCED):
            results = solve_min_couplings(conj, mixed, C_SYM, cfg)
            assert {r.solver_status for r in results} == {"closed_form"}
            assert np.array_equal([r.optimal_value for r in results], product)

    @pytest.mark.parametrize("c", [C_SYM, C_Z], ids=["sym", "z"])
    @pytest.mark.parametrize("eps", [1e-9, 1e-12])
    def test_near_pure_marginal_goes_to_the_barrier_whatever_the_config(self, eps, c):
        # 1 - |b| = eps, far above roundoff: the product coupling is not the
        # optimum, so no config may return it as a closed form
        near = state_from_bloch(np.array([0.36, -0.48, 0.8]) * (1.0 - eps))
        mixed = state_from_bloch([0.2, 0.3, -0.1])
        for args in ((near, mixed), (mixed, near)):
            res, forced = solve_min_coupling(*args, c), solve_min_coupling(*args, c, FORCED)
            assert res.solver_status != "closed_form"
            assert (res.optimal_value, res.solver_status, res.duality_gap_or_residual, res.iterations) == (
                forced.optimal_value, forced.solver_status, forced.duality_gap_or_residual, forced.iterations)
            assert np.array_equal(res.optimal_coupling.matrix, forced.optimal_coupling.matrix)
            product = coupling_cost(product_coupling(*args), c)
            assert res.optimal_value <= product
            if eps == 1e-9 and c is C_SYM:
                assert res.solver_status == "converged"
                assert res.optimal_value < product - 1e-5

    def test_forced_near_pure_marginal_goes_to_the_barrier(self):
        # 5e-9 from pure, far above roundoff: the coupling set is not a
        # singleton, and the product coupling is far from optimal
        near = state_from_bloch(np.array([0.36, -0.48, 0.8]) * (1.0 - 5e-9))
        mixed = state_from_bloch([0.2, 0.3, -0.1])
        for args in ((near, mixed), (mixed, near)):
            res = solve_min_coupling(*args, C_SYM, FORCED)
            assert res.solver_status == "converged"
            assert res.duality_gap_or_residual <= FORCED.tolerance
            assert res.optimal_value < coupling_cost(product_coupling(*args), C_SYM) - 1e-5

    def test_config_validation(self):
        with pytest.raises(DomainError):
            SolverConfig(tolerance=0.0)
        with pytest.raises(DomainError):
            SolverConfig(max_iterations=0)

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf])
    def test_config_rejects_non_finite_tolerance(self, tolerance):
        # an infinite target would call any gap "converged"
        with pytest.raises(DomainError):
            SolverConfig(tolerance=tolerance)

    @pytest.mark.parametrize("max_iterations", [math.nan, math.inf, 2.5, True])
    def test_config_rejects_non_integer_max_iterations(self, max_iterations):
        # NaN stopped the solve after 0 Newton steps, 2.5 ran 3, inf set no step limit
        with pytest.raises(DomainError, match="max_iterations"):
            SolverConfig(max_iterations=max_iterations)


class TestSelfDistance:
    def test_pure_sym_is_4(self):
        rho = state_from_bloch([0.0, 0.6, 0.8])
        assert self_distance_sq(rho, C_SYM) == pytest.approx(4.0, abs=1e-7)

    def test_equatorial_pure_z_is_2(self):
        # the coupling set of a pure state with itself is a singleton, so the
        # value is pinned by the product coupling: 2 - 2*b3^2 = 2 here; the
        # published closed form (1/2) disagrees by a factor of 4 and is only
        # reported, never used as ground truth.
        rho = state_from_bloch([1.0, 0.0, 0.0])
        assert self_distance_sq(rho, C_Z) == pytest.approx(2.0, abs=1e-7)
        assert z_self_distance_sq_published(1.0, 0.0) == pytest.approx(0.5, abs=1e-15)
        assert z_self_distance_sq_closed(1.0, 0.0) == pytest.approx(2.0, abs=1e-15)

    def test_z_axis_states_cost_zero(self):
        for t in (-0.9, -0.3, 0.0, 0.5, 1.0):
            rho = state_from_bloch([0.0, 0.0, t])
            assert self_distance_sq(rho, C_Z) == pytest.approx(0.0, abs=1e-12)

    def test_closed_forms_match_purification(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            b = random_bloch_in_ball(rng)
            rho = state_from_bloch(b)
            r = float(np.linalg.norm(b))
            assert self_distance_sq(rho, C_SYM) == pytest.approx(
                sym_self_distance_sq_closed(r), abs=1e-10
            )
            assert self_distance_sq(rho, C_Z) == pytest.approx(
                z_self_distance_sq_closed(r, float(b[2])), abs=1e-10
            )

    @pytest.mark.parametrize("law,args", [
        (sym_self_distance_sq_closed, (math.nan,)),
        (sym_self_distance_sq_closed, (math.inf,)),
        (sym_self_distance_sq_published, (-math.inf,)),
        (sym_self_distance_sq_published, (math.nan,)),
        (z_self_distance_sq_closed, (math.inf, 0.0)),
        (z_self_distance_sq_closed, (-math.inf, 0.0)),
        (z_self_distance_sq_closed, (0.5, math.nan)),
        (z_self_distance_sq_published, (np.float64(math.nan), 0.1)),
        (z_self_distance_sq_published, (0.5, -math.inf)),
        (z_self_distance_sq_published, (0.0, math.inf)),
    ])
    def test_closed_form_laws_reject_non_finite_arguments(self, law, args):
        # a finite |b| is clamped to [0, 1]; NaN and inf are not numbers to clamp
        with pytest.raises(DomainError, match="finite"):
            law(*args)

    def test_closed_form_laws_clamp_a_finite_norm(self):
        assert sym_self_distance_sq_closed(1.5) == sym_self_distance_sq_closed(1.0) == 4.0
        assert sym_self_distance_sq_published(-0.5) == z_self_distance_sq_closed(-0.5, 0.3) == 0.0

    def test_published_scales(self):
        assert sym_self_distance_sq_published(0.8) == pytest.approx(
            0.5 * sym_self_distance_sq_closed(0.8), abs=1e-15
        )
        assert z_self_distance_sq_published(0.8, 0.3) == pytest.approx(
            0.25 * z_self_distance_sq_closed(0.8, 0.3), abs=1e-15
        )

    def test_matches_bra_cost_ket(self):
        rho = state_from_bloch([0.2, 0.4, -0.1])
        assert self_distance_sq(rho, C_Z) == pytest.approx(
            bra_cost_ket(sqrt_psd(rho), C_Z.matrix), abs=1e-14
        )

    @pytest.mark.parametrize("c", [C_SYM, C_Z])
    def test_stack_matches_per_state_calls(self, c):
        rng = np.random.default_rng(15)
        rhos = np.array([state_from_bloch(random_bloch_in_ball(rng)) for _ in range(40)]
                        + [state_from_bloch(random_bloch_on_sphere(rng)) for _ in range(4)])
        vals = self_distance_sq(rhos, c)
        assert vals.shape == (44,)
        np.testing.assert_allclose(vals, [self_distance_sq(r, c) for r in rhos], rtol=0, atol=1e-14)


class TestDivergence:
    def test_pure_pairs_euclidean(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            b1, b2 = random_bloch_on_sphere(rng), random_bloch_on_sphere(rng)
            d = wasserstein_divergence(state_from_bloch(b1), state_from_bloch(b2), C_SYM)
            assert d == pytest.approx(float(np.linalg.norm(b1 - b2)), abs=1e-6)

    def test_identical_states_exact_zero(self):
        rho = state_from_bloch([0.3, -0.2, 0.1])
        assert wasserstein_divergence(rho, rho, C_SYM) == 0.0

    @pytest.mark.parametrize("c", [C_SYM, C_Z])
    def test_near_identical_states_exact_zero(self, c):
        # omega is within STATE_EQUAL_ATOL of rho but not equal to it, so its
        # own self-distance differs from rho's in the last bits
        rho = state_from_bloch([0.3, -0.2, 0.1])
        omega = rho + 1e-13 * np.array([[0.3, 1.0 - 2.0j], [1.0 + 2.0j, -0.3]])
        single = divergence_breakdown(rho, omega, c)
        other = state_from_bloch([-0.4, 0.1, 0.5])
        stacked = divergence_breakdowns([other, rho, other], [rho, omega, omega], c)[1]
        for br in (single, stacked):
            assert br.radicand == 0.0
            assert br.divergence == 0.0
            assert br.distance_sq == br.self_distance_sq_first == br.self_distance_sq_second
            assert br.solver_status == "closed_form"

    def test_antipodal_maximum(self):
        d = wasserstein_divergence(state_from_bloch([0, 0, 1]), state_from_bloch([0, 0, -1]), C_SYM)
        assert d == pytest.approx(2.0, abs=1e-12)

    def test_breakdown_fields(self):
        rho = state_from_bloch([0.5, 0.0, 0.0])
        omega = state_from_bloch([0.0, 0.0, 0.5])
        br = divergence_breakdown(rho, omega, C_SYM)
        assert br.radicand == pytest.approx(
            br.distance_sq - 0.5 * (br.self_distance_sq_first + br.self_distance_sq_second),
            abs=1e-14,
        )
        assert br.divergence == pytest.approx(math.sqrt(max(br.radicand, 0.0)), abs=1e-14)


class TestAuxiliaryMonotonicity:
    def test_strictly_increasing_on_grid(self):
        ts = np.linspace(1e-6, 1.0, 500)
        for c in np.linspace(0.0, 1.0, 21):
            f = (1.0 - np.sqrt(1.0 - ts)) * (1.0 - c / ts)
            assert np.all(np.diff(f) > 0.0)


# Both marginals one part in 1e-7 from pure: the barrier has an interior,
# and the product coupling (2.0 under the z cost) is not optimal.
NEAR_PURE_X = state_from_bloch([1.0 - 1e-7, 0.0, 0.0])
NEAR_PURE_MINUS_Z = state_from_bloch([0.0, 0.0, -(1.0 - 1e-7)])
# Both marginals 1.0000002e-8 from pure (just mixed): Cholesky fails at the
# product coupling, so the barrier cannot start.
NO_INTERIOR = (
    state_from_bloch([0.8096007010440176, 0.5868941758205238, -0.010095110548152183]),
    state_from_bloch([-0.660720665100535, 0.6352165359620209, -0.3999351636822068]),
)


class TestNoInterior:
    @pytest.mark.parametrize("c,value", [(C_Z, 1.9999998003), (C_SYM, 5.9991055738)])
    def test_near_pure_pair_is_solved_not_shortcut(self, c, value):
        res = solve_min_coupling(NEAR_PURE_X, NEAR_PURE_MINUS_Z, c)
        assert res.solver_status == "converged"
        assert res.duality_gap_or_residual <= SolverConfig().tolerance
        assert res.optimal_value == pytest.approx(value, abs=1e-9)
        assert res.optimal_value < coupling_cost(product_coupling(NEAR_PURE_X, NEAR_PURE_MINUS_Z), c)

    @pytest.mark.parametrize("c", [C_Z, C_SYM])
    def test_fallback_gap_is_the_trivial_bound(self, c):
        res = solve_min_coupling(*NO_INTERIOR, c)
        product = coupling_cost(product_coupling(*NO_INTERIOR), c)
        assert res.optimal_value == pytest.approx(product, abs=1e-12)
        # tr[Pi C] >= lambda_min(C) is all that is known without an interior
        lam_min = float(np.linalg.eigvalsh(c.matrix)[0])
        assert res.duality_gap_or_residual == pytest.approx(product - lam_min, abs=1e-12)
        assert res.solver_status == "max_iterations"


class TestNewtonParts:
    def test_folded_tensor_matches_direct_traces(self):
        # the Newton builder against tr[M^-1 F_a] and tr[M^-1 F_a M^-1 F_b]
        from qwasser.transport import _FREE, _newton_parts

        rng = np.random.default_rng(8)
        a = rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4))
        mats = a @ a.conj().transpose(0, 2, 1) + 1e-3 * np.eye(4)
        t = np.linalg.inv(mats)[:, None] @ _FREE[None]
        g_ref = np.trace(t, axis1=2, axis2=3).real
        h_ref = np.einsum("naij,nbji->nab", t, t).real
        g0, h0 = _newton_parts(mats)
        scale = np.abs(h_ref).max(axis=(1, 2))[:, None, None]
        assert np.all(np.abs(h0 - h_ref) <= 1e-12 * scale)
        assert np.all(np.abs(g0 - g_ref) <= 1e-12 * np.abs(g_ref).max(axis=1)[:, None])
        g1, h1 = _newton_parts(mats[0])  # one matrix, as the single-pair loop calls it
        assert np.all(np.abs(h1 - h_ref[0]) <= 1e-12 * scale[0])
        assert np.all(np.abs(g1 - g_ref[0]) <= 1e-12 * np.abs(g_ref[0]).max())

    def test_a_singular_lane_fails_alone(self):
        # a singular M leaves NaN parts in its own lane, and a singular Newton
        # system is solved by least squares in its own lane, with no warning
        # inside the barrier's errstate scope
        from qwasser.transport import _newton_parts, _solve_lanes

        rng = np.random.default_rng(9)
        a = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
        mats = a @ a.conj().transpose(0, 2, 1) + 1e-3 * np.eye(4)
        mats[1] = 0.0
        h = rng.normal(size=(3, 9, 9))
        h = h @ h.transpose(0, 2, 1) + np.eye(9)
        h[1, :, 3] = 0.0
        g = rng.normal(size=(3, 9))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(invalid="ignore"):
                g0, h0 = _newton_parts(mats)
                x, lone = _solve_lanes(h, g), _solve_lanes(h[1], g[1])
        assert np.isnan(g0[1]).all() and np.isnan(h0[1]).all()
        assert np.isfinite(g0[[0, 2]]).all() and np.isfinite(h0[[0, 2]]).all()
        lstsq = np.linalg.lstsq(h[1], g[1], rcond=None)[0]
        assert np.array_equal(x[1], lstsq) and np.array_equal(lone, lstsq)
        assert np.array_equal(x[[0, 2]], np.linalg.solve(h[[0, 2]], g[[0, 2], :, None])[..., 0])


def _mixed_stack():
    """Shuffled pairs of every kind: pure marginal, identical, near-pure,
    no interior, and generic mixed."""
    rng = derived_rng(3003, 0)
    pairs = []
    for _ in range(3):
        pure = state_from_bloch(random_bloch_on_sphere(rng))
        mixed = state_from_bloch(random_bloch_in_ball(rng))
        pairs += [(pure, mixed), (mixed, pure), (mixed, mixed.copy())]
    for log_defect in (-7.5, -6.0, -4.0, -2.0):
        near = state_from_bloch(random_bloch_on_sphere(rng) * (1.0 - 10.0**log_defect))
        mixed = state_from_bloch(random_bloch_in_ball(rng))
        pairs += [(near, mixed), (mixed, near)]
    pairs += [NO_INTERIOR, (NEAR_PURE_X, NEAR_PURE_MINUS_Z)]
    for _ in range(8):
        pairs.append((state_from_bloch(random_bloch_in_ball(rng)), state_from_bloch(random_bloch_in_ball(rng))))
    return [pairs[i] for i in rng.permutation(len(pairs))]


class TestBatchedSolve:
    @pytest.mark.parametrize("c", [C_SYM, C_Z])
    @pytest.mark.parametrize("config", [None, FORCED])
    def test_lanes_match_single_solves_anywhere_in_the_stack(self, c, config):
        pairs = _mixed_stack()
        rhos, omegas = [p[0] for p in pairs], [p[1] for p in pairs]
        batched = solve_min_couplings(rhos, omegas, c, config)
        order = derived_rng(3003, 1).permutation(len(pairs))
        moved = solve_min_couplings([rhos[i] for i in order], [omegas[i] for i in order], c, config)
        kinds = set()
        for k, i in enumerate(order):
            single = solve_min_coupling(rhos[i], omegas[i], c, config)
            for res in (batched[i], moved[k]):
                assert res.solver_status == single.solver_status
                assert res.optimal_value == pytest.approx(single.optimal_value, abs=1e-11)
                assert res.optimal_coupling.marginal_residual() <= 1e-8
            kinds.add(single.solver_status)
        assert kinds == {"closed_form", "converged", "max_iterations"}

    def test_divergence_breakdowns_match_single_calls(self):
        pairs = _mixed_stack()
        rhos, omegas = [p[0] for p in pairs], [p[1] for p in pairs]
        for br, (rho, omega) in zip(divergence_breakdowns(rhos, omegas, C_SYM), pairs):
            single = divergence_breakdown(rho, omega, C_SYM)
            assert br.solver_status == single.solver_status
            assert br.distance_sq == pytest.approx(single.distance_sq, abs=1e-11)
            assert br.radicand == pytest.approx(single.radicand, abs=1e-11)
            assert (br.self_distance_sq_first, br.self_distance_sq_second) == (
                single.self_distance_sq_first, single.self_distance_sq_second)

    def test_empty_stack_and_length_mismatch(self):
        assert solve_min_couplings([], [], C_SYM) == []
        rho = state_from_bloch([0.1, 0.0, 0.0])
        with pytest.raises(DomainError):
            solve_min_couplings([rho, rho], [rho], C_SYM)
        with pytest.raises(DomainError):
            divergence_breakdowns([rho], [rho, rho], C_SYM)


# Single-pair results recorded before the one-pair path ran scalar code from
# end to end, when it ran the scalar loop between a stacked prologue and a
# stacked certificate.  `optimal_value` and `duality_gap_or_residual` of each
# matched that path bit for bit.
ONE_PAIRS = {
    "ball": (state_from_bloch((0.3, -0.2, 0.4)), state_from_bloch((-0.1, 0.5, 0.2))),
    "shell": (state_from_bloch(np.array([0.6, 0.0, 0.8]) * (1.0 - 1e-4)), state_from_bloch((-0.2, 0.3, -0.1))),
    "no-interior": NO_INTERIOR,
    "near-pure": (NEAR_PURE_X, NEAR_PURE_MINUS_Z),
    # the CLI's near-pure repro: exit 3 after 20 steps under the sym cost
    "cli-near-pure": (
        state_from_bloch((-0.9434261702775069, -0.24476926919353414, -0.2236851941765033)),
        state_from_bloch((-0.16702735492270018, 0.7890907436060359, 0.09388218771759121)),
    ),
    "identical": (RAW_PAIR_STATE, RAW_PAIR_STATE.copy()),
}
ONE_PAIR_PINS = [
    # pair, cost, config, optimal_value, duality_gap_or_residual, iterations, solver_status
    ("ball", "sym", None, 3.3228152776752022, 1.270586746926483e-09, 28, "converged"),
    ("ball", "z", None, 0.4025029372226885, 1.27355048729072e-09, 30, "converged"),
    ("shell", "sym", None, 6.365169745606547, 1.286817763457293e-09, 23, "converged"),
    ("shell", "z", None, 2.143130944714238, 1.2735354992798875e-09, 23, "converged"),
    ("no-interior", "sym", None, 6.316155277258398, 6.316155277258398, 0, "max_iterations"),
    ("no-interior", "z", None, 1.9919252206210696, 1.9919252206210696, 0, "max_iterations"),
    ("near-pure", "sym", None, 5.999105573827812, 1.3083010230729997e-09, 63, "converged"),
    ("near-pure", "z", None, 1.9999998003214188, 1.2583771802354704e-09, 45, "converged"),
    ("cli-near-pure", "sym", None, 6.11313349296154, 0.0001778897155739756, 20, "max_iterations"),
    ("cli-near-pure", "z", None, 2.041999243510729, 0.00014233575198296933, 500, "max_iterations"),
    ("identical", "sym", FORCED, 0.629540091684496, 1.2675387406346772e-09, 38, "converged"),
    ("identical", "z", FORCED, 0.1411038144938015, 1.3669406995209243e-09, 35, "converged"),
]
COSTS = {"sym": C_SYM, "z": C_Z}


class TestOnePair:
    @pytest.mark.parametrize("entry_point", ["solve_min_coupling", "solve_min_couplings"])
    @pytest.mark.parametrize("pair,cost,config,value,gap,iterations,status", ONE_PAIR_PINS)
    def test_results_are_pinned(self, entry_point, pair, cost, config, value, gap, iterations, status):
        rho, omega = ONE_PAIRS[pair]
        if entry_point == "solve_min_coupling":
            res = solve_min_coupling(rho, omega, COSTS[cost], config)
        else:
            (res,) = solve_min_couplings([rho], [omega], COSTS[cost], config)
        assert (res.iterations, res.solver_status) == (iterations, status)
        assert res.optimal_value == pytest.approx(value, abs=1e-12)
        assert res.duality_gap_or_residual == pytest.approx(gap, abs=1e-12)

    @pytest.mark.parametrize("pair,fields", [
        ("ball", (3.3228152776752022, 0.6295400907294566, 0.6533598938636977, 2.681365285378625,
                  1.6374874916708906)),
        ("shell", (6.365169745606547, 3.943432871736327, 0.2905526018017188, 4.248177008837525,
                   2.061110625084817)),
    ])
    def test_divergence_breakdown_is_pinned(self, pair, fields):
        br = divergence_breakdown(*ONE_PAIRS[pair], C_SYM)
        assert br.solver_status == "converged"
        got = (br.distance_sq, br.self_distance_sq_first, br.self_distance_sq_second, br.radicand, br.divergence)
        assert got == pytest.approx(fields, abs=1e-12)

    def test_one_pair_never_enters_the_batched_loop(self, monkeypatch):
        # one pair through the batched loop takes 2.6-2.8 times as long as
        # through the scalar loop; every one-pair entry point keeps to the latter
        def refused(*args):
            raise AssertionError("one pair reached the batched barrier")

        monkeypatch.setattr(transport, "_barrier_minimize_lanes", refused)
        rho, omega = ONE_PAIRS["ball"]
        assert solve_min_coupling(rho, omega, C_SYM).solver_status == "converged"
        assert divergence_breakdown(rho, omega, C_SYM).solver_status == "converged"
        assert wasserstein_distance(rho, omega, C_Z) > 0.0
        (res,) = solve_min_couplings([rho], [omega], C_Z)
        assert res.solver_status == "converged"
        (br,) = divergence_breakdowns([rho], [omega], C_SYM)
        assert br.solver_status == "converged"

    def test_a_failed_certificate_leaves_the_gap_unknown(self, monkeypatch):
        # the lambda_min(C) floor stands in only where there is no interior;
        # an interior whose certificate fails keeps a NaN gap on both paths
        monkeypatch.setattr(transport, "_lower_bounds", lambda q, cmat, bvec, pi, mu: np.full(np.shape(mu), np.nan))
        rho, omega = ONE_PAIRS["ball"]
        res = solve_min_coupling(rho, omega, C_SYM)
        assert math.isnan(res.duality_gap_or_residual) and res.solver_status == "max_iterations"
        stacked = solve_min_couplings([rho, NO_INTERIOR[0]], [omega, NO_INTERIOR[1]], C_SYM)
        assert math.isnan(stacked[0].duality_gap_or_residual) and stacked[0].solver_status == "max_iterations"
        floor = float(np.linalg.eigvalsh(C_SYM.matrix)[0])
        assert stacked[1].duality_gap_or_residual == stacked[1].optimal_value - floor


def _exact_pairs():
    """(kind, rho, omega) with a closed-form or no-interior result: pure and
    mixed marginals in both orders, the no-interior pair, and identical states."""
    rng = derived_rng(3004, 0)
    pairs = [("no-interior", *NO_INTERIOR)]
    for _ in range(6):
        pure = state_from_bloch(random_bloch_on_sphere(rng))
        mixed = state_from_bloch(random_bloch_in_ball(rng))
        pairs += [("product", pure, mixed), ("product", mixed, pure), ("identical", mixed, mixed.copy())]
    return pairs


class TestExactCouplings:
    """Each exact result is its public builder's coupling, bit for bit."""

    @pytest.mark.parametrize("c", [C_SYM, C_Z], ids=["sym", "z"])
    @pytest.mark.parametrize("stacked", [False, True], ids=["one", "stack"])
    def test_results_are_the_builders_couplings(self, c, stacked):
        pairs = _exact_pairs()
        if stacked:
            results = solve_min_couplings([p[1] for p in pairs], [p[2] for p in pairs], c)
        else:
            results = [solve_min_coupling(rho, omega, c) for _, rho, omega in pairs]
        for (kind, rho, omega), res in zip(pairs, results):
            if kind == "identical":
                # the cost is bra_cost_ket of vec(sqrt(rho)), the self-distance
                built, value = purification_coupling(rho), self_distance_sq(rho, c)
            else:
                built = product_coupling(rho, omega)
                value = coupling_cost(built, c)
            assert res.solver_status == ("max_iterations" if kind == "no-interior" else "closed_form")
            assert res.optimal_value == value
            assert np.array_equal(res.optimal_coupling.matrix, built.matrix)

    def test_one_square_root_per_solve_with_identical_lanes(self, monkeypatch):
        # the identical lanes' couplings and costs come from one sqrt_psd call
        calls = []

        def counted(m):
            calls.append(np.shape(m))
            return sqrt_psd(m)

        monkeypatch.setattr(transport, "sqrt_psd", counted)
        rho, other = state_from_bloch([0.3, -0.2, 0.1]), state_from_bloch([-0.4, 0.1, 0.5])
        solve_min_coupling(rho, rho, C_SYM)
        assert calls == [(2, 2)]
        calls.clear()
        solve_min_couplings([rho, other, other], [rho, rho, other], C_Z)
        assert calls == [(2, 2, 2)]
