"""Tests for the augmented-Lagrangian oracle and its agreement with the solver."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qwasser
from qwasser.cost import sym_cost, z_cost
from qwasser.oracle import minimize, oracle_min_coupling, project_to_couplings
from qwasser.sampling import derived_rng, random_bloch_in_ball, random_bloch_on_sphere
from qwasser.states import PAULI, state_from_bloch
from qwasser.transport import self_distance_sq, solve_min_coupling

C_SYM = sym_cost()
C_Z = z_cost()
# Rounding allowance on the oracle's upper bound against the solver's
# certified lower bound: two evaluations of an O(1) cost, with multipliers of
# order 100 near these pairs' near-pure marginals.
UPPER_ROUNDING = 1e-12


class TestOracleKnownValues:
    def test_diagonal_pair(self):
        res = oracle_min_coupling(
            state_from_bloch([0, 0, 0.9]), state_from_bloch([0, 0, -0.4]), C_Z, seed=1
        )
        assert res.value == pytest.approx(2.6, abs=1e-6)
        assert res.marginal_residual <= 1e-9
        assert res.min_eigenvalue >= -1e-10

    def test_maximally_mixed_self(self):
        res = oracle_min_coupling(np.eye(2) / 2, np.eye(2) / 2, C_Z, seed=2)
        assert res.value == pytest.approx(0.0, abs=1e-7)

    def test_near_pure_pair(self):
        # the oracle's domain is mixed pairs; near the pure boundary it still
        # tracks the solver, which here hits the product-coupling upper bound
        rng = np.random.default_rng(3)
        b1 = 0.95 * random_bloch_on_sphere(rng)
        b2 = 0.95 * random_bloch_on_sphere(rng)
        rho, omega = state_from_bloch(b1), state_from_bloch(b2)
        res = oracle_min_coupling(rho, omega, C_SYM, seed=3)
        sdp = solve_min_coupling(rho, omega, C_SYM).optimal_value
        assert res.value == pytest.approx(sdp, abs=1e-5)

    def test_self_distance_matches_purification(self):
        rho = state_from_bloch([0.3, -0.2, 0.5])
        res = oracle_min_coupling(rho, rho, C_SYM, seed=4)
        assert res.value == pytest.approx(self_distance_sq(rho, C_SYM), abs=1e-6)


class TestOracleVsSolver:
    def test_random_mixed_pairs(self):
        rng = np.random.default_rng(5)
        for k in range(6):
            rho = state_from_bloch(random_bloch_in_ball(rng))
            omega = state_from_bloch(random_bloch_in_ball(rng))
            for c in (C_SYM, C_Z):
                sdp = solve_min_coupling(rho, omega, c).optimal_value
                orc = oracle_min_coupling(rho, omega, c, seed=k)
                assert orc.value == pytest.approx(sdp, abs=1e-5)

    @staticmethod
    def _criterion_9_pair(j):
        rng = derived_rng(109, j)
        return state_from_bloch(random_bloch_in_ball(rng)), state_from_bloch(random_bloch_in_ball(rng))

    @pytest.mark.parametrize("j", [72, 96])
    def test_stays_above_the_certified_lower_bound(self, j):
        # one marginal near pure (1 - |b| = 1.3e-4 on pair 72, 1.8e-3 on pair 96): a
        # coupling off its marginals by r can undercut the optimum by about |dual| r,
        # and the value did, by up to 1.3e-10 against gaps near 1e-13.  The upper
        # bound's coupling is on the slice and in the cone, so only the rounding
        # of the two evaluations (UPPER_ROUNDING) separates it from the optimum
        rho, omega = self._criterion_9_pair(j)
        for c in (C_SYM, C_Z):
            sdp = solve_min_coupling(rho, omega, c)
            orc = oracle_min_coupling(rho, omega, c, seed=j)
            assert orc.upper >= sdp.optimal_value - sdp.duality_gap_or_residual - UPPER_ROUNDING
            assert orc.value == pytest.approx(sdp.optimal_value, abs=1e-8)
            assert orc.marginal_residual <= 1e-11

    def test_restart_that_broke_an_unguarded_warm_start(self):
        # criterion 9's pair 1 under this restart seed, where an inverse Hessian
        # carried over from an earlier inner solve once ended the oracle 3.2e-5
        # below the solver: the oracle as built agrees with the solver to 1e-8
        rho, omega = self._criterion_9_pair(1)
        sdp = solve_min_coupling(rho, omega, C_Z).optimal_value
        orc = oracle_min_coupling(rho, omega, C_Z, seed=1968031152)
        assert orc.value == pytest.approx(sdp, abs=1e-8)

    def test_evaluation_count(self, monkeypatch):
        # objective and Hessian calls over criterion 9's pairs 0-3, both costs:
        # 2640 and 753 as built
        import qwasser.oracle

        calls = []

        def counted(fun, hess, *args, **kwargs):
            def f(*a):
                calls.append("f")
                return fun(*a)

            def h(*a):
                calls.append("h")
                return hess(*a)

            return minimize(f, h, *args, **kwargs)

        monkeypatch.setattr(qwasser.oracle, "minimize", counted)
        for j in range(4):
            rho, omega = self._criterion_9_pair(j)
            for c in (C_SYM, C_Z):
                oracle_min_coupling(rho, omega, c, seed=j)
        assert len(calls) <= 4500, (calls.count("f"), calls.count("h"))


class TestGradients:
    @staticmethod
    def _finite_difference_check(fn, x0, args, h=1e-7):
        _, g = fn(x0, *args)
        num = np.zeros_like(x0)
        for k in range(x0.size):
            e = np.zeros_like(x0)
            e[k] = h
            fp, _ = fn(x0 + e, *args)
            fm, _ = fn(x0 - e, *args)
            num[k] = (fp - fm) / (2 * h)
        return float(np.abs(num - g).max() / (1.0 + np.abs(g).max()))

    @staticmethod
    def _point_and_targets(seed):
        """A random Hermitian matrix projected onto the marginal slice, as z, with c and x_b."""
        from qwasser.oracle import _N, _pack, _pack_grad

        rng = np.random.default_rng(seed)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        omega = state_from_bloch([0.2, -0.1, 0.3])
        rho_t = state_from_bloch([-0.4, 0.2, 0.1]).T.copy()
        product = np.kron(omega, rho_t)
        return _N.T @ _pack_grad(m - product), _pack_grad(C_SYM.matrix), _pack(product)

    def test_penalized_gradient(self):
        # zero multiplier: the oracle's warm-up penalty
        from qwasser.oracle import _al_objective

        z0, c, x_b = self._point_and_targets(7)
        err = self._finite_difference_check(_al_objective, z0, (2e3, *self._no_multipliers(), c, x_b))
        assert err < 1e-6

    def test_al_gradient(self):
        from qwasser.oracle import _al_objective

        z0, c, x_b = self._point_and_targets(8)
        yp = np.diag([0.5, 0.1, 0.0, 0.2]).astype(complex)
        yp_sq = float(np.vdot(yp, yp).real)
        err = self._finite_difference_check(_al_objective, z0, (1e3, yp, yp_sq, c, x_b))
        assert err < 1e-6

    def test_al_hessian(self):
        # central differences of the gradient, at a point where the nearest
        # eigenvalue of Z = yp - lam_p m to 0 is 0.4 lam_p away (0.54 lam_p at
        # this seed; the projected seed-8 point has one 0.044 lam_p away)
        from qwasser.oracle import _N, _al_hessian, _al_objective, _unpack

        z0, c, x_b = self._point_and_targets(12)
        yp = np.diag([0.5, 0.1, 0.0, 0.2]).astype(complex)
        args = (1e3, yp, float(np.vdot(yp, yp).real), c, x_b)
        assert np.abs(np.linalg.eigvalsh(yp - 1e3 * _unpack(x_b + _N @ z0))).min() >= 0.4e3
        hess = _al_hessian(z0, *args)
        num = np.zeros((9, 9))
        for k in range(9):
            e = np.zeros(9)
            e[k] = 1e-6
            num[:, k] = (_al_objective(z0 + e, *args)[1] - _al_objective(z0 - e, *args)[1]) / 2e-6
        scale = np.abs(hess).max()
        assert np.abs(hess - hess.T).max() <= 1e-14 * scale
        assert np.abs(num - hess).max() <= 1e-8 * scale

    @staticmethod
    def _no_multipliers():
        return np.zeros((4, 4), dtype=complex), 0.0

    @pytest.mark.parametrize("lam_p", [2e2, 2e4])
    def test_zero_multipliers_give_the_quadratic_penalty(self, lam_p):
        # c.x + (lam_p / 2) |m_-|^2 on the slice x = x_b + N z, m_- the
        # negative part of m, and its gradient N^T (c + lam_p tr[m_- E_k])
        from qwasser.oracle import _N, _al_objective, _pack_grad, _unpack

        for seed in (7, 12, 13):
            z0, c, x_b = self._point_and_targets(seed)
            x0 = x_b + _N @ z0
            w, v = np.linalg.eigh(_unpack(x0))
            neg = np.minimum(w, 0.0)
            assert neg.min() < 0.0  # the cone term is active
            value = c @ x0 + 0.5 * lam_p * (neg @ neg)
            grad = _N.T @ (c + lam_p * _pack_grad((v * neg) @ v.conj().T))
            val, g = _al_objective(z0, lam_p, *self._no_multipliers(), c, x_b)
            assert val == pytest.approx(value, rel=1e-13)
            assert np.abs(g - grad).max() <= 1e-12 * np.abs(grad).max()

    def test_linear_maps_match_the_matrix_forms(self):
        # cost and marginals as linear maps on the 16 packed coordinates
        from qwasser.linalg import partial_trace_first, partial_trace_second
        from qwasser.oracle import _A, _pack, _pack_grad, _unpack

        rng = np.random.default_rng(10)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = m + m.conj().T
        x = _pack(m)
        assert np.array_equal(_unpack(x), m)
        for cmat in (C_SYM.matrix, C_Z.matrix):
            assert _pack_grad(cmat) @ x == pytest.approx(np.trace(cmat @ m).real, abs=1e-12)
        r = (_A @ x).view(complex)
        assert np.abs(r[:4] - partial_trace_second(m).ravel()).max() <= 1e-14
        assert np.abs(r[4:] - partial_trace_first(m).ravel()).max() <= 1e-14


class TestMinimize:
    @staticmethod
    def _penalty_problem():
        """The oracle's warm-up objective at its stiffer weight, and its Hessian."""
        from qwasser.oracle import _al_hessian, _al_objective

        z0, c, x_b = TestGradients._point_and_targets(12)
        return _al_objective, _al_hessian, z0, (2e4, *TestGradients._no_multipliers(), c, x_b)

    @staticmethod
    def _quadratic():
        """0.5 x.a.x - b.x with a positive definite, its Hessian a and a start."""
        rng = np.random.default_rng(11)
        q = rng.normal(size=(16, 16))
        a = q @ q.T + 0.5 * np.eye(16)
        b = rng.normal(size=16)
        return lambda x: (0.5 * x @ a @ x - b @ x, a @ x - b), a, b, rng.normal(size=16)

    def test_reaches_the_minimizer_of_a_convex_quadratic(self):
        fun, a, b, x0 = self._quadratic()
        res = minimize(fun, lambda x: a, x0, (), maxiter=200, gtol=1e-12)
        assert np.abs(res.x - np.linalg.solve(a, b)).max() <= 1e-9

    def test_a_convex_quadratic_takes_one_newton_step(self):
        fun, a, b, x0 = self._quadratic()
        res = minimize(fun, lambda x: a, x0, (), maxiter=1, gtol=0.0)
        assert res.nit == 1 and res.nfev == 2  # the full step passes the Armijo test
        assert np.abs(res.x - np.linalg.solve(a, b)).max() <= 1e-9

    @pytest.mark.parametrize("hessian", ["singular", "negative definite"])
    def test_a_hessian_without_a_descent_step_falls_back_to_the_gradient(self, hessian):
        # the zero matrix gives no Newton step and -a one that ascends: both
        # runs go down -g alone, and on this well-conditioned quadratic still
        # reach its minimizer, to the accuracy the stall rule leaves
        rng = np.random.default_rng(12)
        a = np.diag(rng.uniform(1.0, 1.5, size=16))
        b = rng.normal(size=16)
        h = np.zeros((16, 16)) if hessian == "singular" else -a
        res = minimize(lambda x: (0.5 * x @ a @ x - b @ x, a @ x - b), lambda x: h, np.zeros(16), (),
                       maxiter=400, gtol=1e-12)
        assert np.abs(res.x - b / np.diag(a)).max() <= 1e-8
        assert res.nit > 1

    def test_objective_never_increases_and_maxiter_is_honoured(self):
        # the run capped at k steps ends at the k-th iterate of every longer run;
        # on the 9 slice coordinates this run reaches its minimizer in 19 steps
        # (step 19 gains 1e-8), and later steps gain only roundoff, if anything
        fun, hess, x0, args = self._penalty_problem()
        first = minimize(fun, hess, x0, args, maxiter=0, gtol=0.0)
        assert np.array_equal(first.x, x0) and first.nit == 0 and first.nfev == 1
        values = [fun(x0, *args)[0]]
        for k in range(1, 20):
            res = minimize(fun, hess, x0, args, maxiter=k, gtol=0.0)
            assert res.nit == k
            values.append(fun(res.x, *args)[0])
        assert np.all(np.diff(values) < 0.0)

    def test_nfev_counts_the_calls(self):
        fun, hess, x0, args = self._penalty_problem()
        calls = []

        def counted(x, *a):
            calls.append(x)
            return fun(x, *a)

        res = minimize(counted, hess, x0, args, maxiter=150, gtol=1e-12)
        assert res.nfev == len(calls)
        assert res.nfev > res.nit + 1  # some steps backtracked


def test_oracle_runs_without_scipy():
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None  # any import of scipy now raises ImportError\n"
        "from qwasser.cost import z_cost\n"
        "from qwasser.oracle import oracle_min_coupling\n"
        "from qwasser.states import state_from_bloch\n"
        "rho, omega = state_from_bloch([0, 0, 0.9]), state_from_bloch([0, 0, -0.4])\n"
        "res = oracle_min_coupling(rho, omega, z_cost(), seed=1)\n"
        "assert abs(res.value - 2.6) <= 1e-6, res.value\n"
        "loaded = [m for m, v in sys.modules.items() if m.startswith('scipy') and v is not None]\n"
        "assert not loaded, loaded\n"
    )
    src = str(Path(qwasser.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


class TestProjection:
    def test_projects_to_feasible(self):
        rng = np.random.default_rng(6)
        rho = state_from_bloch(random_bloch_in_ball(rng))
        omega = state_from_bloch(random_bloch_in_ball(rng))
        noise = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = np.kron(omega, rho.T) + 0.05 * (noise + noise.conj().T)
        p = project_to_couplings(m, rho, omega)
        from qwasser.linalg import partial_trace_first, partial_trace_second

        assert np.abs(partial_trace_second(p) - omega).max() <= 1e-10
        assert np.abs(partial_trace_first(p) - rho.T).max() <= 1e-10
        assert np.linalg.eigvalsh(p)[0] >= -1e-10


class TestSlice:
    """The slice the oracle works on is the one spanned by sigma_i (x) sigma_j
    (i, j >= 1), the directions that keep both marginals, however N is built."""

    PAULI_PAIRS = np.array([np.kron(PAULI[i], PAULI[j]) for i in (1, 2, 3) for j in (1, 2, 3)])

    @staticmethod
    def _pair(seed):
        rng = np.random.default_rng(seed)
        return state_from_bloch(random_bloch_in_ball(rng)), state_from_bloch(random_bloch_in_ball(rng))

    def test_basis_is_the_frobenius_orthonormal_null_space_of_the_marginal_map(self):
        from qwasser.oracle import _A, _N, _unpack

        assert _N.shape == (16, 9)
        assert np.abs(_A @ _N).max() <= 1e-14
        s = np.array([_unpack(n) for n in _N.T])
        gram = np.einsum("aij,bji->ab", s, s)
        assert np.abs(gram - np.eye(9)).max() <= 1e-14
        # each direction is a combination of the sigma_i (x) sigma_j (tr[P^2] = 4)
        coef = np.einsum("kij,pji->kp", s, self.PAULI_PAIRS) / 4.0
        assert np.abs(np.einsum("kp,pij->kij", coef, self.PAULI_PAIRS) - s).max() <= 1e-14

    def test_projection_has_the_marginals_and_an_orthogonal_remainder(self):
        from qwasser.linalg import partial_trace_first, partial_trace_second
        from qwasser.oracle import _slice_project

        rng = np.random.default_rng(14)
        for k in range(5):
            rho, omega = self._pair(20 + k)
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            m = a + a.conj().T
            p = _slice_project(m, np.kron(omega, rho.T))
            assert np.abs(partial_trace_second(p) - omega).max() <= 1e-14
            assert np.abs(partial_trace_first(p) - rho.T).max() <= 1e-14
            assert np.abs(np.einsum("pij,ji->p", self.PAULI_PAIRS, m - p)).max() <= 1e-13

    def test_iterates_keep_the_marginals(self, monkeypatch):
        # every point the augmented Lagrangian evaluates has the prescribed
        # marginals to the roundoff of x_b + N z, and so every iterate it ends on
        import qwasser.oracle
        from qwasser.linalg import partial_trace_first, partial_trace_second
        from qwasser.oracle import _N, _unpack

        rho, omega = self._pair(15)
        residuals, sizes, ends = [], [], []

        def residual(z, x_b):
            m = _unpack(x_b + _N @ z)
            return max(np.abs(partial_trace_second(m) - omega).max(), np.abs(partial_trace_first(m) - rho.T).max())

        def recorded(fun, hess, z, args, **kwargs):
            def f(z, *a):
                residuals.append(residual(z, a[-1]))
                sizes.append(max(np.abs(z).max(), 1.0))
                return fun(z, *a)

            res = minimize(f, hess, z, args, **kwargs)
            ends.append(residual(res.x, args[-1]))
            return res

        monkeypatch.setattr(qwasser.oracle, "minimize", recorded)
        oracle_min_coupling(rho, omega, C_Z, seed=15)
        assert len(residuals) > 100 and len(ends) >= 3 * 3
        assert np.all(np.array(residuals) <= 1e-15 * np.array(sizes))
        assert max(ends) <= 1e-15


class TestContract:
    def test_rejects_a_raw_matrix_cost(self):
        from qwasser.errors import DomainError

        rng = np.random.default_rng(1)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = state_from_bloch([0.3, -0.2, 0.4])
        with pytest.raises(DomainError, match="CostOperator"):
            oracle_min_coupling(rho, rho, a @ a.conj().T)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_projection_rejects_a_non_finite_matrix(self, bad):
        from qwasser.errors import ContractViolation

        rho = state_from_bloch([0.3, -0.2, 0.4])
        m = np.kron(rho, rho.T)
        m[1, 2] = bad
        with pytest.raises(ContractViolation, match="non-finite"):
            project_to_couplings(m, rho, rho)

    def test_projection_rejects_a_matrix_that_is_not_4x4(self):
        from qwasser.errors import ContractViolation

        rho = state_from_bloch([0.3, -0.2, 0.4])
        with pytest.raises(ContractViolation, match="project_to_couplings"):
            project_to_couplings(np.eye(3) / 3, rho, rho)

    @pytest.mark.parametrize("which", ["rho", "omega"])
    def test_projection_rejects_a_non_finite_state(self, which):
        from qwasser.errors import DomainError

        rho = state_from_bloch([0.3, -0.2, 0.4])
        bad = rho.copy()
        bad[0, 1] = np.nan
        states = {"rho": rho, "omega": rho, which: bad}
        with pytest.raises(DomainError, match=which):
            project_to_couplings(np.kron(rho, rho.T), states["rho"], states["omega"])

    def test_oracle_does_not_import_the_solver(self):
        # the cross-check means something only while the oracle shares no code with the solver
        import ast
        from pathlib import Path

        import qwasser.oracle

        forbidden = {"transport", "isometry", "verify"}
        tree = ast.parse(Path(qwasser.oracle.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(part for alias in node.names for part in alias.name.split("."))
            elif isinstance(node, ast.ImportFrom):
                imported.update((node.module or "").split("."))
                imported.update(alias.name for alias in node.names)
        assert not imported & forbidden
