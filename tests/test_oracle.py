"""Tests for the penalized-descent oracle and its agreement with the solver."""

import numpy as np
import pytest

from qwasser.cost import sym_cost, z_cost
from qwasser.oracle import oracle_min_coupling, project_to_couplings
from qwasser.sampling import random_bloch_in_ball, random_bloch_on_sphere
from qwasser.states import state_from_bloch
from qwasser.transport import self_distance_sq, solve_min_coupling

C_SYM = sym_cost()
C_Z = z_cost()


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
        from qwasser.oracle import _marginal_vector, _pack, _pack_grad

        rng = np.random.default_rng(seed)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        x0 = _pack(0.5 * (m + m.conj().T))
        omega = state_from_bloch([0.2, -0.1, 0.3])
        rho_t = state_from_bloch([-0.4, 0.2, 0.1]).T.copy()
        return x0, _pack_grad(C_SYM.matrix), _marginal_vector(omega, rho_t)

    def test_penalized_gradient(self):
        from qwasser.oracle import _penalized

        x0, c, b = self._point_and_targets(7)
        err = self._finite_difference_check(_penalized, x0, (1e3, c, b))
        assert err < 1e-6

    def test_al_gradient(self):
        from qwasser.oracle import _al_objective

        x0, c, b = self._point_and_targets(8)
        y = np.random.default_rng(9).normal(size=16)
        yp = np.diag([0.5, 0.1, 0.0, 0.2]).astype(complex)
        yp_sq = float(np.vdot(yp, yp).real)
        err = self._finite_difference_check(_al_objective, x0, (1e3, 1e3, y, yp, yp_sq, c, b))
        assert err < 1e-6

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


class TestContract:
    def test_rejects_no_starts(self):
        from qwasser.errors import ContractViolation

        rho = state_from_bloch([0.1, 0.2, 0.3])
        for n in (0, -1):
            with pytest.raises(ContractViolation, match="n_starts"):
                oracle_min_coupling(rho, rho, C_Z, n_starts=n)

    def test_rejects_a_raw_matrix_cost(self):
        from qwasser.errors import DomainError

        rng = np.random.default_rng(1)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = state_from_bloch([0.3, -0.2, 0.4])
        with pytest.raises(DomainError, match="CostOperator"):
            oracle_min_coupling(rho, rho, a @ a.conj().T)

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
