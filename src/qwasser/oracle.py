"""Independent brute-force minimizer used to cross-check the interior-point path.

The coupling is parametrized directly by the 16 real coordinates x of a
Hermitian 4x4 matrix.  A quadratic-penalty warmup is followed by an augmented
Lagrangian with multipliers on both marginal constraints and on the PSD cone
(L-BFGS inner solves with analytic gradients, several random restarts), which
drives constraint violations to ~1e-12 with bounded penalty weights even when
nearly pure marginals make the coupling set razor thin.  The best candidate is
restored to exact feasibility by a short alternating-projection polish, so the
reported value is the cost of an explicitly (near-machine) feasible coupling.

The objectives work on x itself: the cost is the linear form tr[C m] = c . x
and both marginal residuals are one real 16x16 map, A x - b, built once at
import, so only the cone term needs a 4x4 matrix (one eigh per evaluation).

Nothing here shares machinery with the barrier solver beyond elementary
matrix helpers; agreement between the two is a meaningful consistency check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .cost import cost_matrix
from .errors import ContractViolation
from .linalg import partial_trace_first, partial_trace_second, transpose_op
from .sampling import derived_rng
from .states import PAULI, validate_state

_DIAG = np.arange(4)
_UP = np.triu_indices(4, 1)
# sigma_i x sigma_j with i, j >= 1: the directions that keep both marginals
_PP9 = np.array([np.kron(PAULI[i], PAULI[j]) for i in (1, 2, 3) for j in (1, 2, 3)])


@dataclass(frozen=True)
class OracleResult:
    value: float
    matrix: np.ndarray
    marginal_residual: float
    min_eigenvalue: float
    n_starts: int


def _basis() -> np.ndarray:
    """E_k with m = sum_k x_k E_k for x = _pack(m), as rows of flattened matrices."""
    e = np.zeros((16, 4, 4), dtype=complex)
    e[_DIAG, _DIAG, _DIAG] = 1.0
    k = np.arange(6)
    e[4 + k, _UP[0], _UP[1]] = e[4 + k, _UP[1], _UP[0]] = 1.0
    e[10 + k, _UP[0], _UP[1]] = 1j
    e[10 + k, _UP[1], _UP[0]] = -1j
    return e.reshape(16, 16)


_BASIS = _basis()
_BASIS_CONJ = _BASIS.conj()


def _pack(m: np.ndarray) -> np.ndarray:
    return np.concatenate([np.diag(m).real, m[_UP].real, m[_UP].imag])


def _unpack(x: np.ndarray) -> np.ndarray:
    return (x @ _BASIS).reshape(4, 4)


def _pack_grad(g: np.ndarray) -> np.ndarray:
    """Gradient in x of tr[g m] for Hermitian g: the components tr[g E_k]."""
    # E_k is Hermitian, so tr[g E_k] = sum_ij g_ij conj(E_k)_ij
    return (_BASIS_CONJ @ g.ravel()).real


def _marginal_vector(second, first) -> np.ndarray:
    """A pair of 2x2 marginals as one real 16-vector: re/im pairs of their entries."""
    return np.concatenate([second.ravel(), first.ravel()]).view(float)


# The marginal map on the packed coordinates:
# _A @ _pack(m) = _marginal_vector(partial_trace_second(m), partial_trace_first(m))
_A = np.array(
    [_marginal_vector(partial_trace_second(e), partial_trace_first(e)) for e in _BASIS.reshape(16, 4, 4)]
).T


def _psd_project(m):
    w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    return (v * np.maximum(w, 0.0)) @ v.conj().T


def _penalized(x, lam, c, b):
    """Plain quadratic penalty, used to warm up the multiplier phase.

    c = _pack_grad(C) is the cost as a linear form (tr[C m] = c . x) and
    b = _marginal_vector of the target marginals, so the residual is _A x - b.
    """
    r = _A @ x - b
    w, v = np.linalg.eigh(_unpack(x))
    neg = np.minimum(w, 0.0)
    val = c @ x + lam * (r @ r + neg @ neg)
    grad = c + 2.0 * lam * (_A.T @ r + _pack_grad((v * neg) @ v.conj().T))
    return val, grad


def _al_objective(x, lam_m, lam_p, y, yp, yp_sq, c, b):
    """Augmented Lagrangian: multipliers y on the marginals, yp on the cone.

    y pairs with the residual _A x - b; yp_sq = ||yp||_F^2.  The cone term
    is (||(yp - lam_p m)_+||^2 - ||yp||^2) / (2 lam_p), whose gradient is
    -(yp - lam_p m)_+; the multiplier update is the same positive part, so
    violations vanish with bounded penalty weights.
    """
    r = _A @ x - b
    # yp is Hermitian only to roundoff; eigh reads the lower triangle alone
    w, v = np.linalg.eigh(yp - lam_p * _unpack(x))
    pos = np.maximum(w, 0.0)
    val = c @ x + y @ r + lam_m * (r @ r) + (pos @ pos - yp_sq) / (2.0 * lam_p)
    grad = c + _A.T @ (y + 2.0 * lam_m * r) - _pack_grad((v * pos) @ v.conj().T)
    return val, grad


def _slice_component(m):
    """Component of m along the _PP9 directions (tr[(s_i x s_j)^2] = 4)."""
    return np.tensordot(np.einsum("kij,ji->k", _PP9, m).real / 4.0, _PP9, 1)


def _affine_project(m, fixed):
    """Frobenius projection onto the slice with the prescribed marginals."""
    return fixed + _slice_component(m)


def _marginal_slice(rho_t, omega):
    """The slice's point orthogonal to every _PP9 direction: the product minus its _PP9 component."""
    product = np.kron(omega, rho_t)
    return product - _slice_component(product)


def project_to_couplings(m, rho, omega, max_rounds: int = 60, eig_floor: float = -5e-13):
    """Restore exact feasibility: alternate slice/cone projections, end on the cone.

    Intended for nearly feasible inputs (violations ~1e-11), where each round
    moves the point by the violation size and the loop exits immediately.
    """
    rho_t = transpose_op(rho)
    fixed = _marginal_slice(rho_t, omega)
    p = _affine_project(m, fixed)
    for _ in range(max_rounds):
        if np.linalg.eigvalsh(p)[0] >= eig_floor:
            break
        p = _affine_project(_psd_project(p), fixed)
    return _psd_project(p)


def oracle_min_coupling(rho, omega, c, n_starts: int = 3, seed: int = 0) -> OracleResult:
    """Multi-start penalized descent over the 16-parameter coupling set."""
    if n_starts < 1:
        raise ContractViolation(f"oracle_min_coupling: n_starts must be at least 1, got {n_starts}")
    rho = validate_state(rho, "rho")
    omega = validate_state(omega, "omega")
    cmat = cost_matrix(c)
    rho_t = transpose_op(rho)
    cvec = _pack_grad(cmat)
    b = _marginal_vector(omega, rho_t)

    best_val = np.inf
    best_mat = None
    product = np.kron(omega, rho_t)
    for start in range(n_starts):
        if start == 0:
            x = _pack(product)
        else:
            rng = derived_rng(seed, start)
            noise = rng.normal(scale=0.15, size=(4, 4)) + 1j * rng.normal(scale=0.15, size=(4, 4))
            x = _pack(product + 0.5 * (noise + noise.conj().T))
        for lam in (1e2, 1e4):
            x = minimize(
                _penalized,
                x,
                args=(lam, cvec, b),
                jac=True,
                method="L-BFGS-B",
                options={"maxiter": 150, "ftol": 1e-18, "gtol": 1e-12},
            ).x

        y = np.zeros(16)
        yp = np.zeros((4, 4), dtype=complex)
        lam_m = lam_p = 1e5
        for _ in range(12):
            x = minimize(
                _al_objective,
                x,
                args=(lam_m, lam_p, y, yp, float(np.vdot(yp, yp).real), cvec, b),
                jac=True,
                method="L-BFGS-B",
                options={"maxiter": 400, "ftol": 1e-18, "gtol": 1e-13},
            ).x
            m = _unpack(x)
            r = _A @ x - b
            # largest entry modulus of either marginal residual, or the most negative eigenvalue
            violation = max(float(np.abs(r.view(complex)).max()), -float(np.linalg.eigvalsh(m)[0]))
            y = y + 2.0 * lam_m * r
            yp = _psd_project(yp - lam_p * m)
            if violation < 2e-12:
                break
            lam_m = min(lam_m * 3.0, 1e8)
            lam_p = min(lam_p * 3.0, 1e8)

        candidate = project_to_couplings(_unpack(x), rho, omega)
        val = float(np.einsum("ij,ji->", candidate, cmat).real)
        if val < best_val:
            best_val = val
            best_mat = candidate

    r2 = np.abs(partial_trace_second(best_mat) - omega).max()
    r1 = np.abs(partial_trace_first(best_mat) - rho_t).max()
    min_eig = float(np.linalg.eigvalsh(best_mat)[0])
    return OracleResult(best_val, best_mat, float(max(r1, r2)), min_eig, n_starts)
