"""Independent brute-force minimizer used to cross-check the interior-point path.

A Hermitian 4x4 matrix is packed into 16 real coordinates x; its cost is the
linear form tr[C m] = c . x and its marginals are one real linear map A x,
built once at import from the partial traces.  The marginal constraints
A x = b are linear, so the coupling is written on their slice, x = x_b + N z
with z in R^9 (N a Frobenius-orthonormal basis of the null space of A, x_b the
product coupling), and every iterate has the prescribed marginals to roundoff.
Only the PSD cone is left to an augmented Lagrangian with one multiplier,
warmed up at zero (a plain quadratic penalty): it drives the cone violation to
~1e-12 with bounded penalty weights even when nearly pure marginals make the
coupling set razor thin.  Its inner solves are `minimize`, Newton's method on
z with the analytic gradient and generalized Hessian (`_al_hessian`, one eigh
each, as is each evaluation), from three starts, as SDPNAL solves its
subproblems (Zhao, Sun and Toh, SIAM J. Optim. 2010): the objective is
piecewise quadratic, so a few steps solve each.  The best candidate is restored to exact
feasibility by a short alternating-projection polish, so the reported value is
the cost of an explicitly (near-machine) feasible coupling.  That polish ends
on the cone, about 1e-12 off the marginal slice, so the value may undercut the
optimum by that much times the dual multipliers.  `upper` projects the best
candidate back onto the slice and mixes it with the product coupling into the
cone: its cost is an upper bound on the optimum up to the rounding of one
evaluation.  Both use the one Frobenius projector onto the slice,
x_b + N N^T W (x - x_b), W the Frobenius weights of the packed coordinates.

Nothing here shares machinery with the barrier solver beyond elementary
matrix helpers; agreement between the two is a meaningful consistency check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cost import cost_matrix
from .errors import ContractViolation
from .linalg import eigh_lo, eigvalsh_lo, partial_trace_first, partial_trace_second, require_square, solve, transpose_op
from .sampling import derived_rng
from .states import validate_state

_DIAG = np.arange(4)
_UP = np.triu_indices(4, 1)
# project_to_couplings: its most rounds, and the smallest eigenvalue that ends them
_POLISH_ROUNDS = 60
_POLISH_EIG_FLOOR = -5e-13
# minimize: the Armijo constant, its most step halvings, and the relative
# decrease (f_old - f_new) / max(|f_old|, |f_new|, 1) that counts as a stall
_ARMIJO = 1e-4
_HALVINGS = 40
_STALL = 1e-18
# oracle_min_coupling: the product coupling, then _STARTS - 1 perturbations of it
_STARTS = 3


@dataclass(frozen=True)
class OracleResult:
    value: float
    matrix: np.ndarray
    marginal_residual: float
    min_eigenvalue: float
    upper: float  # cost of a coupling on the marginal slice and in the cone


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
# Frobenius weights of the packed coordinates: tr[m m'] = x . (_WEIGHT * x')
_WEIGHT = np.repeat([1.0, 2.0], [4, 12])


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
# N: a Frobenius-orthonormal basis of the null space of _A (rank 7: 8 real marginal
# entries less their shared trace), the eigenvectors of the 9 zero eigenvalues of its
# Gram matrix in the coordinates sqrt(_WEIGHT) x
_N = eigh_lo(_A.T @ _A / np.sqrt(np.outer(_WEIGHT, _WEIGHT)))[1][:, :9] / np.sqrt(_WEIGHT)[:, None]
_SLICE_BASIS = _N.T @ _BASIS


def _slice_project(m, product):
    """Frobenius projection of m (its Hermitian part) onto the marginal slice through
    `product`: x_b + N N^T W (x - x_b), where W (x - x_b) = _pack_grad(m - product)."""
    return product + _unpack(_N @ (_N.T @ _pack_grad(m - product)))


def _psd_project(m):
    w, v = eigh_lo(0.5 * (m + m.conj().T))
    return (v * np.maximum(w, 0.0)) @ v.conj().T


@dataclass(frozen=True)
class Minimum:
    x: np.ndarray
    nfev: int  # calls of the objective
    nit: int  # accepted steps


def minimize(fun, hess, x, args, maxiter: int, gtol: float) -> Minimum:
    """Newton's method for fun(x, *args) -> (value, gradient) with Hessian hess(x, *args).

    Each step solves (H + 1e-12 max|H| I) p = -g, and takes -g instead where
    p does not descend (H singular or not positive definite); its length is
    found by Armijo backtracking from 1.  Stops when max |g| <= gtol, after
    maxiter steps, when a step's relative decrease is at most _STALL, or
    when no trial passes the Armijo test.
    """
    f, g = fun(x, *args)
    nfev, nit = 1, 0
    eye = np.eye(x.size)
    while nit < maxiter and np.abs(g).max() > gtol:
        h = hess(x, *args)
        # a singular system gives NaN, and a NaN slope is not negative
        with np.errstate(invalid="ignore"):
            p = solve(h + 1e-12 * np.abs(h).max() * eye, -g[:, None])[:, 0]
        slope = float(g @ p)
        if not slope < 0.0:
            p, slope = -g, -float(g @ g)
        t = 1.0
        for _ in range(_HALVINGS + 1):
            xn = x + t * p
            fn, gn = fun(xn, *args)
            nfev += 1
            if fn <= f + _ARMIJO * t * slope:
                break
            t *= 0.5
        else:
            break
        nit += 1
        stalled = f - fn <= _STALL * max(abs(f), abs(fn), 1.0)
        x, f, g = xn, fn, gn
        if stalled:
            break
    return Minimum(x, nfev, nit)


def _al_objective(z, lam_p, yp, yp_sq, c, x_b):
    """Augmented Lagrangian on the slice x = x_b + N z: one multiplier, yp, on the cone.

    yp_sq = ||yp||_F^2.  The cone term is (||(yp - lam_p m)_+||^2 - ||yp||^2) / (2 lam_p),
    whose gradient is -(yp - lam_p m)_+; the multiplier update is the same
    positive part, so violations vanish with bounded penalty weights.
    """
    x = x_b + _N @ z
    # yp is Hermitian only to roundoff; eigh reads the lower triangle alone
    w, v = eigh_lo(yp - lam_p * _unpack(x))
    pos = np.maximum(w, 0.0)
    val = c @ x + (pos @ pos - yp_sq) / (2.0 * lam_p)
    return val, _N.T @ (c - _pack_grad((v * pos) @ v.conj().T))


def _al_hessian(z, lam_p, yp, yp_sq, c, x_b):
    """Generalized Hessian of `_al_objective`: lam_p Re[(F o D) F^H].

    F_k = V^H S_k V for the slice directions S_k = sum_j N_jk E_j (the rows
    of _SLICE_BASIS) in the eigenbasis Z = V diag(w) V^H of Z = yp - lam_p m,
    and D holds the divided differences (w_i+ - w_j+) / (w_i - w_j) of the
    positive part, 1[w_i > 0] where w_i = w_j (Daleckii and Krein): the
    derivative of Z_+ along dZ is V (D o V^H dZ V) V^H.
    """
    w, v = eigh_lo(yp - lam_p * _unpack(x_b + _N @ z))
    pos = np.maximum(w, 0.0)
    dw = w[:, None] - w
    ratio = np.broadcast_to(w > 0.0, dw.shape).astype(float)
    np.divide(pos[:, None] - pos, dw, out=ratio, where=dw != 0.0)
    # (V^H S_k V)_ab = sum_ij (S_k)_ij conj(V_ia) V_jb
    f = _SLICE_BASIS @ (v.conj()[:, None, :, None] * v[None, :, None, :]).reshape(16, 16)
    return lam_p * ((f * ratio.ravel()) @ f.conj().T).real


def project_to_couplings(m, rho, omega):
    """Restore exact feasibility: alternate slice/cone projections, end on the cone.

    Intended for nearly feasible inputs (violations ~1e-11), where each round
    moves the point by the violation size and the loop exits immediately.
    """
    m = require_square(m, (4,), "project_to_couplings")
    if not np.isfinite(m).all():
        raise ContractViolation("project_to_couplings: non-finite entry")
    product = np.kron(validate_state(omega, "omega"), transpose_op(validate_state(rho, "rho")))
    p = _slice_project(m, product)
    for _ in range(_POLISH_ROUNDS):
        if eigvalsh_lo(p)[0] >= _POLISH_EIG_FLOOR:
            break
        p = _slice_project(_psd_project(p), product)
    return _psd_project(p)


def _upper_bound(m, product, cmat) -> float:
    """Cost of m projected onto the marginal slice, then mixed with the
    product coupling P = omega (x) rho^T, with weight
    t = -lambda_min / (lambda_min(P) - lambda_min) on P where the projection
    left the cone (all of P where lambda_min(P) is no larger)."""
    p = _slice_project(m, product)
    lam = float(eigvalsh_lo(p)[0])
    if lam < 0.0:
        spread = float(eigvalsh_lo(product)[0]) - lam
        p = p + (min(-lam / spread, 1.0) if spread > 0.0 else 1.0) * (product - p)
    return float(np.einsum("ij,ji->", p, cmat).real)


def oracle_min_coupling(rho, omega, c, seed: int = 0) -> OracleResult:
    """Augmented-Lagrangian descent from `_STARTS` starts over the 9-parameter marginal slice."""
    rho = validate_state(rho, "rho")
    omega = validate_state(omega, "omega")
    cmat = cost_matrix(c)
    rho_t = transpose_op(rho)
    cvec = _pack_grad(cmat)

    best_val = np.inf
    best_mat = None
    product = np.kron(omega, rho_t)
    x_b = _pack(product)  # the product coupling has the prescribed marginals
    for start in range(_STARTS):
        if start == 0:
            z = np.zeros(9)
        else:
            rng = derived_rng(seed, start)
            noise = rng.normal(scale=0.15, size=(4, 4)) + 1j * rng.normal(scale=0.15, size=(4, 4))
            z = _N.T @ _pack_grad(noise)  # the noise's Hermitian part, projected onto the slice
        yp = np.zeros((4, 4), dtype=complex)
        # warm-up: at zero multiplier the objective is the quadratic penalty
        # c.x + (lam_p / 2) |m_-|^2, m_- the negative part of m
        for lam_p in (2e2, 2e4):
            z = minimize(_al_objective, _al_hessian, z, (lam_p, yp, 0.0, cvec, x_b), maxiter=150, gtol=1e-12).x

        lam_p = 1e5
        for _ in range(12):
            args = (lam_p, yp, float(np.vdot(yp, yp).real), cvec, x_b)
            z = minimize(_al_objective, _al_hessian, z, args, maxiter=400, gtol=1e-13).x
            m = _unpack(x_b + _N @ z)
            violation = -float(eigvalsh_lo(m)[0])  # the most negative eigenvalue
            yp = _psd_project(yp - lam_p * m)
            if violation < 2e-12:
                break
            lam_p = min(lam_p * 3.0, 1e8)

        candidate = project_to_couplings(m, rho, omega)
        val = float(np.einsum("ij,ji->", candidate, cmat).real)
        if val < best_val:
            best_val = val
            best_mat = candidate

    r2 = np.abs(partial_trace_second(best_mat) - omega).max()
    r1 = np.abs(partial_trace_first(best_mat) - rho_t).max()
    min_eig = float(eigvalsh_lo(best_mat)[0])
    return OracleResult(best_val, best_mat, float(max(r1, r2)), min_eig, _upper_bound(best_mat, product, cmat))
