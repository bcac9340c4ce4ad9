"""Independent brute-force minimizer used to cross-check the interior-point path.

The coupling is parametrized directly by the 16 real coordinates x of a
Hermitian 4x4 matrix.  An augmented Lagrangian with multipliers on both
marginal constraints and on the PSD cone, warmed up at zero multipliers (a
plain quadratic penalty), drives constraint violations to ~1e-12 with bounded
penalty weights even when nearly pure marginals make the coupling set razor
thin; its inner solves are `minimize`, a dense BFGS on x with analytic
gradients, from three starts.  Within a start, each inner solve begins from
the inverse Hessian (`Minimum.h`) that the last one ended with, scaled by the
ratio of the old to the new marginal penalty weight: the penalty terms
dominate the Hessian and grow linearly in that weight.  Where a carried
inverse Hessian yields no step, `minimize` resets it to the identity and
retries; each start begins from the identity.  The best candidate is
restored to exact feasibility by a short alternating-projection polish, so the
reported value is the cost of an explicitly (near-machine) feasible coupling.
That polish ends on the cone, about 1e-12 off the marginal slice, so the value
may undercut the optimum by that much times the dual multipliers.  `upper`
projects the best candidate back onto the slice and mixes it with the product
coupling into the cone: its cost is an upper bound on the optimum up to the
rounding of one evaluation.

The objective works on x itself: the cost is the linear form tr[C m] = c . x
and both marginal residuals are one real 16x16 map, A x - b, built once at
import, so only the cone term needs a 4x4 matrix (one eigh per evaluation).

Nothing here shares machinery with the barrier solver beyond elementary
matrix helpers; agreement between the two is a meaningful consistency check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cost import cost_matrix
from .linalg import eigh_lo, eigvalsh_lo, partial_trace_first, partial_trace_second, transpose_op
from .sampling import derived_rng
from .states import PAULI, validate_state

_DIAG = np.arange(4)
_UP = np.triu_indices(4, 1)
# sigma_i x sigma_j with i, j >= 1: the directions that keep both marginals
_PP9 = np.array([np.kron(PAULI[i], PAULI[j]) for i in (1, 2, 3) for j in (1, 2, 3)])
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
    w, v = eigh_lo(0.5 * (m + m.conj().T))
    return (v * np.maximum(w, 0.0)) @ v.conj().T


@dataclass(frozen=True)
class Minimum:
    x: np.ndarray
    nfev: int  # calls of the objective
    nit: int  # accepted steps
    h: np.ndarray  # the final inverse-Hessian estimate


def minimize(fun, x, args, maxiter: int, gtol: float, h=None) -> Minimum:
    """Dense BFGS for a smooth objective fun(x, *args) -> (value, gradient).

    The inverse Hessian H starts at `h` when one is given, used as it is, so
    that a caller can carry curvature over from a related problem; otherwise
    at the identity, rescaled to (s.y / y.y) I before the first update
    (Nocedal & Wright, Numerical Optimization, 6.20).  An update with
    s.y <= 1e-16 |s| |y| is skipped.  Steps are found by Armijo backtracking
    from 1, or from min(1, 1 / |g|_1) while H is the identity.  When -H g does
    not descend, is too short to move x, or has no trial that passes the
    Armijo test, H is reset to the identity and the step retried from the
    same point.  Stops when max |g| <= gtol, after maxiter steps, when a
    step's relative decrease is at most _STALL, or when no step from the
    identity decreases f.  The final H is returned with x.
    """
    f, g = fun(x, *args)
    nfev, nit = 1, 0
    n = x.size
    fresh = h is None  # h is the identity, not yet scaled by a curvature estimate
    h = np.eye(n) if fresh else h.copy()
    while nit < maxiter and np.abs(g).max() > gtol:
        p = -(h @ g)
        slope = float(g @ p)
        # no step along a direction that does not descend, or that is too
        # short to move x, can decrease f
        if not slope < 0.0 or np.array_equal(x + p, x):
            h, fresh = np.eye(n), True
            p, slope = -g, -float(g @ g)
        t = min(1.0, 1.0 / np.abs(g).sum()) if fresh else 1.0
        for _ in range(_HALVINGS + 1):
            xn = x + t * p
            fn, gn = fun(xn, *args)
            nfev += 1
            if fn <= f + _ARMIJO * t * slope:
                break
            t *= 0.5
        else:
            if fresh:
                break
            h, fresh = np.eye(n), True  # retry from x along -g
            continue
        nit += 1
        s, y = xn - x, gn - g
        sy = float(s @ y)
        if sy > 1e-16 * math.sqrt(float(s @ s) * float(y @ y)):
            if fresh:
                h *= sy / float(y @ y)
                fresh = False
            # H + (1 + y.Hy / sy) s s^T / sy - (s w^T + w s^T), with w = H y / sy
            w = (h @ y) / sy
            h += s[:, None] * ((1.0 + float(y @ w)) / sy * s - w) - w[:, None] * s
        stalled = f - fn <= _STALL * max(abs(f), abs(fn), 1.0)
        x, f, g = xn, fn, gn
        if stalled:
            break
    return Minimum(x, nfev, nit, h)


def _al_objective(x, lam_m, lam_p, y, yp, yp_sq, c, b):
    """Augmented Lagrangian: multipliers y on the marginals, yp on the cone.

    y pairs with the residual _A x - b; yp_sq = ||yp||_F^2.  The cone term
    is (||(yp - lam_p m)_+||^2 - ||yp||^2) / (2 lam_p), whose gradient is
    -(yp - lam_p m)_+; the multiplier update is the same positive part, so
    violations vanish with bounded penalty weights.
    """
    r = _A @ x - b
    # yp is Hermitian only to roundoff; eigh reads the lower triangle alone
    w, v = eigh_lo(yp - lam_p * _unpack(x))
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


def project_to_couplings(m, rho, omega):
    """Restore exact feasibility: alternate slice/cone projections, end on the cone.

    Intended for nearly feasible inputs (violations ~1e-11), where each round
    moves the point by the violation size and the loop exits immediately.
    """
    rho_t = transpose_op(rho)
    fixed = _marginal_slice(rho_t, omega)
    p = _affine_project(m, fixed)
    for _ in range(_POLISH_ROUNDS):
        if eigvalsh_lo(p)[0] >= _POLISH_EIG_FLOOR:
            break
        p = _affine_project(_psd_project(p), fixed)
    return _psd_project(p)


def _upper_bound(m, rho_t, omega, cmat) -> float:
    """Cost of m projected onto the marginal slice, then mixed with the
    product coupling P = omega (x) rho^T, with weight
    t = -lambda_min / (lambda_min(P) - lambda_min) on P where the projection
    left the cone (all of P where lambda_min(P) is no larger)."""
    p = _affine_project(m, _marginal_slice(rho_t, omega))
    lam = float(eigvalsh_lo(p)[0])
    if lam < 0.0:
        product = np.kron(omega, rho_t)
        spread = float(eigvalsh_lo(product)[0]) - lam
        p = p + (min(-lam / spread, 1.0) if spread > 0.0 else 1.0) * (product - p)
    return float(np.einsum("ij,ji->", p, cmat).real)


def oracle_min_coupling(rho, omega, c, seed: int = 0) -> OracleResult:
    """Augmented-Lagrangian descent from `_STARTS` starts over the 16-parameter coupling set."""
    rho = validate_state(rho, "rho")
    omega = validate_state(omega, "omega")
    cmat = cost_matrix(c)
    rho_t = transpose_op(rho)
    cvec = _pack_grad(cmat)
    b = _marginal_vector(omega, rho_t)

    best_val = np.inf
    best_mat = None
    product = np.kron(omega, rho_t)
    for start in range(_STARTS):
        if start == 0:
            x = _pack(product)
        else:
            rng = derived_rng(seed, start)
            noise = rng.normal(scale=0.15, size=(4, 4)) + 1j * rng.normal(scale=0.15, size=(4, 4))
            x = _pack(product + 0.5 * (noise + noise.conj().T))
        y = np.zeros(16)
        yp = np.zeros((4, 4), dtype=complex)
        # The penalty terms dominate the Hessian and grow linearly in lam_m, so
        # each inner solve starts from the inverse Hessian h that the last one
        # ended with at weight lam_h, scaled by lam_h / lam_m.
        h = lam_h = None
        # warm-up: at zero multipliers with lam_p = 2 lam the objective is the
        # quadratic penalty c.x + lam (|r|^2 + |m_-|^2), m_- the negative part of m
        for lam in (1e2, 1e4):
            res = minimize(_al_objective, x, (lam, 2 * lam, y, yp, 0.0, cvec, b), maxiter=150, gtol=1e-12,
                           h=None if h is None else h * (lam_h / lam))
            x, h, lam_h = res.x, res.h, lam

        lam_m = lam_p = 1e5
        for _ in range(12):
            res = minimize(
                _al_objective,
                x,
                (lam_m, lam_p, y, yp, float(np.vdot(yp, yp).real), cvec, b),
                maxiter=400,
                gtol=1e-13,
                h=h * (lam_h / lam_m),
            )
            x, h, lam_h = res.x, res.h, lam_m
            m = _unpack(x)
            r = _A @ x - b
            # largest entry modulus of either marginal residual, or the most negative eigenvalue
            violation = max(float(np.abs(r.view(complex)).max()), -float(eigvalsh_lo(m)[0]))
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
    min_eig = float(eigvalsh_lo(best_mat)[0])
    return OracleResult(best_val, best_mat, float(max(r1, r2)), min_eig, _upper_bound(best_mat, rho_t, omega, cmat))
