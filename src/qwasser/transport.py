"""Coupling-constrained transport cost minimization between qubit states.

A coupling of (rho, omega) is a 4x4 PSD trace-one matrix whose second-factor
partial trace is omega and whose first-factor partial trace is rho^T.  The
squared transport distance is the minimum of tr[Pi C] over that set -- a tiny
semidefinite program.

Solver: after expanding Pi in the Pauli product basis, the marginal
constraints pin 7 of the 16 real coefficients, so the program is a linear
objective over a 9-dimensional affine slice of the PSD cone.  A log-det
barrier interior-point method with damped Newton steps follows the central
path once per solve; its final Newton step yields a dual feasible point,
whose value gives the reported duality gap.

Closed fast paths (exact, no iteration):

* if either marginal is pure, the feasible set is the singleton product
  coupling omega (x) rho^T;
* if rho == omega, the rank-one coupling built from vec(sqrt(rho)) is optimal
  for any generator-built cost, which the solver cross-validates in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cost import cost_matrix, require_unitary
from .errors import DomainError, InternalConsistencyError, SolverAccuracyError
from .linalg import (
    bra_cost_ket,
    dagger,
    partial_trace_first,
    partial_trace_second,
    sqrt_psd,
    tensor,
    transpose_op,
    vec,
)
from .states import PAULI, bloch_from_state, is_pure, validate_state

# Pauli product basis; sigma_i (x) sigma_j is Hermitian with tr[(s_i s_j)^2] = 4.
_PP = [[np.kron(PAULI[i], PAULI[j]) for j in range(4)] for i in range(4)]
# Free directions: both partial traces vanish, so they span the coupling slice.
_FREE = np.stack([_PP[i][j] for i in (1, 2, 3) for j in (1, 2, 3)]) * 0.25
# Constraint operators whose Pi-expectations are pinned by the marginals.
_CONSTRAINTS = np.stack(
    [_PP[0][0]] + [_PP[i][0] for i in (1, 2, 3)] + [_PP[0][j] for j in (1, 2, 3)]
)
_ROW = np.stack([_PP[i][0] for i in (1, 2, 3)])
_COL = np.stack([_PP[0][j] for j in (1, 2, 3)])

STATE_EQUAL_ATOL = 1e-12


@dataclass(frozen=True)
class Coupling:
    """A coupling matrix together with the marginals it was built for."""

    matrix: np.ndarray
    first_marginal: np.ndarray              # omega
    second_marginal_transposed: np.ndarray  # rho^T

    def marginal_residual(self) -> float:
        r1 = np.abs(partial_trace_second(self.matrix) - self.first_marginal).max()
        r2 = np.abs(partial_trace_first(self.matrix) - self.second_marginal_transposed).max()
        return float(max(r1, r2))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])


@dataclass(frozen=True)
class SolverConfig:
    """Interior-point settings; the contract is the certified duality gap."""

    tolerance: float = 1e-8
    max_iterations: int = 500
    mu_initial: float = 0.0      # 0 -> scaled from the starting objective
    mu_shrink: float = 0.03
    centering_tol: float = 0.3   # Newton-decrement threshold while following the path
    fast_paths: bool = True      # use exact closed forms when the optimizer is known

    def __post_init__(self):
        if not (self.tolerance > 0.0):
            raise DomainError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_iterations < 1:
            raise DomainError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not (0.0 < self.mu_shrink < 1.0):
            raise DomainError(f"mu_shrink must lie in (0, 1), got {self.mu_shrink}")


@dataclass(frozen=True)
class TransportResult:
    optimal_value: float
    optimal_coupling: Coupling
    solver_status: str  # "closed_form" | "converged" | "max_iterations"
    duality_gap_or_residual: float
    iterations: int  # Newton steps of the one barrier run; 0 on closed forms


@dataclass(frozen=True)
class DivergenceBreakdown:
    distance_sq: float
    self_distance_sq_first: float
    self_distance_sq_second: float
    radicand: float
    divergence: float
    solver_status: str


def product_coupling(rho, omega) -> Coupling:
    """The independent coupling omega (x) rho^T."""
    rho = validate_state(rho, "rho")
    omega = validate_state(omega, "omega")
    rho_t = transpose_op(rho)
    return Coupling(tensor(omega, rho_t), omega, rho_t)


def purification_coupling(rho) -> Coupling:
    """Rank-one coupling of rho with itself built from vec(sqrt(rho))."""
    rho = validate_state(rho, "rho")
    v = vec(sqrt_psd(rho))
    return Coupling(np.outer(v, v.conj()), rho, transpose_op(rho))


def coupling_cost(pi, c) -> float:
    """tr[Pi C]; the imaginary part must be roundoff."""
    m = pi.matrix if isinstance(pi, Coupling) else np.asarray(pi, dtype=complex)
    cm = cost_matrix(c)
    val = complex(np.einsum("ij,ji->", m, cm))
    if abs(val.imag) > 1e-8:
        raise InternalConsistencyError(f"coupling_cost: imaginary part {val.imag:.3e}")
    return float(val.real)


def coupling_conjugate(pi: Coupling, u_left, u_right) -> Coupling:
    """Conjugate a coupling by u_left (x) conj(u_right).

    The marginals transform as omega -> u_left omega u_left^dag and
    rho -> u_right rho u_right^dag, and the cost under any conjugation-
    invariant cost operator is unchanged.
    """
    u_left = require_unitary(u_left, what="u_left")
    u_right = require_unitary(u_right, what="u_right")
    big = np.kron(u_left, transpose_op(dagger(u_right)))
    matrix = big @ pi.matrix @ dagger(big)
    omega = u_left @ pi.first_marginal @ dagger(u_left)
    rho = transpose_op(pi.second_marginal_transposed)
    rho_t = transpose_op(u_right @ rho @ dagger(u_right))
    return Coupling(matrix, omega, rho_t)


def _bloch_pair(rho, omega):
    """Bloch vector of omega and of rho^T (the transposed-second-factor target)."""
    b_omega = bloch_from_state(omega)
    b_rho = bloch_from_state(rho)
    b_rho_t = np.array([b_rho[0], -b_rho[1], b_rho[2]])
    return b_omega, b_rho_t


def _affine_parts(rho, omega):
    b_omega, b_rho_t = _bloch_pair(rho, omega)
    fixed = 0.25 * (
        _PP[0][0]
        + np.tensordot(b_omega, _ROW, axes=1)
        + np.tensordot(b_rho_t, _COL, axes=1)
    )
    bvec = np.concatenate(([1.0], b_omega, b_rho_t))
    return fixed, bvec, b_omega, b_rho_t


def _chol_logdet(m):
    try:
        ell = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return None
    return 2.0 * float(np.log(np.diag(ell).real).sum())


def _barrier_minimize(cvec, m0, basis, v0, cfg: SolverConfig):
    """Minimize cvec . v subject to M = m0 + sum_a v[a] basis[a] being PSD.

    Log-det barrier path following with damped Newton steps; every iterate is
    strictly feasible.  Returns (value, M, mu, iterations) at the last
    iterate, or None when v0 is not strictly feasible.
    """
    v = np.asarray(v0, dtype=float).copy()
    n = basis.shape[0]
    basis_flat = basis.reshape(n, 16)
    m0_flat = m0.reshape(16)

    def assemble(vv):
        return (m0_flat + vv @ basis_flat).reshape(4, 4)

    mat = assemble(v)
    logdet = _chol_logdet(mat)
    if logdet is None or np.linalg.eigvalsh(mat)[0] < 1e-13:
        return None

    mu = cfg.mu_initial if cfg.mu_initial > 0 else (1.0 + abs(float(cvec @ v))) / 4.0
    # Each barrier stage leaves an objective offset of about 4*mu, so stop a
    # comfortable factor below the requested gap.
    mu_floor = cfg.tolerance / 32.0
    dec_target = cfg.centering_tol**2
    iters = 0

    while iters < cfg.max_iterations:
        inv = np.linalg.inv(mat)
        t = np.matmul(inv, basis)
        grad = cvec - mu * t.diagonal(axis1=1, axis2=2).sum(axis=1).real
        # hess[a, b] = mu * tr[t_a @ t_b] with t_a = inv @ basis_a
        t_flat = t.reshape(n, 16)
        t_flat_swapped = t.transpose(0, 2, 1).reshape(n, 16)
        hess = mu * (t_flat @ t_flat_swapped.T).real
        hess = 0.5 * (hess + hess.T)
        try:
            delta = -np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            delta = -np.linalg.lstsq(hess, grad, rcond=None)[0]
        # Newton decrement of the self-concordant centering problem
        # (1/mu) cvec.v - logdet: the mu division keeps the proximity
        # test meaningful as mu shrinks.
        dec_sq = max(float(-grad @ delta), 0.0) / mu
        if dec_sq <= dec_target:
            if mu <= mu_floor:
                break
            mu = max(mu * cfg.mu_shrink, mu_floor)
            continue
        f0 = float(cvec @ v) - mu * logdet
        slope = float(grad @ delta)
        step = 1.0 if dec_sq <= 0.0625 else 1.0 / (1.0 + math.sqrt(dec_sq))
        accepted = False
        for _ in range(40):
            vn = v + step * delta
            matn = assemble(vn)
            ld = _chol_logdet(matn)
            if ld is not None:
                fn = float(cvec @ vn) - mu * ld
                if fn <= f0 + 0.25 * step * slope:
                    accepted = True
                    break
            step *= 0.5
        iters += 1
        if not accepted:
            break
        v, mat, logdet = vn, matn, ld

    return float(cvec @ v), mat, mu, iters


def _barrier_solve(rho, omega, cmat, cfg: SolverConfig):
    """One barrier run for min tr[Pi C] over couplings, plus its certificate.

    At the last iterate Pi, with barrier weight mu and Newton step D, the
    slack Z = mu (Pi^-1 - Pi^-1 D Pi^-1) matches C on the free directions (the
    Newton equation) and is positive definite once the Newton decrement is
    below one (Boyd & Vandenberghe, 11.2.2 and 11.6).  Free and marginal
    operators are Hilbert-Schmidt complements, so projecting C - Z onto the
    marginal operators G_k gives multipliers y, and by weak duality
    b . y + min(0, lambda_min(C - sum_k y[k] G_k)) is a lower bound however the
    barrier ended.  Returns (primal_value, matrix, lower_bound, iterations) or
    None when the product coupling is too close to singular.
    """
    fixed, bvec, b_omega, b_rho_t = _affine_parts(rho, omega)
    q = np.einsum("aij,ji->a", _FREE, cmat).real
    k0 = float(np.einsum("ij,ji->", fixed, cmat).real)
    x0 = np.outer(b_omega, b_rho_t).ravel()

    primal = _barrier_minimize(q, fixed, _FREE, x0, cfg)
    if primal is None:
        return None
    primal_value, pi, mu, iters = primal

    # Newton step in the basis W_a = L^-1 F_a L^-H (Pi = L L^H): its Hessian is
    # a Gram matrix, which stays PSD in floating point as Pi nears singularity,
    # where the path's inv(Pi)-based Hessian goes indefinite.
    linv = np.linalg.inv(np.linalg.cholesky(pi))
    w = linv @ _FREE @ linv.conj().T
    w_flat = w.reshape(len(_FREE), 16)
    grad = q - mu * w.trace(axis1=1, axis2=2).real
    delta = -np.linalg.lstsq(mu * (w_flat @ w_flat.conj().T).real, grad, rcond=None)[0]
    z = mu * (linv.conj().T @ (np.eye(4) - np.tensordot(delta, w, axes=1)) @ linv)

    y = np.einsum("kij,ji->k", _CONSTRAINTS, cmat - z).real / 4.0
    dual_slack = cmat - np.tensordot(y, _CONSTRAINTS, axes=1)
    lower = float(bvec @ y) + min(0.0, float(np.linalg.eigvalsh(dual_slack)[0]))
    return primal_value + k0, pi, lower, iters


def solve_min_coupling(rho, omega, c, config: SolverConfig | None = None) -> TransportResult:
    """Minimize tr[Pi C] over couplings of (rho, omega).

    The returned coupling is always feasible, so `optimal_value` is an upper
    bound on the true minimum; `duality_gap_or_residual` bounds its distance
    from optimality when the status is "converged" or "max_iterations", and is
    zero on the exact closed-form paths.
    """
    cfg = config if config is not None else SolverConfig()
    rho = validate_state(rho, "rho")
    omega = validate_state(omega, "omega")
    cmat = cost_matrix(c)

    if cfg.fast_paths:
        if np.allclose(rho, omega, rtol=0.0, atol=STATE_EQUAL_ATOL):
            pi = purification_coupling(rho)
            val = max(coupling_cost(pi, cmat), 0.0)
            return TransportResult(val, pi, "closed_form", 0.0, 0)
        if is_pure(rho) or is_pure(omega):
            pi = product_coupling(rho, omega)
            val = max(coupling_cost(pi, cmat), 0.0)
            return TransportResult(val, pi, "closed_form", 0.0, 0)

    prod = product_coupling(rho, omega)
    prod_val = coupling_cost(prod, cmat)

    solved = _barrier_solve(rho, omega, cmat, cfg)
    if solved is None:
        # A rank-deficient marginal leaves no interior: the feasible set is the
        # singleton product coupling (or the purification when rho == omega).
        if np.allclose(rho, omega, rtol=0.0, atol=STATE_EQUAL_ATOL):
            pi = purification_coupling(rho)
            return TransportResult(max(coupling_cost(pi, cmat), 0.0), pi, "closed_form", 0.0, 0)
        return TransportResult(max(prod_val, 0.0), prod, "closed_form", 0.0, 0)

    primal, pi_matrix, lower_bound, iters = solved
    if prod_val < primal:
        # The product coupling is itself feasible; never return anything worse.
        primal, pi_matrix = prod_val, prod.matrix
    gap = max(primal - lower_bound, 0.0)
    if primal < -1e-9:
        raise InternalConsistencyError(f"negative transport cost {primal:.3e}")
    value = max(primal, 0.0)
    coupling = Coupling(pi_matrix, omega, transpose_op(rho))
    status = "converged" if gap <= cfg.tolerance else "max_iterations"
    return TransportResult(value, coupling, status, float(gap), iters)


def self_distance_sq(rho, c) -> float:
    """Squared self-distance via the rank-one coupling of vec(sqrt(rho))."""
    rho = validate_state(rho, "rho")
    return max(bra_cost_ket(sqrt_psd(rho), cost_matrix(c)), 0.0)


def wasserstein_distance(rho, omega, c, config: SolverConfig | None = None) -> float:
    return math.sqrt(solve_min_coupling(rho, omega, c, config).optimal_value)


def divergence_breakdown(rho, omega, c, config: SolverConfig | None = None) -> DivergenceBreakdown:
    """Squared distance, both self-distances, and the (unclamped) radicand."""
    cfg = config if config is not None else SolverConfig()
    if cfg.fast_paths and np.allclose(rho, omega, rtol=0.0, atol=STATE_EQUAL_ATOL):
        # identical states: route the distance through the same arithmetic as
        # the self-distance so the radicand cancels to exactly zero
        s = self_distance_sq(rho, c)
        return DivergenceBreakdown(s, s, s, 0.0, 0.0, "closed_form")
    res = solve_min_coupling(rho, omega, c, cfg)
    s1 = self_distance_sq(rho, c)
    s2 = self_distance_sq(omega, c)
    radicand = res.optimal_value - 0.5 * (s1 + s2)
    if radicand < -10.0 * cfg.tolerance:
        raise SolverAccuracyError(
            f"divergence radicand {radicand:.3e} below -10*tolerance; "
            f"the transport solve did not reach its accuracy target"
        )
    d = math.sqrt(max(radicand, 0.0))
    return DivergenceBreakdown(res.optimal_value, s1, s2, radicand, d, res.solver_status)


def wasserstein_divergence(rho, omega, c, config: SolverConfig | None = None) -> float:
    return divergence_breakdown(rho, omega, c, config).divergence


# ---------------------------------------------------------------------------
# Closed forms for self-distances as functions of Bloch coordinates.
#
# The calibrated constants below match the transport optimum (and the
# vec(sqrt(rho)) coupling) to machine precision; the verification suites pin
# them against the solver.  Published closed forms for the same quantities
# circulate with smaller constants (half for the all-Pauli cost, a quarter for
# the sigma_z cost); they are kept for comparison reports and flagged wherever
# the two disagree.
# ---------------------------------------------------------------------------

SYM_PUBLISHED_SCALE = 0.5
Z_PUBLISHED_SCALE = 0.25


def sym_self_distance_sq_closed(bloch_norm: float) -> float:
    """Self transport cost under the all-Pauli cost as a function of |b|."""
    r2 = min(max(bloch_norm, 0.0) ** 2, 1.0)
    return 4.0 * (1.0 - math.sqrt(1.0 - r2))


def z_self_distance_sq_closed(bloch_norm: float, b3: float) -> float:
    """Self transport cost under the sigma_z cost; zero at the ball center."""
    r = max(bloch_norm, 0.0)
    if r < 1e-15:
        return 0.0
    r2 = min(r**2, 1.0)
    frac = min((b3 / r) ** 2, 1.0)
    return 2.0 * (1.0 - math.sqrt(1.0 - r2)) * (1.0 - frac)


def sym_self_distance_sq_published(bloch_norm: float) -> float:
    """Published variant of the all-Pauli self-distance (half the optimum)."""
    return SYM_PUBLISHED_SCALE * sym_self_distance_sq_closed(bloch_norm)


def z_self_distance_sq_published(bloch_norm: float, b3: float) -> float:
    """Published variant of the sigma_z self-distance (a quarter of the optimum)."""
    return Z_PUBLISHED_SCALE * z_self_distance_sq_closed(bloch_norm, b3)
