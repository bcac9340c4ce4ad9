"""Coupling-constrained transport cost minimization between qubit states.

A coupling of (rho, omega) is a 4x4 PSD trace-one matrix whose second-factor
partial trace is omega and whose first-factor partial trace is rho^T.  The
squared transport distance is the minimum of tr[Pi C] over that set -- a tiny
semidefinite program.

Solver: after expanding Pi in the Pauli product basis, the marginal
constraints pin 7 of the 16 real coefficients, so the program is a linear
objective over a 9-dimensional affine slice of the PSD cone.  A log-det
barrier interior-point method with damped Newton steps follows the central
path.  Each time it is centred at mu <= `_POLISH_MU` (1e-3), a polish takes
up to four Newton steps on the optimality conditions {Pi, S} = 0 with the
dual slack S = C - sum_k y[k] G_k, from the multipliers of C - mu M^-1: 16
real equations in Pi's 9 free coordinates and the 7 multipliers y
(Alizadeh, Haeberly and Overton).  Where the optimum is strictly
complementary they converge quadratically, and the lane ends with a gap of
1e-14 to 1e-11 after about 15 Newton steps instead of about 28.  The polished
coupling is mixed with the barrier's iterate into the cone, and bound(y) =
b . y + min(0, lambda_min(S)) is charged for its own rounding, which near a
pure marginal (y of order 1 / sqrt(1 - |b|)) decides whether it certifies.
A lane no polish certifies follows the barrier to tolerance / 32, whose last
Newton step yields the dual point of the reported gap, bit for bit as before
the polish unless the polish's steps use up the iteration budget first.
`solve_min_couplings` runs the same rules on a stack of pairs at once, lane
by lane, and polishes the lanes centred at one step as one stack.  One pair,
whichever entry point it comes through, runs scalar code from end to end: a
single-pair loop, and the closed-form decisions, the affine parts, the
certificate and the choice of result on (2, 2), (4, 4) and (9, 9) arrays
rather than on stacks of one.  Both paths build the Newton system with
`_newton_parts` and share the polish's steps, the certificates, the
closed-form decisions, the product fallback and the status rule, each
written once for one pair or a stack.  Both return one `SolveRecord` of
per-pair arrays, off which every result and divergence is read.

Closed paths (exact, no iteration):

* if either marginal is pure to roundoff (`states.PURITY_TOL`), the
  feasible set is the singleton product coupling omega (x) rho^T;
* if rho == omega (fast paths only), the rank-one coupling built from
  vec(sqrt(rho)) is optimal for any generator-built cost, which every
  `CostOperator` is; the solver cross-validates it in tests.
  Its value is `self_distance_sq`, which the identical lanes of a solve and
  both self-distances of a divergence take on whole stacks of states.

When the product coupling is too close to singular for the barrier to start,
the product is returned with the lower bound tr[Pi C] >= lambda_min(C).  An
iterate that becomes singular to working precision mid-path ends its pair's
path there, and the certificate bounds that last iterate like any other; no
certified bound is taken below lambda_min(C).

Failures are NaN lanes (see `linalg`), read under one
``np.errstate(invalid="ignore")`` per barrier run and per certificate: a NaN
log-det is a trial point outside the cone, a NaN g0 an iterate singular to
working precision, and a NaN Newton step a singular system, which that lane
alone re-solves by least squares.  No stack is split to find a failing lane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cost import cost_matrix
from .errors import (
    ContractViolation,
    DomainError,
    InternalConsistencyError,
    SolverAccuracyError,
    require_finite,
    require_integer,
    require_positive,
)
from .linalg import (
    bra_cost_ket,
    cholesky_lo,
    dagger,
    eigvalsh_lo,
    inv,
    partial_trace_first,
    partial_trace_second,
    real_part,
    require_square,
    solve,
    sqrt_psd,
    transpose_op,
    vec,
)
from .states import PAULI, bloch_from_state, is_pure, validate_state

# Pauli product basis P_k = sigma_(k // 4) (x) sigma_(k % 4); each is Hermitian
# with tr[P_k^2] = 4.  A = sum_k x[k] P_k with x = vec(A) @ _COEF.
_P16 = np.stack([np.kron(PAULI[i], PAULI[j]) for i in range(4) for j in range(4)])
_COEF = _P16.transpose(0, 2, 1).reshape(16, 16).T / 4.0
# Free directions F_a = P_k / 4 with both Pauli indices nonzero: both partial
# traces vanish, so they span the coupling slice.  tr[P_k F_a] is 1 for the
# P_k that F_a is a quarter of, and 0 otherwise.
_FREE_INDEX = np.array([4 * i + j for i in (1, 2, 3) for j in (1, 2, 3)])
_FREE = _P16[_FREE_INDEX] * 0.25
_FREE_FLAT = _FREE.reshape(9, 16)
# Constraint operators whose Pi-expectations are pinned by the marginals:
# I (x) I, then sigma_i (x) I and I (x) sigma_j for i, j = 1, 2, 3.
_CONSTRAINTS = _P16[[0, 4, 8, 12, 1, 2, 3]]
_CONSTRAINTS_FLAT = _CONSTRAINTS.reshape(7, 16)


# Pairs k <= l of Pauli coefficients and a <= b of free directions: x (x) x
# and h0 are symmetric, so the Newton builder works on upper triangles only.
_K, _L = np.triu_indices(16)
_A, _B = np.triu_indices(9)
_H_UNFOLD = np.zeros((9, 9), dtype=int)
_H_UNFOLD[_A, _B] = _H_UNFOLD[_B, _A] = np.arange(len(_A))
_H_UNFOLD = _H_UNFOLD.ravel()


def _hessian_tensor() -> np.ndarray:
    """_TEN with h0[a, b] = sum over k <= l of x[k] x[l] _TEN[(k, l), (a, b)],
    folded from t[k, l, a, b] = Re tr[P_k F_a P_l F_b].

    The imaginary parts of the traces are antisymmetric in (k, l), so they
    cancel against the symmetric x (x) x of a Hermitian M^-1, and the (k, l)
    and (l, k) terms fold into one.
    """
    pf = _P16[:, None] @ _FREE[None]  # P_k F_a
    # einsum, not one (144, 16) @ (16, 144) product, which OpenBLAS may split
    # over threads and which then costs an import 10-20 ms instead of 1
    t = np.einsum("kaij,lbji->klab", pf, pf).real
    t = t + t.transpose(1, 0, 2, 3)
    t[np.arange(16), np.arange(16)] *= 0.5
    return np.ascontiguousarray(t[_K, _L][:, _A, _B])


_TEN = _hessian_tensor()

# The polish works on Pauli coefficients in the order (constraint, free),
# x = vec(A) @ _COEF_ORDER: a coupling's are (b, v) / 4, and the slack
# C - sum_k y[k] G_k's are c - y @ _PAD for C's c.
_ORDER = np.array([0, 4, 8, 12, 1, 2, 3, *_FREE_INDEX])
_COEF_ORDER = np.ascontiguousarray(_COEF[:, _ORDER])
_PAD = np.eye(7, 16)


def _anticommutator_tensors():
    """(_K_PI, _K_FREE): with f[a, b, c] the real coefficient of P_c in
    {P_a, P_b} (in _ORDER), (b, v) @ _K_PI is W[b, c] = sum_a pi[a] f[a, b, c]
    for Pi's coefficients pi = (b, v) / 4, the map X -> {Pi, X}, and
    s @ _K_FREE is that of X -> {X, S} on the free directions F_j = P_(7+j) / 4."""
    p = _P16[_ORDER]
    prod = p[:, None] @ p[None]  # P_a P_b
    f = np.einsum("abij,cji->abc", prod + prod.transpose(1, 0, 2, 3), p).real / 16.0
    return f.reshape(16, 256).copy(), f[:, 7:].reshape(16, 144).copy()


_K_PI, _K_FREE = _anticommutator_tensors()

STATE_EQUAL_ATOL = 1e-12
# Barrier schedule: mu starts at (1 + |q . v0|) / 4 and shrinks by _MU_SHRINK
# each time the iterate is centred, that is when the Newton decrement is below
# _CENTERING_TOL.
_MU_SHRINK = 0.03
_CENTERING_TOL = 0.3
# A lane centred at mu <= _POLISH_MU tries at most _POLISH_STEPS Newton steps
# on the complementarity system (`_polish_pair`, `_polish_lanes`).  A polish
# that certifies a gap of at most _POLISH_MARGIN * tolerance ends the lane;
# one that certifies less tightly is held for one barrier stage.  Such a
# polish marks a lane that is not strictly complementary, whose next polish
# certifies it far tighter (z-cost lanes, about one in a thousand), or a
# near-pure marginal, which the barrier alone does not certify at all.
_POLISH_MU = 1e-3
_POLISH_STEPS = 4
_POLISH_MARGIN = 1e-3
# Machine epsilons per unit of sum_k (1 + |b_k|) |y_k| + sum_ij |C_ij| that a
# polished bound(y) is charged for rounding (`_rounded_bound`).  Against
# 50-digit arithmetic the error stayed below 0.8 u (sum_k |b_k y_k| +
# ||S||_F), u = eps / 2, on 210 lanes with 1 - |b| from 1e-4 to 1e-14.
_BOUND_ULPS = 4.0


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
        return float(eigvalsh_lo(self.matrix)[0])


@dataclass(frozen=True)
class SolverConfig:
    """Interior-point settings; the contract is the certified duality gap."""

    tolerance: float = 1e-8
    max_iterations: int = 500
    fast_paths: bool = True      # take identical states in closed form

    def __post_init__(self):
        require_positive("tolerance", self.tolerance)
        require_integer("max_iterations", self.max_iterations, 1)


@dataclass(frozen=True)
class TransportResult:
    optimal_value: float
    optimal_coupling: Coupling
    solver_status: str  # "closed_form" | "converged" | "max_iterations"
    duality_gap_or_residual: float
    iterations: int  # Newton steps of the barrier and its polishes; 0 on closed forms


@dataclass(frozen=True)
class SolveRecord:
    """One solve of N pairs as per-pair arrays: the validated (N, 2, 2)
    states, value, (N, 4, 4) coupling, status list, gap, iterations and the
    mask of pairs taken as identical states.  Every result is read off it."""

    rhos: np.ndarray
    omegas: np.ndarray
    value: np.ndarray
    coupling: np.ndarray
    status: list
    gap: np.ndarray
    iterations: np.ndarray
    identical: np.ndarray


@dataclass(frozen=True)
class DivergenceBreakdown:
    distance_sq: float
    self_distance_sq_first: float
    self_distance_sq_second: float
    radicand: float
    divergence: float
    solver_status: str
    duality_gap_or_residual: float  # of the D^2 solve, as in its TransportResult
    iterations: int  # Newton steps of the D^2 solve


def product_coupling(rho, omega) -> Coupling:
    """The independent coupling omega (x) rho^T: the solver's closed form,
    bit for bit, where a marginal is pure."""
    rho = validate_state(rho, "rho")
    omega = validate_state(omega, "omega")
    return Coupling(_product_couplings(rho, omega)[0], omega, transpose_op(rho))


def purification_coupling(rho) -> Coupling:
    """Rank-one coupling of rho with itself built from vec(sqrt(rho)): the
    solver's closed form, bit for bit, for identical states."""
    rho = validate_state(rho, "rho")
    return Coupling(_self_couplings(rho)[0], rho, transpose_op(rho))


def coupling_cost(pi, c):
    """tr[Pi C], or an array of them for a stack of matrices; the imaginary
    parts must be roundoff."""
    m = pi.matrix if isinstance(pi, Coupling) else require_square(pi, (4,), "coupling_cost", stack=True)
    if not np.isfinite(m).all():
        raise ContractViolation("coupling_cost: non-finite entry")
    return real_part(np.einsum("...ij,ji->...", m, cost_matrix(c)), "coupling_cost")


def _affine_parts(rhos, omegas, cmat):
    """For one pair, or per pair of a stack: the barrier's objective q on the
    free coordinates, the coupling with free coordinates zero and its cost,
    the marginal vector b = (1, b_omega, b_rho^T), and the free coordinates of
    the product coupling."""
    b_omega = bloch_from_state(omegas)
    b_rho_t = bloch_from_state(rhos) * np.array([1.0, -1.0, 1.0])
    lead = b_omega.shape[:-1]
    fixed = 0.25 * (
        _CONSTRAINTS[0]
        + (b_omega @ _CONSTRAINTS_FLAT[1:4]).reshape(*lead, 4, 4)
        + (b_rho_t @ _CONSTRAINTS_FLAT[4:]).reshape(*lead, 4, 4)
    )
    q = np.einsum("aij,ji->a", _FREE, cmat).real
    bvec = np.concatenate((np.ones((*lead, 1)), b_omega, b_rho_t), axis=-1)
    x0 = (b_omega[..., :, None] * b_rho_t[..., None, :]).reshape(*lead, 9)
    return q, fixed, np.einsum("...ij,ji->...", fixed, cmat).real, bvec, x0


def _logdet_lanes(m):
    """log det of a matrix, or of each matrix of a stack; NaN where Cholesky fails."""
    return 2.0 * np.add.reduce(np.log(cholesky_lo(m).diagonal(0, -2, -1).real), -1)


def _solve_lanes(a, b):
    """x with a x = b, for one system or each of a stack; least squares where
    a is singular, which `solve` marks with a NaN lane."""
    x = solve(a, b[..., None])[..., 0]
    if x.ndim == 1:
        return np.linalg.lstsq(a, b, rcond=None)[0] if math.isnan(x[0]) else x
    for i in np.flatnonzero(np.isnan(x[:, 0])):
        x[i] = np.linalg.lstsq(a[i], b[i], rcond=None)[0]
    return x


def _newton_parts(m):
    """g0[a] = tr[M^-1 F_a] and h0[a, b] = tr[M^-1 F_a M^-1 F_b] for M or a stack of M.

    Both are polynomials in the 16 real Pauli coefficients x of M^-1: g0 picks
    the free coefficients, and the upper triangle of h0 is the 136 products
    x[k] x[l], k <= l, times _TEN.  The barrier's gradient is q - mu g0 and
    its Hessian mu h0.  Both are NaN where M is singular to working precision.
    """
    if m.ndim == 2:  # one M: the same operations without the stack's reshapes and transposes
        x = (inv(m).reshape(16) @ _COEF).real
        return x[_FREE_INDEX], ((x[_K] * x[_L]) @ _TEN)[_H_UNFOLD].reshape(9, 9)
    lead = m.shape[:-2]
    # coefficients on the first axis: indexing whole rows avoids numpy's
    # general index path, which costs more than the gathers on one M
    xt = (inv(m).reshape(*lead, 16) @ _COEF).real.T
    h0 = ((xt[_K] * xt[_L]).T @ _TEN).T[_H_UNFOLD].T.reshape(*lead, 9, 9)
    return xt[_FREE_INDEX].T, h0


def _dual_bound(cmat, bvec, y):
    """bound(y) = b . y + min(0, lambda_min(C - sum_k y[k] G_k)), for one
    multiplier vector y or a stack.  By weak duality it is below tr[Pi C] for
    every coupling Pi, whatever y is."""
    slack = cmat - (y @ _CONSTRAINTS_FLAT).reshape(*y.shape[:-1], 4, 4)
    return (bvec * y).sum(axis=-1) + np.minimum(0.0, eigvalsh_lo(slack)[..., 0])


def _aho_step(bvec, v, s):
    """The Newton step on {Pi, S} = 0, for one pair or a stack: (dy, -dv) at
    Pi = m0 + sum_a v[a] F_a and the slack S with coefficients s.

    With dPi = sum_a dv[a] F_a and dS = -sum_k dy[k] G_k, the linearization
    {Pi, dS} + {dPi, S} = -{Pi, S} is 16 real equations in 16 unknowns
    (Alizadeh, Haeberly and Overton, SIAM J. Optim. 1998).  Pi stays on the
    marginal slice and S stays the slack of its multipliers.
    """
    lead = v.shape[:-1]
    w = (np.concatenate((bvec, v), axis=-1) @ _K_PI).reshape(*lead, 16, 16)
    jac_t = np.concatenate((w[..., :7, :], (s @ _K_FREE).reshape(*lead, 9, 16)), axis=-2)
    return _solve_lanes(np.swapaxes(jac_t, -1, -2), (s[..., None, :] @ w)[..., 0, :])


# Newton's method on the complementarity system from a barrier iterate
# M = m0 + sum_a v[a] F_a centred at mu: `_polish_pair` for one pair,
# `_polish_lanes` for a stack, with the same rules.  The multipliers start at
# y0, the coefficients of C - mu M^-1 on the constraint operators, and (v, y)
# takes `_aho_step` steps, at most `_POLISH_STEPS` and the iteration budget,
# while each lowers the certified gap, until the gap is at most
# `_POLISH_MARGIN` * tolerance.  The gap is tr[Pi' C] - bound(y)
# (`_rounded_bound`), where Pi' is the stepped coupling Pi mixed with M with
# weight t = -lambda_min(Pi) / (lambda_min(M) - lambda_min(Pi)) where Pi left
# the cone: Pi' is PSD, so its cost is an upper bound.  Each returns
# (steps, v', Pi', bound, gap); the barrier decides whether the gap
# certifies the lane.


def _polish_start(cmat, mat, mu):
    """C's coefficients c (in _ORDER), y0 and lambda_min(M), for M = mat."""
    c = (cmat.reshape(16) @ _COEF_ORDER).real
    y = c[:7] - np.asarray(mu)[..., None] * (inv(mat).reshape(*mat.shape[:-2], 16) @ _COEF_ORDER[:, :7]).real
    return c, y, eigvalsh_lo(mat)[..., 0]


def _rounded_bound(cmat, bvec, y):
    """bound(y) less a first-order bound on its rounding error: b . y sums
    seven products, and lambda_min(C - sum_k y[k] G_k) is accurate to a few
    ulp of ||C|| + sum_k |y[k]|.  Near a pure marginal y is of order
    1 / sqrt(1 - |b|), and the products cancel to O(1) from 1e7 at 1e-14."""
    size = ((1.0 + np.abs(bvec)) * np.abs(y)).sum(axis=-1) + np.abs(cmat).sum()
    return _dual_bound(cmat, bvec, y) - _BOUND_ULPS * np.finfo(float).eps * size


def _polished(q, m0_flat, v, mat, vv, y, lam_b, value_b, dual):
    """(v', Pi', bound, gap) for the stepped (vv, y): the coupling Pi of vv
    mixed into the cone with the iterate (v, mat), whose smallest eigenvalue
    is lam_b, bound(y), and their gap.  The weight on the iterate is 1, the
    iterate itself, where lam_b is no larger than lambda_min(Pi) < 0."""
    cmat, bvec, offset = dual
    pi = (m0_flat + vv @ _FREE_FLAT).reshape(*vv.shape[:-1], 4, 4)
    lam = eigvalsh_lo(pi)[..., 0]
    t = np.where(lam < 0.0, np.minimum(-lam / np.maximum(lam_b - lam, 0.0), 1.0), 0.0)
    bound = _rounded_bound(cmat, bvec, y)
    value = vv @ q + offset
    return vv + t[..., None] * (v - vv), pi + t[..., None, None] * (mat - pi), bound, value + t * (value_b - value) - bound


@np.errstate(invalid="ignore", divide="ignore")  # a failed kernel lane is NaN (see linalg)
def _polish_pair(q, m0_flat, v, mat, mu, dual, tolerance, budget):
    c, y, lam_b = _polish_start(dual[0], mat, mu)
    value_b = v @ q + dual[2]
    vv, best, steps = v, (v, mat, math.nan, math.inf), 0
    while steps < min(_POLISH_STEPS, budget) and best[3] > _POLISH_MARGIN * tolerance:
        step = _aho_step(dual[1], vv, c - y @ _PAD)
        steps += 1
        vn, yn = vv - step[7:], y + step[:7]
        point = _polished(q, m0_flat, v, mat, vn, yn, lam_b, value_b, dual)
        if not point[3] < best[3]:
            break
        vv, y, best = vn, yn, point
    return steps, *best


@np.errstate(invalid="ignore", divide="ignore")  # a failed kernel lane is NaN (see linalg)
def _polish_lanes(q, m0_flat, v, mat, mu, dual, tolerance, budget):
    cmat, bvec, offset = dual
    c, y, lam_b = _polish_start(cmat, mat, mu)
    value_b = v @ q + offset
    vv, v_out, mat_out = v.copy(), v.copy(), mat.copy()
    bound, gap = np.full(len(v), np.nan), np.full(len(v), np.inf)
    steps = np.zeros(len(v), dtype=int)
    a = np.arange(len(v))  # the lanes still stepping; every budget is at least one step
    for _ in range(_POLISH_STEPS):
        step = _aho_step(bvec[a], vv[a], c - y[a] @ _PAD)
        steps[a] += 1
        vn, yn = vv[a] - step[:, 7:], y[a] + step[:, :7]
        point = _polished(q, m0_flat[a], v[a], mat[a], vn, yn, lam_b[a], value_b[a], (cmat, bvec[a], offset[a]))
        ok = point[3] < gap[a]
        a = a[ok]
        vv[a], y[a] = vn[ok], yn[ok]
        v_out[a], mat_out[a], bound[a], gap[a] = (x[ok] for x in point)
        a = a[(gap[a] > _POLISH_MARGIN * tolerance) & (steps[a] < budget[a])]
        if not a.size:
            break
    return steps, v_out, mat_out, bound, gap


@np.errstate(invalid="ignore")  # a failed kernel lane is NaN (see linalg)
def _barrier_minimize(q, m0, v0, cfg: SolverConfig, dual):
    """Minimize q . v subject to M = m0 + sum_a v[a] F_a being PSD, for one pair.

    Log-det barrier path following with damped Newton steps; every iterate is
    strictly feasible.  Each time the iterate is centred at mu <= _POLISH_MU,
    `_polish_pair` tries to certify it, and its steps count as iterations.  A
    polish whose gap is at most _POLISH_MARGIN * tolerance ends the lane; one
    within the tolerance is held, and the lane ends with the tighter of it and
    the next polish, or with it where the path stops first.  `dual` is
    (C, b, tr[m0 C]).  Returns (value, M, mu, iterations, bound): a polished
    lane's value, coupling and bound, or the last iterate with a NaN bound;
    value is NaN when v0 is not strictly feasible (Cholesky fails).
    """
    v = v0.copy()
    m0_flat = m0.reshape(16)

    def assemble(vv):
        return (m0_flat + vv @ _FREE_FLAT).reshape(4, 4)

    mat = assemble(v)
    logdet = _logdet_lanes(mat)
    if not math.isfinite(logdet):
        return math.nan, mat, 0.0, 0, math.nan

    value = float(v @ q)
    mu = (1.0 + abs(value)) / 4.0
    # Each barrier stage leaves an objective offset of about 4*mu, so stop a
    # comfortable factor below the requested gap.
    mu_floor = cfg.tolerance / 32.0
    held = None  # (v', Pi', bound, gap) of a polish that certified, but not tightly
    iters = 0
    parts = None  # Newton parts at mat, kept while only mu changes

    while iters < cfg.max_iterations:
        if parts is None:
            parts = _newton_parts(mat)
        g0, h0 = parts
        if math.isnan(g0[0]):
            break  # M singular to working precision: end at the last accepted iterate
        grad = q - mu * g0
        delta = -_solve_lanes(mu * h0, grad)
        slope = float(grad @ delta)
        # Newton decrement of the self-concordant centering problem
        # (1/mu) q.v - logdet: the mu division keeps the proximity
        # test meaningful as mu shrinks.
        dec_sq = max(-slope, 0.0) / mu
        if dec_sq <= _CENTERING_TOL**2:
            if mu <= _POLISH_MU:
                steps, *polished = _polish_pair(q, m0_flat, v, mat, mu, dual, cfg.tolerance,
                                                cfg.max_iterations - iters)
                iters += steps
                if held is not None or polished[3] <= _POLISH_MARGIN * cfg.tolerance:
                    v_p, mat_p, bound, _ = polished if held is None or polished[3] < held[3] else held
                    return float(v_p @ q), mat_p, mu, iters, float(bound)
                if polished[3] <= cfg.tolerance:
                    held = polished
            if mu <= mu_floor:
                break
            mu = max(mu * _MU_SHRINK, mu_floor)
            continue
        f0 = value - mu * logdet
        # off-centre here (dec_sq > _CENTERING_TOL**2), so always the damped step
        step = 1.0 / (1.0 + math.sqrt(dec_sq))
        accepted = False
        for _ in range(40):
            vn = v + step * delta
            matn = assemble(vn)
            ld = _logdet_lanes(matn)
            value_n = float(vn @ q)
            if value_n - mu * ld <= f0 + 0.25 * step * slope:
                accepted = True
                break
            step *= 0.5
        iters += 1
        if not accepted:
            break
        v, value, mat, logdet, parts = vn, value_n, matn, ld, None

    if held is not None:
        return float(held[0] @ q), held[1], mu, iters, float(held[2])
    return value, mat, mu, iters, math.nan


@np.errstate(invalid="ignore")  # a failed kernel lane is NaN (see linalg)
def _barrier_minimize_lanes(q, m0, v0, cfg: SolverConfig, dual):
    """`_barrier_minimize` on a stack of problems that share the objective q
    and the cost C of `dual` = (C, b, tr[m0 C]).

    Every lane follows the single-pair rules with its own mu, decrement test,
    damped step, Armijo search, polish and iteration budget, and leaves the
    working set when it finishes; the lanes centred at one step polish as one
    stack.  Returns stacks (value, M, mu, iterations, bound).
    """
    cmat, bvec, offset = dual
    n = len(v0)
    m0_flat = m0.reshape(n, 16)
    mat_out = (m0_flat + v0 @ _FREE_FLAT).reshape(n, 4, 4)
    logdet = _logdet_lanes(mat_out)
    value = np.full(n, np.nan)
    mu_out = np.zeros(n)
    iters_out = np.zeros(n, dtype=int)
    bound_out = np.full(n, np.nan)

    idx = np.flatnonzero(np.isfinite(logdet))
    v, m0_flat, mat, logdet = v0[idx], m0_flat[idx], mat_out[idx], logdet[idx]
    bvec, offset = bvec[idx], offset[idx]
    # each lane's best polish that certified: (v', Pi', bound, gap)
    held_v, held_mat = np.empty_like(v), np.empty_like(mat)
    held_bound, held_gap = np.full(len(idx), np.nan), np.full(len(idx), np.inf)
    mu = (1.0 + np.abs(v @ q)) / 4.0
    iters = np.zeros(len(idx), dtype=int)
    g0, h0 = np.empty((len(idx), 9)), np.empty((len(idx), 9, 9))
    stale = np.ones(len(idx), dtype=bool)  # lanes whose M moved since g0, h0
    mu_floor = cfg.tolerance / 32.0

    while idx.size:
        if stale.any():
            g0[stale], h0[stale] = _newton_parts(mat[stale])
            stale[:] = False
        # A lane whose M is singular to working precision takes no step and
        # ends at its last accepted iterate; neutral parts keep its
        # arithmetic finite until it leaves.
        singular = np.isnan(g0[:, 0])
        g0[singular], h0[singular] = 0.0, np.eye(9)
        grad = q - mu[:, None] * g0
        delta = -_solve_lanes(mu[:, None, None] * h0, grad)
        slope = (grad * delta).sum(axis=1)
        dec_sq = np.maximum(-slope, 0.0) / mu
        centered = dec_sq <= _CENTERING_TOL**2
        p = np.flatnonzero(centered & ~singular & (mu <= _POLISH_MU))
        if p.size:
            steps, v_p, mat_p, bound_p, gap_p = _polish_lanes(
                q, m0_flat[p], v[p], mat[p], mu[p], (cmat, bvec[p], offset[p]), cfg.tolerance,
                cfg.max_iterations - iters[p])
            iters[p] += steps
            end = (held_gap[p] < np.inf) | (gap_p <= _POLISH_MARGIN * cfg.tolerance)
            better = (gap_p <= cfg.tolerance) & (gap_p < held_gap[p])
            b = p[better]
            held_v[b], held_mat[b], held_bound[b], held_gap[b] = v_p[better], mat_p[better], bound_p[better], gap_p[better]
            p = p[end]
        done = centered & (mu <= mu_floor) | singular
        done[p] = True
        shrink = centered & ~done
        mu[shrink] = np.maximum(mu[shrink] * _MU_SHRINK, mu_floor)

        s = np.flatnonzero(~centered & ~singular)
        if s.size:
            f0 = v[s] @ q - mu[s] * logdet[s]
            step = 1.0 / (1.0 + np.sqrt(dec_sq[s]))
            pending = np.arange(s.size)
            for _ in range(40):
                lane = s[pending]
                vn = v[lane] + step[pending, None] * delta[lane]
                matn = (m0_flat[lane] + vn @ _FREE_FLAT).reshape(-1, 4, 4)
                ld = _logdet_lanes(matn)
                ok = vn @ q - mu[lane] * ld <= f0[pending] + 0.25 * step[pending] * slope[lane]
                hit = lane[ok]
                v[hit], mat[hit], logdet[hit] = vn[ok], matn[ok], ld[ok]
                stale[hit] = True
                pending = pending[~ok]
                if not pending.size:
                    break
                step[pending] *= 0.5
            iters[s] += 1
            done[s[pending]] = True  # no acceptable step in 40 halvings

        done |= iters >= cfg.max_iterations
        if done.any():
            held = done & (held_gap < np.inf)  # these end with their polish
            v[held], mat[held] = held_v[held], held_mat[held]
            out = idx[done]
            value[out] = v[done] @ q
            mat_out[out], mu_out[out], iters_out[out], bound_out[out] = mat[done], mu[done], iters[done], held_bound[done]
            keep = ~done
            idx, v, m0_flat, mat, logdet = idx[keep], v[keep], m0_flat[keep], mat[keep], logdet[keep]
            mu, iters, g0, h0, stale = mu[keep], iters[keep], g0[keep], h0[keep], stale[keep]
            bvec, offset, held_v, held_mat = bvec[keep], offset[keep], held_v[keep], held_mat[keep]
            held_bound, held_gap = held_bound[keep], held_gap[keep]

    return value, mat_out, mu_out, iters_out, bound_out


@np.errstate(invalid="ignore")  # a failed kernel lane is NaN (see linalg)
def _lower_bounds(q, cmat, bvec, pi, mu):
    """Certified lower bound on min tr[Pi C] from a last iterate, or one per
    iterate of a stack.

    At an iterate Pi with barrier weight mu and Newton step D, the slack
    Z = mu (Pi^-1 - Pi^-1 D Pi^-1) matches C on the free directions (the Newton
    equation) and is positive definite once the Newton decrement is below one
    (Boyd & Vandenberghe, 11.2.2 and 11.6).  Free and marginal operators are
    Hilbert-Schmidt complements, so projecting C - Z onto the marginal operators
    G_k gives multipliers y, and by weak duality
    b . y + min(0, lambda_min(C - sum_k y[k] G_k)) is a lower bound however the
    barrier ended.

    The Newton step is taken in the basis W_a = L^-1 F_a L^-H (Pi = L L^H): its
    Hessian is a Gram matrix, which stays PSD in floating point as Pi nears
    singularity, where the path's inv(Pi)-based Hessian goes indefinite.
    """
    lead = pi.shape[:-2]
    mu = np.asarray(mu)[..., None]
    linv = inv(cholesky_lo(pi))
    linv_h = dagger(linv)
    w = linv[..., None, :, :] @ _FREE @ linv_h[..., None, :, :]
    w_flat = w.reshape(*lead, 9, 16)
    grad = q - mu * w.trace(0, -2, -1).real
    gram = mu[..., None] * (w_flat @ dagger(w_flat)).real
    delta = -_solve_lanes(gram, grad)
    step = (delta[..., None, :] @ w_flat).reshape(pi.shape)
    z = mu[..., None] * (linv_h @ (np.eye(4) - step) @ linv)
    y = np.einsum("kij,...ji->...k", _CONSTRAINTS, cmat - z).real / 4.0
    return _dual_bound(cmat, bvec, y)


def _settle(primal, prod_val, cmat, bound):
    """(value, barrier_wins, gap) for one pair, or per pair of a stack, from
    the barrier's value (NaN without an interior) and certified bound (-inf
    without an interior; NaN where an interior's certificate fails, which
    makes the gap NaN).

    The product coupling, whose cost is prod_val, is itself feasible: it
    stands wherever the barrier does no better.  tr[Pi C] >= lambda_min(C)
    bounds every coupling.  It is the only bound without a strict interior
    (Cholesky fails at the product coupling), and it caps the gap where a
    last iterate is too near singular for its certificate.
    """
    wins = primal <= prod_val
    best = np.where(wins, primal, prod_val)
    if (best < -1e-9).any():
        raise InternalConsistencyError(f"negative transport cost {best.min():.3e}")
    lower = np.maximum(float(eigvalsh_lo(cmat)[0]), bound)
    return best, wins, np.maximum(best - lower, 0.0)


def _status(closed, gap, tolerance) -> str:
    return "closed_form" if closed else "converged" if gap <= tolerance else "max_iterations"


def _closed_forms(rhos, omegas, fast_paths: bool):
    """Masks (identical, pure) of the pairs whose optimum is taken in closed
    form, or the two flags of one pair.

    A marginal pure to roundoff (`is_pure`, whatever the config) takes the
    product coupling: its coupling set is that single coupling, which the
    barrier cannot enter.  A merely near-pure marginal is left to the barrier.
    With fast paths on, identical states take the vec(sqrt(rho)) coupling.
    """
    identical = np.zeros(rhos.shape[:-2], dtype=bool)
    if fast_paths:
        identical = (np.abs(rhos - omegas) <= STATE_EQUAL_ATOL).all(axis=(-2, -1))
    pure = is_pure(np.stack((rhos, omegas))).any(axis=0) & ~identical
    return identical, pure


def _product_couplings(rhos, omegas, c=None):
    """The product coupling omega (x) rho^T of one pair, or of each pair of a
    stack, and its cost under c (None without c)."""
    mats = np.einsum("...ij,...lk->...ikjl", omegas, rhos).reshape(*rhos.shape[:-2], 4, 4)
    return mats, None if c is None else coupling_cost(mats, c)


def _self_couplings(rhos, c=None):
    """The vec(sqrt(rho)) coupling of a state with itself, or of each state of
    a stack, and its cost under c (None without c), clamped at zero: the
    self-distance.  Both come from one square root."""
    roots = sqrt_psd(rhos)
    v = vec(roots)
    mats = v[..., :, None] * v[..., None, :].conj()
    return mats, None if c is None else np.maximum(bra_cost_ket(roots, cost_matrix(c)), 0.0)


def _solve_pair(rhos, omegas, c, cfg: SolverConfig) -> SolveRecord:
    """`_solve` for a stack of one validated pair, in scalar code from end to end."""
    rho, omega = rhos[0], omegas[0]
    cmat = cost_matrix(c)
    mat, value = _product_couplings(rho, omega, c)
    gap, iters = 0.0, 0
    identical, pure = _closed_forms(rho, omega, cfg.fast_paths)
    if identical:
        mat, value = _self_couplings(rho, c)
    elif not pure:
        q, fixed, offset, bvec, x0 = _affine_parts(rho, omega, cmat)
        primal, pi, mu, iters, bound = _barrier_minimize(q, fixed, x0, cfg, (cmat, bvec, offset))
        primal += offset
        if math.isnan(bound):
            bound = _lower_bounds(q, cmat, bvec, pi, mu) if math.isfinite(primal) else -math.inf
        value, wins, gap = _settle(primal, value, cmat, bound)
        if wins:
            mat = pi
    status = [_status(identical or pure, gap, cfg.tolerance)]
    return SolveRecord(rhos, omegas, np.array([max(float(value), 0.0)]), mat[None], status, np.array([gap]),
                       np.array([iters]), identical[None])


# Most lanes one batched barrier runs.  The cap bounds memory: temporaries take
# about 10 kB per lane, and without it a five-suite verify pass peaked 9-14% higher.
_MAX_LANES = 128


def _solve_barrier(rhos, omegas, cmat, prod_val, cfg: SolverConfig):
    """Barrier solve and certificate for a stack of pairs without a closed form.

    Returns per pair (value, barrier_wins, M, gap, iterations); the product
    coupling stands wherever the barrier's M does no better.
    """
    q, fixed, offset, bvec, x0 = _affine_parts(rhos, omegas, cmat)
    primal, pi, mu, steps, bound = _barrier_minimize_lanes(q, fixed, x0, cfg, (cmat, bvec, offset))
    primal = primal + offset
    interior = np.isfinite(primal)
    bound[~interior] = -np.inf
    last = interior & np.isnan(bound)  # ended at a barrier iterate, not polished
    if last.any():
        bound[last] = _lower_bounds(q, cmat, bvec[last], pi[last], mu[last])
    best, wins, gap = _settle(primal, prod_val, cmat, bound)
    return best, wins, pi, gap, steps


def _solve(rhos, omegas, c, cfg: SolverConfig) -> SolveRecord:
    """`solve_min_couplings` on validated (N, 2, 2) stacks, as a `SolveRecord`.
    One pair runs `_solve_pair`."""
    if len(rhos) == 1:
        return _solve_pair(rhos, omegas, c, cfg)
    cmat = cost_matrix(c)
    n = len(rhos)
    mats, prod_val = _product_couplings(rhos, omegas, c)
    value = prod_val.copy()
    gap = np.zeros(n)
    iters = np.zeros(n, dtype=int)

    identical, pure = _closed_forms(rhos, omegas, cfg.fast_paths)
    if identical.any():
        mats[identical], value[identical] = _self_couplings(rhos[identical], c)

    lanes = np.flatnonzero(~identical & ~pure)
    for start in range(0, lanes.size, _MAX_LANES):
        block = lanes[start:start + _MAX_LANES]
        value[block], wins, pi, gap[block], iters[block] = _solve_barrier(
            rhos[block], omegas[block], cmat, prod_val[block], cfg
        )
        mats[block[wins]] = pi[wins]

    closed = identical | pure
    status = [_status(closed[i], gap[i], cfg.tolerance) for i in range(n)]
    return SolveRecord(rhos, omegas, np.maximum(value, 0.0), mats, status, gap, iters, identical)


def _solve_pairs(rhos, omegas, c, config: SolverConfig | None = None) -> SolveRecord:
    """`_solve` on the pairs (rhos[i], omegas[i]) validated, at `config` or `SolverConfig()`."""
    rhos, omegas = (validate_state(states if len(states) else np.empty((0, 2, 2)), what).reshape(-1, 2, 2)
                    for states, what in ((rhos, "rho"), (omegas, "omega")))
    if len(rhos) != len(omegas):
        raise DomainError(f"{len(rhos)} first states but {len(omegas)} second states")
    return _solve(rhos, omegas, c, config or SolverConfig())


def solve_min_couplings(rhos, omegas, c, config: SolverConfig | None = None) -> list:
    """`solve_min_coupling` for each pair (rhos[i], omegas[i]): one result per pair.

    Closed forms are decided per pair.  The pairs left for the interior-point
    solve run together in batched barriers of up to `_MAX_LANES` pairs, each
    pair with its own path and certificate; a single pair runs scalar code
    from end to end, which is faster for one pair.
    A lane the path certifies gets the same value, within 1e-11, however the
    pairs are grouped.  A lane singular to working precision may stop at
    another iterate in another grouping; its gap still bounds that iterate.
    """
    rec = _solve_pairs(rhos, omegas, c, config)
    rho_ts = rec.rhos.transpose(0, 2, 1)
    return [
        TransportResult(float(rec.value[i]), Coupling(rec.coupling[i], rec.omegas[i], rho_ts[i]), rec.status[i],
                        float(rec.gap[i]), int(rec.iterations[i]))
        for i in range(len(rho_ts))
    ]


def solve_min_coupling(rho, omega, c, config: SolverConfig | None = None) -> TransportResult:
    """Minimize tr[Pi C] over couplings of (rho, omega).

    The returned coupling is always feasible, so `optimal_value` is an upper
    bound on the true minimum; `duality_gap_or_residual` bounds its distance
    from optimality when the status is "converged" or "max_iterations", and is
    zero on the exact closed-form paths.
    """
    return solve_min_couplings([rho], [omega], c, config)[0]


def self_distance_sq(rho, c):
    """Squared self-distance via the rank-one coupling of vec(sqrt(rho)); a
    stack of states gives an array."""
    return _self_couplings(validate_state(rho, "rho"), c)[1]


def wasserstein_distance(rho, omega, c, config: SolverConfig | None = None) -> float:
    return math.sqrt(solve_min_coupling(rho, omega, c, config).optimal_value)


def divergence_breakdown(rho, omega, c, config: SolverConfig | None = None) -> DivergenceBreakdown:
    """Squared distance, both self-distances, and the (unclamped) radicand."""
    return divergence_breakdowns([rho], [omega], c, config)[0]


def _divergences(rhos, omegas, c, config: SolverConfig | None = None) -> tuple:
    """(record, rows): the `_solve_pairs` record of the pairs (rhos[i], omegas[i])
    and a (5, N) array whose rows are D^2, both self-distances, the (unclamped)
    radicand and the divergence, from one self-distance call for both sides."""
    rec = _solve_pairs(rhos, omegas, c, config)
    s1, s2 = _self_couplings(np.stack((rec.rhos, rec.omegas)), c)[1]
    # Identical states take s1 as their distance and as s2, so that the
    # radicand cancels to exactly zero.
    dist = np.where(rec.identical, s1, rec.value)
    s2 = np.where(rec.identical, s1, s2)
    radicand = dist - 0.5 * (s1 + s2)
    if (radicand < -10.0 * (config or SolverConfig()).tolerance).any():
        raise SolverAccuracyError(f"divergence radicand {radicand.min():.3e} below -10*tolerance; "
                                  "the transport solve did not reach its accuracy target")
    return rec, np.stack((dist, s1, s2, radicand, np.sqrt(np.maximum(radicand, 0.0))))


def divergence_breakdowns(rhos, omegas, c, config: SolverConfig | None = None) -> list:
    """`divergence_breakdown` for each pair (rhos[i], omegas[i]), read off `_divergences`."""
    rec, rows = _divergences(rhos, omegas, c, config)
    return [
        DivergenceBreakdown(*map(float, row), status, float(gap), int(its))
        for row, status, gap, its in zip(rows.T, rec.status, rec.gap, rec.iterations)
    ]


def wasserstein_divergence(rho, omega, c, config: SolverConfig | None = None) -> float:
    return divergence_breakdown(rho, omega, c, config).divergence


# ---------------------------------------------------------------------------
# Closed forms for self-distances as functions of Bloch coordinates.
#
# Each law is a constant times a shape in (|b|, b3).  The calibrated constants,
# 4 (all-Pauli) and 2 (sigma_z), match the transport optimum (and the
# vec(sqrt(rho)) coupling) to machine precision; the verification suites pin
# them against the solver.  The published laws carry the constants 2 and 1/2,
# half and a quarter of the optimum (the `*_PUBLISHED_SCALE` ratios the suites
# check); they are kept for comparison reports and flagged where they disagree.
# ---------------------------------------------------------------------------

SYM_PUBLISHED_SCALE = 0.5
Z_PUBLISHED_SCALE = 0.25


def _sym_self_shape(bloch_norm: float) -> float:
    """1 - sqrt(1 - |b|^2), with a finite |b| clamped to [0, 1]."""
    require_finite("bloch_norm", bloch_norm)
    return 1.0 - math.sqrt(1.0 - min(max(bloch_norm, 0.0) ** 2, 1.0))


# |b3| may exceed a computed |b| by this much (roundoff) before the pair is no
# Bloch vector at all
_B3_ROUNDOFF = 1e-12


def _z_self_shape(bloch_norm: float, b3: float) -> float:
    """`_sym_self_shape` times 1 - b3^2/|b|^2; zero at the ball center."""
    require_finite("bloch_norm", bloch_norm)
    require_finite("b3", b3)
    r = max(bloch_norm, 0.0)
    if abs(b3) > r + _B3_ROUNDOFF:
        raise DomainError(f"|b3| = {abs(b3)!r} exceeds the Bloch norm {r!r}: no Bloch vector has them")
    if r < 1e-15:
        return 0.0
    return _sym_self_shape(r) * (1.0 - min((b3 / r) ** 2, 1.0))


def sym_self_distance_sq_closed(bloch_norm: float) -> float:
    """Self transport cost under the all-Pauli cost as a function of |b|."""
    return 4.0 * _sym_self_shape(bloch_norm)


def z_self_distance_sq_closed(bloch_norm: float, b3: float) -> float:
    """Self transport cost under the sigma_z cost; zero at the ball center."""
    return 2.0 * _z_self_shape(bloch_norm, b3)


def sym_self_distance_sq_published(bloch_norm: float) -> float:
    """The published all-Pauli law 2(1 - sqrt(1 - |b|^2))."""
    return 2.0 * _sym_self_shape(bloch_norm)


def z_self_distance_sq_published(bloch_norm: float, b3: float) -> float:
    """The published sigma_z law (1/2)(1 - sqrt(1 - |b|^2))(1 - b3^2/|b|^2)."""
    return 0.5 * _z_self_shape(bloch_norm, b3)
