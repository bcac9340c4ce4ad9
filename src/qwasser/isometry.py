"""State-space self-maps and sampling harnesses for isometry classification.

A candidate map is one of four kinds:

* ``unitary_conj``      -- rho -> u rho u^dag,
* ``antiunitary_conj``  -- rho -> u conj(rho) u^dag (conjugation in the
  computational basis followed by a unitary conjugation),
* ``bloch_map``         -- an arbitrary self-map of the Bloch ball,
* ``z_phase_field``     -- rho -> u_z(t(rho)) rho u_z(t(rho))^dag with a
  state-dependent phase t and u_z(t) = diag(e^{it}, e^{-it}).

`apply_state_map` (and calling a `StateMap`) maps one state or a
(..., 2, 2) stack; payloads still receive one Bloch vector or one state.

`check_isometry` measures how well a map preserves a chosen transport metric
on a stratified sample of state pairs (`check_isometries` does so for many
maps with one batched solve); `satisfies_dz_condition` tests the
Bloch-level characterization relevant to the single-sigma_z distance (length
of the Bloch vector preserved, third coordinate globally fixed or globally
negated); `theorem_crosscheck_dz` asserts that the two verdicts agree across
sampled map families.  The samplers draw Bloch vectors in a fixed order and
build each sample as one stack of states, which the harness maps and solves
as one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cost import UNITARY_TOL, require_unitary, sym_cost, unitarity_defect, z_cost
from .errors import DomainError
from .linalg import dagger
from .sampling import derived_rng, random_bloch_in_ball, random_bloch_on_sphere, random_unitary
from .states import PAULI, bloch_from_state, state_from_bloch, validate_state
from .transport import divergence_breakdowns, solve_min_couplings

METRICS = ("D_sym", "D_z", "d_sym")


@dataclass(frozen=True)
class StateMap:
    kind: str
    payload: object
    label: str

    def __call__(self, rho) -> np.ndarray:
        return apply_state_map(self, rho)


@dataclass(frozen=True)
class IsometryReport:
    map_id: str
    metric: str
    samples: int
    max_abs_deviation: float
    verdict: str  # "isometry_within_tol" | "violated"
    witness_pair: tuple | None  # (rho, omega, deviation) when violated


def unitary_conj_map(u, label: str = "") -> StateMap:
    u = require_unitary(u)
    return StateMap("unitary_conj", u, label or "unitary-conjugation")


def antiunitary_conj_map(u, label: str = "") -> StateMap:
    u = require_unitary(u)
    return StateMap("antiunitary_conj", u, label or "antiunitary-conjugation")


def bloch_self_map(fn: Callable, label: str = "") -> StateMap:
    return StateMap("bloch_map", fn, label or "bloch-map")


def _orthogonal(o, what: str) -> np.ndarray:
    """o as a real orthogonal 3x3 matrix."""
    o = np.asarray(o, dtype=float)
    if o.shape != (3, 3):
        raise DomainError(f"{what}: expected 3x3, got {o.shape}")
    defect = unitarity_defect(o)
    if not defect <= UNITARY_TOL:
        raise DomainError(f"{what}: matrix is not orthogonal (defect {defect:.3e})")
    return o


def orthogonal_bloch_map(o, label: str = "") -> StateMap:
    o = _orthogonal(o, "orthogonal_bloch_map")
    return StateMap("bloch_map", lambda b: o @ b, label or "orthogonal-bloch-map")


def z_phase_field_map(t_fn: Callable, label: str = "") -> StateMap:
    return StateMap("z_phase_field", t_fn, label or "z-phase-field")


def z_phase_unitary(t) -> np.ndarray:
    """diag(e^{it}, e^{-it}) = exp(i t sigma_z); an array of t gives a stack."""
    t = np.asarray(t, dtype=float)
    u = np.zeros((*t.shape, 2, 2), dtype=complex)
    u[..., 0, 0], u[..., 1, 1] = np.exp(1j * t), np.exp(-1j * t)
    return u


def apply_state_map(state_map: StateMap, rho) -> np.ndarray:
    """The image of rho, or of each state of a (..., 2, 2) stack.

    Conjugations act on the whole stack at once.  A `bloch_map` payload is
    called on one Bloch vector and a `z_phase_field` payload on one state at
    a time, and the images are built in one `state_from_bloch` call.
    """
    rho = validate_state(rho, "rho")
    kind = state_map.kind
    if kind == "unitary_conj":
        u = state_map.payload
        return u @ rho @ dagger(u)
    if kind == "antiunitary_conj":
        u = state_map.payload
        return u @ rho.conj() @ dagger(u)
    lead, flat = rho.shape[:-2], rho.reshape(-1, 2, 2)
    if kind == "bloch_map":
        images = [state_map.payload(b) for b in bloch_from_state(flat)]
        return state_from_bloch(np.reshape(images, (*lead, -1)) if images else np.empty((*lead, 3)))
    if kind == "z_phase_field":
        u = z_phase_unitary([float(state_map.payload(r)) for r in flat]).reshape(rho.shape)
        return u @ rho @ dagger(u)
    raise DomainError(f"unknown state-map kind {kind!r}")


def rotation_to_unitary(o) -> np.ndarray:
    """Special unitary whose conjugation action on Bloch vectors equals o in SO(3).

    Axis-angle form: rotation by theta about unit axis n maps to
    w I - i (v . sigma) with the unit quaternion (w, v) = (cos(theta/2),
    sin(theta/2) n).  Horn's symmetric matrix of o equals 4 q q^T - I for
    q = (w, v), so q is its top eigenvector, isolated by a gap of 4 at every
    angle.
    """
    o = _orthogonal(o, "rotation_to_unitary")
    if np.linalg.det(o) < 0.0:
        raise DomainError(
            "rotation_to_unitary: orientation-reversing input; factor out a "
            "reflection (complex conjugation) first"
        )
    t = np.trace(o)
    axial = np.array([o[2, 1] - o[1, 2], o[0, 2] - o[2, 0], o[1, 0] - o[0, 1]])
    horn = np.block([[np.array([[t]]), axial[None]], [axial[:, None], o + o.T - t * np.eye(3)]])
    w, x, y, z = np.linalg.eigh(horn)[1][:, -1]
    return w * PAULI[0] - 1j * (x * PAULI[1] + y * PAULI[2] + z * PAULI[3])


def bloch_action_matrix(u) -> np.ndarray:
    """3x3 matrix of the Bloch-vector action of rho -> u rho u^dag."""
    u = require_unitary(u)
    rhos = 0.5 * (PAULI[0] + np.array(PAULI[1:]))
    return bloch_from_state(u @ rhos @ dagger(u)).T


def fixed_panel_states() -> np.ndarray:
    """Distinguished states every harness visits, as a (7, 2, 2) stack: poles,
    equatorial pures, center."""
    return state_from_bloch([
        (0.0, 0.0, 1.0),
        (0.0, 0.0, -1.0),
        (1.0, 0.0, 0.0),
        (-1.0, 0.0, 0.0),
        (0.0, 1.0, 0.0),
        (0.0, -1.0, 0.0),
        (0.0, 0.0, 0.0),
    ])


def sample_state_pairs(rng: np.random.Generator, n: int) -> np.ndarray:
    """Stratified state pairs as an (n, 2, 2, 2) stack, pairs[i] = (rho, omega):
    the pole pair, the center, then cycles of pure/pure, pure/mixed,
    mixed/mixed, and mixed self-pairs."""
    blochs = [((0.0, 0.0, 1.0), (0.0, 0.0, -1.0)), ((0.0, 0.0, 0.0), (0.0, 0.0, 1.0))]
    k = 0
    while len(blochs) < n:
        stratum = k % 4
        if stratum == 0:
            blochs.append((random_bloch_on_sphere(rng), random_bloch_on_sphere(rng)))
        elif stratum == 1:
            blochs.append((random_bloch_on_sphere(rng), random_bloch_in_ball(rng)))
        elif stratum == 2:
            blochs.append((random_bloch_in_ball(rng), random_bloch_in_ball(rng)))
        else:
            b = random_bloch_in_ball(rng)
            blochs.append((b, b))
        k += 1
    return state_from_bloch(np.array(blochs[:n], dtype=float).reshape(-1, 2, 3))


def _metric_values(metric: str, rhos, omegas) -> np.ndarray:
    """The metric on each pair (rhos[i], omegas[i]), from one batched solve."""
    if metric == "d_sym":
        return np.array([b.divergence for b in divergence_breakdowns(rhos, omegas, sym_cost())])
    c = sym_cost() if metric == "D_sym" else z_cost()
    return np.sqrt([r.optimal_value for r in solve_min_couplings(rhos, omegas, c)])


def check_isometries(state_maps: list, seeds: list, metric: str, n_samples: int = 12, tol: float = 1e-5) -> list:
    """`check_isometry` for each map, map k on the pairs of seed seeds[k];
    every metric value comes from one batched solve."""
    if n_samples < 1:
        raise DomainError("n_samples must be >= 1")
    if metric not in METRICS:
        raise DomainError(f"unknown metric {metric!r}; choose from {METRICS}")
    samples, stacks = [], []
    for state_map, seed in zip(state_maps, seeds, strict=True):
        pairs = sample_state_pairs(derived_rng(seed, 0), n_samples)
        samples.append(pairs)
        stacks += [pairs, apply_state_map(state_map, pairs)]
    both = np.concatenate(stacks)
    values = _metric_values(metric, both[:, 0], both[:, 1]).reshape(len(state_maps), 2, -1)
    reports = []
    for state_map, pairs, (before, after) in zip(state_maps, samples, values):
        dev = np.abs(after - before)
        worst = int(np.argmax(dev))
        verdict = "isometry_within_tol" if dev[worst] <= tol else "violated"
        reports.append(
            IsometryReport(
                map_id=state_map.label,
                metric=metric,
                samples=len(pairs),
                max_abs_deviation=float(dev[worst]),
                verdict=verdict,
                witness_pair=(*pairs[worst], float(dev[worst])) if verdict == "violated" else None,
            )
        )
    return reports


def check_isometry(
    state_map: StateMap, metric: str, n_samples: int = 12, tol: float = 1e-5, seed: int = 0
) -> IsometryReport:
    """Compare metric values before and after applying the map on sampled pairs."""
    return check_isometries([state_map], [seed], metric, n_samples, tol)[0]


def _dz_condition_samples(rng: np.random.Generator, n: int) -> np.ndarray:
    panel = fixed_panel_states()
    blochs = [(0.0, 0.0, 0.6), (0.3, -0.4, -0.5)]
    while len(panel) + len(blochs) < n:
        blochs.append(random_bloch_in_ball(rng))
        blochs.append(random_bloch_on_sphere(rng))
    return np.concatenate((panel, state_from_bloch(blochs)))[:n]


def dz_condition_report(
    state_map: StateMap, n_samples: int = 40, tol: float = 1e-5, seed: int = 0
):
    """Detailed version of `satisfies_dz_condition`: (holds, details dict)."""
    states = _dz_condition_samples(derived_rng(seed, 1), max(n_samples, 9))
    b = bloch_from_state(states)
    b_img = bloch_from_state(apply_state_map(state_map, states))

    max_len_dev = float(np.abs(np.linalg.norm(b_img, axis=1) - np.linalg.norm(b, axis=1)).max())
    if max_len_dev > tol:
        return False, {"reason": "bloch-length-changed", "max_length_deviation": max_len_dev}

    # rows too close to the equator carry no sign information
    signed = np.abs(b[:, 2]) > 10.0 * tol
    plus_ok = np.abs(b_img[:, 2] - b[:, 2]) <= tol
    minus_ok = np.abs(b_img[:, 2] + b[:, 2]) <= tol
    neither = np.flatnonzero(signed & ~plus_ok & ~minus_ok)
    if neither.size:
        i = neither[0]
        return False, {
            "reason": "third-coordinate-not-signed-copy",
            "witness_bloch": tuple(b[i]),
            "image_bloch": tuple(b_img[i]),
        }
    votes = {sign for sign, ok in ((+1, plus_ok & ~minus_ok), (-1, minus_ok & ~plus_ok)) if (signed & ok).any()}
    if len(votes) > 1:
        return False, {"reason": "mixed-signs"}
    candidates = votes or {+1, -1}
    for sign in candidates:
        if (np.abs(b_img[:, 2] - sign * b[:, 2]) <= tol).all():
            return True, {"sign": sign, "max_length_deviation": max_len_dev}
    return False, {"reason": "no-global-sign", "candidates": sorted(candidates)}


def satisfies_dz_condition(
    state_map: StateMap, n_samples: int = 40, tol: float = 1e-5, seed: int = 0
) -> bool:
    """Bloch length preserved and b3 globally fixed or globally negated."""
    return dz_condition_report(state_map, n_samples, tol, seed)[0]


@dataclass(frozen=True)
class MapAgreement:
    map_id: str
    isometry_verdict: str
    condition_holds: bool
    agree: bool
    max_abs_deviation: float
    witness: tuple | None


@dataclass(frozen=True)
class CrosscheckReport:
    n_maps: int
    n_agreements: int
    per_map: list

    @property
    def all_agree(self) -> bool:
        return self.n_agreements == self.n_maps

    @property
    def disagreements(self) -> list:
        return [r for r in self.per_map if not r.agree]


def theorem_crosscheck_dz(
    map_sampler: Callable, n_maps: int = 50, n_samples: int = 12, tol: float = 1e-5, seed: int = 0
) -> CrosscheckReport:
    """For sampled maps, assert the metric check and the Bloch-level condition agree."""
    maps = [map_sampler(derived_rng(seed, 10_000 + k)) for k in range(n_maps)]
    seeds = [seed + k for k in range(n_maps)]
    reports = check_isometries(maps, seeds, "D_z", n_samples, tol)
    per_map = []
    for state_map, report, map_seed in zip(maps, reports, seeds):
        holds, _ = dz_condition_report(state_map, max(3 * n_samples, 24), tol, map_seed)
        is_isometry = report.verdict == "isometry_within_tol"
        per_map.append(
            MapAgreement(
                map_id=state_map.label,
                isometry_verdict=report.verdict,
                condition_holds=holds,
                agree=is_isometry == holds,
                max_abs_deviation=report.max_abs_deviation,
                witness=report.witness_pair,
            )
        )
    return CrosscheckReport(n_maps, sum(r.agree for r in per_map), per_map)


# ---------------------------------------------------------------------------
# Map families for the crosscheck harness.
# ---------------------------------------------------------------------------


def sample_z_rotation_map(rng: np.random.Generator) -> StateMap:
    t = float(rng.uniform(0.0, 2.0 * np.pi))
    return unitary_conj_map(z_phase_unitary(t), f"z-rotation(t={t:.4f})")


def sample_x_flip_composite_map(rng: np.random.Generator) -> StateMap:
    a, b = rng.uniform(0.0, 2.0 * np.pi, size=2)
    u = z_phase_unitary(float(a)) @ PAULI[1] @ z_phase_unitary(float(b))
    return unitary_conj_map(u, f"x-flip-composite(a={a:.3f},b={b:.3f})")


def sample_z_phase_field_map(rng: np.random.Generator) -> StateMap:
    c = rng.uniform(-2.0, 2.0, size=4)

    def t_fn(rho, c=c):
        b = bloch_from_state(rho)
        return c[0] + c[1] * b[2] + c[2] * float(b @ b) + c[3] * math.sin(3.0 * b[0])

    return z_phase_field_map(t_fn, f"z-phase-field(c={np.round(c, 3).tolist()})")


def discontinuous_z_phase_field_map() -> StateMap:
    def t_fn(rho):
        b = bloch_from_state(rho)
        return 0.3 if np.linalg.norm(b) > 0.5 else 2.1

    return z_phase_field_map(t_fn, "discontinuous-z-phase-field(r>0.5)")


def sample_b3_negating_bloch_map(rng: np.random.Generator) -> StateMap:
    c = rng.uniform(-3.0, 3.0, size=3)

    def fn(b, c=c):
        r_xy = math.hypot(b[0], b[1])
        phi = math.atan2(b[1], b[0]) + c[0] + c[1] * b[2] + c[2] * r_xy**2
        return np.array([r_xy * math.cos(phi), r_xy * math.sin(phi), -b[2]])

    return bloch_self_map(fn, f"b3-negating-phase-scramble(c={np.round(c, 3).tolist()})")


def _adversarial_map(kind: int, rng: np.random.Generator) -> StateMap:
    if kind == 0:
        s = float(rng.uniform(0.3, 0.9))
        return bloch_self_map(lambda b, s=s: s * b, f"radial-shrink(s={s:.3f})")
    if kind == 1:
        p = float(rng.uniform(1.3, 2.5))
        return bloch_self_map(
            lambda b, p=p: b * (np.linalg.norm(b) ** (p - 1.0) if np.linalg.norm(b) > 0 else 0.0),
            f"radial-power(p={p:.3f})",
        )
    if kind == 2:
        theta = float(rng.uniform(0.4, math.pi - 0.4))
        ct, st = math.cos(theta), math.sin(theta)
        o = np.array([[1.0, 0.0, 0.0], [0.0, ct, -st], [0.0, st, ct]])
        return orthogonal_bloch_map(o, f"x-rotation(theta={theta:.3f})")
    if kind == 3:
        return bloch_self_map(
            lambda b: np.array([b[0], b[1], abs(b[2])]), "b3-absolute-value"
        )
    return bloch_self_map(lambda b: np.array([b[2], b[1], b[0]]), "swap-b1-b3")


def sample_adversarial_map(rng: np.random.Generator) -> StateMap:
    """A map that is not a sigma_z-cost isometry (some are all-Pauli isometries)."""
    return _adversarial_map(int(rng.integers(0, 5)), rng)


# The x-rotation (kind 2) and the b1/b3 swap (kind 4) are orthogonal Bloch
# maps, hence genuine isometries of the all-Pauli cost.
_NON_RIGID_KINDS = (0, 1, 3)


def sample_non_rigid_map(rng: np.random.Generator) -> StateMap:
    """A non-rigid Bloch map: an isometry of neither the all-Pauli nor the sigma_z cost."""
    return _adversarial_map(_NON_RIGID_KINDS[int(rng.integers(0, 3))], rng)


def sample_wigner_map(rng: np.random.Generator) -> StateMap:
    u = random_unitary(rng)
    if rng.uniform() < 0.5:
        return unitary_conj_map(u, "random-unitary-conjugation")
    return antiunitary_conj_map(u, "random-antiunitary-conjugation")


MAP_FAMILIES = {
    "z_rotations": sample_z_rotation_map,
    "x_flip_composites": sample_x_flip_composite_map,
    "z_phase_fields": sample_z_phase_field_map,
    "b3_negating_bloch_maps": sample_b3_negating_bloch_map,
    "adversarial": sample_adversarial_map,
}
