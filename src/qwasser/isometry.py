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
maps with one batched solve, in which each seed's pairs are solved once);
`satisfies_dz_condition` tests the Bloch-level characterization relevant to
the single-sigma_z distance (length of the Bloch vector preserved, third
coordinate globally fixed or globally negated); `theorem_crosscheck_dz`
asserts that the two verdicts agree across sampled map families.  The
samplers draw Bloch vectors in a fixed order and build each sample as one
stack of states, which the harness maps and solves as one.
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
from .transport import _optimal_values, divergence_breakdowns

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
    o = np.asarray(o, dtype=complex)
    if o.shape != (3, 3):
        raise DomainError(f"{what}: expected 3x3, got {o.shape}")
    imag = float(np.abs(o.imag).max())
    if not imag <= UNITARY_TOL:
        raise DomainError(f"{what}: matrix is not real (imaginary part {imag:.3e})")
    o = o.real.copy()
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
        t = np.array([float(state_map.payload(r)) for r in flat])
        if not np.isfinite(t).all():
            raise DomainError(f"{state_map.label}: non-finite phase {t[~np.isfinite(t)][0]}")
        u = z_phase_unitary(t).reshape(rho.shape)
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


def _metric_values(metrics, rhos, omegas) -> dict:
    """Each metric of `metrics` on each pair (rhos[i], omegas[i]), from one
    batched solve: D_sym and d_sym share one `divergence_breakdowns` call."""
    if "d_sym" in metrics:
        breakdowns = divergence_breakdowns(rhos, omegas, sym_cost())
        return {"D_sym": np.sqrt([b.distance_sq for b in breakdowns]),
                "d_sym": np.array([b.divergence for b in breakdowns])}
    (metric,) = metrics
    c = sym_cost() if metric == "D_sym" else z_cost()
    return {metric: np.sqrt(_optimal_values(rhos, omegas, c))}


def _require_tol(tol) -> None:
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be positive and finite, got {tol}")


def _require_harness_args(state_maps: list, seeds: list, n_samples: int, tol) -> None:
    if n_samples < 1:
        raise DomainError("n_samples must be >= 1")
    _require_tol(tol)
    if not 0 < len(state_maps) == len(seeds):
        raise DomainError(f"{len(state_maps)} maps, {len(seeds)} seeds: need at least one map and a seed per map")


def _sample_pairs(seeds: list, n_samples: int) -> dict:
    """The sampled pairs of each distinct seed, drawn once."""
    return {seed: sample_state_pairs(derived_rng(seed, 0), n_samples) for seed in dict.fromkeys(seeds)}


def _isometry_reports(state_maps: list, seeds: list, samples: dict, images: list, metrics, tol) -> dict:
    """{metric: an IsometryReport per map}, map k comparing the pairs
    samples[seeds[k]] with their images images[k].  Each seed's pairs and
    every image are solved once, in one batched solve."""
    both = np.concatenate([*samples.values(), *images])
    values = _metric_values(metrics, both[:, 0], both[:, 1])
    row = {seed: i for i, seed in enumerate(samples)}
    reports = {}
    for metric in metrics:
        by_sample = values[metric].reshape(len(samples) + len(images), -1)
        reports[metric] = []
        for k, (state_map, seed) in enumerate(zip(state_maps, seeds)):
            dev = np.abs(by_sample[len(samples) + k] - by_sample[row[seed]])
            worst = int(np.argmax(dev))
            verdict = "isometry_within_tol" if dev[worst] <= tol else "violated"
            reports[metric].append(
                IsometryReport(
                    map_id=state_map.label,
                    metric=metric,
                    samples=len(dev),
                    max_abs_deviation=float(dev[worst]),
                    verdict=verdict,
                    witness_pair=(*samples[seed][worst], float(dev[worst])) if verdict == "violated" else None,
                )
            )
    return reports


def _check_isometries(state_maps: list, seeds: list, metrics, n_samples: int, tol) -> dict:
    """{metric: `check_isometries` reports} for several metrics of one cost,
    from one batched solve."""
    _require_harness_args(state_maps, seeds, n_samples, tol)
    samples = _sample_pairs(seeds, n_samples)
    images = [apply_state_map(state_map, samples[seed]) for state_map, seed in zip(state_maps, seeds)]
    return _isometry_reports(state_maps, seeds, samples, images, metrics, tol)


def check_isometries(state_maps: list, seeds: list, metric: str, n_samples: int = 12, tol: float = 1e-5) -> list:
    """`check_isometry` for each map, map k on the pairs of seed seeds[k].

    Maps that share a seed share its pairs and their metric values; every
    value comes from one batched solve."""
    if metric not in METRICS:
        raise DomainError(f"unknown metric {metric!r}; choose from {METRICS}")
    return _check_isometries(state_maps, seeds, (metric,), n_samples, tol)[metric]


def check_isometry(
    state_map: StateMap, metric: str, n_samples: int = 12, tol: float = 1e-5, seed: int = 0
) -> IsometryReport:
    """Compare metric values before and after applying the map on sampled pairs."""
    return check_isometries([state_map], [seed], metric, n_samples, tol)[0]


def _dz_condition_states(seed: int, n: int) -> np.ndarray:
    """The states `dz_condition_report` samples: the fixed panel, two fixed
    states, then alternately drawn ball and sphere states, at least 9."""
    rng, n = derived_rng(seed, 1), max(n, 9)
    panel = fixed_panel_states()
    blochs = [(0.0, 0.0, 0.6), (0.3, -0.4, -0.5)]
    while len(panel) + len(blochs) < n:
        blochs.append(random_bloch_in_ball(rng))
        blochs.append(random_bloch_on_sphere(rng))
    return np.concatenate((panel, state_from_bloch(blochs)))[:n]


def _dz_condition(b, b_img, tol):
    """`dz_condition_report` on Bloch vectors b and their images b_img."""
    max_len_dev = float(np.abs(np.linalg.norm(b_img, axis=1) - np.linalg.norm(b, axis=1)).max())
    if not max_len_dev <= tol:
        return False, {"reason": "bloch-length-changed", "max_length_deviation": max_len_dev}
    devs = np.abs(b_img[:, 2] - np.array([[1.0], [-1.0]]) * b[:, 2])  # row k: sign (+1, -1)[k]
    worst = devs.max(axis=1)
    k = 0 if worst[0] <= tol else int(np.argmin(worst))
    if worst[k] <= tol:
        return True, {"sign": (1, -1)[k], "max_length_deviation": max_len_dev}
    i = int(np.argmax(devs[k]))
    return False, {
        "reason": "no-global-sign",
        "sign": (1, -1)[k],
        "max_b3_deviation": float(worst[k]),
        "witness_bloch": tuple(b[i]),
        "image_bloch": tuple(b_img[i]),
    }


def dz_condition_report(
    state_map: StateMap, n_samples: int = 40, tol: float = 1e-5, seed: int = 0
):
    """Detailed version of `satisfies_dz_condition`: (holds, details dict).

    The condition holds iff |b| is kept and one global sign s, tried +1 first,
    gives |b3' - s b3| <= tol on every sampled row.  A failure names the
    sign that fits best and its worst row as a witness."""
    _require_tol(tol)
    states = _dz_condition_states(seed, n_samples)
    return _dz_condition(bloch_from_state(states), bloch_from_state(apply_state_map(state_map, states)), tol)


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


def _crosscheck_dz(map_samplers: list, n_maps: int, n_samples: int, tol: float, seed: int) -> list:
    """`theorem_crosscheck_dz` for each sampler, from one batched solve.

    Map k of every family uses seed + k, whose pairs and condition states are
    drawn once; each map is applied once, to both."""
    maps = [sampler(derived_rng(seed, 10_000 + k)) for sampler in map_samplers for k in range(n_maps)]
    seeds = [seed + k for k in range(n_maps)] * len(map_samplers)
    _require_harness_args(maps, seeds, n_samples, tol)
    samples = _sample_pairs(seeds, n_samples)
    states = {s: _dz_condition_states(s, max(3 * n_samples, 24)) for s in samples}
    blochs = {s: bloch_from_state(states[s]) for s in samples}
    images, conditions = [], []
    for state_map, s in zip(maps, seeds):
        pair_states = samples[s].reshape(-1, 2, 2)
        both = apply_state_map(state_map, np.concatenate((pair_states, states[s])))
        images.append(both[:len(pair_states)].reshape(samples[s].shape))
        conditions.append(_dz_condition(blochs[s], bloch_from_state(both[len(pair_states):]), tol)[0])
    reports = _isometry_reports(maps, seeds, samples, images, ("D_z",), tol)["D_z"]
    per_map = [
        MapAgreement(
            map_id=state_map.label,
            isometry_verdict=report.verdict,
            condition_holds=holds,
            agree=(report.verdict == "isometry_within_tol") == holds,
            max_abs_deviation=report.max_abs_deviation,
            witness=report.witness_pair,
        )
        for state_map, report, holds in zip(maps, reports, conditions)
    ]
    return [
        CrosscheckReport(n_maps, sum(r.agree for r in family), family)
        for family in (per_map[i:i + n_maps] for i in range(0, len(per_map), n_maps))
    ]


def theorem_crosscheck_dz(
    map_sampler: Callable, n_maps: int = 50, n_samples: int = 12, tol: float = 1e-5, seed: int = 0
) -> CrosscheckReport:
    """For sampled maps, assert the metric check and the Bloch-level condition agree."""
    return _crosscheck_dz([map_sampler], n_maps, n_samples, tol, seed)[0]


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
