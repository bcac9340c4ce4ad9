"""Verification suites: closed forms, isometry families, and metric sampling.

Each suite draws seeded samples, measures deviations against the transport
solver, and returns a structured result the CLI can serialize.  Per-sample
random streams are derived from (seed, counter), so results do not depend on
evaluation order; the optional QWASSER_THREADS environment variable only
parallelizes independent samples.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .cost import sym_cost, z_cost
from .errors import DomainError
from .isometry import (
    MAP_FAMILIES,
    check_isometry,
    sample_non_rigid_map,
    sample_wigner_map,
    sample_z_phase_field_map,
    theorem_crosscheck_dz,
)
from .sampling import derived_rng, random_bloch_in_ball, random_bloch_on_sphere
from .states import bloch_from_state, state_from_bloch
from .transport import (
    SolverConfig,
    coupling_cost,
    divergence_breakdown,
    product_coupling,
    self_distance_sq,
    solve_min_coupling,
    sym_self_distance_sq_closed,
    sym_self_distance_sq_published,
    wasserstein_divergence,
    z_self_distance_sq_closed,
    z_self_distance_sq_published,
)

SUITE_NAMES = (
    "sym-closed-forms",
    "z-closed-forms",
    "dsym-isometries",
    "dz-theorem",
    "divergence-triangle",
)


@dataclass
class CheckResult:
    name: str
    samples: int
    max_deviation: float
    tolerance: float
    passed: bool
    witnesses: list = field(default_factory=list)
    notes: str = ""


@dataclass
class SuiteResult:
    suite: str
    samples: int
    seed: int
    tolerance: float
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _env_threads() -> int:
    raw = os.environ.get("QWASSER_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def indexed_map(fn, n: int) -> list:
    """[fn(0), ..., fn(n-1)], possibly thread-parallel, always in index order."""
    workers = _env_threads()
    if workers == 1:
        return [fn(i) for i in range(n)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(n)))


def _bloch_list(rho) -> list:
    return [float(v) for v in bloch_from_state(rho)]


def _check(name, deviations, tolerance, witnesses=None, notes="") -> CheckResult:
    max_dev = float(max(deviations)) if len(deviations) else 0.0
    return CheckResult(
        name=name,
        samples=len(deviations),
        max_deviation=max_dev,
        tolerance=tolerance,
        passed=max_dev <= tolerance,
        witnesses=witnesses or [],
        notes=notes,
    )


def suite_sym_closed_forms(
    samples: int = 500, seed: int = 0, tolerance: float = 1e-6, config: SolverConfig | None = None
) -> SuiteResult:
    """Pure-pair cost law, divergence-Euclidean law, and self-distance forms
    for the all-Pauli cost."""
    c = sym_cost()
    forced = SolverConfig(fast_paths=False) if config is None else config

    def pure_pair(i):
        rng = derived_rng(seed, i)
        b1, b2 = random_bloch_on_sphere(rng), random_bloch_on_sphere(rng)
        r1, r2 = state_from_bloch(b1), state_from_bloch(b2)
        cost = solve_min_coupling(r1, r2, c).optimal_value
        div = wasserstein_divergence(r1, r2, c)
        return abs(cost - (6.0 - 2.0 * float(b1 @ b2))), abs(div - float(np.linalg.norm(b1 - b2)))

    pair_devs = indexed_map(pure_pair, samples)
    cost_devs = [d[0] for d in pair_devs]
    div_devs = [d[1] for d in pair_devs]

    def pure_self(i):
        rng = derived_rng(seed, 10_000 + i)
        rho = state_from_bloch(random_bloch_on_sphere(rng))
        return abs(coupling_cost(product_coupling(rho, rho), c) - 4.0)

    self_pure_devs = indexed_map(pure_self, min(samples, 200))

    def self_triple(i):
        rng = derived_rng(seed, 20_000 + i)
        b = random_bloch_in_ball(rng)
        rho = state_from_bloch(b)
        sdp = solve_min_coupling(rho, rho, c, forced).optimal_value
        pur = self_distance_sq(rho, c)
        closed = sym_self_distance_sq_closed(float(np.linalg.norm(b)))
        published = sym_self_distance_sq_published(float(np.linalg.norm(b)))
        return (
            max(abs(sdp - pur), abs(sdp - closed), abs(pur - closed)),
            abs(pur - 2.0 * published),
        )

    triples = indexed_map(self_triple, samples)

    return SuiteResult(
        suite="sym-closed-forms",
        samples=samples,
        seed=seed,
        tolerance=tolerance,
        checks=[
            _check("pure-pair-cost-6-minus-2-dot", cost_devs, tolerance),
            _check("pure-pair-divergence-euclidean", div_devs, tolerance),
            _check("pure-self-product-cost-4", self_pure_devs, tolerance),
            _check(
                "self-distance-sdp-purification-closed-form",
                [t[0] for t in triples],
                tolerance,
                notes="solver, vec(sqrt(rho)) coupling, and 4(1-sqrt(1-|b|^2)) agree",
            ),
            _check(
                "published-self-distance-formula-flagged",
                [t[1] for t in triples],
                tolerance,
                notes=(
                    "documented discrepancy: the published closed form "
                    "2(1-sqrt(1-|b|^2)) is exactly half the transport optimum; "
                    "the solver value is authoritative"
                ),
            ),
        ],
    )


def suite_z_closed_forms(
    samples: int = 500, seed: int = 0, tolerance: float = 1e-6, config: SolverConfig | None = None
) -> SuiteResult:
    """Pure-pair law, diagonal-pair law, pole diameter, and self-distance forms
    for the single-sigma_z cost."""
    c = z_cost()
    forced = SolverConfig(fast_paths=False) if config is None else config

    def pure_pair(i):
        rng = derived_rng(seed, i)
        b1, b2 = random_bloch_on_sphere(rng), random_bloch_on_sphere(rng)
        cost = solve_min_coupling(state_from_bloch(b1), state_from_bloch(b2), c).optimal_value
        return abs(cost - (2.0 - 2.0 * float(b1[2] * b2[2])))

    pair_devs = indexed_map(pure_pair, samples)

    def diagonal_pair(i):
        rng = derived_rng(seed, 30_000 + i)
        t, u = rng.uniform(-0.98, 0.98, size=2)
        rho = state_from_bloch((0.0, 0.0, float(t)))
        omega = state_from_bloch((0.0, 0.0, float(u)))
        cost = solve_min_coupling(rho, omega, c, forced).optimal_value
        return abs(cost - 2.0 * abs(float(t - u)))

    diag_devs = indexed_map(diagonal_pair, min(samples, 100))

    def self_triple(i):
        rng = derived_rng(seed, 20_000 + i)
        b = random_bloch_in_ball(rng)
        rho = state_from_bloch(b)
        sdp = solve_min_coupling(rho, rho, c, forced).optimal_value
        pur = self_distance_sq(rho, c)
        closed = z_self_distance_sq_closed(float(np.linalg.norm(b)), float(b[2]))
        published = z_self_distance_sq_published(float(np.linalg.norm(b)), float(b[2]))
        return (
            max(abs(sdp - pur), abs(sdp - closed), abs(pur - closed)),
            abs(pur - 4.0 * published),
        )

    triples = indexed_map(self_triple, samples)

    poles = solve_min_coupling(
        state_from_bloch((0.0, 0.0, 1.0)), state_from_bloch((0.0, 0.0, -1.0)), c
    ).optimal_value

    return SuiteResult(
        suite="z-closed-forms",
        samples=samples,
        seed=seed,
        tolerance=tolerance,
        checks=[
            _check("pure-pair-cost-2-minus-2-zw", pair_devs, tolerance),
            _check("diagonal-pair-classical-cost", diag_devs, tolerance),
            _check("pole-pair-squared-diameter-4", [abs(poles - 4.0)], tolerance),
            _check(
                "self-distance-sdp-purification-closed-form",
                [t[0] for t in triples],
                tolerance,
                notes=(
                    "solver, vec(sqrt(rho)) coupling, and "
                    "2(1-sqrt(1-|b|^2))(1-b3^2/|b|^2) agree"
                ),
            ),
            _check(
                "published-self-distance-formula-flagged",
                [t[1] for t in triples],
                tolerance,
                notes=(
                    "documented discrepancy: the published closed form "
                    "(1/2)(1-sqrt(1-|b|^2))(1-b3^2/|b|^2) is exactly a quarter "
                    "of the transport optimum; the solver value is authoritative"
                ),
            ),
        ],
    )


def suite_dsym_isometries(
    samples: int = 50, seed: int = 0, tolerance: float = 1e-6, config: SolverConfig | None = None
) -> SuiteResult:
    """Unitary and antiunitary conjugations preserve both the distance and the
    divergence of the all-Pauli cost; non-rigid maps are caught with witnesses."""

    def wigner(i):
        state_map = sample_wigner_map(derived_rng(seed, i))
        dist = check_isometry(state_map, "D_sym", 8, tolerance, seed + i, config)
        div = check_isometry(state_map, "d_sym", 8, tolerance, seed + i, config)
        return max(dist.max_abs_deviation, div.max_abs_deviation)

    wigner_devs = indexed_map(wigner, samples)

    n_adv = max(4, samples // 10)

    def adversarial(i):
        rng = derived_rng(seed, 50_000 + i)
        state_map = sample_z_phase_field_map(rng) if i % 2 else sample_non_rigid_map(rng)
        report = check_isometry(state_map, "d_sym", 8, 1e-4, seed + i, config)
        witness = None
        if report.witness_pair is not None:
            rho, omega, dev = report.witness_pair
            witness = {
                "map": state_map.label,
                "bloch_rho": _bloch_list(rho),
                "bloch_omega": _bloch_list(omega),
                "deviation": float(dev),
            }
        return report.verdict == "violated", witness

    adversarial_out = indexed_map(adversarial, n_adv)
    missed = [i for i, (violated, _) in enumerate(adversarial_out) if not violated]
    witnesses = [w for _, w in adversarial_out if w is not None]

    return SuiteResult(
        suite="dsym-isometries",
        samples=samples,
        seed=seed,
        tolerance=tolerance,
        checks=[
            _check("wigner-conjugations-preserve-distance-and-divergence", wigner_devs, tolerance),
            CheckResult(
                name="non-rigid-maps-detected-with-witness",
                samples=n_adv,
                max_deviation=float(len(missed)),
                tolerance=0.0,
                passed=not missed,
                witnesses=witnesses,
                notes="non-rigid maps must be flagged as violations",
            ),
        ],
    )


def suite_dz_theorem(
    samples: int = 50, seed: int = 0, tolerance: float = 1e-5, config: SolverConfig | None = None
) -> SuiteResult:
    """Metric-level and Bloch-level characterizations of sigma_z-cost isometries
    agree on every sampled map family."""
    checks = []
    for name, sampler in MAP_FAMILIES.items():
        report = theorem_crosscheck_dz(
            sampler, n_maps=samples, n_samples=10, tol=tolerance, seed=seed, config=config
        )
        witnesses = []
        for r in report.disagreements:
            witnesses.append({"map": r.map_id, "isometry": r.isometry_verdict,
                              "condition": r.condition_holds})
        extra_ok = True
        notes = ""
        if name == "adversarial":
            flagged = [
                r for r in report.per_map
                if r.isometry_verdict == "violated" and r.witness is not None
            ]
            extra_ok = len(flagged) == report.n_maps
            notes = f"{len(flagged)}/{report.n_maps} adversarial maps produced explicit witnesses"
        checks.append(
            CheckResult(
                name=f"crosscheck-{name}",
                samples=report.n_maps,
                max_deviation=float(report.n_maps - report.n_agreements),
                tolerance=0.0,
                passed=report.all_agree and extra_ok,
                witnesses=witnesses,
                notes=notes,
            )
        )
    return SuiteResult(
        suite="dz-theorem", samples=samples, seed=seed, tolerance=tolerance, checks=checks
    )


def suite_divergence_triangle(
    samples: int = 200, seed: int = 0, tolerance: float = 1e-6, config: SolverConfig | None = None
) -> SuiteResult:
    """Sampled triangle inequality for the all-Pauli divergence.

    A violation beyond tolerance indicates a solver accuracy bug and is
    reported with the offending triple rather than silently dropped.
    """
    c = sym_cost()

    def triple(i):
        rng = derived_rng(seed, i)
        states = [state_from_bloch(random_bloch_in_ball(rng)) for _ in range(3)]
        d01 = divergence_breakdown(states[0], states[1], c, config)
        d02 = divergence_breakdown(states[0], states[2], c, config)
        d12 = divergence_breakdown(states[1], states[2], c, config)
        excess = max(
            d01.divergence - d02.divergence - d12.divergence,
            d02.divergence - d01.divergence - d12.divergence,
            d12.divergence - d01.divergence - d02.divergence,
        )
        min_radicand = min(d01.radicand, d02.radicand, d12.radicand)
        witness = None
        if excess > tolerance:
            witness = {
                "blochs": [_bloch_list(s) for s in states],
                "divergences": [d01.divergence, d02.divergence, d12.divergence],
                "excess": float(excess),
            }
        return excess, min_radicand, witness

    rows = indexed_map(triple, samples)
    excesses = [max(r[0], 0.0) for r in rows]
    min_radicand = min(r[1] for r in rows)
    witnesses = [r[2] for r in rows if r[2] is not None]

    return SuiteResult(
        suite="divergence-triangle",
        samples=samples,
        seed=seed,
        tolerance=tolerance,
        checks=[
            _check(
                "triangle-inequality-excess",
                excesses,
                tolerance,
                witnesses=witnesses,
                notes=f"min radicand before clamping {min_radicand:.3e}",
            ),
        ],
    )


_SUITE_FNS = {
    "sym-closed-forms": suite_sym_closed_forms,
    "z-closed-forms": suite_z_closed_forms,
    "dsym-isometries": suite_dsym_isometries,
    "dz-theorem": suite_dz_theorem,
    "divergence-triangle": suite_divergence_triangle,
}

_SUITE_DEFAULT_SAMPLES = {
    "sym-closed-forms": 500,
    "z-closed-forms": 500,
    "dsym-isometries": 50,
    "dz-theorem": 50,
    "divergence-triangle": 200,
}


def run_suite(
    name: str,
    samples: int | None = None,
    seed: int = 0,
    tolerance: float | None = None,
    config: SolverConfig | None = None,
) -> SuiteResult:
    if name not in _SUITE_FNS:
        raise DomainError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    if samples is None:
        samples = _SUITE_DEFAULT_SAMPLES[name]
    kwargs = {"samples": samples, "seed": seed, "config": config}
    if tolerance is not None:
        kwargs["tolerance"] = tolerance
    return _SUITE_FNS[name](**kwargs)
