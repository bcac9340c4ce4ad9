"""Verification suites: closed forms, isometry families, and metric sampling.

Each suite draws seeded samples, measures deviations against the transport
solver, and returns a structured result the CLI can serialize.  Per-sample
random streams are derived from (seed, counter).  A suite draws its pairs
first and solves them together in batched calls (`solve_min_couplings`,
`divergence_breakdowns`, `check_isometries`), whose certified per-pair results
do not depend on the grouping.  Solves run at the solver defaults, except the
`sdp` self-distances and the diagonal z pairs, which are forced through the
barrier (`_FORCED`).

Both closed-form suites and the CLI's `selfdist-table` take every
self-distance value from `self_distance_table`, with one batched solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cost import sym_cost, z_cost
from .errors import DomainError
from .isometry import (
    MAP_FAMILIES,
    check_isometries,
    sample_non_rigid_map,
    sample_wigner_map,
    sample_z_phase_field_map,
    theorem_crosscheck_dz,
)
from .sampling import derived_rng, random_bloch_in_ball, random_bloch_on_sphere
from .states import bloch_from_state, state_from_bloch
from .transport import (
    SYM_PUBLISHED_SCALE,
    Z_PUBLISHED_SCALE,
    SolverConfig,
    coupling_cost,
    divergence_breakdowns,
    self_distance_sq,
    solve_min_coupling,
    solve_min_couplings,
    sym_self_distance_sq_closed,
    sym_self_distance_sq_published,
    z_self_distance_sq_closed,
    z_self_distance_sq_published,
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


def _values(results) -> np.ndarray:
    return np.array([r.optimal_value for r in results])


def _pure_pairs(seed: int, samples: int) -> np.ndarray:
    """Bloch vectors (b1, b2) on the sphere, pair i drawn from derived_rng(seed, i)."""
    pairs = []
    for i in range(samples):
        rng = derived_rng(seed, i)
        pairs.append((random_bloch_on_sphere(rng), random_bloch_on_sphere(rng)))
    return np.array(pairs).reshape(-1, 2, 3).transpose(1, 0, 2)


def _ball_blochs(seed: int, first: int, samples: int) -> np.ndarray:
    return np.array([random_bloch_in_ball(derived_rng(seed, first + i)) for i in range(samples)]).reshape(-1, 3)


# Per cost: closed form, published form, and the published form's share of the optimum.
_SELF_FORMS = {
    "sym": ("4(1-sqrt(1-|b|^2))", "2(1-sqrt(1-|b|^2))", "half", SYM_PUBLISHED_SCALE),
    "z": ("2(1-sqrt(1-|b|^2))(1-b3^2/|b|^2)", "(1/2)(1-sqrt(1-|b|^2))(1-b3^2/|b|^2)", "a quarter of",
          Z_PUBLISHED_SCALE),
}


# Solves that must run the barrier even where a closed form is known.
_FORCED = SolverConfig(fast_paths=False)


def self_distance_table(blochs, cost: str, norms=None) -> dict:
    """Self-distances under the "sym" or "z" cost of the states with Bloch
    vectors `blochs`, four ways, keyed by the `selfdist-table` column names.

    The solve is always forced through the barrier.  The closed and published
    forms take `norms` (default: |b| of each row); near the sphere they
    magnify a computed norm's last-bit error, so a grid passes its own."""
    if cost not in _SELF_FORMS:
        raise DomainError(f"self_distance_table: unknown cost {cost!r}; choose from {sorted(_SELF_FORMS)}")
    blochs = np.asarray(blochs, dtype=float).reshape(-1, 3)
    norms = np.linalg.norm(blochs, axis=1) if norms is None else np.asarray(norms, dtype=float)
    rhos = state_from_bloch(blochs)
    if cost == "sym":
        c, args = sym_cost(), [(r,) for r in norms]
        closed, published = sym_self_distance_sq_closed, sym_self_distance_sq_published
    else:
        c, args = z_cost(), list(zip(norms, blochs[:, 2]))
        closed, published = z_self_distance_sq_closed, z_self_distance_sq_published
    return {
        "selfdist_sq_purification": self_distance_sq(rhos, c),
        "selfdist_sq_closed_form": np.array([closed(*a) for a in args]),
        "selfdist_sq_published_form": np.array([published(*a) for a in args]),
        "selfdist_sq_sdp": _values(solve_min_couplings(rhos, rhos, c, _FORCED)),
    }


def _self_distance_checks(cost: str, samples: int, seed: int, tolerance: float) -> list:
    """A closed-form suite's two self-distance checks on ball samples: solve,
    coupling and closed form agree, and the published form is off by its scale."""
    closed_form, published_form, share, scale = _SELF_FORMS[cost]
    table = self_distance_table(_ball_blochs(seed, 20_000, samples), cost)
    sdp, pur = table["selfdist_sq_sdp"], table["selfdist_sq_purification"]
    closed = table["selfdist_sq_closed_form"]
    triple_devs = np.maximum.reduce([np.abs(sdp - pur), np.abs(sdp - closed), np.abs(pur - closed)])
    published_devs = np.abs(pur - table["selfdist_sq_published_form"] / scale)
    return [
        _check("self-distance-sdp-purification-closed-form", triple_devs, tolerance,
               notes=f"solver, vec(sqrt(rho)) coupling, and {closed_form} agree"),
        _check("published-self-distance-formula-flagged", published_devs, tolerance,
               notes=f"documented discrepancy: the published closed form {published_form} is exactly "
                     f"{share} the transport optimum; the solver value is authoritative"),
    ]


def suite_sym_closed_forms(samples: int = 500, seed: int = 0, tolerance: float = 1e-6) -> SuiteResult:
    """Pure-pair cost law, divergence-Euclidean law, and self-distance forms
    for the all-Pauli cost."""
    c = sym_cost()

    b1, b2 = _pure_pairs(seed, samples)
    r1, r2 = state_from_bloch(b1), state_from_bloch(b2)
    costs = _values(solve_min_couplings(r1, r2, c))
    divs = np.array([d.divergence for d in divergence_breakdowns(r1, r2, c)])
    cost_devs = np.abs(costs - (6.0 - 2.0 * (b1 * b2).sum(axis=1)))
    div_devs = np.abs(divs - np.linalg.norm(b1 - b2, axis=1))

    pure = state_from_bloch(np.reshape(
        [random_bloch_on_sphere(derived_rng(seed, 10_000 + i)) for i in range(min(samples, 200))], (-1, 3)
    ))
    products = np.einsum("nij,nlk->nikjl", pure, pure).reshape(-1, 4, 4)  # rho (x) rho^T
    self_pure_devs = np.abs(coupling_cost(products, c) - 4.0)

    return SuiteResult(
        suite="sym-closed-forms",
        samples=samples,
        seed=seed,
        tolerance=tolerance,
        checks=[
            _check("pure-pair-cost-6-minus-2-dot", cost_devs, tolerance),
            _check("pure-pair-divergence-euclidean", div_devs, tolerance),
            _check("pure-self-product-cost-4", self_pure_devs, tolerance),
            *_self_distance_checks("sym", samples, seed, tolerance),
        ],
    )


def suite_z_closed_forms(samples: int = 500, seed: int = 0, tolerance: float = 1e-6) -> SuiteResult:
    """Pure-pair law, diagonal-pair law, pole diameter, and self-distance forms
    for the single-sigma_z cost."""
    c = z_cost()

    b1, b2 = _pure_pairs(seed, samples)
    costs = _values(solve_min_couplings(state_from_bloch(b1), state_from_bloch(b2), c))
    pair_devs = np.abs(costs - (2.0 - 2.0 * b1[:, 2] * b2[:, 2]))

    tu = np.array([derived_rng(seed, 30_000 + i).uniform(-0.98, 0.98, size=2)
                   for i in range(min(samples, 100))]).reshape(-1, 2)
    diag = state_from_bloch(np.stack((np.zeros_like(tu), np.zeros_like(tu), tu), axis=-1))
    diag_vals = _values(solve_min_couplings(diag[:, 0], diag[:, 1], c, _FORCED))
    diag_devs = np.abs(diag_vals - 2.0 * np.abs(tu[:, 0] - tu[:, 1]))

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
            *_self_distance_checks("z", samples, seed, tolerance),
        ],
    )


def suite_dsym_isometries(samples: int = 50, seed: int = 0, tolerance: float = 1e-6) -> SuiteResult:
    """Unitary and antiunitary conjugations preserve both the distance and the
    divergence of the all-Pauli cost; non-rigid maps are caught with witnesses."""
    wigner = [sample_wigner_map(derived_rng(seed, i)) for i in range(samples)]
    seeds = [seed + i for i in range(samples)]
    dist = check_isometries(wigner, seeds, "D_sym", 8, tolerance)
    div = check_isometries(wigner, seeds, "d_sym", 8, tolerance)
    wigner_devs = [max(a.max_abs_deviation, b.max_abs_deviation) for a, b in zip(dist, div)]

    n_adv = max(4, samples // 10)
    adversarial = []
    for i in range(n_adv):
        rng = derived_rng(seed, 50_000 + i)
        adversarial.append(sample_z_phase_field_map(rng) if i % 2 else sample_non_rigid_map(rng))
    reports = check_isometries(adversarial, [seed + i for i in range(n_adv)], "d_sym", 8, 1e-4)
    missed = [i for i, r in enumerate(reports) if r.verdict != "violated"]
    witnesses = []
    for state_map, report in zip(adversarial, reports):
        if report.witness_pair is not None:
            rho, omega, dev = report.witness_pair
            witnesses.append({
                "map": state_map.label,
                "bloch_rho": _bloch_list(rho),
                "bloch_omega": _bloch_list(omega),
                "deviation": float(dev),
            })

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


def suite_dz_theorem(samples: int = 50, seed: int = 0, tolerance: float = 1e-5) -> SuiteResult:
    """Metric-level and Bloch-level characterizations of sigma_z-cost isometries
    agree on every sampled map family."""
    checks = []
    for name, sampler in MAP_FAMILIES.items():
        report = theorem_crosscheck_dz(sampler, n_maps=samples, n_samples=10, tol=tolerance, seed=seed)
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


def suite_divergence_triangle(samples: int = 200, seed: int = 0, tolerance: float = 1e-6) -> SuiteResult:
    """Sampled triangle inequality for the all-Pauli divergence.

    A violation beyond tolerance indicates a solver accuracy bug and is
    reported with the offending triple rather than silently dropped.
    """
    c = sym_cost()
    blochs = []
    for i in range(samples):
        rng = derived_rng(seed, i)
        blochs.append([random_bloch_in_ball(rng) for _ in range(3)])
    triples = state_from_bloch(np.reshape(blochs, (-1, 3, 3)))
    # edges (0, 1), (0, 2), (1, 2) of each triple
    breakdowns = divergence_breakdowns(
        triples[:, [0, 0, 1]].reshape(-1, 2, 2), triples[:, [1, 2, 2]].reshape(-1, 2, 2), c)
    excesses, witnesses = [], []
    for k, states in enumerate(triples):
        d01, d02, d12 = (br.divergence for br in breakdowns[3 * k:3 * k + 3])
        excess = max(d01 - d02 - d12, d02 - d01 - d12, d12 - d01 - d02)
        excesses.append(max(excess, 0.0))
        if excess > tolerance:
            witnesses.append({
                "blochs": [_bloch_list(s) for s in states],
                "divergences": [d01, d02, d12],
                "excess": float(excess),
            })
    min_radicand = min((br.radicand for br in breakdowns), default=np.inf)

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
SUITE_NAMES = tuple(_SUITE_FNS)


def run_suite(name: str, samples: int | None = None, seed: int = 0, tolerance: float | None = None) -> SuiteResult:
    if name not in _SUITE_FNS:
        raise DomainError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    kwargs = {"seed": seed}
    if samples is not None:
        kwargs["samples"] = samples
    if tolerance is not None:
        kwargs["tolerance"] = tolerance
    return _SUITE_FNS[name](**kwargs)
