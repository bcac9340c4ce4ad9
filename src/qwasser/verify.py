"""Verification suites: closed forms, isometry families, and metric sampling.

Each suite draws seeded samples, each family through `sampling.draws`,
measures deviations against the transport solver, and returns its checks;
`run_suite` fills in the suite's default samples and tolerance, checks the
arguments, and builds the `SuiteResult` the CLI serializes.  A suite draws its
pairs first and solves each distinct pair once, in one call per solver setting
whose certified per-pair results do not depend on the grouping: `dz-theorem`
checks all its map families in one crosscheck, and `z-closed-forms` solves its
pure, diagonal and pole pairs together.  Solves run at the solver defaults,
except the `sdp` self-distances, which are forced through the barrier
(`_FORCED`).

Both closed-form suites and the CLI's `selfdist-table` take every
self-distance value from `self_distance_table`, with one batched solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cost import sym_cost, z_cost
from .errors import DomainError, require_integer, require_positive
from .isometry import (
    MAP_FAMILIES,
    _check_isometries,
    _crosscheck_dz,
    sample_non_rigid_map,
    sample_wigner_map,
    sample_z_phase_field_map,
)
from .sampling import draws, random_bloch_in_ball, random_bloch_on_sphere
from .states import bloch_from_state, state_from_bloch
from .transport import (
    SYM_PUBLISHED_SCALE,
    Z_PUBLISHED_SCALE,
    SolverConfig,
    _divergences,
    _product_couplings,
    _solve_pairs,
    self_distance_sq,
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


def _sphere_pair(rng) -> tuple:
    return random_bloch_on_sphere(rng), random_bloch_on_sphere(rng)


# Per cost: the cost, the closed and published forms as functions of (|b|, b3),
# their formulas, and the published form's claimed share of the optimum.
_SELF_FORMS = {
    "sym": (sym_cost, lambda r, b3: sym_self_distance_sq_closed(r), lambda r, b3: sym_self_distance_sq_published(r),
            "4(1-sqrt(1-|b|^2))", "2(1-sqrt(1-|b|^2))", "half", SYM_PUBLISHED_SCALE),
    "z": (z_cost, z_self_distance_sq_closed, z_self_distance_sq_published, "2(1-sqrt(1-|b|^2))(1-b3^2/|b|^2)",
          "(1/2)(1-sqrt(1-|b|^2))(1-b3^2/|b|^2)", "a quarter of", Z_PUBLISHED_SCALE),
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
    rhos = state_from_bloch(blochs)
    norms = np.linalg.norm(blochs, axis=1) if norms is None else np.asarray(norms, dtype=float)
    if norms.shape != (len(blochs),) or not np.isfinite(norms).all():
        raise DomainError(f"self_distance_table: norms must be {len(blochs)} finite numbers, one per Bloch vector")
    make_cost, closed_sq, published_sq, *_ = _SELF_FORMS[cost]
    c = make_cost()
    closed, published = (np.array([law(r, b3) for r, b3 in zip(norms, blochs[:, 2])])
                         for law in (closed_sq, published_sq))
    return {
        "selfdist_sq_purification": self_distance_sq(rhos, c),
        "selfdist_sq_closed_form": closed,
        "selfdist_sq_published_form": published,
        "selfdist_sq_sdp": _solve_pairs(rhos, rhos, c, _FORCED).value,
    }


def _self_distance_checks(cost: str, samples: int, seed: int, tolerance: float) -> list:
    """A closed-form suite's two self-distance checks on ball samples: solve,
    coupling and closed form agree, and the published form is off by its scale."""
    *_, closed_form, published_form, share, scale = _SELF_FORMS[cost]
    table = self_distance_table(draws(seed, 20_000, samples, random_bloch_in_ball), cost)
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


def _sym_closed_forms(samples: int, seed: int, tolerance: float) -> list:
    """Pure-pair cost law, divergence-Euclidean law, and self-distance forms
    for the all-Pauli cost."""
    c = sym_cost()

    b1, b2 = np.array(draws(seed, 0, samples, _sphere_pair)).transpose(1, 0, 2)
    r1, r2 = state_from_bloch(b1), state_from_bloch(b2)
    costs, *_, divs = _divergences(r1, r2, c)[1]
    cost_devs = np.abs(costs - (6.0 - 2.0 * (b1 * b2).sum(axis=1)))
    div_devs = np.abs(divs - np.linalg.norm(b1 - b2, axis=1))

    pure = state_from_bloch(np.array(draws(seed, 10_000, min(samples, 200), random_bloch_on_sphere)))
    self_pure_devs = np.abs(_product_couplings(pure, pure, c)[1] - 4.0)  # rho (x) rho^T

    return [
        _check("pure-pair-cost-6-minus-2-dot", cost_devs, tolerance),
        _check("pure-pair-divergence-euclidean", div_devs, tolerance),
        _check("pure-self-product-cost-4", self_pure_devs, tolerance),
        *_self_distance_checks("sym", samples, seed, tolerance),
    ]


def _z_closed_forms(samples: int, seed: int, tolerance: float) -> list:
    """Pure-pair law, diagonal-pair law, pole diameter, and self-distance forms
    for the single-sigma_z cost."""
    pure = np.array(draws(seed, 0, samples, _sphere_pair))
    tu = np.array(draws(seed, 30_000, min(samples, 100), lambda rng: rng.uniform(-0.98, 0.98, size=2)))
    diag = np.stack((np.zeros_like(tu), np.zeros_like(tu), tu), axis=-1)
    # One solve: the pure pairs and the pole pair take the product coupling,
    # the diagonal pairs run the barrier in one block.
    states = state_from_bloch(np.concatenate((pure, diag, [[(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]])))
    values = _solve_pairs(states[:, 0], states[:, 1], z_cost()).value
    costs, diag_vals, poles = np.split(values, [samples, samples + len(tu)])
    pair_devs = np.abs(costs - (2.0 - 2.0 * pure[:, 0, 2] * pure[:, 1, 2]))
    diag_devs = np.abs(diag_vals - 2.0 * np.abs(tu[:, 0] - tu[:, 1]))

    return [
        _check("pure-pair-cost-2-minus-2-zw", pair_devs, tolerance),
        _check("diagonal-pair-classical-cost", diag_devs, tolerance),
        _check("pole-pair-squared-diameter-4", np.abs(poles - 4.0), tolerance),
        *_self_distance_checks("z", samples, seed, tolerance),
    ]


def _dsym_isometries(samples: int, seed: int, tolerance: float) -> list:
    """Unitary and antiunitary conjugations preserve both the distance and the
    divergence of the all-Pauli cost; non-rigid maps are caught with witnesses."""
    wigner = draws(seed, 0, samples, sample_wigner_map)
    n_adv = max(4, samples // 10)
    adversarial = [(sample_z_phase_field_map if i % 2 else sample_non_rigid_map)(rng)
                   for i, rng in enumerate(draws(seed, 50_000, n_adv, lambda rng: rng))]
    # Non-rigid map i uses Wigner map i's seed, so both share its pairs, and
    # one solve gives D_sym and d_sym for all.  Only the non-rigid verdicts
    # are read, at their own tolerance; the Wigner check reads deviations.
    seeds = [seed + i for i in range(samples)] + [seed + i for i in range(n_adv)]
    by_metric = _check_isometries(wigner + adversarial, seeds, ("D_sym", "d_sym"), 8, 1e-4)[0]
    wigner_devs = [max(a.max_abs_deviation, b.max_abs_deviation)
                   for a, b in zip(by_metric["D_sym"][:samples], by_metric["d_sym"][:samples])]
    reports = by_metric["d_sym"][samples:]
    missed = [i for i, r in enumerate(reports) if r.verdict != "violated"]
    witnesses = []
    for state_map, report in zip(adversarial, reports):
        if report.witness_pair is not None:
            rho, omega, dev = report.witness_pair
            witnesses.append({
                "map": state_map.label,
                "bloch_rho": bloch_from_state(rho).tolist(),
                "bloch_omega": bloch_from_state(omega).tolist(),
                "deviation": float(dev),
            })

    return [
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
    ]


def _dz_theorem(samples: int, seed: int, tolerance: float) -> list:
    """Metric-level and Bloch-level characterizations of sigma_z-cost isometries
    agree on every sampled map family."""
    checks = []
    reports = _crosscheck_dz(list(MAP_FAMILIES.values()), samples, 10, tolerance, seed)
    for name, report in zip(MAP_FAMILIES, reports):
        witnesses = [{"map": r.map_id, "isometry": r.isometry_verdict, "condition": r.condition_holds}
                     for r in report.disagreements]
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
    return checks


def _divergence_triangle(samples: int, seed: int, tolerance: float) -> list:
    """Sampled triangle inequality for the all-Pauli divergence.

    A violation beyond tolerance indicates a solver accuracy bug and is
    reported with the offending triple rather than silently dropped.
    """
    blochs = draws(seed, 0, samples, lambda rng: [random_bloch_in_ball(rng) for _ in range(3)])
    triples = state_from_bloch(np.array(blochs))
    # edges (0, 1), (0, 2), (1, 2) of each triple
    *_, radicands, divs = _divergences(
        triples[:, [0, 0, 1]].reshape(-1, 2, 2), triples[:, [1, 2, 2]].reshape(-1, 2, 2), sym_cost())[1]
    divs = divs.reshape(-1, 3)
    d01, d02, d12 = divs.T
    excess = np.max([d01 - d02 - d12, d02 - d01 - d12, d12 - d01 - d02], axis=0)
    witnesses = [{"blochs": bloch_from_state(states).tolist(), "divergences": d.tolist(), "excess": float(e)}
                 for states, d, e in zip(triples, divs, excess) if e > tolerance]
    min_radicand = radicands.min(initial=np.inf)

    return [_check("triangle-inequality-excess", np.maximum(excess, 0.0), tolerance, witnesses=witnesses,
                   notes=f"min radicand before clamping {min_radicand:.3e}")]


# Per suite: its checks, default samples and default tolerance.
_SUITES = {
    "sym-closed-forms": (_sym_closed_forms, 500, 1e-6),
    "z-closed-forms": (_z_closed_forms, 500, 1e-6),
    "dsym-isometries": (_dsym_isometries, 50, 1e-6),
    "dz-theorem": (_dz_theorem, 50, 1e-5),
    "divergence-triangle": (_divergence_triangle, 200, 1e-6),
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, samples: int | None = None, seed: int = 0, tolerance: float | None = None) -> SuiteResult:
    """Run suite `name`; `samples` and `tolerance` default per suite.

    Raises DomainError for an unknown suite, samples that are not an integer
    >= 1, a tolerance that is not positive and finite, or a seed that
    `derived_rng` rejects."""
    if name not in _SUITES:
        raise DomainError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    checks, default_samples, default_tolerance = _SUITES[name]
    samples = default_samples if samples is None else samples
    tolerance = default_tolerance if tolerance is None else tolerance
    require_integer("samples", samples, 1)
    require_positive("tolerance", tolerance)
    return SuiteResult(name, samples, seed, tolerance, checks(samples, seed, tolerance))
