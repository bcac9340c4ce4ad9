"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Sample counts and tolerances are fixed here; nothing is deferred to later
calibration.
"""

import math

import numpy as np

from qwasser.cost import build_cost, conjugate_generators, sym_cost, z_cost
from qwasser.isometry import MAP_FAMILIES, apply_state_map, sample_state_pairs, sample_wigner_map, theorem_crosscheck_dz
from qwasser.oracle import oracle_min_coupling
from qwasser.sampling import derived_rng, random_bloch_in_ball, random_bloch_on_sphere
from qwasser.states import PAULI, state_from_bloch
from qwasser.transport import (
    SolverConfig,
    coupling_cost,
    divergence_breakdown,
    divergence_breakdowns,
    product_coupling,
    self_distance_sq,
    solve_min_coupling,
    solve_min_couplings,
    sym_self_distance_sq_closed,
    sym_self_distance_sq_published,
    wasserstein_divergence,
    z_self_distance_sq_closed,
    z_self_distance_sq_published,
)

C_SYM = sym_cost()
C_Z = z_cost()
FORCED = SolverConfig(fast_paths=False)

C_SYM_EXPECTED = np.array(
    [[4, 0, 0, -4], [0, 8, 0, 0], [0, 0, 8, 0], [-4, 0, 0, 4]], dtype=complex
)
C_Z_EXPECTED = np.diag([0.0, 4.0, 4.0, 0.0]).astype(complex)


def report(num, name, passed, detail=""):
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {num:02d} {name}"
    if detail:
        line += f" :: {detail}"
    print(line)
    assert passed, line


def test_criterion_01_cost_operator_regression():
    ok = np.array_equal(build_cost(PAULI[1:]).matrix, C_SYM_EXPECTED) and np.array_equal(
        build_cost([PAULI[3]]).matrix, C_Z_EXPECTED
    )
    report(1, "cost-operator regression (exact matrices)", ok)


def test_criterion_02_pure_pure_closed_forms():
    dev_sym = dev_z = 0.0
    for i in range(500):
        rng = derived_rng(102, i)
        b1, b2 = random_bloch_on_sphere(rng), random_bloch_on_sphere(rng)
        r1, r2 = state_from_bloch(b1), state_from_bloch(b2)
        dev_sym = max(
            dev_sym,
            abs(solve_min_coupling(r1, r2, C_SYM).optimal_value - (6.0 - 2.0 * b1 @ b2)),
        )
        dev_z = max(
            dev_z,
            abs(solve_min_coupling(r1, r2, C_Z).optimal_value - (2.0 - 2.0 * b1[2] * b2[2])),
        )
    ok = dev_sym <= 1e-6 and dev_z <= 1e-6
    report(2, "pure-pure closed forms (500 pairs)", ok, f"dev sym {dev_sym:.2e} z {dev_z:.2e}")


def test_criterion_03_divergence_euclidean_law():
    dev = 0.0
    max_d = -1.0
    for i in range(500):
        rng = derived_rng(103, i)
        b1, b2 = random_bloch_on_sphere(rng), random_bloch_on_sphere(rng)
        d = wasserstein_divergence(state_from_bloch(b1), state_from_bloch(b2), C_SYM)
        dev = max(dev, abs(d - float(np.linalg.norm(b1 - b2))))
        max_d = max(max_d, d)
    antipodal = wasserstein_divergence(
        state_from_bloch([0, 0, 1]), state_from_bloch([0, 0, -1]), C_SYM
    )
    max_d = max(max_d, antipodal)
    ok = dev <= 1e-6 and max_d <= 2.0 + 1e-6 and abs(antipodal - 2.0) <= 1e-6
    report(
        3,
        "divergence-Euclidean law (500 pure pairs)",
        ok,
        f"dev {dev:.2e} max d {max_d:.9f} antipodal {antipodal:.9f}",
    )


def test_criterion_04_self_distance_triple_agreement():
    dev_authoritative = 0.0  # SDP vs purification vs calibrated closed form
    dev_published_scale = 0.0  # documented discrepancy: fixed multiple of the optimum
    blochs = [random_bloch_in_ball(derived_rng(104, i)) for i in range(500)]
    rhos = [state_from_bloch(b) for b in blochs]
    sdp_sym = solve_min_couplings(rhos, rhos, C_SYM, FORCED)
    sdp_z = solve_min_couplings(rhos, rhos, C_Z, FORCED)
    for b, rho, res_sym, res_z in zip(blochs, rhos, sdp_sym, sdp_z):
        r, b3 = float(np.linalg.norm(b)), float(b[2])
        for c, res, closed, published in (
            (C_SYM, res_sym, sym_self_distance_sq_closed(r), sym_self_distance_sq_published(r)),
            (C_Z, res_z, z_self_distance_sq_closed(r, b3), z_self_distance_sq_published(r, b3)),
        ):
            sdp = res.optimal_value
            pur = self_distance_sq(rho, c)
            dev_authoritative = max(
                dev_authoritative,
                abs(sdp - pur),
                abs(sdp - closed),
                abs(pur - closed),
            )
            scale = 2.0 if c is C_SYM else 4.0
            dev_published_scale = max(dev_published_scale, abs(pur - scale * published))
    ok = dev_authoritative <= 1e-6 and dev_published_scale <= 1e-6
    report(
        4,
        "self-distance triple agreement (500 states, both costs)",
        ok,
        f"sdp/purification/closed dev {dev_authoritative:.2e}; documented discrepancy: "
        f"published formulas are 1/2 (all-Pauli) and 1/4 (sigma_z) of the SDP value, "
        f"scale residual {dev_published_scale:.2e}; SDP is authoritative",
    )


def test_criterion_05_dz_diameter():
    max_val = -1.0
    near_diameter = []
    pairs = []
    for i in range(9999):
        rng = derived_rng(105, i)
        pairs.append((random_bloch_in_ball(rng), random_bloch_in_ball(rng)))
    results = solve_min_couplings(
        [state_from_bloch(b1) for b1, _ in pairs], [state_from_bloch(b2) for _, b2 in pairs], C_Z
    )
    for (b1, b2), res in zip(pairs, results):
        val = res.optimal_value
        max_val = max(max_val, val)
        if val >= 4.0 - 1e-6:
            near_diameter.append((b1, b2, val))
    pole_val = solve_min_coupling(
        state_from_bloch([0, 0, 1]), state_from_bloch([0, 0, -1]), C_Z
    ).optimal_value
    max_val = max(max_val, pole_val)
    if pole_val >= 4.0 - 1e-6:
        near_diameter.append((np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0]), pole_val))

    poles_ok = True
    for b1, b2, _ in near_diameter:
        d1 = min(np.linalg.norm(b1 - [0, 0, 1]), np.linalg.norm(b1 - [0, 0, -1]))
        d2 = min(np.linalg.norm(b2 - [0, 0, 1]), np.linalg.norm(b2 - [0, 0, -1]))
        poles_ok = poles_ok and d1 <= 1e-3 and d2 <= 1e-3
    ok = max_val <= 4.0 + 1e-9 and abs(pole_val - 4.0) <= 1e-9 and poles_ok
    report(
        5,
        "D_z squared diameter over 10^4 pairs",
        ok,
        f"max {max_val:.12f} pole pair {pole_val:.12f} near-diameter pairs "
        f"{len(near_diameter)} all pole-localized {poles_ok}",
    )


def test_criterion_06_dz_theorem_equivalence_harness():
    all_ok = True
    details = []
    for name, sampler in MAP_FAMILIES.items():
        rep = theorem_crosscheck_dz(sampler, n_maps=50, n_samples=10, tol=1e-5, seed=106)
        family_ok = rep.all_agree
        if name == "adversarial":
            witnessed = sum(
                1
                for r in rep.per_map
                if r.isometry_verdict == "violated" and r.witness is not None
            )
            family_ok = family_ok and witnessed == rep.n_maps
            details.append(f"{name} {rep.n_agreements}/{rep.n_maps} witnesses {witnessed}")
        else:
            details.append(f"{name} {rep.n_agreements}/{rep.n_maps}")
        all_ok = all_ok and family_ok
    report(6, "Theorem-equivalence harness (5 families x 50 maps)", all_ok, "; ".join(details))


def test_criterion_07_wigner_invariance():
    pairs, images = [], []
    for k in range(200):
        state_map = sample_wigner_map(derived_rng(107, k))
        stack = sample_state_pairs(derived_rng(107, 100_000 + k), 20)
        pairs.append(stack)
        images.append(apply_state_map(state_map, stack))
    pairs, images = np.concatenate(pairs), np.concatenate(images)
    before = divergence_breakdowns(pairs[:, 0], pairs[:, 1], C_SYM)
    after = divergence_breakdowns(images[:, 0], images[:, 1], C_SYM)
    dev_dist = max(abs(math.sqrt(a.distance_sq) - math.sqrt(b.distance_sq)) for a, b in zip(after, before))
    dev_div = max(abs(a.divergence - b.divergence) for a, b in zip(after, before))
    ok = dev_dist <= 1e-6 and dev_div <= 1e-6
    report(
        7,
        "Wigner invariance (200 conjugations x 20 pairs)",
        ok,
        f"distance dev {dev_dist:.2e} divergence dev {dev_div:.2e}",
    )


def test_criterion_08_rotated_generator_invariance():
    from qwasser.sampling import random_unitary

    dev = 0.0
    for i in range(100):
        u = random_unitary(derived_rng(108, i))
        rotated = build_cost(conjugate_generators(PAULI[1:], u))
        dev = max(dev, float(np.abs(rotated.matrix - C_SYM_EXPECTED).max()))
    ok = dev <= 1e-10
    report(8, "rotated-generator invariance (100 unitaries)", ok, f"max entry dev {dev:.2e}")


# Rounding allowance on the oracle's upper bound against the solver's
# certified lower bound: two evaluations of an O(1) cost, with multipliers of
# at most a few hundred on criterion 9's pairs.
UPPER_ROUNDING = 1e-12


def test_criterion_09_solver_vs_oracle():
    dev = 0.0
    bounds_ok = True
    # the oracle's upper bound never falls below the solver's certified lower bound
    lowest_excess = math.inf
    for i in range(100):
        rng = derived_rng(109, i)
        rho = state_from_bloch(random_bloch_in_ball(rng))
        omega = state_from_bloch(random_bloch_in_ball(rng))
        for c in (C_SYM, C_Z):
            res = solve_min_coupling(rho, omega, c)
            sdp = res.optimal_value
            result = oracle_min_coupling(rho, omega, c, seed=i)
            orc = result.value
            dev = max(dev, abs(sdp - orc))
            upper = coupling_cost(product_coupling(rho, omega), c)
            bounds_ok = bounds_ok and -1e-9 <= sdp <= upper + 1e-9
            bounds_ok = bounds_ok and -1e-9 <= orc <= upper + 1e-9
            lowest_excess = min(lowest_excess, result.upper - (sdp - res.duality_gap_or_residual))
    ok = dev <= 1e-5 and bounds_ok and lowest_excess >= -UPPER_ROUNDING
    report(
        9,
        "solver vs brute-force oracle (100 mixed pairs, both costs)",
        ok,
        f"max |sdp - oracle| {dev:.2e} bounds ok {bounds_ok} "
        f"min(oracle upper - certified lower) {lowest_excess:.2e}",
    )


def test_criterion_10_divergence_sanity():
    min_radicand = math.inf
    for i in range(1000):
        rng = derived_rng(110, i)
        rho = state_from_bloch(random_bloch_in_ball(rng))
        omega = state_from_bloch(random_bloch_in_ball(rng))
        br = divergence_breakdown(rho, omega, C_SYM)
        min_radicand = min(min_radicand, br.radicand)
    zeros_exact = True
    for i in range(100):
        rng = derived_rng(110, 50_000 + i)
        rho = state_from_bloch(random_bloch_in_ball(rng))
        zeros_exact = zeros_exact and wasserstein_divergence(rho, rho, C_SYM) == 0.0
    ok = min_radicand >= -1e-7 and zeros_exact
    report(
        10,
        "divergence sanity (1000 pairs)",
        ok,
        f"min radicand {min_radicand:.3e} self-divergence exactly zero {zeros_exact}",
    )
