"""Small-sample runs of the verification suites, and the self-distance table."""

import csv
import io
import math

import numpy as np
import pytest

from qwasser import transport, verify
from qwasser.cli import main
from qwasser.cost import sym_cost, z_cost
from qwasser.errors import DomainError
from qwasser.isometry import bloch_self_map, check_isometries, unitary_conj_map
from qwasser.states import PAULI, state_from_bloch
from qwasser.transport import SolverConfig, self_distance_sq, solve_min_coupling
from qwasser.verify import SUITE_NAMES, run_suite, self_distance_table


# (check name, samples, max_deviation) of every suite at seed 0 and default
# samples.  A change to the suites or the harness that keeps their arithmetic
# keeps every bit of these; a BLAS build with other rounding may move the
# roundoff-sized ones.
SEED0_FIGURES = {
    "sym-closed-forms": [
        ("pure-pair-cost-6-minus-2-dot", 500, 1.7763568394002505e-15),
        ("pure-pair-divergence-euclidean", 500, 1.5178466475362917e-07),
        ("pure-self-product-cost-4", 200, 1.7763568394002505e-15),
        ("self-distance-sdp-purification-closed-form", 500, 5.262457136723242e-13),
        ("published-self-distance-formula-flagged", 500, 8.881784197001252e-15),
    ],
    "z-closed-forms": [
        ("pure-pair-cost-2-minus-2-zw", 500, 8.881784197001252e-16),
        ("diagonal-pair-classical-cost", 100, 1.2168044349891716e-13),
        ("pole-pair-squared-diameter-4", 1, 0.0),
        ("self-distance-sdp-purification-closed-form", 500, 9.153788838034416e-12),
        ("published-self-distance-formula-flagged", 500, 3.9968028886505635e-15),
    ],
    "dsym-isometries": [
        ("wigner-conjugations-preserve-distance-and-divergence", 50, 4.119028855428808e-07),
        ("non-rigid-maps-detected-with-witness", 5, 0.0),
    ],
    "dz-theorem": [
        ("crosscheck-z_rotations", 50, 0.0),
        ("crosscheck-x_flip_composites", 50, 0.0),
        ("crosscheck-z_phase_fields", 50, 0.0),
        ("crosscheck-b3_negating_bloch_maps", 50, 0.0),
        ("crosscheck-adversarial", 50, 0.0),
    ],
    "divergence-triangle": [
        ("triangle-inequality-excess", 200, 0.0),
    ],
}


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_seed0_default_figures_are_pinned(suite):
    result = run_suite(suite)
    assert result.passed
    assert [(c.name, c.samples, c.max_deviation) for c in result.checks] == SEED0_FIGURES[suite]


@pytest.mark.parametrize("suite", ["dsym-isometries", "dz-theorem"])
def test_isometry_suites_solve_each_pair_once(suite, monkeypatch):
    # maps on one seed share their pairs' solves, and D_sym and d_sym come
    # from one solve: each barrier lane is a pair (and cost) not seen before
    # in the run.  Solving each map family and metric apart sent 1060 lanes
    # for 660 distinct pairs through dz-theorem, 222 for 117 through
    # dsym-isometries.
    seen = []
    solve_barrier = transport._solve_barrier

    def recorded(rhos, omegas, cmat, prod_val, cfg):
        seen.extend(r.tobytes() + o.tobytes() + cmat.tobytes() for r, o in zip(rhos, omegas))
        return solve_barrier(rhos, omegas, cmat, prod_val, cfg)

    monkeypatch.setattr(transport, "_solve_barrier", recorded)
    assert run_suite(suite).passed
    assert seen and len(set(seen)) == len(seen)


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_each_suite_solves_once_per_setting(suite, monkeypatch):
    # one solve at the defaults; the closed-form suites force their sdp
    # self-distances through the barrier in a second.  z-closed-forms once
    # solved its pure, diagonal and pole pairs in three default calls.
    configs = []
    solve = transport._solve

    def counted(rhos, omegas, c, cfg):
        configs.append(cfg)
        return solve(rhos, omegas, c, cfg)

    monkeypatch.setattr(transport, "_solve", counted)
    assert run_suite(suite, samples=4).passed
    forced = [SolverConfig(fast_paths=False)] if suite.endswith("closed-forms") else []
    assert configs == [SolverConfig(), *forced]


def test_harness_and_suites_read_arrays_not_per_pair_results(monkeypatch):
    # the isometry harness and the suites read every value off the solve
    # record's arrays; they once built a DivergenceBreakdown per pair and
    # read two of its fields back
    def refuse(*args, **kwargs):
        raise AssertionError("a per-pair result object was built")

    for name in ("DivergenceBreakdown", "TransportResult"):
        monkeypatch.setattr(transport, name, refuse)
    maps = [unitary_conj_map(PAULI[1], "x-flip"), bloch_self_map(lambda b: 0.5 * b, "radial-shrink")]
    reports = check_isometries(maps, [0, 0], "d_sym", n_samples=4)
    assert [r.verdict for r in reports] == ["isometry_within_tol", "violated"]
    for suite in ("sym-closed-forms", "z-closed-forms", "dsym-isometries", "divergence-triangle"):
        assert run_suite(suite, samples=4).passed


@pytest.mark.parametrize("suite,cost,wrong_scale", [("sym-closed-forms", "sym", 0.7), ("z-closed-forms", "z", 0.5)])
def test_published_form_check_fails_under_a_wrong_scale(suite, cost, wrong_scale, monkeypatch):
    # the published laws carry the literature's constants, so dividing them by
    # a share of the optimum other than the true one leaves a residual
    *forms, _ = verify._SELF_FORMS[cost]
    monkeypatch.setitem(verify._SELF_FORMS, cost, (*forms, wrong_scale))
    checks = {c.name: c for c in run_suite(suite, samples=20).checks}
    assert not checks["published-self-distance-formula-flagged"].passed
    assert checks["self-distance-sdp-purification-closed-form"].passed


@pytest.mark.parametrize(
    "suite,samples",
    [
        ("sym-closed-forms", 40),
        ("z-closed-forms", 40),
        ("dsym-isometries", 6),
        ("dsym-isometries", 2),  # fewer Wigner maps than non-rigid ones
        ("dz-theorem", 5),
        ("divergence-triangle", 25),
    ],
)
def test_suite_passes(suite, samples):
    result = run_suite(suite, samples=samples, seed=21)
    assert result.passed, [(c.name, c.max_deviation) for c in result.checks if not c.passed]


@pytest.mark.parametrize("seed", [3, 5])
def test_dsym_non_rigid_check_draws_no_isometries(seed):
    # orthogonal Bloch maps are genuine d_sym isometries; the check that
    # demands a violation must never draw one
    result = run_suite("dsym-isometries", samples=10, seed=seed)
    assert result.passed, [(c.name, c.max_deviation) for c in result.checks if not c.passed]


def test_divergence_triangle_reports_min_radicand():
    result = run_suite("divergence-triangle", samples=10, seed=3)
    (check,) = result.checks
    assert "min radicand" in check.notes


def test_unknown_suite_rejected():
    with pytest.raises(DomainError):
        run_suite("nope")


# Arguments run_suite rejects, as keywords and as `qwasser verify` flags.
BAD_SUITE_ARGUMENTS = [
    ({"samples": 0}, ["--samples", "0"]),
    ({"samples": -3}, ["--samples", "-3"]),
    ({"tolerance": 0.0}, ["--tolerance", "0"]),
    ({"tolerance": -1e-6}, ["--tolerance=-1e-6"]),
    ({"tolerance": math.inf}, ["--tolerance", "inf"]),
    ({"tolerance": math.nan}, ["--tolerance", "nan"]),
    ({"seed": -1}, ["--seed", "-1"]),
    # argparse's own pattern for negative numbers misses the exponent form
    ({"tolerance": -1e-6}, ["--tolerance", "-1e-6"]),
]


# Library-only: argparse types --samples as int, so the CLI cannot pass these.
@pytest.mark.parametrize("samples", [2.5, math.nan, math.inf, True])
def test_non_integer_samples_are_domain_errors(samples):
    with pytest.raises(DomainError, match="samples"):
        run_suite("dz-theorem", samples=samples)


@pytest.mark.parametrize("kwargs,flags", BAD_SUITE_ARGUMENTS)
def test_bad_suite_arguments_are_domain_errors(kwargs, flags, capsys):
    with pytest.raises(DomainError):
        run_suite("divergence-triangle", **kwargs)
    assert main(["verify", "divergence-triangle", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_selfdist_table_rejects_unknown_cost():
    with pytest.raises(DomainError):
        self_distance_table([[0.0, 0.0, 0.5]], "custom")


@pytest.mark.parametrize("norms", [[0.5], [0.5] * 4, [0.5, math.nan, 0.5], [0.5, 0.5, math.inf], [[0.5] * 3]])
def test_selfdist_table_needs_one_finite_norm_per_point(norms):
    # zip used to truncate the closed forms to len(norms) rows, and a NaN norm gave NaN closed forms
    with pytest.raises(DomainError, match="norms"):
        self_distance_table([[0.0, 0.0, 0.5], [0.5, 0.0, 0.0], [0.3, 0.0, 0.4]], "z", norms=norms)


@pytest.mark.parametrize("cost", ["sym", "z"])
def test_selfdist_table_rows_match_the_per_point_path(cost, capsys):
    # the default `selfdist-table` grid, built as the CLI builds it
    norms = np.repeat(np.linspace(0.0, 1.0, 11), 5)
    b3 = norms * np.tile(np.linspace(-1.0, 1.0, 5), 11)
    blochs = np.stack((np.sqrt(np.maximum(norms**2 - b3**2, 0.0)), np.zeros_like(b3), b3), axis=1)
    table = self_distance_table(blochs, cost, norms=norms)
    c = sym_cost() if cost == "sym" else z_cost()
    for i, b in enumerate(blochs):
        rho = state_from_bloch(b)
        forced = solve_min_coupling(rho, rho, c, SolverConfig(fast_paths=False)).optimal_value
        assert abs(table["selfdist_sq_sdp"][i] - forced) <= 1e-11
        assert abs(table["selfdist_sq_purification"][i] - self_distance_sq(rho, c)) <= 1e-14

    assert main(["selfdist-table", "--cost", cost]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == len(blochs)
    for key, column in table.items():
        assert [row[key] for row in rows] == [f"{v:.12g}" for v in column]
