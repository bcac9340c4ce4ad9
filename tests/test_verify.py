"""Small-sample runs of the verification suites, and the self-distance table."""

import csv
import io
import math

import numpy as np
import pytest

from qwasser import transport
from qwasser.cli import main
from qwasser.cost import sym_cost, z_cost
from qwasser.errors import DomainError
from qwasser.states import state_from_bloch
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
        ("self-distance-sdp-purification-closed-form", 500, 1.0997500687892625e-09),
        ("published-self-distance-formula-flagged", 500, 8.881784197001252e-15),
    ],
    "z-closed-forms": [
        ("pure-pair-cost-2-minus-2-zw", 500, 8.881784197001252e-16),
        ("diagonal-pair-classical-cost", 100, 3.971516449041701e-10),
        ("pole-pair-squared-diameter-4", 1, 0.0),
        ("self-distance-sdp-purification-closed-form", 500, 1.0995790944434702e-09),
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
