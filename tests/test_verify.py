"""Small-sample runs of the verification suites, and the self-distance table."""

import csv
import io

import numpy as np
import pytest

from qwasser.cli import main
from qwasser.cost import sym_cost, z_cost
from qwasser.errors import DomainError
from qwasser.states import state_from_bloch
from qwasser.transport import SolverConfig, self_distance_sq, solve_min_coupling
from qwasser.verify import run_suite, self_distance_table


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


def test_selfdist_table_rejects_unknown_cost():
    with pytest.raises(DomainError):
        self_distance_table([[0.0, 0.0, 0.5]], "custom")


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
