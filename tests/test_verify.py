"""Small-sample runs of the verification suites."""

import pytest

from qwasser.verify import run_suite


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
    from qwasser.errors import DomainError

    with pytest.raises(DomainError):
        run_suite("nope")
