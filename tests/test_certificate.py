"""The optimality certificate: the lower bound value - gap never exceeds the optimum.

The bound is read off the barrier's final Newton step, so it must hold on
every exit path, including a starved iteration budget, and near pure states,
where the barrier's iterates approach the boundary of the PSD cone.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwasser.cost import sym_cost, z_cost
from qwasser.sampling import derived_rng, random_bloch_in_ball
from qwasser.states import state_from_bloch
from qwasser.transport import (
    SolverConfig,
    coupling_cost,
    product_coupling,
    self_distance_sq,
    solve_min_coupling,
    solve_min_couplings,
)

COSTS = {"sym": sym_cost(), "z": z_cost()}
TOL = SolverConfig().tolerance
# Rounding allowance on comparisons of two computed values near 1.
ROUNDING = 1e-12


def lower_bound(res) -> float:
    return res.optimal_value - res.duality_gap_or_residual


def known_optima(n: int):
    """(rho, omega, cost name, exact optimum) with the optimum known in closed form."""
    for i in range(n):
        rng = derived_rng(2024, i)
        t, u = rng.uniform(-0.98, 0.98, size=2)
        rho, omega = state_from_bloch([0.0, 0.0, t]), state_from_bloch([0.0, 0.0, u])
        yield rho, omega, "z", 2.0 * abs(float(t - u))
        self_state = state_from_bloch(random_bloch_in_ball(rng))
        for name, c in COSTS.items():
            yield self_state, self_state, name, self_distance_sq(self_state, c)


@pytest.mark.parametrize("max_iterations", [SolverConfig().max_iterations, 3, 8, 15])
def test_lower_bound_below_known_optimum(max_iterations):
    cfg = SolverConfig(fast_paths=False, max_iterations=max_iterations)
    for rho, omega, name, exact in known_optima(20):
        res = solve_min_coupling(rho, omega, COSTS[name], cfg)
        assert lower_bound(res) <= exact + ROUNDING, (name, res)
        assert res.optimal_value >= exact - ROUNDING
        assert res.iterations <= max_iterations


@pytest.mark.parametrize(
    "name,b_rho,b_omega",
    [
        # 1 - |b_omega| = 1.1e-6
        (
            "z",
            (-0.6137475595549472, 0.19376995112264778, -0.7231495484487444),
            (-0.598535080504831, 0.34250585594720706, 0.7241845859858446),
        ),
        # 1 - |b_omega| = 1.4e-8, just above the purity threshold
        (
            "sym",
            (0.5227008461550072, -0.28610384964800306, -0.5269728196104395),
            (-0.20663590148472782, -0.9068624651577765, 0.3672901388389316),
        ),
        # 1 - |b_rho| = 1.7e-5; the optimal coupling has rank two, and the
        # barrier's last iterate has two eigenvalues near 1e-12
        (
            "z",
            (0.1473356709655755, -0.7787805306510849, 0.609720106506717),
            (-0.32853156830645924, -0.021100895309066024, -0.7556820446499897),
        ),
    ],
)
def test_near_pure_regressions(name, b_rho, b_omega):
    res = solve_min_coupling(state_from_bloch(b_rho), state_from_bloch(b_omega), COSTS[name])
    assert res.solver_status == "converged"
    assert res.duality_gap_or_residual <= TOL


# 1 - |b_rho| = 1.0e-13: mid-path, M is singular to working precision, and
# numpy's LinAlgError from inverting it used to escape the solve.
SINGULAR_NEWTON_PAIR = (
    (-0.9434261702775069, -0.24476926919353414, -0.2236851941765033),
    (-0.16702735492270018, 0.7890907436060359, 0.09388218771759121),
)


@pytest.mark.parametrize("name", sorted(COSTS))
def test_singular_newton_system_ends_the_lane_with_an_honest_gap(name):
    c, forced = COSTS[name], SolverConfig(fast_paths=False)
    rho, omega = (state_from_bloch(b) for b in SINGULAR_NEWTON_PAIR)
    mixed = [state_from_bloch(random_bloch_in_ball(derived_rng(77, i))) for i in range(3)]
    single = solve_min_coupling(rho, omega, c, forced)
    batch = solve_min_couplings([rho, *mixed], [omega, *mixed[::-1]], c, forced)
    upper = coupling_cost(product_coupling(rho, omega), c)
    for res in (single, batch[0]):
        gap = res.duality_gap_or_residual
        assert math.isfinite(gap) and gap >= 0.0
        assert res.solver_status == ("converged" if gap <= TOL else "max_iterations")
        assert 0.0 <= res.optimal_value <= upper + ROUNDING
    # each result's bound holds for the other's value: one optimum lies between
    assert lower_bound(single) <= batch[0].optimal_value + ROUNDING
    assert lower_bound(batch[0]) <= single.optimal_value + ROUNDING
    for res in batch[1:]:
        assert res.solver_status == "converged"


def test_gap_is_capped_by_the_trivial_bound():
    # 1 - |b_rho| = 1e-14.  In a batch the last iterate is too near singular
    # for its certificate, whose bound once fell below lambda_min(C) = 0
    # (gap 7.02 on a value of 5.88).
    rho = state_from_bloch((0.8421879556353905, -0.08845025000993414, -0.5318796862598171))
    omega = state_from_bloch((0.34513420361496405, 0.3283277114959644, 0.3771625043099415))
    c = COSTS["sym"]
    floor = float(np.linalg.eigvalsh(c.matrix)[0])
    for res in solve_min_couplings([rho, rho], [omega, omega], c, SolverConfig(fast_paths=False)):
        assert res.duality_gap_or_residual <= res.optimal_value - floor + ROUNDING


def _bloch(theta: float, phi: float, norm: float) -> np.ndarray:
    return norm * np.array(
        [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
    )


angles = st.tuples(st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi))


@settings(max_examples=40)
@given(
    near=angles,
    log_defect=st.floats(math.log10(2e-8), -2.0),
    other=angles,
    other_norm=st.floats(0.0, 0.99),
    name=st.sampled_from(sorted(COSTS)),
)
def test_near_pure_marginal_is_certified(near, log_defect, other, other_norm, name):
    c = COSTS[name]
    rho = state_from_bloch(_bloch(*near, 1.0 - 10.0**log_defect))
    omega = state_from_bloch(_bloch(*other, other_norm))
    ab = solve_min_coupling(rho, omega, c)
    ba = solve_min_coupling(omega, rho, c)
    for res in (ab, ba):
        assert res.solver_status == "converged"
        assert res.duality_gap_or_residual <= TOL
    assert 0.0 <= ab.optimal_value <= coupling_cost(product_coupling(rho, omega), c)
    assert ab.optimal_value == pytest.approx(ba.optimal_value, abs=1e-6)
