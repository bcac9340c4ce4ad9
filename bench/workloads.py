"""The four benchmark workloads: seeded inputs, operations and reference checks.

A workload turns a group index into a list of operations.  Group inputs come
from ``qwasser.sampling.derived_rng``, so a seed fixes them; the workload
docstrings say which parts a seed does not change, and why.
An operation is a call into the library (or a fresh CLI process) plus a
reference check of its output; the benchmark times the call alone.

Library functions are looked up on their module at call time, so a traced
run sees the benchmark's calls through the wrappers it installs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import qwasser
import qwasser.cost as cost
import qwasser.oracle as oracle
import qwasser.states as states
import qwasser.transport as transport
import qwasser.verify as verify
from qwasser.sampling import derived_rng, random_bloch_in_ball, random_bloch_on_sphere

#: the solver's default certified-gap target (SolverConfig.tolerance)
GAP_TOL = transport.SolverConfig().tolerance
OK_STATUS = ("converged", "closed_form")
#: slack on 0 <= value <= product cost and on coupling feasibility
FEAS_TOL = 1e-9
RADICAND_FLOOR = -1e-7
ORACLE_DEV_TOL = 1e-5
CLI_MATCH_TOL = 1e-9
#: shell stratum: 1 - |b| log-uniform in [1e-5, 1e-2], the barrier's hardest
#: regime that it certifies.  Closer to the sphere the dual barrier starts to
#: stall (below about 3e-6 about one z-cost solve in 300 ends uncertified),
#: and the purity threshold and the no-interior fallback take over; that is a
#: correctness question for regression tests, not a timing one.
SHELL_LOG10 = (-5.0, -2.0)
CLI_NAMED = ("plus_z", "minus_z", "plus_x", "plus_y")

SRC = Path(qwasser.__file__).resolve().parents[1]
ROOT = SRC.parent


def child_env() -> dict:
    """Environment of a fresh interpreter: this checkout's src, no thread pool."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("QWASSER_THREADS", None)
    return env


@dataclass
class Op:
    name: str
    tag: str                      # stratum or kind; spans are grouped by it
    call: Callable[[], object]
    check: Callable[[object], bool]


class Stats:
    """Accuracy figures of a run: every observed solve's gap, and the largest
    solver-oracle deviation the checks saw."""

    def __init__(self):
        self.gaps: list = []
        self.max_oracle_dev = 0.0

    def gap(self, g: float) -> None:
        self.gaps.append(float(g))


def _costs():
    return {"sym": cost.sym_cost(), "z": cost.z_cost()}


def _product_cost(rho, omega, c) -> float:
    return transport.coupling_cost(transport.product_coupling(rho, omega), c)


def _solve_ok(res, upper: float) -> bool:
    pi = res.optimal_coupling
    return (
        res.solver_status in OK_STATUS
        and res.duality_gap_or_residual <= GAP_TOL
        and 0.0 <= res.optimal_value <= upper + FEAS_TOL
        and pi.marginal_residual() <= FEAS_TOL
        and pi.min_eigenvalue() >= -FEAS_TOL
    )


def _ball_pair(rng):
    return random_bloch_in_ball(rng), random_bloch_in_ball(rng)


class Pairs:
    """Seeded mixed pairs, each solved under both costs plus one divergence.

    Groups alternate between two strata: `ball` (both marginals uniform in the
    Bloch ball) and `shell` (one marginal with 1 - |b| log-uniform in
    [1e-5, 1e-2]).  The interior-point solver does nearly all the work.
    """

    def __init__(self, seed: int, stats: Stats):
        self.seed, self.c = seed, _costs()

    def group(self, i: int) -> list:
        rng = derived_rng(self.seed, i)
        stratum = "ball" if i % 2 == 0 else "shell"
        b1, b2 = _ball_pair(rng)
        if stratum == "shell":
            b2 = random_bloch_on_sphere(rng) * (1.0 - 10.0 ** rng.uniform(*SHELL_LOG10))
            if rng.uniform() < 0.5:
                b1, b2 = b2, b1
        rho, omega = states.state_from_bloch(b1), states.state_from_bloch(b2)
        ops = []
        for cname, c in self.c.items():
            def solve(c=c):
                return transport.solve_min_coupling(rho, omega, c)

            def check(res, c=c):
                return _solve_ok(res, _product_cost(rho, omega, c))

            ops.append(Op(f"solve-{cname}", stratum, solve, check))

        c = self.c["sym"]

        def divergence():
            return transport.divergence_breakdown(rho, omega, c)

        def check_div(br):
            return (
                br.solver_status in OK_STATUS
                and br.radicand >= RADICAND_FLOOR
                and 0.0 <= br.distance_sq <= _product_cost(rho, omega, c) + FEAS_TOL
            )

        ops.append(Op("divergence-sym", stratum, divergence, check_div))
        return ops


class Verify:
    """All five verification suites at their default samples and seed.

    The suites run with the seed `qwasser verify` uses by default (0), the
    same work every run; `--seed` does not change it: dsym-isometries
    fails for about half of the other suite seeds, because
    its adversarial sampler draws genuine d_sym isometries (see METRICS.md).
    """

    suite_seed = 0

    def __init__(self, seed: int, stats: Stats):
        del seed, stats  # the same work for every seed

    def group(self, i: int) -> list:
        def op(suite):
            return Op(suite, suite,
                      lambda: verify.run_suite(suite, seed=self.suite_seed),
                      lambda res: res.passed)

        return [op(s) for s in verify.SUITE_NAMES]


class CliCold:
    """Fresh-interpreter `python -m qwasser.cli distance|divergence --json`.

    Inputs mix named pure states (closed form) and `bloch:` mixed states
    (barrier) under both costs.  Each output is checked against an in-process
    solve of the same input.
    """

    def __init__(self, seed: int, stats: Stats):
        self.seed, self.stats, self.c = seed, stats, _costs()
        self.env = child_env()

    def group(self, i: int) -> list:
        rng = derived_rng(self.seed, i)
        command = ("distance", "divergence")[i % 2]
        cname = ("sym", "z")[(i // 2) % 2]
        b1, b2 = _ball_pair(rng)
        spec1 = "bloch:" + ",".join(repr(float(v)) for v in b1)
        rho = states.state_from_bloch([float(v) for v in b1])
        if (i // 4) % 2:
            spec2 = CLI_NAMED[int(rng.integers(len(CLI_NAMED)))]
            omega = states.named_state(spec2)
        else:
            spec2 = "bloch:" + ",".join(repr(float(v)) for v in b2)
            omega = states.state_from_bloch([float(v) for v in b2])
        argv = [sys.executable, "-m", "qwasser.cli", command, "--json", "--cost", cname,
                spec1, spec2]
        c = self.c[cname]

        def run():
            return subprocess.run(argv, capture_output=True, text=True, env=self.env,
                                  cwd=ROOT, timeout=120)

        def check(proc):
            if proc.returncode != 0:
                return False
            out = json.loads(proc.stdout.strip().splitlines()[-1])["results"][0]
            got = out["value_sq"] if command == "distance" else out["distance_sq"]
            if command == "distance":
                self.stats.gap(out["duality_gap_or_residual"])
            ref = transport.solve_min_coupling(rho, omega, c)
            return (
                out["solver_status"] in OK_STATUS
                and abs(got - ref.optimal_value) <= CLI_MATCH_TOL
            )

        return [Op(f"{command}-{cname}", command, run, check)]


class Oracle:
    """The brute-force oracle beside the solver on mixed pairs, both costs.

    Mirrors acceptance criterion 9: its pairs, |sdp - oracle| <= 1e-5, and
    both values in [0, product cost].  A group is criterion 9's first
    `PAIRS_PER_GROUP` pairs, every group the same pairs, with the oracle's
    restart seeds drawn from the seed.  The pair geometry sets most of an
    oracle solve's cost (it varies by about 30% from pair to pair), and a run
    fits only 16 to 24 pairs, so runs compare only when each does whole
    groups of the same pairs.
    """

    pair_seed = 109  # derived_rng(109, j): criterion 9's pairs
    PAIRS_PER_GROUP = 4

    def __init__(self, seed: int, stats: Stats):
        self.seed, self.stats, self.c = seed, stats, _costs()

    def group(self, i: int) -> list:
        restart_seeds = derived_rng(self.seed, i).integers(2**31, size=self.PAIRS_PER_GROUP)
        return [self._pair(j, int(s)) for j, s in enumerate(restart_seeds)]

    def _pair(self, j: int, restart_seed: int) -> Op:
        b1, b2 = _ball_pair(derived_rng(self.pair_seed, j))
        rho, omega = states.state_from_bloch(b1), states.state_from_bloch(b2)

        def pair():
            return [
                (c, transport.solve_min_coupling(rho, omega, c),
                 oracle.oracle_min_coupling(rho, omega, c, seed=restart_seed))
                for c in self.c.values()
            ]

        def check(rows):
            ok = True
            for c, sdp, orc in rows:
                upper = _product_cost(rho, omega, c)
                dev = abs(sdp.optimal_value - orc.value)
                self.stats.max_oracle_dev = max(self.stats.max_oracle_dev, dev)
                ok = (
                    ok
                    and _solve_ok(sdp, upper)
                    and dev <= ORACLE_DEV_TOL
                    and -FEAS_TOL <= orc.value <= upper + FEAS_TOL
                )
            return ok

        return Op(f"pair-{j}", "pair", pair, check)


def warm_up() -> None:
    """One untimed solve and one untimed oracle call: lazy first-call costs."""
    rho = states.state_from_bloch((0.3, -0.2, 0.1))
    omega = states.state_from_bloch((-0.1, 0.4, 0.2))
    c = cost.sym_cost()
    transport.solve_min_coupling(rho, omega, c)
    oracle.oracle_min_coupling(rho, omega, c)

