"""Command-line interface: distances, divergences, verification suites, tables.

States are given as named constants (plus_z, minus_z, plus_x, plus_y,
maximally_mixed), as ``bloch:x,y,z``, or as inline JSON:

    {"bloch": [0.3, 0.0, -0.2]}
    {"matrix": [[re, im], [re, im], [re, im], [re, im]]}   # row-major 2x2
    {"named": "plus_z"}

A single positional state may be ``-`` to read its JSON spec from stdin.

Exit codes: 0 success / converged, 1 failed verification checks,
2 parse or domain errors, 3 solver non-convergence or any other solver error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
import time

import numpy as np

from .cost import CostOperator, build_cost, sym_cost, z_cost
from .errors import ContractViolation, DomainError, QwasserError
from .states import NAMED_BLOCH, named_state, state_from_bloch, validate_state
from .transport import SolverConfig, divergence_breakdown, solve_min_coupling
from .verify import SUITE_NAMES, run_suite, self_distance_table

SCHEMA_VERSION = 1


def _complex_entry(pair) -> complex:
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise DomainError(f"matrix entries must be [re, im] pairs, got {pair!r}")
    return complex(float(pair[0]), float(pair[1]))


def _state_from_json(obj, where: str) -> np.ndarray:
    if not isinstance(obj, dict):
        raise DomainError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    keys = set(obj) & {"bloch", "matrix", "named"}
    if len(keys) != 1:
        raise DomainError(f"{where}: give exactly one of 'bloch', 'matrix', 'named'")
    if "named" in obj:
        return named_state(obj["named"])
    if "bloch" in obj:
        b = obj["bloch"]
        if not (isinstance(b, list) and len(b) == 3):
            raise DomainError(f"{where}: 'bloch' must be a list of three reals")
        return state_from_bloch([float(v) for v in b])
    entries = obj["matrix"]
    if not (isinstance(entries, list) and len(entries) == 4):
        raise DomainError(f"{where}: 'matrix' must list 4 row-major [re, im] entries")
    vals = [_complex_entry(e) for e in entries]
    m = np.array([[vals[0], vals[1]], [vals[2], vals[3]]])
    return validate_state(m, where)


def parse_state_spec(spec: str, where: str, stdin_text: str | None = None) -> np.ndarray:
    if spec == "-":
        if stdin_text is None:
            raise DomainError(f"{where}: '-' given but stdin is empty")
        try:
            obj = json.loads(stdin_text)
        except json.JSONDecodeError as e:
            raise DomainError(f"{where}: invalid JSON on stdin: {e}") from e
        return _state_from_json(obj, where)
    if spec in NAMED_BLOCH:
        return named_state(spec)
    if spec.startswith("bloch:"):
        parts = spec[len("bloch:"):].split(",")
        if len(parts) != 3:
            raise DomainError(f"{where}: expected bloch:x,y,z, got {spec!r}")
        try:
            b = [float(p) for p in parts]
        except ValueError as e:
            raise DomainError(f"{where}: non-numeric bloch coordinate in {spec!r}") from e
        return state_from_bloch(b)
    if spec.lstrip().startswith("{"):
        try:
            obj = json.loads(spec)
        except json.JSONDecodeError as e:
            raise DomainError(f"{where}: invalid inline JSON: {e}") from e
        return _state_from_json(obj, where)
    raise DomainError(
        f"{where}: unrecognized state spec {spec!r}; use a named state "
        f"{sorted(NAMED_BLOCH)}, bloch:x,y,z, inline JSON, or '-'"
    )


def _parse_state_pair(args) -> tuple:
    stdin_text = None
    if "-" in (args.state1, args.state2):
        if args.state1 == "-" and args.state2 == "-":
            raise DomainError("only one positional state may read from stdin")
        stdin_text = sys.stdin.read()
    rho = parse_state_spec(args.state1, "state1", stdin_text)
    omega = parse_state_spec(args.state2, "state2", stdin_text)
    return rho, omega


def _resolve_cost(args) -> tuple[str, CostOperator]:
    if args.cost == "sym":
        return "sym", sym_cost()
    if args.cost == "z":
        return "z", z_cost()
    if not args.generators:
        raise DomainError("--cost custom requires --generators JSON")
    try:
        spec = json.loads(args.generators)
    except json.JSONDecodeError as e:
        raise DomainError(f"--generators: invalid JSON: {e}") from e
    if not isinstance(spec, list) or not spec:
        raise DomainError("--generators must be a nonempty JSON list of 2x2 matrices")
    gens = []
    for k, g in enumerate(spec):
        if not (isinstance(g, list) and len(g) == 2 and all(len(row) == 2 for row in g)):
            raise DomainError(f"generator {k}: expected a 2x2 matrix of [re, im] pairs")
        gens.append(np.array([[_complex_entry(e) for e in row] for row in g]))
    return "custom", build_cost(gens)


def _solver_config(args) -> SolverConfig:
    return SolverConfig(
        tolerance=args.tolerance,
        max_iterations=args.max_iterations,
        fast_paths=not args.no_fast_paths,
    )


def _emit_report(args, command: str, config: dict, results: list, wall: float) -> None:
    if getattr(args, "json", False):
        report = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "config": config,
            "results": results,
            "wall_time_s": round(wall, 6),
        }
        print(json.dumps(report, sort_keys=True))


def _cmd_distance(args) -> int:
    rho, omega = _parse_state_pair(args)
    cost_name, cost = _resolve_cost(args)
    cfg = _solver_config(args)
    t0 = time.perf_counter()
    res = solve_min_coupling(rho, omega, cost, cfg)
    wall = time.perf_counter() - t0
    d = math.sqrt(res.optimal_value)
    if not args.json:
        print(f"cost       = {cost_name}")
        print(f"D^2        = {res.optimal_value:.12g}")
        print(f"D          = {d:.12g}")
        print(
            f"status     = {res.solver_status}  gap = {res.duality_gap_or_residual:.3g}"
            f"  iterations = {res.iterations}"
        )
    _emit_report(
        args,
        "distance",
        dataclasses.asdict(cfg),
        [
            {
                "kind": "distance",
                "cost": cost_name,
                "value": d,
                "value_sq": res.optimal_value,
                "solver_status": res.solver_status,
                "duality_gap_or_residual": res.duality_gap_or_residual,
                "iterations": res.iterations,
                "wall_time_s": round(wall, 6),
            }
        ],
        wall,
    )
    return 0 if res.solver_status in ("closed_form", "converged") else 3


def _cmd_divergence(args) -> int:
    rho, omega = _parse_state_pair(args)
    cost_name, cost = _resolve_cost(args)
    cfg = _solver_config(args)
    t0 = time.perf_counter()
    br = divergence_breakdown(rho, omega, cost, cfg)
    wall = time.perf_counter() - t0
    if not args.json:
        print(f"cost             = {cost_name}")
        print(f"d                = {br.divergence:.12g}")
        print(f"d^2 (clamped)    = {max(br.radicand, 0.0):.12g}")
        print(f"radicand         = {br.radicand:.12g}")
        print(f"D^2(rho, omega)  = {br.distance_sq:.12g}")
        print(f"D^2(rho, rho)    = {br.self_distance_sq_first:.12g}")
        print(f"D^2(omega,omega) = {br.self_distance_sq_second:.12g}")
        print(f"status           = {br.solver_status}")
    _emit_report(
        args,
        "divergence",
        dataclasses.asdict(cfg),
        [
            {
                "kind": "divergence",
                "cost": cost_name,
                "value": br.divergence,
                "radicand": br.radicand,
                "distance_sq": br.distance_sq,
                "self_distance_sq": [br.self_distance_sq_first, br.self_distance_sq_second],
                "solver_status": br.solver_status,
                "wall_time_s": round(wall, 6),
            }
        ],
        wall,
    )
    return 0 if br.solver_status in ("closed_form", "converged") else 3


def _cmd_verify(args) -> int:
    t0 = time.perf_counter()
    result = run_suite(args.suite, samples=args.samples, seed=args.seed, tolerance=args.tolerance)
    wall = time.perf_counter() - t0
    if not args.json:
        for c in result.checks:
            status = "PASS" if c.passed else "FAIL"
            print(
                f"[{status}] {c.name}: max deviation {c.max_deviation:.3e} "
                f"(tol {c.tolerance:.1e}, {c.samples} samples)"
            )
            if c.notes:
                print(f"       note: {c.notes}")
            for w in c.witnesses[:5]:
                print(f"       witness: {json.dumps(w, sort_keys=True)}")
        print(f"suite {result.suite}: {'PASS' if result.passed else 'FAIL'} [{wall:.1f}s]")
    _emit_report(
        args,
        "verify",
        {"samples": args.samples, "seed": args.seed},
        [
            {
                "suite": result.suite,
                "passed": result.passed,
                "checks": [dataclasses.asdict(c) for c in result.checks],
            }
        ],
        wall,
    )
    return 0 if result.passed else 1


def _cmd_selfdist_table(args) -> int:
    norms = np.repeat(np.linspace(0.0, 1.0, args.norm_steps), args.b3_steps)
    b3 = norms * np.tile(np.linspace(-1.0, 1.0, args.b3_steps), args.norm_steps)
    bx = np.sqrt(np.maximum(norms * norms - b3 * b3, 0.0))
    blochs = np.stack((bx, np.zeros_like(bx), b3), axis=1)
    table = self_distance_table(blochs, args.cost, norms=norms)
    sdp = table["selfdist_sq_sdp"]
    columns = {
        "bloch_norm": norms,
        "b3": b3,
        **table,
        "abs_diff_purification_sdp": np.abs(table["selfdist_sq_purification"] - sdp),
        "abs_diff_closed_form_sdp": np.abs(table["selfdist_sq_closed_form"] - sdp),
        "abs_diff_published_sdp": np.abs(table["selfdist_sq_published_form"] - sdp),
    }
    out = open(args.output, "w", newline="") if args.output else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(["schema_version", *columns])
        for i in range(len(norms)):
            writer.writerow([SCHEMA_VERSION, *(f"{v[i]:.12g}" for v in columns.values())])
    finally:
        if args.output:
            out.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwasser",
        description="Quantum Wasserstein distances and divergences on the qubit state space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_solver_flags(p):
        p.add_argument("--tolerance", type=float, default=SolverConfig.tolerance, help="certified duality-gap target")
        p.add_argument("--max-iterations", type=int, default=SolverConfig.max_iterations)
        p.add_argument("--no-fast-paths", action="store_true",
                       help="always run the interior-point solve when possible")
        p.add_argument("--json", action="store_true", help="emit a machine-readable report")

    def add_cost_flags(p):
        p.add_argument("--cost", choices=("sym", "z", "custom"), default="sym")
        p.add_argument("--generators", help="JSON list of 2x2 Hermitian matrices ([re,im] entries)")

    p_dist = sub.add_parser("distance", help="transport distance between two states")
    add_cost_flags(p_dist)
    add_solver_flags(p_dist)
    p_dist.add_argument("state1")
    p_dist.add_argument("state2")
    p_dist.set_defaults(func=_cmd_distance)

    p_div = sub.add_parser("divergence", help="self-distance-corrected divergence")
    add_cost_flags(p_div)
    add_solver_flags(p_div)
    p_div.add_argument("state1")
    p_div.add_argument("state2")
    p_div.set_defaults(func=_cmd_divergence)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", choices=SUITE_NAMES)
    p_ver.add_argument("--samples", type=int, default=None)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--tolerance", type=float, default=None)
    p_ver.add_argument("--json", action="store_true")
    p_ver.set_defaults(func=_cmd_verify)

    p_tab = sub.add_parser("selfdist-table", help="self-distance table over a Bloch grid (CSV)")
    p_tab.add_argument("--cost", choices=("sym", "z"), default="z")
    p_tab.add_argument("--norm-steps", type=int, default=11)
    p_tab.add_argument("--b3-steps", type=int, default=5)
    p_tab.add_argument("--output", help="CSV path (default: stdout)")
    p_tab.set_defaults(func=_cmd_selfdist_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (DomainError, ContractViolation) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (QwasserError, np.linalg.LinAlgError) as e:
        # SolverAccuracyError, InternalConsistencyError, or a numerical failure
        # no solver path caught: report it on one line, never as a traceback
        print(f"solver error ({type(e).__name__}): {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
