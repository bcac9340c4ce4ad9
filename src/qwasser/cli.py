"""Command-line interface: distances, divergences, verification suites, tables.

States are given as named constants (plus_z, minus_z, plus_x, plus_y,
maximally_mixed), as ``bloch:x,y,z``, or as inline JSON:

    {"bloch": [0.3, 0.0, -0.2]}
    {"matrix": [[re, im], [re, im], [re, im], [re, im]]}   # row-major 2x2
    {"named": "plus_z"}

A single positional state may be ``-`` to read its JSON spec from stdin.

Exit codes: 0 success / converged, 1 failed verification checks,
2 parse or domain errors, 3 solver non-convergence or any other solver error,
141 (128 + SIGPIPE) when the reader closes stdout early, with nothing on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import os
import re
import sys
import time

import numpy as np

from .cost import CostOperator, build_cost, sym_cost, z_cost
from .errors import ContractViolation, DomainError, QwasserError, require_integer
from .states import NAMED_BLOCH, named_state, state_from_bloch, validate_state
from .transport import SolverConfig, divergence_breakdown, solve_min_coupling
from .verify import SUITE_NAMES, run_suite, self_distance_table

SCHEMA_VERSION = 1


def _load_json(text: str, where: str):
    """Parse JSON text.  Every number becomes a float, so `_numbers` checks for
    one type, and a huge integer reads as inf (rejected later) without raising."""
    try:
        return json.loads(text, parse_int=float)
    except (json.JSONDecodeError, RecursionError) as e:
        raise DomainError(f"{where}: invalid JSON: {e}") from e


def _numbers(obj, shape: tuple, message: str) -> np.ndarray:
    """`obj`, read by `_load_json`, as a float array of `shape` (None: any
    nonzero length); DomainError(message) unless it nests numbers that way."""

    def fits(x, dims) -> bool:
        if not dims:
            return isinstance(x, float)
        return (isinstance(x, list) and len(x) > 0 and dims[0] in (None, len(x))
                and all(fits(v, dims[1:]) for v in x))

    if not fits(obj, shape):
        raise DomainError(message)
    return np.array(obj)


def _state_from_json(obj, where: str) -> np.ndarray:
    if not isinstance(obj, dict):
        raise DomainError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    keys = set(obj) & {"bloch", "matrix", "named"}
    if len(keys) != 1:
        raise DomainError(f"{where}: give exactly one of 'bloch', 'matrix', 'named'")
    if "named" in obj:
        return named_state(obj["named"])
    if "bloch" in obj:
        return state_from_bloch(_numbers(obj["bloch"], (3,), f"{where}: 'bloch' must be a list of three reals"))
    m = _numbers(obj["matrix"], (4, 2), f"{where}: 'matrix' must list 4 row-major [re, im] pairs of reals")
    return validate_state(m.view(complex).reshape(2, 2), where)


def parse_state_spec(spec: str, where: str, stdin_text: str | None = None) -> np.ndarray:
    if spec == "-" and not (stdin_text or "").strip():
        raise DomainError(f"{where}: '-' given but stdin is empty")
    if spec == "-" or spec.lstrip().startswith("{"):
        return _state_from_json(_load_json(stdin_text if spec == "-" else spec, where), where)
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
    raise DomainError(
        f"{where}: unrecognized state spec {spec!r}; use a named state "
        f"{sorted(NAMED_BLOCH)}, bloch:x,y,z, inline JSON, or '-'"
    )


def _resolve_cost(args) -> tuple[str, CostOperator]:
    if args.cost == "sym":
        return "sym", sym_cost()
    if args.cost == "z":
        return "z", z_cost()
    if not args.generators:
        raise DomainError("--cost custom requires --generators JSON")
    gens = _numbers(_load_json(args.generators, "--generators"), (None, 2, 2, 2),
                    "--generators must be a nonempty JSON list of 2x2 matrices of [re, im] pairs of reals")
    return "custom", build_cost(gens.view(complex).reshape(-1, 2, 2))


def _report(args, config: dict, lines: list, result: dict, wall: float) -> None:
    """Print the text lines, or with --json the versioned report of `result`."""
    if not args.json:
        print("\n".join(lines))
        return
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "config": config,
        "results": [result],
        "wall_time_s": round(wall, 6),
    }
    print(json.dumps(report, sort_keys=True))


def _cmd_pair(args) -> int:
    stdin_text = None
    if "-" in (args.state1, args.state2):
        if args.state1 == "-" and args.state2 == "-":
            raise DomainError("only one positional state may read from stdin")
        stdin_text = sys.stdin.read()
    rho = parse_state_spec(args.state1, "state1", stdin_text)
    omega = parse_state_spec(args.state2, "state2", stdin_text)
    cost_name, cost = _resolve_cost(args)
    cfg = SolverConfig(
        tolerance=args.tolerance,
        max_iterations=args.max_iterations,
        fast_paths=not args.no_fast_paths,
    )
    distance = args.command == "distance"
    t0 = time.perf_counter()
    res = (solve_min_coupling if distance else divergence_breakdown)(rho, omega, cost, cfg)
    wall = time.perf_counter() - t0
    if distance:
        d = math.sqrt(res.optimal_value)
        lines = [
            f"cost       = {cost_name}",
            f"D^2        = {res.optimal_value:.12g}",
            f"D          = {d:.12g}",
            f"status     = {res.solver_status}  gap = {res.duality_gap_or_residual:.3g}"
            f"  iterations = {res.iterations}",
        ]
        fields = {
            "value": d,
            "value_sq": res.optimal_value,
            "duality_gap_or_residual": res.duality_gap_or_residual,
            "iterations": res.iterations,
        }
    else:
        lines = [
            f"cost             = {cost_name}",
            f"d                = {res.divergence:.12g}",
            f"d^2 (clamped)    = {max(res.radicand, 0.0):.12g}",
            f"radicand         = {res.radicand:.12g}",
            f"D^2(rho, omega)  = {res.distance_sq:.12g}",
            f"D^2(rho, rho)    = {res.self_distance_sq_first:.12g}",
            f"D^2(omega,omega) = {res.self_distance_sq_second:.12g}",
            f"status           = {res.solver_status}",
        ]
        fields = {
            "value": res.divergence,
            "radicand": res.radicand,
            "distance_sq": res.distance_sq,
            "self_distance_sq": [res.self_distance_sq_first, res.self_distance_sq_second],
        }
    result = {
        "kind": args.command,
        "cost": cost_name,
        **fields,
        "solver_status": res.solver_status,
        "wall_time_s": round(wall, 6),
    }
    _report(args, dataclasses.asdict(cfg), lines, result, wall)
    return 0 if res.solver_status in ("closed_form", "converged") else 3


def _cmd_verify(args) -> int:
    t0 = time.perf_counter()
    result = run_suite(args.suite, samples=args.samples, seed=args.seed, tolerance=args.tolerance)
    wall = time.perf_counter() - t0
    lines = []
    for c in result.checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(
            f"[{status}] {c.name}: max deviation {c.max_deviation:.3e} "
            f"(tol {c.tolerance:.1e}, {c.samples} samples)"
        )
        if c.notes:
            lines.append(f"       note: {c.notes}")
        lines += [f"       witness: {json.dumps(w, sort_keys=True)}" for w in c.witnesses[:5]]
    lines.append(f"suite {result.suite}: {'PASS' if result.passed else 'FAIL'} [{wall:.1f}s]")
    _report(
        args,
        {"samples": result.samples, "seed": result.seed, "tolerance": result.tolerance},
        lines,
        {
            "suite": result.suite,
            "passed": result.passed,
            "checks": [dataclasses.asdict(c) for c in result.checks],
        },
        wall,
    )
    return 0 if result.passed else 1


def _cmd_selfdist_table(args) -> int:
    for flag, steps in (("--norm-steps", args.norm_steps), ("--b3-steps", args.b3_steps)):
        require_integer(flag, steps, 0)
    norms = np.repeat(np.linspace(0.0, 1.0, args.norm_steps), args.b3_steps)
    b3 = norms * np.tile(np.linspace(-1.0, 1.0, args.b3_steps), args.norm_steps) + 0.0  # -0.0 -> 0.0
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
    try:
        out = open(args.output, "w", newline="") if args.output else contextlib.nullcontext(sys.stdout)
    except OSError as e:
        raise DomainError(f"--output: cannot write {args.output!r}: {e.strerror}") from e
    with out as f:
        writer = csv.writer(f)
        writer.writerow(["schema_version", *columns])
        for i in range(len(norms)):
            writer.writerow([SCHEMA_VERSION, *(f"{v[i]:.12g}" for v in columns.values())])
    return 0


# Every form of a negative float literal: -1, -1.5, -.5, -1e-6, -inf, -nan.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that takes every negative float literal as a value
    and reports a parse error on one line.

    argparse's own pattern misses the exponent form, so `--tolerance -1e-6`
    would be read as an unknown option and never reach the domain checks.
    Subparsers are built with the same class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qwasser",
        description="Quantum Wasserstein distances and divergences on the qubit state space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (("distance", "transport distance between two states"),
                            ("divergence", "self-distance-corrected divergence")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--cost", choices=("sym", "z", "custom"), default="sym")
        p.add_argument("--generators", help="JSON list of 2x2 Hermitian matrices ([re,im] entries)")
        p.add_argument("--tolerance", type=float, default=SolverConfig.tolerance, help="certified duality-gap target")
        p.add_argument("--max-iterations", type=int, default=SolverConfig.max_iterations)
        p.add_argument("--no-fast-paths", action="store_true",
                       help="solve identical states by the interior-point method too "
                            "(a pure marginal always takes its exact singleton coupling)")
        p.add_argument("--json", action="store_true", help="emit a machine-readable report")
        p.add_argument("state1")
        p.add_argument("state2")
        p.set_defaults(func=_cmd_pair)

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
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not in the flush at exit
        return code
    except BrokenPipeError:
        # the reader stopped early (`| head`): end quietly, and send what is
        # still buffered to devnull so that the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE, as a shell reports a process the pipe killed
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
