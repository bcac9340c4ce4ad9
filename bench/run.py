"""qwasser benchmark: one seeded workload per run, outputs checked.

    python3 bench/run.py --workload pairs --seed 1 --seconds 25 --trace 0

Workloads: pairs, verify, cli-cold, oracle (see workloads.py).  One caller
runs the workload single-threaded in a closed loop, with QWASSER_THREADS
unset.  `--trace 0` measures the end-to-end metrics with tracing off;
`--trace 1` runs each operation of a fixed list twice, untraced and traced,
and reports the per-layer metrics.  Human-readable lines come first; the
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 1 when any reference check fails and 2 when the package
sources are missing from the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from tracing import ATTRS, END, NAME, PARENT, REQUEST, START, Tracer, observe_gaps

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOAD_NAMES = ("pairs", "verify", "cli-cold", "oracle")
#: fresh interpreters per run whose median gives setup_s
SETUP_SAMPLES = 5
SETUP_CODE = (
    "import time; t = time.perf_counter(); import qwasser; "
    "qwasser.sym_cost(); qwasser.z_cost(); print(time.perf_counter() - t)"
)
IMPORT_SAMPLES = 3
IMPORT_CODE = "import time; t = time.perf_counter(); import qwasser.cli; print(time.perf_counter() - t)"
COST_BUILD_SAMPLES = 50
#: traced runs execute a fixed number of groups, so their counts repeat
#: exactly for a seed; a traced run takes roughly 25 to 50 s
TRACE_GROUPS = {"pairs": 500, "verify": 1, "cli-cold": 12, "oracle": 1}
SOLVER_STATUSES = ("converged", "closed_form", "max_iterations")


def p50(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def percentile(xs, q: float) -> float:
    return float(np.percentile(xs, q)) if xs else 0.0


def fresh_python(args: list, env: dict, cwd) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"{args!r} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc


def measure_setup(wl) -> float:
    """Median time to import qwasser and build both costs in a fresh interpreter."""
    env = wl.child_env()
    return p50([float(fresh_python(["-c", SETUP_CODE], env, wl.ROOT).stdout)
                for _ in range(SETUP_SAMPLES)])


def measure_imports(wl) -> tuple:
    """(import qwasser.cli ms, cumulative qwasser.oracle ms from -X importtime), medians."""
    env = wl.child_env()
    total = [float(fresh_python(["-c", IMPORT_CODE], env, wl.ROOT).stdout) * 1e3
             for _ in range(IMPORT_SAMPLES)]
    oracle = []
    for _ in range(IMPORT_SAMPLES):
        err = fresh_python(["-X", "importtime", "-c", "import qwasser.cli"], env, wl.ROOT).stderr
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "qwasser.oracle":
                oracle.append(int(parts[1]) / 1e3)
    return p50(total), p50(oracle)


def measure_cost_build(wl) -> float:
    """Median ms to build the sym and z cost operators in a warm interpreter."""
    times = []
    for _ in range(COST_BUILD_SAMPLES):
        t = time.perf_counter()
        wl.cost.sym_cost()
        wl.cost.z_cost()
        times.append(time.perf_counter() - t)
    return p50(times) * 1e3


def execute(op, tracer=None) -> tuple:
    """Time one operation, then check its output: (seconds, ok)."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = op.call()
        else:
            with tracer.span("op"):
                result = op.call()
    except Exception:  # a raising operation counts as failed; keep running
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - t0, False
    elapsed = time.perf_counter() - t0
    try:
        if tracer is None:
            ok = bool(op.check(result))
        else:
            with tracer.paused():
                ok = bool(op.check(result))
    except Exception:  # a check that cannot read the output is a failed check
        traceback.print_exc(file=sys.stderr)
        ok = False
    if not ok:
        print(f"check failed: {op.name} ({op.tag})", file=sys.stderr)
    return elapsed, ok


def closed_loop(workload, seconds: float) -> tuple:
    """Run groups until the next one would end past `seconds`: (records, groups)."""
    records = []
    start = time.perf_counter()
    groups = 0
    while True:
        for op in workload.group(groups):
            records.append((op, *execute(op)))
        groups += 1
        elapsed = time.perf_counter() - start
        if elapsed * (groups + 1) / groups > seconds:
            return records, groups


def end_to_end(args, wl, workload, stats) -> tuple:
    setup_s = measure_setup(wl)
    wl.warm_up()
    if args.workload == "cli-cold":
        records, groups = closed_loop(workload, args.seconds)
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        with observe_gaps(stats):
            records, groups = closed_loop(workload, args.seconds)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    lat = [r[1] for r in records]
    failed = sum(1 for r in records if not r[2])
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "gap_p99": (percentile(stats.gaps, 99), "1"),
    }
    # the figures under the names each workload's reader looks for; medians
    # and maxima are printed, not gated: on a shared machine they spread
    # more from run to run than the bounds allow
    p50_ms = (p50(lat) * 1e3, "ms")
    max_gap = (max(stats.gaps, default=0.0), "1")
    named = {
        "pairs": [("solves_per_s", metrics["ops_per_s"]), ("solve_ms_p50", p50_ms),
                  ("solve_ms_p99", (percentile(lat, 99) * 1e3, "ms")), ("max_gap", max_gap)],
        "verify": [("verify_wall_s", (sum(lat) / groups, "s")), ("suite_ms_p50", p50_ms),
                   ("max_gap", max_gap)],
        "cli-cold": [("cli_ms_p50", p50_ms), ("max_gap", max_gap)],
        "oracle": [("oracle_s_per_pair", (sum(lat) / len(lat), "s")), ("pair_ms_p50", p50_ms),
                   ("max_gap", max_gap)],
    }[args.workload]
    named += [(name, metrics[name]) for name in metrics]
    named.append(("failed_frac", (failed / len(lat), "1")))
    for name, (value, unit) in named:
        print(f"{args.workload}  {name} = {value:.6g} {unit}")
    print(f"{args.workload}  ops = {len(lat)} in {groups} groups")
    return metrics, len(records), failed


def _spans_by(tracer, name):
    return [i for i, s in enumerate(tracer.spans) if s[NAME] == name]


def layer_metrics(args, wl, tracer, tags, stats, untraced, traced) -> dict:
    spans = tracer.spans
    self_t = tracer.self_times()
    dur = [s[END] - s[START] for s in spans]
    in_verify = []
    for s in spans:
        in_verify.append(s[NAME] == "verify.run_suite"
                         or (s[PARENT] is not None and in_verify[s[PARENT]]))

    def layer(i):
        return spans[i][NAME].split(".", 1)[0]

    # a solve that raised has no result to read
    solves = [i for i in _spans_by(tracer, "transport.solve_min_coupling") if spans[i][ATTRS]]
    m = {}
    for stratum in ("ball", "shell"):
        sel = [i for i in solves if tags.get(spans[i][REQUEST]) == stratum]
        iters = [spans[i][ATTRS]["iterations"] for i in sel]
        m[f"transport.solve_ms_p50.{stratum}"] = (p50([dur[i] for i in sel]) * 1e3, "ms")
        m[f"transport.newton_iters_p50.{stratum}"] = (p50(iters), "count")
        m[f"transport.newton_iters_max.{stratum}"] = (max(iters, default=0), "count")
        m[f"transport.gap_max.{stratum}"] = (
            max((spans[i][ATTRS]["gap"] for i in sel), default=0.0), "1")
    m["transport.divergence_ms_p50"] = (
        p50([dur[i] for i in _spans_by(tracer, "transport.divergence_breakdown")]) * 1e3, "ms")
    for status in SOLVER_STATUSES:
        m[f"transport.status.{status}"] = (
            sum(1 for i in solves if spans[i][ATTRS]["status"] == status), "count")
    vsolves = [i for i in solves if in_verify[i]]
    m["transport.calls.verify"] = (len(vsolves), "count")
    m["transport.self_s.verify"] = (
        sum(self_t[i] for i in range(len(spans)) if in_verify[i] and layer(i) == "transport"), "s")
    m["transport.closed_form_frac.verify"] = (
        sum(1 for i in vsolves if spans[i][ATTRS]["status"] == "closed_form")
        / len(vsolves) if vsolves else 0.0, "1")

    m["isometry.check_calls"] = (len(_spans_by(tracer, "isometry.check_isometry")), "count")
    m["isometry.self_s"] = (sum(t for i, t in enumerate(self_t) if layer(i) == "isometry"), "s")
    m["isometry.apply_map_calls"] = (len(_spans_by(tracer, "isometry.apply_state_map")), "count")

    suites = _spans_by(tracer, "verify.run_suite")
    for suite in wl.verify.SUITE_NAMES:
        sel = [dur[i] for i in suites if tags.get(spans[i][REQUEST]) == suite]
        m[f"verify.suite_s.{suite}"] = (sum(sel) / len(sel) if sel else 0.0, "s")
    m["verify.self_s"] = (sum(self_t[i] for i in suites), "s")

    per_pair: dict = {}
    for i in _spans_by(tracer, "oracle.oracle_min_coupling"):
        per_pair[spans[i][REQUEST]] = per_pair.get(spans[i][REQUEST], 0.0) + dur[i]
    minimize = _spans_by(tracer, "oracle.minimize")
    m["oracle.pair_s_p50"] = (p50(list(per_pair.values())), "s")
    m["oracle.minimize_calls"] = (len(minimize), "count")
    m["oracle.fun_evals"] = (sum(spans[i][ATTRS]["nfev"] for i in minimize), "count")
    m["oracle.project_s"] = (sum(dur[i] for i in _spans_by(tracer, "oracle.project_to_couplings")), "s")
    m["oracle.max_dev_vs_solver"] = (stats.max_oracle_dev, "1")

    import_ms, oracle_import_ms = measure_imports(wl)
    run_ms = p50(untraced) * 1e3 - import_ms if args.workload == "cli-cold" else 0.0
    m["cli.import_ms_p50"] = (import_ms, "ms")
    m["cli.import_ms.qwasser.oracle"] = (oracle_import_ms, "ms")
    m["cli.run_ms_p50"] = (run_ms, "ms")

    m["cost.build_ms"] = (measure_cost_build(wl), "ms")
    m["states.validate_us_p50"] = (
        p50([dur[i] for i in _spans_by(tracer, "states.validate_state")]) * 1e6, "us")
    m["states.from_bloch_us_p50"] = (
        p50([dur[i] for i in _spans_by(tracer, "states.state_from_bloch")]) * 1e6, "us")
    sqrt = _spans_by(tracer, "linalg.sqrt_psd")
    m["linalg.sqrt_psd_calls"] = (len(sqrt), "count")
    m["linalg.sqrt_psd_self_s"] = (sum(self_t[i] for i in sqrt), "s")
    m["tracing.overhead_frac"] = ((sum(traced) - sum(untraced)) / sum(untraced), "1")
    return m


def traced_run(args, wl, workload, stats) -> tuple:
    """Each operation runs twice, untraced and traced, in alternating order,
    so that the machine's drift over a run does not enter the overhead."""
    wl.warm_up()
    tracer = Tracer()
    tags = {}
    untraced, traced = [], []
    failed = 0
    for g in range(TRACE_GROUPS[args.workload]):
        with tracer.installed():
            ops = workload.group(g)  # input generation is traced too
        for op in ops:
            for traced_turn in ((False, True) if len(traced) % 2 else (True, False)):
                if traced_turn:
                    with tracer.installed():
                        tracer.request = len(traced)
                        tags[tracer.request] = op.tag
                        elapsed, ok = execute(op, tracer)
                        tracer.request = None
                    traced.append(elapsed)
                else:
                    elapsed, ok = execute(op)
                    untraced.append(elapsed)
                failed += not ok

    out = wl.ROOT / "bench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(path)
    print(f"{args.workload}  {len(tracer.spans)} spans written to {path.relative_to(wl.ROOT)}")
    metrics = layer_metrics(args, wl, tracer, tags, stats, untraced, traced)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}  {name} = {value:.6g} {unit}")
    return metrics, len(untraced) + len(traced), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qwasser" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("QWASSER_THREADS", None)
    sys.path.insert(0, str(SRC))
    import scipy

    import workloads as wl

    print(f"env  nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={np.__version__} scipy={scipy.__version__} QWASSER_THREADS=unset")
    stats = wl.Stats()
    workload = {"pairs": wl.Pairs, "verify": wl.Verify, "cli-cold": wl.CliCold,
                "oracle": wl.Oracle}[args.workload](args.seed, stats)
    run = traced_run if args.trace else end_to_end
    metrics, attempted, failed = run(args, wl, workload, stats)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
