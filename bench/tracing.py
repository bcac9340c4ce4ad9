"""Span recording around the calls into each qwasser layer, from outside.

Nothing under ``src/`` is edited.  A traced run replaces, for its duration,
every module-level binding of a traced function inside the ``qwasser``
package with a wrapper that records a span.  Modules import each other's
functions by name (``from .transport import solve_min_coupling``), so each
binding is patched separately; calls made through any of them are seen.

Spans live in memory as tuples and are written out when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

# (layer, module, function): the public calls into each layer.
TRACED = (
    ("transport", "qwasser.transport", "solve_min_coupling"),
    ("transport", "qwasser.transport", "divergence_breakdown"),
    ("transport", "qwasser.transport", "wasserstein_distance"),
    ("transport", "qwasser.transport", "wasserstein_divergence"),
    ("transport", "qwasser.transport", "self_distance_sq"),
    ("transport", "qwasser.transport", "product_coupling"),
    ("transport", "qwasser.transport", "purification_coupling"),
    ("transport", "qwasser.transport", "coupling_cost"),
    ("states", "qwasser.states", "validate_state"),
    ("states", "qwasser.states", "state_from_bloch"),
    ("cost", "qwasser.cost", "build_cost"),
    ("linalg", "qwasser.linalg", "sqrt_psd"),
    ("isometry", "qwasser.isometry", "check_isometry"),
    ("isometry", "qwasser.isometry", "apply_state_map"),
    ("isometry", "qwasser.isometry", "theorem_crosscheck_dz"),
    ("isometry", "qwasser.isometry", "dz_condition_report"),
    ("verify", "qwasser.verify", "run_suite"),
    ("oracle", "qwasser.oracle", "oracle_min_coupling"),
    ("oracle", "qwasser.oracle", "project_to_couplings"),
    # scipy's minimizer as the oracle module calls it; counts calls and nfev
    ("oracle", "qwasser.oracle", "minimize"),
)

# Index of each field in a span tuple.
NAME, START, END, PARENT, REQUEST, ATTRS = range(6)


def _qwasser_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "qwasser" or n.startswith("qwasser."))]


@contextmanager
def patched(replacements):
    """Rebind every qwasser-module name bound to each original; undo on exit.

    `replacements` yields (original, wrapper) pairs.
    """
    saved = []
    modules = _qwasser_modules()
    try:
        for original, wrapper in replacements:
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        saved.append((mod, key, value))
                        setattr(mod, key, wrapper)
        yield
    finally:
        for mod, key, value in reversed(saved):
            setattr(mod, key, value)


@contextmanager
def observe_gaps(stats):
    """Feed the gap of every solve_min_coupling result into `stats.gap`."""
    solve = sys.modules["qwasser.transport"].solve_min_coupling

    def observed(*args, **kwargs):
        result = solve(*args, **kwargs)
        stats.gap(result.duality_gap_or_residual)
        return result

    with patched([(solve, observed)]):
        yield


def _attrs(name: str, result) -> dict | None:
    """Counts read off a call's result, kept next to the span."""
    if name == "transport.solve_min_coupling":
        return {
            "status": result.solver_status,
            "iterations": result.iterations,
            "gap": result.duality_gap_or_residual,
        }
    if name == "oracle.minimize":
        return {"nfev": int(result.nfev)}
    return None


class Tracer:
    """In-memory spans: (name, start, end, parent index, request id, attrs)."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.request = None
        self.active = True

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.request, None)
            attrs = _attrs(name, result)
            if attrs is not None:
                spans[idx] = (name, start, end, parent, self.request, attrs)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code, such as one operation."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.request, None)

    def installed(self):
        """Wrap every binding of each traced function while the block runs."""
        originals = [(f"{layer}.{attr}", getattr(sys.modules[module], attr))
                     for layer, module, attr in TRACED]
        return patched([(fn, self._wrap(name, fn)) for name, fn in originals])

    @contextmanager
    def paused(self):
        """Let traced functions run unrecorded, e.g. while outputs are checked."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def self_times(self) -> list:
        """Per span: duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] is not None:
                child[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def write(self, path) -> None:
        """One JSON array per line: name, start, end, parent, request, attrs."""
        with open(path, "w") as out:
            for s in self.spans:
                out.write(json.dumps(s, separators=(",", ":")))
                out.write("\n")
