"""Spans around calls into cliquelab's layers, installed from outside the package.

Each traced function is replaced, for the duration of a traced round, by a
wrapper under the name its caller looks it up by: `verify` imported
`den_leq_k` into its own namespace, so the wrapper goes on
`cliquelab.verify.den_leq_k`, not on `cliquelab.oracles`.  Spans are kept per
thread, because `verify --threads` runs trials on a pool and `solve
--budget-ms` runs the solver on a thread of its own; work handed to another
thread records the handing span as its parent.  A span's self time is its
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable

# (module or module:Class, attribute, span name).  The span name is the layer
# and the public function; the attribute is where the caller finds it.
TRACED = (
    ("cliquelab.cli", "sample_er", "ensembles.sample_er"),
    ("cliquelab.verify", "sample_er", "ensembles.sample_er"),
    ("cliquelab.cli", "sample_planted", "ensembles.sample_planted"),
    ("cliquelab.verify", "sample_planted", "ensembles.sample_planted"),
    ("cliquelab.rgp", "sample_family", "rgp.sample_family"),
    ("cliquelab.verify", "sample_family", "rgp.sample_family"),
    ("cliquelab.rgp", "product_graph", "rgp.product_graph"),
    ("cliquelab.cli", "check_edge_rule", "rgp.check_edge_rule"),
    ("cliquelab.verify", "check_edge_rule", "rgp.check_edge_rule"),
    ("cliquelab.verify", "implied_edges", "rgp.implied_edges"),
    ("cliquelab.graph:Graph", "from_bool_matrix", "graph.from_bool_matrix"),
    ("cliquelab.graph:Graph", "to_bool_matrix", "graph.to_bool_matrix"),
    ("cliquelab.verify", "den_leq_k", "oracles.den_leq_k"),
    ("cliquelab.oracles", "max_clique", "oracles.max_clique"),
    ("cliquelab.verify", "clopper_pearson", "verify.clopper_pearson"),
    ("cliquelab.verify", "_run_trials", "verify.run_trials"),
    ("cliquelab.cli", "_with_budget", "cli.with_budget"),
    ("cliquelab.cli", "load_graph", "formats.load_graph"),
    ("cliquelab.cli", "dump_graph", "formats.dump_graph"),
    ("cliquelab.cli", "dump_family", "formats.dump_family"),
)

# Calls that are counted but get no span of their own, so that their time
# stays in the caller's self time: clopper_pearson's cost is its binom_cdf
# calls.
COUNTED = (("cliquelab.verify", "binom_cdf", "exactmath.binom_cdf"),)

# Functions that hand a callable to another thread: the position of that
# argument, and the span its calls are recorded under.  Those spans name no
# layer; they carry the parent across the thread boundary.
TRIAL_SPAN = "verify.trial"
HANDOFFS = {
    "verify.run_trials": (1, TRIAL_SPAN),
    "cli.with_budget": (2, "cli.budget_work"),
}
CONTAINERS = tuple(HANDOFFS) + tuple(span for _, span in HANDOFFS.values())


def _count_results(tracer: "Tracer", name: str, result: Any) -> None:
    if name == "rgp.product_graph":
        tracer.counts["rgp.product_edges"] += result.m
    elif name == "rgp.check_edge_rule":
        tracer.counts["rgp.pairs_checked"] += result.pairs_checked
    elif name == "oracles.max_clique":
        tracer.counts["oracles.omega"] += len(result)


class Tracer:
    """Collects (id, parent, name, thread, start, end) spans and counters."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, float, float]] = []
        self.counts: Counter[str] = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name: str, fn: Callable, args, kwargs, parent: int | None = None):
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else 0
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            if name in HANDOFFS:
                pos, child = HANDOFFS[name]
                handed = self._handoff(child, args[pos], sid)
                args = args[:pos] + (handed,) + args[pos + 1 :]
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, threading.get_ident(), start, end))
        with self._lock:
            self.counts[name + ".calls"] += 1
            _count_results(self, name, result)
        return result

    def _handoff(self, name: str, fn: Callable, parent: int) -> Callable:
        """fn wrapped in a span whose parent is the span that handed it over."""

        def run(*args, **kwargs):
            return self._call(name, fn, args, kwargs, parent=parent)

        return run

    def _wrap(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return wrapper

    def _count(self, name: str, fn: Callable) -> Callable:
        def counted(*args, **kwargs):
            with self._lock:
                self.counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        for targets, make in ((TRACED, self._wrap), (COUNTED, self._count)):
            for target, attr, name in targets:
                module, _, cls = target.partition(":")
                owner = importlib.import_module(module)
                if cls:
                    owner = getattr(owner, cls)
                raw = owner.__dict__[attr]
                self._saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(make(name, raw.__func__)))
                else:
                    setattr(owner, attr, make(name, raw))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def to_json(self) -> dict[str, Any]:
        return {
            "spans": [list(s) for s in self.spans],
            "counts": dict(self.counts),
        }


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _sid, parent, _name, _thread, start, end in spans:
        children[parent].append((start, end))
    return {
        sid: (end - start) - _covered(children[sid], start, end)
        for sid, _parent, _name, _thread, start, end in spans
    }


def layer_figures(
    spans: list[list], op_windows: list[tuple[float, float]]
) -> dict[str, float]:
    """Self seconds per span name, run_trials overlap and the uncovered share.

    The uncovered share is the part of the op windows during which no layer
    span (any span but the containers) was running on any thread.
    """
    own = self_times(spans)
    by_name: dict[str, float] = defaultdict(float)
    durations: dict[str, float] = defaultdict(float)
    layer_intervals = []
    for sid, _parent, name, _thread, start, end in spans:
        by_name[name] += own[sid]
        durations[name] += end - start
        if name not in CONTAINERS:
            layer_intervals.append((start, end))
    wall = sum(hi - lo for lo, hi in op_windows)
    covered = sum(_covered(layer_intervals, lo, hi) for lo, hi in op_windows)
    pool = durations["verify.run_trials"]
    return {
        "self_s": dict(by_name),
        "run_trials_overlap": durations[TRIAL_SPAN] / pool if pool else 0.0,
        "uncovered_share": 1.0 - covered / wall if wall else 0.0,
    }
