"""Layer spans for a traced benchmark run.

The tracer wraps each public function of ``mvindex`` at the name its caller
looks up (``mvindex.cli.greedy_select`` is looked up by the CLI,
``mvindex.selector.objective_value`` by the greedy loop, ``CostContext``
methods on the class), so the program itself carries no instrumentation.
Spans (invocation, id, name, start, end, parent) are kept in memory and
written out once the run ends.  ``CostContext.query_cost`` runs millions of
times per greedy invocation, so a lighter wrapper counts and times it and
charges it to its parent like a span, but keeps no span record.  Self times
still include the tracer's own work around each child call;
``trace.overhead_s`` reports the total cost of tracing.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import mvindex.baselines
import mvindex.cli
import mvindex.selector
from mvindex.costmodel import CostContext

# (module or class, attribute, span name, keep span records)
PATCH_POINTS = (
    (mvindex.cli, "load_catalog", "catalog.load", True),
    (mvindex.cli, "load_workload", "workload.load", True),
    (mvindex.cli, "load_candidates", "candidates.generate", True),
    (mvindex.cli, "generate_view_candidates", "candidates.generate", True),
    (mvindex.cli, "generate_index_candidates", "candidates.generate", True),
    (mvindex.cli, "build_matrices", "candidates.matrices", True),
    (mvindex.cli, "enumerate_objects", "selector.enumerate", True),
    (mvindex.selector, "enumerate_objects", "selector.enumerate", True),
    (mvindex.selector, "greedy_core", "selector.greedy", True),
    (mvindex.baselines, "greedy_core", "selector.greedy", True),
    (mvindex.selector, "objective_value", "benefit.objective", True),
    (mvindex.cli, "isolated_select", "baselines.isolated", True),
    (mvindex.cli, "workload_cost", "costmodel.report", True),
    (CostContext, "__init__", "costmodel.context_build", True),
    (CostContext, "workload_total", "costmodel.workload_total", True),
    (CostContext, "query_cost", "costmodel.query_cost", False),
)

ROOT_SPAN = "cli.main"


class Tracer:
    """Collects spans and per-invocation call counts, self and total times."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span id, start, child seconds]
        self._next_id = 0
        self.invocation = 0
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.values: Counter = Counter()

    def _reset(self):
        # cleared in place: the wrappers hold references to these
        self.calls.clear()
        self.total_s.clear()
        self.self_s.clear()
        self.values.clear()  # counts read off results

    def wrap(self, name: str, fn):
        clock = time.perf_counter
        stack = self._stack
        observe = _OBSERVERS.get(name)

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[2]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += duration
                self.spans.append(
                    (self.invocation, span_id, name, frame[1], end,
                     parent[0] if parent is not None else None)
                )
            if observe is not None:
                observe(self.values, result, args)
            return result

        return traced

    def count(self, name: str, fn):
        """Cheaper wrapper for hot leaf calls: counted and timed, no span record."""
        clock = time.perf_counter
        stack = self._stack
        calls, total = self.calls, self.total_s

        def counted(*args):
            start = clock()
            result = fn(*args)
            duration = clock() - start
            calls[name] += 1
            total[name] += duration
            stack[-1][2] += duration
            return result

        return counted

    def invoke(self, fn, *args) -> tuple[object, dict]:
        """Run one root call under a ``cli.main`` span; return its result and layer stats."""
        self.invocation += 1
        self._reset()
        result = self.wrap(ROOT_SPAN, fn)(*args)
        stats = {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "values": dict(self.values),
        }
        return result, stats

    @contextmanager
    def patched(self):
        """Install the wrappers at every patch point; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name, keep in PATCH_POINTS:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original) if keep else self.count(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write every kept span as one JSON list per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _observe_workload(values, result, args):
    values["workload.queries"] += len(result.queries)


def _observe_matrices(values, result, args):
    values["candidates.views"] += len(result.view_ids)
    values["candidates.indexes"] += len(result.index_ids)
    values["candidates.vi_pairs"] += result.pair_count()


def _observe_greedy(values, result, args):
    values["selector.steps"] += len(result.iterations)
    values["selector.objects"] += len(args[1])


def _observe_objective(values, result, args):
    if result > 0.0:
        values["benefit.positive"] += 1


_OBSERVERS = {
    "workload.load": _observe_workload,
    "candidates.matrices": _observe_matrices,
    "selector.greedy": _observe_greedy,
    "benefit.objective": _observe_objective,
}


def layer_metrics(stats: dict) -> dict[str, float]:
    """Per-layer metrics of one traced invocation.

    ``_s`` metrics marked (self) in the benchmark's README subtract child
    spans; the others are inclusive.
    """
    calls, total, own, values = stats["calls"], stats["total_s"], stats["self_s"], stats["values"]
    objective_calls = calls.get("benefit.objective", 0)
    steps = values.get("selector.steps", 0)
    return {
        "catalog.load_s": total.get("catalog.load", 0.0),
        "workload.load_s": total.get("workload.load", 0.0),
        "workload.queries": values.get("workload.queries", 0),
        "candidates.generate_s": total.get("candidates.generate", 0.0),
        "candidates.matrices_s": total.get("candidates.matrices", 0.0),
        "candidates.views": values.get("candidates.views", 0),
        "candidates.indexes": values.get("candidates.indexes", 0),
        "candidates.vi_pairs": values.get("candidates.vi_pairs", 0),
        "costmodel.context_builds": calls.get("costmodel.context_build", 0),
        "costmodel.context_build_s": total.get("costmodel.context_build", 0.0),
        "costmodel.query_cost_calls": calls.get("costmodel.query_cost", 0),
        "costmodel.query_cost_s": total.get("costmodel.query_cost", 0.0),
        "costmodel.workload_total_calls": calls.get("costmodel.workload_total", 0),
        "costmodel.workload_total_s": own.get("costmodel.workload_total", 0.0),
        "costmodel.report_s": total.get("costmodel.report", 0.0),
        "benefit.objective_calls": objective_calls,
        "benefit.objective_s": own.get("benefit.objective", 0.0),
        "benefit.positive_ratio": values.get("benefit.positive", 0) / max(objective_calls, 1),
        "selector.greedy_runs": calls.get("selector.greedy", 0),
        "selector.steps": steps,
        "selector.objects": values.get("selector.objects", 0),
        "selector.enumerate_s": total.get("selector.enumerate", 0.0),
        "selector.greedy_s": own.get("selector.greedy", 0.0),
        "selector.evals_per_step": objective_calls / max(steps, 1),
        "baselines.isolated_runs": calls.get("baselines.isolated", 0),
        "baselines.isolated_s": total.get("baselines.isolated", 0.0),
        "cli.self_s": own.get(ROOT_SPAN, 0.0),
    }


LAYER_METRICS = tuple(layer_metrics({"calls": {}, "total_s": {}, "self_s": {}, "values": {}}))
