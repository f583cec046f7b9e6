"""Command-line front end: load inputs, run one strategy or a budget sweep.

Exit codes: 0 success, 1 input or usage error, 2 budget constraint error.
Reports are byte-identical across runs with identical inputs.
"""

from __future__ import annotations

import argparse
import functools
import gc
import itertools
import math
import os
import sys
from contextlib import nullcontext

from .baselines import (
    check_exhaustive_limit,
    enumerate_exhaustive_objects,
    exhaustive_select,
    isolated_select,
)
from .benefit import ObjectiveParams
from .candidates import (
    build_matrices,
    generate_index_candidates,
    generate_view_candidates,
    load_candidates,
)
from .catalog import load_catalog
from .costmodel import COST_MODEL_ID, Configuration, CostContext, object_size, workload_cost
from .errors import AdvisorError, InvalidBudgetError, ParseError
from .jsonfmt import join_values, write_json
from .selector import SelectionResult, enumerate_objects, greedy_select
from .workload import load_workload

# sweep strategy column -> --mode it runs
SWEEP_STRATEGIES = {
    "none": "none",
    "views": "view-only",
    "indexes": "index-only",
    "simultaneous": "simultaneous",
}
SWEEP_HEADER = "budget_fraction,strategy,total_cost_blocks,used_bytes,objects"
# options a sweep sets for itself (every strategy, CSV, no trace) -> their
# defaults; giving one with --sweep is a usage error, even at its default
SWEEP_FIXED = {"mode": "simultaneous", "format": "text", "trace": False}
_TEXT_BATCH = 64  # text report lines written as one piece


class _Formatter(argparse.HelpFormatter):
    # a formatter's sections point back at it, and each section under the
    # root points at the root, whose items hold that section's format_help:
    # dropping the root's items and the formatter's sections once the text is
    # made lets reference counting free the formatter and every section
    def format_help(self):
        text = super().format_help()
        self._root_section.items.clear()
        del self._root_section, self._current_section
        return text


class _Parser(argparse.ArgumentParser):
    # usage problems are input errors: exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)

    def parse_args(self, args=None, namespace=None):
        ns = super().parse_args(args, namespace)
        given = [f"--{name}" for name in SWEEP_FIXED if getattr(ns, name) is not None]
        if ns.sweep is not None and given:
            self.error(f"argument --sweep: not allowed with {', '.join(given)}")
        if ns.min_support < 1:
            self.error(f"argument --min-support: must be >= 1, got {ns.min_support}")
        # the output is opened before any input is read: never truncate an input
        if ns.out is not None and os.path.exists(ns.out):
            for name in ("schema", "workload", "candidates"):
                path = getattr(ns, name)
                if path is not None and os.path.exists(path) and os.path.samefile(ns.out, path):
                    self.error(f"argument --out: names the --{name} file {path}")
        for name, default in SWEEP_FIXED.items():
            if getattr(ns, name) is None:
                setattr(ns, name, default)
        # the rules argparse cannot state; ``main`` reports them as input errors
        if ns.sweep is not None:
            ns.sweep = _parse_sweep(ns.sweep)
        elif ns.budget is None:
            raise ParseError("--budget is required unless --sweep is given")
        else:
            ns.budget = _parse_budget(ns.budget)
        if ns.refresh_ratio is not None:  # checked by the rule the run applies, raising here
            ObjectiveParams(refresh_ratio=ns.refresh_ratio, mode=ns.objective)
        return ns


def make_parser() -> argparse.ArgumentParser:
    """A new parser of the CLI's arguments; ``main`` builds one per process."""
    p = _Parser(
        prog="mvindex",
        formatter_class=_Formatter,
        description="Select materialized views and indexes for a star-schema workload "
        "under a storage budget.",
    )
    p.add_argument("--schema", required=True, help="catalog file")
    p.add_argument("--workload", required=True, help="workload file")
    p.add_argument("--candidates", help="optional fixed candidates file")
    budget_or_sweep = p.add_mutually_exclusive_group()
    budget_or_sweep.add_argument(
        "--budget",
        help="storage budget: bytes, or N%% of the space an unconstrained run uses",
    )
    p.add_argument(
        "--mode",
        choices=["simultaneous", "view-only", "index-only", "exhaustive", "none"],
        help="strategy to run (default: simultaneous)",
    )
    p.add_argument("--refresh-ratio", type=float, default=None,
                   help="refresh-to-query ratio (default: workload header or 0)")
    p.add_argument("--min-support", type=int, default=1,
                   help="attribute support threshold for generated index candidates")
    p.add_argument("--objective", choices=["normalized", "literal"], default="normalized")
    budget_or_sweep.add_argument("--sweep", help="comma-separated budget fractions in (0,1]")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--format", choices=["text", "json"], help="report format (default: text)")
    p.add_argument("--trace", action="store_true", default=None,
                   help="include per-iteration trace")
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on first use, not at import, and kept: parsing stores nothing in
    # the parser, and a parser per call costs its build and leaves it in
    # reference cycles (its actions, groups and help formatters) for the
    # cyclic collector
    return make_parser()


def _read_input(path: str) -> str:
    """The text of an input file, less a leading byte-order mark; one that is
    not UTF-8 is a ParseError naming it and the byte's offset in the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        problem = f"byte {exc.object[exc.start]:#04x} at offset {exc.start} ({exc.reason})"
        raise ParseError(f"not UTF-8 text: {problem}", path) from None


def _load_inputs(args):
    """Parse the inputs; return the objective parameters and the run's one CostContext.

    The context holds the usage matrices, with the queries and candidates
    they were built over, and the catalog.  At first use it derives every
    query's plan of block costs and every member's offers in one pass.
    Every selection and cost report of an invocation reads them from it, so
    nothing is derived twice.
    """
    catalog = load_catalog(_read_input(args.schema), args.schema)
    workload = load_workload(_read_input(args.workload), catalog, args.workload)
    if not workload.queries:
        raise ParseError("the workload holds no statements", args.workload)
    if args.candidates:
        views, indexes = load_candidates(_read_input(args.candidates), catalog, args.candidates)
    else:
        views = generate_view_candidates(workload, catalog)
        indexes = generate_index_candidates(workload, views, args.min_support)
    matrices = build_matrices(workload, views, indexes)
    refresh = args.refresh_ratio if args.refresh_ratio is not None else workload.refresh_ratio
    params = ObjectiveParams(refresh_ratio=refresh, mode=args.objective)
    ctx = CostContext(matrices, catalog)
    return params, ctx


def _reference_space(ctx: CostContext, params: ObjectiveParams, objects: list) -> SelectionResult:
    """The unconstrained simultaneous run over ``objects``: budget percentages
    and sweep fractions are relative to its used bytes, and the budgeted
    simultaneous runs resume from it."""
    unconstrained = sum(o.size for o in objects) + 1
    return greedy_select(ctx, unconstrained, params, objects)


def _parse_budget(text: str) -> tuple[int | float, str | None]:
    """``--budget`` as (bytes, None) or as (a finite percentage, its text);
    either is at least 0.  ``run_advise`` scales a percentage by the
    reference run's bytes."""
    text = text.strip()
    is_percent = text.endswith("%")
    try:
        value = float(text[:-1]) if is_percent else int(text)
    except ValueError:
        raise ParseError(f"--budget takes a byte count or a percentage N%, got {text!r}") from None
    if not math.isfinite(value):
        raise ParseError(f"budget percentage {text!r} is not a finite number")
    if value < 0:
        raise InvalidBudgetError(f"budget must be >= 0, got {text!r}")
    return value, text if is_percent else None


def _parse_sweep(text: str) -> list[float]:
    fractions = []
    for tok in text.split(","):
        try:
            f = float(tok)
        except ValueError:
            f = math.nan  # rejected below like any fraction outside (0, 1]
        if not 0.0 < f <= 1.0:
            raise ParseError(f"--sweep takes comma-separated fractions in (0, 1], got {tok!r}")
        fractions.append(f)
    return fractions


def _no_selection(final_cost: int) -> SelectionResult:
    """The result of selecting nothing; ``final_cost`` is the empty configuration's."""
    return SelectionResult(
        config=Configuration(), selected=[], used_bytes=0, iterations=[],
        stop_reason="not_run", final_cost=final_cost,
    )


def _run_strategy(
    mode: str,
    ctx: CostContext,
    objects: list | None,
    budget: int,
    params: ObjectiveParams,
    resume: SelectionResult | None,
) -> SelectionResult:
    """One greedy strategy over ``objects`` (built by the strategy unless
    given), resuming from an earlier run of it."""
    if mode == "simultaneous":
        return greedy_select(ctx, budget, params, objects, resume)
    return isolated_select(mode, ctx, budget, params, objects, resume)


def _selection_payload(result: SelectionResult, trace: bool) -> dict:
    payload = {
        "selected": [{"id": m.id, "kind": m.kind, "bytes": m.bytes} for m in result.selected],
        "used_bytes": result.used_bytes,
        "stop_reason": result.stop_reason,
        "total_cost_blocks": result.final_cost,
    }
    if trace:
        payload["iterations"] = [
            {
                "step": it.step,
                "object": it.object_id,
                "kind": it.kind,
                "objective": it.objective,
                "incremental_bytes": it.incremental_bytes,
                "remaining_budget": it.remaining_budget,
                "workload_cost": it.workload_cost,
                "skipped_unaffordable": list(it.skipped_unaffordable),
            }
            for it in result.iterations
        ]
    return payload


def run_advise(args, write) -> None:
    """Run one strategy, then write its report through ``write``.  ``args``
    come from the CLI's parser, which has checked them and parsed
    ``--budget``.  Every input, budget and selection error is raised before
    the first write; the report then goes out in pieces as it is formatted."""
    params, ctx = _load_inputs(args)
    catalog, matrices = ctx.catalog, ctx.matrices

    # exhaustive mode and a percentage budget's reference run share one object list
    objects = reference = None
    if args.mode == "exhaustive":
        objects = enumerate_objects(ctx)
        exhaustive_objects = enumerate_exhaustive_objects(ctx, objects)
        check_exhaustive_limit(exhaustive_objects)

    budget, percent_text = args.budget
    if percent_text is not None:
        if objects is None:
            objects = enumerate_objects(ctx)
        reference = _reference_space(ctx, params, objects)
        budget = reference.used_bytes * (budget / 100.0)
        if not math.isfinite(budget):
            raise ParseError(
                f"budget percentage {percent_text!r} gives a budget too large to represent")
        budget = int(budget)

    before = workload_cost(ctx, Configuration())

    if args.mode == "exhaustive":
        result = exhaustive_select(ctx, exhaustive_objects, budget, params)
    elif args.mode == "none":
        result = _no_selection(before.total)
    else:
        # without a reference run the strategy builds only the objects it needs
        resume = reference if args.mode == "simultaneous" else None
        result = _run_strategy(args.mode, ctx, objects, budget, params, resume)

    # selecting nothing leaves the configuration "before" was costed on
    after = before if args.mode == "none" else workload_cost(ctx, result.config)

    report = {
        "cost_model": COST_MODEL_ID,
        "mode": args.mode,
        "objective": args.objective,
        "refresh_ratio": params.refresh_ratio,
        "budget_bytes": budget,
        "candidates": {
            "views": [
                {
                    "id": v.id,
                    "tables": sorted(v.joined_tables),
                    "group_by": [f"{t}.{a}" for t, a in v.group_by],
                    "aggregates": [f"{f}({t}.{a})" for f, (t, a) in v.aggregates],
                    "rows": v.row_count,
                    "bytes": object_size(v, catalog),
                }
                for v in ctx.views.values()
            ],
            "indexes": [
                {
                    "id": i.id,
                    "target": i.target,
                    "attribute": f"{i.attribute[0]}.{i.attribute[1]}",
                    "bytes": object_size(i, catalog),
                }
                for i in ctx.indexes.values()
            ],
        },
        "matrices": {
            "query_ids": list(matrices.query_ids),
            "view_ids": list(matrices.view_ids),
            "index_ids": list(matrices.index_ids),
            "query_view": matrices.query_view,
            "query_index": matrices.query_index,
            "view_index": matrices.view_index,
        },
        "selection": {**_selection_payload(result, args.trace), "objects": result.selected_ids()},
        "costs": {
            "before": {"per_query": before.per_query_cost, "total": before.total},
            "after": {
                "per_query": after.per_query_cost,
                "rewriting": after.chosen_rewriting,
                "total": after.total,
            },
        },
    }

    if args.format == "json":
        write_json(report, write)
        write("\n")
    else:
        _format_text_report(report, matrices.base_index_ids, write)


def _format_text_report(report: dict, base_index_ids, write) -> None:
    """Write the report as text through ``write``, ``_TEXT_BATCH`` lines at a
    time.  ``base_index_ids`` head the query-index columns: that matrix
    holds the base indexes only, the report's ``index_ids`` all."""
    lines = _text_lines(report, base_index_ids)
    while batch := list(itertools.islice(lines, _TEXT_BATCH)):
        write("\n".join(batch) + "\n")


def _text_lines(report: dict, base_index_ids):
    """The text report's lines, in order, without their line breaks."""
    yield f"cost model      {report['cost_model']}"
    yield f"mode            {report['mode']}"
    yield f"objective       {report['objective']}"
    yield f"refresh ratio   {report['refresh_ratio']}"
    yield f"budget bytes    {report['budget_bytes']}"
    yield ""
    yield "candidate views"
    for v in report["candidates"]["views"]:
        yield (f"  {v['id']:>6}  rows {v['rows']:>12}  bytes {v['bytes']:>14}  "
               f"over {','.join(v['tables'])}")
    yield "candidate indexes"
    for i in report["candidates"]["indexes"]:
        yield f"  {i['id']:>6}  on {i['target']:<12} key {i['attribute']:<32} bytes {i['bytes']:>12}"
    yield ""
    m = report["matrices"]
    yield "query-view matrix (rows: " + ",".join(m["query_ids"]) + "; cols: " + ",".join(m["view_ids"]) + ")"
    yield from map(_matrix_row, m["query_view"])
    yield "query-index matrix (cols: " + ",".join(base_index_ids) + ")"
    yield from map(_matrix_row, m["query_index"])
    yield "view-index matrix"
    yield from map(_matrix_row, m["view_index"])
    yield ""
    sel = report["selection"]
    yield f"selection stop reason: {sel['stop_reason']}"
    yield f"selected objects ({len(sel['objects'])}): " + (", ".join(sel["objects"]) or "none")
    for mrec in sel["selected"]:
        yield f"  {mrec['id']:>10}  {mrec['kind']:<11} bytes {mrec['bytes']:>14}"
    yield f"used bytes: {sel['used_bytes']}"
    if "iterations" in sel:
        yield "trace"
        for it in sel["iterations"]:
            yield (
                f"  step {it['step']:>3}  {it['object']:<12} objective {it['objective']:.9g}  "
                f"+{it['incremental_bytes']} B  remaining {it['remaining_budget']} B  "
                f"cost {it['workload_cost']}"
            )
    yield ""
    costs = report["costs"]
    yield "per-query cost (blocks)"
    yield f"  {'query':>6} {'before':>12} {'after':>12}  rewriting"
    for qid in costs["before"]["per_query"]:
        yield (
            f"  {qid:>6} {costs['before']['per_query'][qid]:>12} "
            f"{costs['after']['per_query'][qid]:>12}  {costs['after']['rewriting'][qid]}"
        )
    yield f"  {'total':>6} {costs['before']['total']:>12} {costs['after']['total']:>12}"


def _matrix_row(row: bytes) -> str:
    """A matrix row's line: its cells, space-separated."""
    return "  " + join_values(" ", row)


def run_sweep(args, write) -> None:
    """Run every strategy at each of the parsed ``--sweep`` fractions, then
    write the CSV through ``write``: every error is raised before it.

    The fractions run from the largest down, each strategy resuming from its
    own run at the next larger fraction (the simultaneous one first from the
    reference run); the rows keep the order the fractions were given in.
    """
    params, ctx = _load_inputs(args)
    objects = enumerate_objects(ctx)
    reference = _reference_space(ctx, params, objects)
    last = {"none": _no_selection(ctx.workload_total(Configuration())), "simultaneous": reference}
    results = {}
    for fraction in sorted(set(args.sweep), reverse=True):
        budget = int(reference.used_bytes * fraction)
        for mode in SWEEP_STRATEGIES.values():
            if mode != "none":
                last[mode] = _run_strategy(mode, ctx, objects, budget, params, last.get(mode))
            results[fraction, mode] = last[mode]
    rows = [SWEEP_HEADER]
    for fraction in args.sweep:
        for strategy, mode in SWEEP_STRATEGIES.items():
            result = results[fraction, mode]
            ids = ";".join(result.selected_ids()) if result.selected else ""
            rows.append(f"{fraction},{strategy},{result.final_cost},{result.used_bytes},{ids}")
    write("\n".join(rows) + "\n")


def main(argv=None) -> int:
    """Run the CLI on ``argv`` (default ``sys.argv[1:]``); only here does an
    outcome become an exit code.  Every argument is checked before ``--out``
    is opened, and ``--out`` before any input is read.  The report goes to
    ``out.write`` in pieces once the run has finished, so an error writes
    nothing.  It may be called any number of times in one process.  A call
    leaves no cyclic garbage, so it pauses the cyclic collector, then leaves
    it on or off as it found it."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = _parser().parse_args(argv)
        with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as out:
            (run_sweep if args.sweep is not None else run_advise)(args, out.write)
    except SystemExit as exc:  # argparse's usage errors and --help
        return int(exc.code or 0)
    except InvalidBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AdvisorError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
