"""Reference strategies: exhaustive optimum on small instances, isolated greedy.

The exhaustive search is the test oracle: it enumerates every feasible
subset of singleton objects (respecting the budget and the rule that an
on-view index needs its view) and returns the one minimizing total
workload cost plus the maintenance penalty.  The isolated strategies rerun
the greedy loop restricted to one structure family, mirroring the
views-only / indexes-only comparison axes.
"""

from __future__ import annotations

from .benefit import ObjectiveParams, SelectionObject, index_object, update_weight, view_object
from .costmodel import Configuration, CostContext
from .errors import InvalidBudgetError, TooManyObjectsError, ValidationError
from .selector import SelectionResult, _member_records, greedy_core

EXHAUSTIVE_LIMIT = 20

# the isolated strategies, under the names the CLI's --mode gives them
VIEWS_ONLY = "view-only"
INDEXES_ONLY = "index-only"
# isolated strategy -> whether an object belongs to its family
_FAMILIES = {
    VIEWS_ONLY: lambda o: o.kind == "view",
    INDEXES_ONLY: lambda o: o.kind == "index" and o.index.is_base(),
}


def enumerate_exhaustive_objects(
    ctx: CostContext, objects: list[SelectionObject]
) -> list[SelectionObject]:
    """Singleton objects only: ``objects``, such as ``enumerate_objects(ctx)``,
    with each pair replaced by its on-view index, keeping the first object
    per key set, so each physical on-view index appears once."""
    singletons, seen = [], set()
    for o in objects:
        if o.kind == "pair":
            o = index_object(o.index, ctx)
        if o.keys not in seen:
            seen.add(o.keys)
            singletons.append(o)
    return singletons


def check_exhaustive_limit(objects: list[SelectionObject]) -> None:
    """Refuse a brute force over more than EXHAUSTIVE_LIMIT objects."""
    if len(objects) > EXHAUSTIVE_LIMIT:
        raise TooManyObjectsError(
            f"{len(objects)} objects exceed the exhaustive limit of {EXHAUSTIVE_LIMIT}"
        )


def exhaustive_select(
    ctx: CostContext,
    objects: list[SelectionObject],
    budget_bytes: int,
    params: ObjectiveParams,
) -> SelectionResult:
    """Best feasible subset of ``objects`` by brute force, costed with ``ctx``.

    The objects are singletons drawn from the context's candidates, such as
    ``enumerate_exhaustive_objects(ctx, enumerate_objects(ctx))``; refuses
    more than 20 of them.  The result lists the chosen members in id order,
    records no iterations and stops with reason ``"exhaustive"``.
    """
    if budget_bytes < 0:
        raise InvalidBudgetError(f"budget must be >= 0, got {budget_bytes}")
    check_exhaustive_limit(objects)
    if any(o.kind == "pair" for o in objects):
        raise ValidationError("exhaustive enumeration expects singleton objects")
    beta = update_weight(params, ctx)

    best = None
    for mask in range(2 ** len(objects)):
        chosen = [o for b, o in enumerate(objects) if mask >> b & 1]
        used = sum(o.size for o in chosen)
        if used > budget_bytes:
            continue
        # an on-view index is only legal alongside its view
        selected_views = {o.view.id for o in chosen if o.kind == "view"}
        if any(o.kind == "index" and not o.index.is_base() and o.index.target not in selected_views
               for o in chosen):
            continue
        config = Configuration().union(*(o.keys for o in chosen))
        cost = ctx.workload_total(config)
        chosen.sort(key=lambda o: o.id)
        key = (cost + beta * sum(o.maintenance for o in chosen), used, [o.id for o in chosen])
        if best is None or key < best[0]:
            best = (key, config, chosen, used, cost)

    _, config, chosen, used, cost = best
    return SelectionResult(
        config=config,
        selected=[m for o in chosen for m in _member_records(o, Configuration())],
        used_bytes=used,
        iterations=[],
        stop_reason="exhaustive",
        final_cost=cost,
    )


def isolated_select(
    kind: str,
    ctx: CostContext,
    budget_bytes: int,
    params: ObjectiveParams,
    objects: list[SelectionObject] | None = None,
    resume: SelectionResult | None = None,
) -> SelectionResult:
    """Greedy over a single structure family: views only, or base indexes only.

    The family is drawn from ``objects``, such as ``enumerate_objects(ctx)``;
    unless given, only the context's views and base indexes are built.
    ``resume`` is an earlier run of the same family, see ``greedy_core``.
    """
    in_family = _FAMILIES.get(kind)
    if in_family is None:
        raise ValidationError(f"unknown isolated strategy {kind!r}")
    if objects is not None:
        family = [o for o in objects if in_family(o)]
    elif kind == VIEWS_ONLY:
        family = [view_object(v, ctx) for v in ctx.views.values()]
    else:
        family = [index_object(i, ctx) for i in ctx.indexes.values() if i.is_base()]
    return greedy_core(ctx, family, budget_bytes, params, resume)
