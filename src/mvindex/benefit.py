"""Interaction-aware benefit of adding a view or index, and the greedy objective.

The benefit of an object is the workload cost reduction it causes divided
by storage bytes: a density in blocks per byte.  The reduction is summed
over the queries the object's members can touch only; every other query
costs the same either way, so the integer reduction, and with it the
density, equals the whole-workload difference.  When the object interacts
with already-selected structures (an index related to selected views, or a
view related to selected indexes), the denominator also counts those
structures' sizes, which damps the density of piling more storage onto the
same interaction.

The objective subtracts a maintenance penalty weighted by the expected
update frequency: ``penalty_weight = n_queries * refresh_ratio / n_objects``.
In the default ``normalized`` mode the penalty is divided by the object's
size so both terms are per-byte densities; ``literal`` mode subtracts the
raw block count instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .candidates import IndexCandidate, ViewCandidate, make_view_index
from .catalog import SchemaCatalog
from .costmodel import Configuration, CostContext, maintenance_cost, member_key, object_size
from .errors import ValidationError

MODE_NORMALIZED = "normalized"
MODE_LITERAL = "literal"


@dataclass(frozen=True)
class ObjectiveParams:
    refresh_ratio: float = 0.0
    total_object_count: int = 1
    mode: str = MODE_NORMALIZED

    def __post_init__(self):
        if not math.isfinite(self.refresh_ratio) or self.refresh_ratio < 0:
            raise ValidationError(f"refresh_ratio must be finite and >= 0, got {self.refresh_ratio}")
        if self.total_object_count < 1:
            raise ValidationError("total_object_count must be >= 1")
        if self.mode not in (MODE_NORMALIZED, MODE_LITERAL):
            raise ValidationError(f"unknown objective mode {self.mode!r}")


def update_weight(params: ObjectiveParams, n_queries: int) -> float:
    """Expected updates per refresh cycle: |Q| * (1/|O|) * refresh ratio."""
    return n_queries * params.refresh_ratio / params.total_object_count


def benefit_density(cost_before: int, cost_after: int, denominator_bytes: int) -> float:
    """Blocks saved per byte of storage; zero-size objects floor at one byte."""
    return (cost_before - cost_after) / max(denominator_bytes, 1)


@dataclass(frozen=True)
class SelectionObject:
    """One scorable unit: a view, an index, or a view paired with an index on it.

    ``view_index_key`` identifies the physical on-view index; pairs carry
    both the view and that index.
    """

    id: str
    kind: str  # "view" | "index" | "pair"
    view: ViewCandidate | None = None
    index: IndexCandidate | None = None

    def members(self):
        if self.view is not None:
            yield self.view
        if self.index is not None:
            yield self.index

    def config_members(self) -> Configuration:
        return frozenset(member_key(m) for m in self.members())

    def fully_selected(self, config: Configuration) -> bool:
        return self.config_members() <= config

    def apply_to(self, config: Configuration) -> Configuration:
        return config | self.config_members()

    def full_size(self, catalog: SchemaCatalog) -> int:
        return sum(object_size(member, catalog) for member in self.members())

    def maintenance(self, catalog: SchemaCatalog) -> int:
        return sum(maintenance_cost(member, catalog) for member in self.members())


def view_object(v: ViewCandidate) -> SelectionObject:
    return SelectionObject(id=v.id, kind="view", view=v)


def index_object(i: IndexCandidate) -> SelectionObject:
    return SelectionObject(id=i.id, kind="index", index=i)


def pair_object(v: ViewCandidate, i: IndexCandidate, catalog: SchemaCatalog) -> SelectionObject:
    """View plus an index built on it; a base candidate is re-targeted onto the view."""
    if i.is_base():
        on_view = make_view_index(f"{i.id}@{v.id}", v, i.attribute, catalog)
    else:
        if i.target != v.id:
            raise ValidationError(f"index {i.id} targets {i.target}, not view {v.id}")
        on_view = i
    return SelectionObject(id=f"{v.id}+{i.id}", kind="pair", view=v, index=on_view)


def denominator_dependencies(obj: SelectionObject, ctx: CostContext) -> list:
    """Candidates whose selection adds their size to the object's benefit
    denominator: the base indexes a view pairs with, the views a base index
    pairs with (both read from the view-index matrix), the view an on-view
    index is built on."""
    if obj.kind == "view":
        return ctx.paired.get(obj.view.id, [])
    if obj.kind == "index":
        if not obj.index.is_base():
            return [ctx.views[obj.index.target]]
        return ctx.paired.get(obj.index.id, [])
    return []


def touched_costs(ctx: CostContext, config: Configuration, members: Configuration) -> tuple[int, int]:
    """Cost of the queries ``members`` touch, before and after adding them to ``config``.

    Every other query keeps its cost, so ``before - after`` is exactly the
    whole-workload cost reduction.
    """
    added = config | members
    before = after = 0
    for q in ctx.queries_touching(members):
        before += ctx.query_cost(q, config)[0]
        after += ctx.query_cost(q, added)[0]
    return before, after


def object_benefit(obj: SelectionObject, config: Configuration, ctx: CostContext) -> float:
    """Benefit density of adding one object to the configuration.

    A view or index with no related selected structure divides the cost it
    saves by its own size; related selected indexes (of a view) or views
    (of an index) join the denominator.  An index whose only related views
    are unselected can still earn direct benefit on base tables; it scores
    zero only when it improves nothing.  Pairs use their combined size.
    """
    before, after = touched_costs(ctx, config, obj.config_members())
    denom = obj.full_size(ctx.catalog) + sum(
        object_size(dep, ctx.catalog)
        for dep in denominator_dependencies(obj, ctx)
        if member_key(dep) in config
    )
    return benefit_density(before, after, denom)


def objective_value(
    obj: SelectionObject, config: Configuration, ctx: CostContext, params: ObjectiveParams
) -> float:
    """Benefit minus the maintenance penalty, in the configured mode."""
    gain = object_benefit(obj, config, ctx)
    beta = update_weight(params, len(ctx.queries))
    if beta == 0.0:
        return gain
    maintenance = obj.maintenance(ctx.catalog)
    if params.mode == MODE_LITERAL:
        return gain - beta * maintenance
    return gain - beta * maintenance / max(obj.full_size(ctx.catalog), 1)
