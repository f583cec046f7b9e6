"""Interaction-aware benefit of adding a view or index, and the greedy objective.

Both scores are computed in one function, ``objective_value``, from one
``QueryCosts``: the configuration an object is scored against, that
configuration's per-query costs, and the run's context.
The benefit of an object is the workload cost reduction it causes divided
by storage bytes: a density in blocks per byte, a zero-size object floored
at one byte.  The reduction is summed over the queries the object's
members can touch only (``QueryCosts.before_after``); every other query
costs the same either way, so the integer reduction, and with it the
density, equals the whole-workload difference.  When the object interacts
with already-selected structures (an index related to selected views, or a
view related to selected indexes), the denominator also counts those
structures' sizes, which damps the density of piling more storage onto the
same interaction.

The objective subtracts a maintenance penalty weighted by the expected
update frequency: ``penalty_weight = |Q| * refresh_ratio / |O|``, where the
run's ``CostContext`` (``costs.ctx``) gives |Q| (its queries) and |O| (its
view and index candidates, at least one).
In the default ``normalized`` mode the penalty is divided by the object's
size so both terms are per-byte densities; ``literal`` mode subtracts the
raw block count instead.  The benefit, ``object_benefit``, is the objective
with a zero penalty weight.
"""

from __future__ import annotations

import math

from .candidates import IndexCandidate, ViewCandidate, make_view_index
from .costmodel import Configuration, CostContext, QueryCosts
from .errors import ValidationError
from .record import Record

MODE_NORMALIZED = "normalized"
MODE_LITERAL = "literal"


class ObjectiveParams(Record):
    __slots__ = _fields = ("refresh_ratio", "mode")

    def __init__(self, refresh_ratio: float = 0.0, mode: str = MODE_NORMALIZED):
        if not math.isfinite(refresh_ratio) or refresh_ratio < 0:
            raise ValidationError(f"refresh_ratio must be finite and >= 0, got {refresh_ratio}")
        if mode not in (MODE_NORMALIZED, MODE_LITERAL):
            raise ValidationError(f"unknown objective mode {mode!r}")
        self.refresh_ratio = refresh_ratio
        self.mode = mode


_NO_PENALTY = ObjectiveParams()  # what ``object_benefit`` scores with, at weight zero


def update_weight(params: ObjectiveParams, ctx: CostContext) -> float:
    """Expected updates per refresh cycle: |Q| * (1/|O|) * refresh ratio."""
    return len(ctx.queries) * params.refresh_ratio / max(1, len(ctx.views) + len(ctx.indexes))


class SelectionObject(Record):
    """One scorable unit: a view, an index, or a view paired with an index on it.

    A pair carries the view and the physical index on it.  The facts a score
    and a greedy run read never change during a run, so they are set once,
    from the member facts of the run's context (``CostContext.member_facts``),
    when the object is built: the member ``keys``, ``size`` and
    ``maintenance`` of all members, ``parts`` (key, bytes) per member, view
    first, and ``offers``, its first member's offer list (a pair shares its
    view's, see ``CostContext.offers``).  ``deps`` holds (key, bytes) per
    candidate whose selection adds its size to the benefit denominator: the
    base indexes a view pairs with and the views a base index pairs with
    (read from the view-index matrix), the view an on-view index is built
    on.  Pairs have none.  ``raised_by`` holds the keys whose commit can raise
    its score: its members and the ``need`` of each offered term.
    ``base_slots`` holds the ``(position, slot)`` of each offer at a plan
    table, which only a base index has.

    Like every record, an object is not assigned after construction.
    """

    __slots__ = _fields = (
        "id", "kind", "view", "index", "keys", "size", "maintenance", "parts", "deps", "offers",
        "raised_by", "base_slots",
    )
    __hash__ = None

    def __init__(self, id: str, kind: str, view: ViewCandidate | None, index: IndexCandidate | None,
                 keys: Configuration, size: int, maintenance: int, parts: tuple[tuple[object, int], ...],
                 deps: tuple[tuple[object, int], ...], offers: tuple, raised_by: Configuration,
                 base_slots: tuple[tuple[int, int], ...]):
        self.id = id
        self.kind = kind  # "view" | "index" | "pair"
        self.view = view
        self.index = index
        self.keys = keys
        self.size = size
        self.maintenance = maintenance
        self.parts = parts
        self.deps = deps
        self.offers = offers
        self.raised_by = raised_by
        self.base_slots = base_slots

    def members(self):
        if self.view is not None:
            yield self.view
        if self.index is not None:
            yield self.index


def _object(oid: str, kind: str, view, index, facts: tuple, deps: tuple, index_facts=None):
    """An object from its first member's facts (``CostContext.member_facts``)
    and, for a pair, its index's."""
    part, keys, maintenance, offers, raised_by, base_slots = facts
    size = part[1]
    parts = (part,)
    if index_facts is not None:
        index_part, index_keys, index_maintenance, _, index_raised_by, _ = index_facts
        parts = (part, index_part)
        keys = keys | index_keys
        size += index_part[1]
        maintenance += index_maintenance
        raised_by = raised_by | index_raised_by
    return SelectionObject(
        oid, kind, view, index, keys, size, maintenance, parts, deps, offers, raised_by, base_slots
    )


def view_object(v: ViewCandidate, ctx: CostContext) -> SelectionObject:
    return _object(v.id, "view", v, None, ctx.member_facts(v.id, v), ctx.paired.get(v.id, ()))


def index_object(i: IndexCandidate, ctx: CostContext) -> SelectionObject:
    if i.is_base():
        return _object(i.id, "index", None, i, ctx.member_facts(i.id, i), ctx.paired.get(i.id, ()))
    view = i.on_view
    facts = ctx.member_facts((view.id, i.attribute), i)
    return _object(i.id, "index", None, i, facts, (ctx.member_facts(view.id, view)[0],))


def pair_object(v: ViewCandidate, i: IndexCandidate, ctx: CostContext) -> SelectionObject:
    """View plus an index built on it; a base candidate is re-targeted onto the view."""
    if i.is_base():
        on_view = make_view_index(f"{i.id}@{v.id}", v, i.attribute, ctx.catalog)
    else:
        if i.target != v.id:
            raise ValidationError(f"index {i.id} targets {i.target}, not view {v.id}")
        on_view = i
    facts = ctx.member_facts(v.id, v)
    index_facts = ctx.member_facts((v.id, on_view.attribute), on_view)
    return _object(f"{v.id}+{i.id}", "pair", v, on_view, facts, (), index_facts)


def object_benefit(obj: SelectionObject, costs: QueryCosts) -> float:
    """Benefit density of adding one object to the configuration of ``costs``:
    its objective with no maintenance penalty.

    A view or index with no related selected structure divides the cost it
    saves by its own size; related selected indexes (of a view) or views
    (of an index) join the denominator.  An index whose only related views
    are unselected can still earn direct benefit on base tables; it scores
    zero only when it improves nothing.  Pairs use their combined size.
    """
    return objective_value(obj, costs, _NO_PENALTY, 0.0)


def objective_value(
    obj: SelectionObject, costs: QueryCosts, params: ObjectiveParams, beta: float | None = None
) -> float:
    """Benefit minus the maintenance penalty, in the configured mode.

    ``beta`` is ``update_weight(params, costs.ctx)``, which a greedy run
    computes once; it is computed here when not given.
    """
    before, after = costs.before_after(obj)
    denom, config = obj.size, costs.config
    for key, size in obj.deps:
        if key in config:
            denom += size
    gain = (before - after) / max(denom, 1)
    if beta is None:
        beta = update_weight(params, costs.ctx)
    if beta == 0.0:
        return gain
    if params.mode == MODE_LITERAL:
        return gain - beta * obj.maintenance
    return gain - beta * obj.maintenance / max(obj.size, 1)
