"""Interaction-aware benefit of adding a view or index, and the greedy objective.

Both scores are computed in one function, ``objective_value``, from one
``QueryCosts``: the configuration an object is scored against and that
configuration's per-query costs.
The benefit of an object is the workload cost reduction it causes
(``QueryCosts.saving``, an integer count of blocks) divided by storage
bytes: a density in blocks per byte, a zero-size object floored at one
byte.  When the object interacts
with already-selected structures (an index related to selected views, or a
view related to selected indexes), the denominator also counts those
structures' sizes, which damps the density of piling more storage onto the
same interaction.

The objective subtracts a maintenance penalty weighted by the expected
update frequency: ``penalty_weight = |Q| * refresh_ratio / |O|``, where the
run's ``CostContext`` gives |Q| (its queries) and |O| (its view and index
candidates, at least one); ``update_weight`` computes it once per run, and
``objective_value`` takes it as ``beta``.
The penalty is the object's maintenance blocks divided by its size, so both
terms are per-byte densities: ``benefit - beta * maintenance / size``.  The
benefit, ``object_benefit``, is the objective with a zero penalty weight.
"""

from __future__ import annotations

import math

from .candidates import IndexCandidate, ViewCandidate
from .costmodel import Configuration, CostContext, QueryCosts
from .errors import ValidationError
from .record import Record


class ObjectiveParams(Record):
    __slots__ = _fields = ("refresh_ratio",)

    def __init__(self, refresh_ratio: float = 0.0):
        if not math.isfinite(refresh_ratio) or refresh_ratio < 0:
            raise ValidationError(f"refresh_ratio must be finite and >= 0, got {refresh_ratio}")
        self.refresh_ratio = refresh_ratio


def update_weight(params: ObjectiveParams, ctx: CostContext) -> float:
    """Expected updates per refresh cycle: |Q| * (1/|O|) * refresh ratio."""
    return len(ctx.queries) * params.refresh_ratio / max(1, len(ctx.views) + len(ctx.indexes))


class SelectionObject(Record):
    """One scorable unit: a view, an index, or a view paired with an index on it.

    A pair carries the view and the physical index on it.  The facts a score
    and a greedy run read never change during a run, so they are set once,
    when the object is built, from its members' facts, looked up by key in
    ``CostContext.member_facts``: the member ``keys``, ``size`` and
    ``maintenance`` of all members, ``parts`` (key, bytes) per member, view
    first, and ``offers``, its first member's offer list (a pair shares its
    view's).  ``deps`` holds (key, bytes) per candidate whose selection
    adds its size to the benefit denominator: the base indexes a view pairs
    with and the views a base index pairs with (read from the view-index
    matrix), the view an on-view index is built on.  Pairs have none.  Who a commit can raise is not an object's fact:
    the context derives it per object list (``CostContext.reader_index``).

    Like every record, an object is not assigned after construction.
    """

    __slots__ = _fields = (
        "id", "kind", "view", "index", "keys", "size", "maintenance", "parts", "deps", "offers",
    )
    __hash__ = None

    def __init__(self, id: str, kind: str, view: ViewCandidate | None, index: IndexCandidate | None,
                 keys: Configuration, size: int, maintenance: int, parts: tuple[tuple[object, int], ...],
                 deps: tuple[tuple[object, int], ...], offers: tuple):
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

    def members(self):
        if self.view is not None:
            yield self.view
        if self.index is not None:
            yield self.index


def _object(oid: str, kind: str, view, index, facts: tuple, deps: tuple, index_facts=None):
    """An object from its first member's facts (``CostContext.member_facts``)
    and, for a pair, its index's."""
    part, keys, maintenance, offers, _ = facts
    if index_facts is None:
        return SelectionObject(oid, kind, view, index, keys, part[1], maintenance, (part,), deps, offers)
    index_part, index_keys, index_maintenance, _, _ = index_facts
    return SelectionObject(oid, kind, view, index, keys | index_keys, part[1] + index_part[1],
                           maintenance + index_maintenance, (part, index_part), deps, offers)


def view_object(v: ViewCandidate, ctx: CostContext) -> SelectionObject:
    return _object(v.id, "view", v, None, ctx.member_facts[v.id], ctx.paired.get(v.id, ()))


def index_object(i: IndexCandidate, ctx: CostContext) -> SelectionObject:
    facts = ctx.member_facts
    if i.is_base():
        return _object(i.id, "index", None, i, facts[i.id], ctx.paired.get(i.id, ()))
    return _object(i.id, "index", None, i, facts[(i.target, i.attribute)], (facts[i.target][0],))


def pair_object(v: ViewCandidate, i: IndexCandidate, ctx: CostContext) -> SelectionObject:
    """View plus an index built on it; a base candidate is re-targeted onto
    the view as ``i@v``.  The attribute must be indexable on the view."""
    on_view = IndexCandidate(f"{i.id}@{v.id}", i.attribute, v) if i.is_base() else i
    if on_view.target != v.id:
        raise ValidationError(f"index {i.id} targets {i.target}, not view {v.id}")
    view_facts, index_facts = ctx.member_facts[v.id], ctx.member_facts.get((v.id, i.attribute))
    if index_facts is None:
        raise ValidationError(f"index {on_view.id}: {'.'.join(i.attribute)} is not indexable on view {v.id}")
    return _object(f"{v.id}+{i.id}", "pair", v, on_view, view_facts, (), index_facts)


def object_benefit(obj: SelectionObject, costs: QueryCosts) -> float:
    """Benefit density of adding one object to the configuration of ``costs``:
    its objective with no maintenance penalty.

    A view or index with no related selected structure divides the cost it
    saves by its own size; related selected indexes (of a view) or views
    (of an index) join the denominator.  An index whose only related views
    are unselected can still earn direct benefit on base tables; it scores
    zero only when it improves nothing.  Pairs use their combined size.
    """
    return objective_value(obj, costs, 0.0)


def objective_value(obj: SelectionObject, costs: QueryCosts, beta: float) -> float:
    """Benefit minus the maintenance penalty: ``object_benefit`` less
    ``beta * maintenance / size``, with the size floored at one byte.

    ``beta`` is ``update_weight(params, ctx)`` for the run's context, which
    a greedy run computes once; at zero the objective is the benefit.
    """
    denom, config = obj.size, costs.config
    for key, size in obj.deps:
        if key in config:
            denom += size
    gain = costs.saving(obj) / max(denom, 1)
    if beta == 0.0:
        return gain
    return gain - beta * obj.maintenance / max(obj.size, 1)
