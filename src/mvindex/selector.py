"""Greedy simultaneous selection of views and indexes under a storage budget.

Each round scores every remaining candidate object (views, indexes, and
view-index pairs) with the objective against the current configuration,
commits the best-scoring affordable object, and rescores: benefits depend
on what is already selected, which is how view/index interactions steer
the search.  Selection stops when no object scores positive, when the
candidate space is exhausted, or when the budget is.

Scores read one running state, ``QueryCosts``: the committed
configuration and, per query, the cheapest selected term of each table of
its plan, their sum with the plan's fixed blocks (the base part), and the
cost, the lesser of the base part and the cheapest selected view or
on-view index term.  Each object carries one member key's offer list,
built once from the plans (``CostContext.offers``); a pair shares its
view's.  Per query the key can touch, it holds a base index's indexed
cost at that table and the view and on-view index terms naming the key,
each with the other key it needs.  So an object's cost before is a
lookup, and its cost after is the least of that cost, the base part with
its table lowered and the offered terms it can use, a few integer
minima.  The loop keeps no configuration of its own: the state changes
only by ``QueryCosts.commit``, which moves each query the committed
object offers to its cost after and leaves every other query as it is.

Rescoring is lazy, with exact bounds, as in accelerated greedy (Minoux,
1978; CELF, Leskovec et al., 2007).  That needs no submodularity here,
though view/index interactions do raise scores: the ways a commit can
raise one can be listed.  An object's objective is its cost saving over
the queries it has offers for, divided by its size plus its selected
denominator dependencies, minus a fixed penalty.  Per query the saving is
the cost less the least of the cost, the base part with the object's
table lowered and the offered terms it can use.  A commit only lowers
costs and base parts and grows denominators, so it lowers or keeps every
score except where

- (i) it selects a member of the object, or the ``need`` of one of its
  offered terms, which makes the term usable; or
- (ii) it lowers the base part of a query that the object, a base index,
  offers at another table: the object's lowered base part falls by as
  much, while the query's cost may stay at a view's.

A base part lowered at the object's own table leaves its lowered base
part as it was, and selecting a denominator dependency only grows the
denominator.  So after each commit the loop rescores the objects of (i)
and (ii) at once, and every other score becomes an upper bound: the
integer saving does not grow, the denominator does not shrink, and a
float division or subtraction with a fixed other operand keeps the order
of the operand that moved, so the bound's heap key is at or ahead of the
exact one, and the same key on a tie (incremental bytes change only
under (i)).  Positive scores sit in a heap as (-objective, incremental
bytes, id), each entry stamped with the step it was scored at; a rescore
pushes a new entry and leaves the old one to be dropped when popped.
Each step pops entries.  One scored before the last commit is rescored
and pushed back.  One scored since is exact, and every object ranked
ahead of it has its bound ahead of it and was popped first.  So the first
exact entry that fits in the budget left is the step's choice, and the
exact ones popped before it are its skipped ids, in rank order; they go
back in the heap.  None of them can be committed later, as its
incremental bytes fall by at most the bytes committed since.  Selections
and traces are identical to rescoring every object at every step, which
the tests check against such a loop.

A run derives no fact of its objects.  What it reads of an object is set
when the object is built, from facts its context derives once per member
key (``CostContext.member_facts``): besides what a score reads,
``raised_by``, its members and the needs of its offered terms, the keys by
which (i) reaches it, and ``base_slots``, the ``(position, slot)`` of a
base index's offers, by which (ii) does.  The positions of the objects each
key raises and, per query, the base indexes with their slots, are the
context's ``reader_index``, derived once per object list, and a run's
running costs start from copies of the empty configuration's, which the
context also derives once.  So the runs of a sweep over one object list,
and the isolated runs over one family, repeat none of that set-up.

A run can resume from an earlier run over the same objects, under any
budget.  It copies the earlier run's leading steps while the step skipped
no id, budget is left and the step's commit still fits, and stops at the
first step that fails any of them.  This is exact: a step that skipped no
id committed the top-ranked object of a state both runs share, and the
objective never reads the budget.  The copied steps get ``remaining_budget``
recomputed for the new budget and are committed as chosen ones are; every
object not yet fully selected is then scored and the loop goes on.  Budget
percentages and sweeps resume from the unconstrained run they are measured
against, which skips nothing, and each sweep fraction from the next larger
one, whose first skipped id does not fit under a smaller budget either.
"""

from __future__ import annotations

from heapq import heappop, heappush

from .benefit import (
    ObjectiveParams,
    SelectionObject,
    index_object,
    objective_value,
    pair_object,
    update_weight,
    view_object,
)
from .costmodel import Configuration, CostContext, QueryCosts
from .errors import InvalidBudgetError
from .record import Record

STOP_NO_POSITIVE_OBJECTIVE = "no_positive_objective"
STOP_CANDIDATES_EXHAUSTED = "candidates_exhausted"
STOP_BUDGET_EXHAUSTED = "budget_exhausted"


# The selection records are not hashable, and, like every record, not
# assigned after construction.
class IterationRecord(Record):
    __slots__ = _fields = (
        "step", "object_id", "kind", "objective", "incremental_bytes", "remaining_budget",
        "workload_cost", "skipped_unaffordable",
    )
    __hash__ = None

    def __init__(self, step: int, object_id: str, kind: str, objective: float, incremental_bytes: int,
                 remaining_budget: int, workload_cost: int, skipped_unaffordable: tuple[str, ...] = ()):
        self.step = step
        self.object_id = object_id
        self.kind = kind
        self.objective = objective
        self.incremental_bytes = incremental_bytes
        self.remaining_budget = remaining_budget
        self.workload_cost = workload_cost
        self.skipped_unaffordable = skipped_unaffordable


class SelectedMember(Record):
    __slots__ = _fields = ("id", "kind", "bytes")
    __hash__ = None

    def __init__(self, id: str, kind: str, bytes: int):
        self.id = id
        self.kind = kind  # "view" | "base_index" | "view_index"
        self.bytes = bytes


class SelectionResult(Record):
    __slots__ = _fields = ("config", "selected", "used_bytes", "iterations", "stop_reason", "final_cost")
    __hash__ = None

    def __init__(self, config: Configuration, selected: list[SelectedMember], used_bytes: int,
                 iterations: list[IterationRecord], stop_reason: str, final_cost: int = 0):
        self.config = config
        self.selected = selected
        self.used_bytes = used_bytes
        self.iterations = iterations
        self.stop_reason = stop_reason
        self.final_cost = final_cost

    def selected_ids(self) -> list[str]:
        return [m.id for m in self.selected]


def enumerate_objects(ctx: CostContext) -> list[SelectionObject]:
    """All scorable objects: view singletons, index singletons, then
    one pair per unit cell of the view-index matrix."""
    objects = [view_object(v, ctx) for v in ctx.views.values()]
    objects += [index_object(i, ctx) for i in ctx.indexes.values()]
    return objects + [
        pair_object(ctx.views[vid], ctx.indexes[iid], ctx) for vid, iid in ctx.matrices.pairs()
    ]


def incremental_size(obj: SelectionObject, config: Configuration) -> int:
    """Bytes a commit would add: members already selected contribute nothing."""
    size = 0
    for key, b in obj.parts:
        if key not in config:
            size += b
    return size


def _member_records(obj: SelectionObject, config: Configuration):
    """The members a commit adds, view first."""
    return [
        SelectedMember(
            m.id, "view" if m is obj.view else "base_index" if m.is_base() else "view_index", b
        )
        for m, (key, b) in zip(obj.members(), obj.parts)
        if key not in config
    ]


def greedy_core(
    ctx: CostContext,
    objects: list[SelectionObject],
    budget_bytes: int,
    params: ObjectiveParams,
    resume: SelectionResult | None = None,
) -> SelectionResult:
    """Greedy loop over an explicit object list (isolated strategies reuse it).

    ``resume`` is an earlier run over the same ``objects``, under any
    budget; its leading steps that skipped no id and still fit are replayed.
    """
    if budget_bytes < 0:
        raise InvalidBudgetError(f"budget must be >= 0, got {budget_bytes}")

    # who a commit can raise, by key and by query position
    readers_of_key, base_offers = ctx.reader_index(objects)

    costs = QueryCosts(ctx)
    selected: list[SelectedMember] = []
    iterations: list[IterationRecord] = []
    used = 0
    # the earlier run's leading steps that skipped no id and still fit
    replay = resume.iterations if resume is not None else []
    by_id = {o.id: o for o in objects} if replay else {}
    for it in replay:
        left = budget_bytes - used
        if it.skipped_unaffordable or left <= 0 or it.incremental_bytes > left:
            break
        obj = by_id[it.object_id]
        selected.extend(_member_records(obj, costs.config))
        costs.commit(obj)
        used += it.incremental_bytes
        iterations.append(IterationRecord(
            it.step, it.object_id, it.kind, it.objective, it.incremental_bytes,
            budget_bytes - used, it.workload_cost,
        ))
    # objects not yet fully selected; after a replay all are scored afresh
    remaining = {pos for pos, o in enumerate(objects) if not o.keys <= costs.config}
    raised = set(remaining)
    step = len(iterations)
    # (-objective, incremental bytes, id, pos, step scored at) of each
    # positive score, in a heap that also holds outdated entries: an entry
    # is current while it is its object's entry in ``ranked``, and exact
    # while it was scored at this step, else an upper bound
    heap: list[tuple[float, int, str, int, int]] = []
    ranked: dict[int, tuple[float, int, str, int, int]] = {}
    stop = None
    beta = update_weight(params, ctx)

    def score(pos):
        o = objects[pos]
        value = objective_value(o, costs, params, beta)
        if value > 0.0:
            ranked[pos] = (-value, incremental_size(o, costs.config), o.id, pos, step)
            heappush(heap, ranked[pos])
        else:
            ranked.pop(pos, None)

    while True:
        if budget_bytes - used <= 0:
            stop = STOP_BUDGET_EXHAUSTED
            break
        if not remaining:
            stop = STOP_CANDIDATES_EXHAUSTED
            break

        for pos in raised:
            score(pos)
        raised.clear()

        # the best affordable exact score; a bound on top is rescored, and
        # the better exact ones that do not fit go back
        chosen = None
        skipped: list[tuple[float, int, str, int, int]] = []
        while heap:
            entry = heappop(heap)
            if ranked.get(entry[3]) is not entry:
                continue
            if entry[4] != step:
                score(entry[3])
            elif entry[1] <= budget_bytes - used:
                chosen = entry
                break
            else:
                skipped.append(entry)
        if chosen is None:
            stop = STOP_BUDGET_EXHAUSTED if skipped else STOP_NO_POSITIVE_OBJECTIVE
            break
        for entry in skipped:
            heappush(heap, entry)

        neg_value, inc, _, chosen_pos, _ = chosen
        obj = objects[chosen_pos]
        selected.extend(_member_records(obj, costs.config))
        for q, slot in costs.commit(obj):
            raised.update(pos for s, pos in base_offers[q] if s != slot)
        used += inc
        step += 1
        for key in obj.keys:
            raised.update(readers_of_key[key])
        raised &= remaining
        # only an object sharing a member with the commit can have become
        # fully selected, and every such object is raised
        for pos in [p for p in raised if objects[p].keys <= costs.config]:
            raised.discard(pos)
            remaining.discard(pos)
            ranked.pop(pos, None)
        iterations.append(
            IterationRecord(
                step=step,
                object_id=obj.id,
                kind=obj.kind,
                objective=-neg_value,
                incremental_bytes=inc,
                remaining_budget=budget_bytes - used,
                workload_cost=sum(costs.cost),
                skipped_unaffordable=tuple(entry[2] for entry in skipped),
            )
        )

    return SelectionResult(
        config=costs.config,
        selected=selected,
        used_bytes=used,
        iterations=iterations,
        stop_reason=stop,
        final_cost=sum(costs.cost),
    )


def greedy_select(
    ctx: CostContext,
    budget_bytes: int,
    params: ObjectiveParams,
    objects: list[SelectionObject] | None = None,
    resume: SelectionResult | None = None,
) -> SelectionResult:
    """Simultaneous selection over views, indexes and view-index pairs.

    ``objects`` is ``enumerate_objects(ctx)``, built here unless given;
    ``resume`` is an earlier run over that list, see ``greedy_core``.
    """
    if objects is None:
        objects = enumerate_objects(ctx)
    return greedy_core(ctx, objects, budget_bytes, params, resume)
