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
built once from the plans (``CostContext.member_facts``); a pair shares
its view's.  Per query the key can touch, it holds a base index's indexed
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

A run derives no fact of its objects.  What a score reads of an object
is set when the object is built, from its members' facts, which the plan
pass of its context derives by key (``CostContext.member_facts``).  Who
a commit can raise is the context's ``reader_index``, derived from those
facts once per object list: per key, the positions of the objects it
can raise by (i), each with a member that the key names or whose offered
terms need it; and per query, the base-index singletons offered there,
with their slots, for (ii).  Runs start from copies of the empty
configuration's running costs, also derived once, so the runs of a sweep
over one object list, or of one isolated family, repeat none of it.

A run can resume from an earlier run over the same objects, under any
budget.  It replays the earlier run's leading steps while the step skipped
no id, budget is left and the step's object still fits, and stops at the
first step that fails any of them.  This is exact: a step that skipped no
id committed the top-ranked object of a state both runs share, and the
objective never reads the budget.  A replayed step is committed and
recorded by the one step a chosen object takes, and its incremental bytes
are derived from the running state, as a score's are, so of the earlier
record it reads only the object id, the objective and whether the step
skipped an id; its step number, bytes, remaining budget and workload cost
are this run's.  After k replayed steps the loop goes on from the
earlier run's scores at state k, which it logged: each entry it pushed,
stamped with its step, and each removal.  Of the entries stamped at most
k, the last of each object is that run's ranking at state k, exact where
stamped k and, by the argument above, an upper bound elsewhere, so the
resumed run rescores only what its own pops reach.  Where the earlier
run carries no log, or did not rescore the objects raised at every state
up to k (its scoring began after k, or ended before k), every object not
yet fully selected is scored afresh.  Budget percentages and sweeps
resume from the unconstrained run they are measured against, which skips
nothing, and each sweep fraction from the next larger one, whose first
skipped id does not fit under a smaller budget either.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

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
    """What a run selected, and, for the greedy loop, how.

    ``scorings`` is not a field, so equality, ``repr`` and every report
    ignore it.  The greedy loop sets it to ``(objects, log, first, last)``:
    its object list, and the log of its scorings in the order they were
    made, each a pushed heap entry ``(-objective, incremental bytes, id,
    position, step)`` or, where a score that was ranked fell to zero or
    below, a removal ``(position, step)``.  The log holds the ranking at
    every state from ``first`` through ``last``, the state its scoring
    began at (or that of the log it inherited) and the last state whose
    raised objects it rescored; ``last < first`` when there is none.  A run
    resumed from this one reads it (see ``greedy_core``); every other
    result carries ``None``.
    """

    _fields = ("config", "selected", "used_bytes", "iterations", "stop_reason", "final_cost")
    __slots__ = _fields + ("scorings",)
    __hash__ = None

    def __init__(self, config: Configuration, selected: list[SelectedMember], used_bytes: int,
                 iterations: list[IterationRecord], stop_reason: str, final_cost: int = 0,
                 scorings: tuple | None = None):
        self.config = config
        self.selected = selected
        self.used_bytes = used_bytes
        self.iterations = iterations
        self.stop_reason = stop_reason
        self.final_cost = final_cost
        self.scorings = scorings

    def selected_ids(self) -> list[str]:
        return [m.id for m in self.selected]


def enumerate_objects(ctx: CostContext) -> list[SelectionObject]:
    """All scorable objects: view singletons, index singletons, then
    one pair per unit cell of the view-index matrix."""
    objects = [view_object(v, ctx) for v in ctx.views.values()]
    objects += [index_object(i, ctx) for i in ctx.indexes.values()]
    return objects + [pair_object(ctx.views[vid], ctx.indexes[iid], ctx) for vid, iid in ctx.pairs]


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

    ``resume`` is an earlier run over the same ``objects`` and ``params``,
    under any budget; its leading steps that skipped no id and still fit
    are replayed.  If its ``scorings`` are over an equal object list and
    cover the state the replay stops at, the run starts from its ranking
    there and its log begins with the entries that ranking was read from;
    otherwise (a hand-built, exhaustive or unselected result, another
    object list, or a log that does not cover that state) it scores every
    object not yet fully selected, and its log begins empty at that state.
    """
    if budget_bytes < 0:
        raise InvalidBudgetError(f"budget must be >= 0, got {budget_bytes}")

    # who a commit can raise, by key and by query position
    readers_of_key, base_offers = ctx.reader_index(objects)

    costs = QueryCosts(ctx)
    selected: list[SelectedMember] = []
    iterations: list[IterationRecord] = []
    used = step = 0

    def take(obj, objective, inc, skipped=()):
        """Commit ``obj`` as the next step and record it; returns the
        ``(position, slot)`` pairs of ``QueryCosts.commit``."""
        nonlocal used, step
        selected.extend(_member_records(obj, costs.config))
        lowered = costs.commit(obj)
        used += inc
        step += 1
        iterations.append(IterationRecord(
            step, obj.id, obj.kind, objective, inc, budget_bytes - used, sum(costs.cost), skipped
        ))
        return lowered

    # the earlier run's leading steps that skipped no id and still fit
    replay = resume.iterations if resume is not None else []
    by_id = {o.id: o for o in objects} if replay else {}
    for it in replay:
        obj, left = by_id[it.object_id], budget_bytes - used
        inc = incremental_size(obj, costs.config)
        if it.skipped_unaffordable or left <= 0 or inc > left:
            break
        take(obj, it.objective, inc)
    # objects not yet fully selected: ranked as the earlier run ranked them
    # at this state if its log holds that ranking, else all scored afresh
    remaining = {pos for pos, o in enumerate(objects) if not o.keys <= costs.config}
    # (-objective, incremental bytes, id, pos, step scored at) of each
    # positive score, in a heap that also holds outdated entries: an entry
    # is current while it is its object's entry in ``ranked``, and exact
    # while it was scored at this step, else an upper bound
    earlier = resume.scorings if resume is not None else None
    if earlier is not None and earlier[2] <= step <= earlier[3] and earlier[0] == objects:
        # the earlier run's ranking at this state: its last entry per
        # object among those stamped at most this step
        entries = earlier[1]
        end = len(entries)
        while end and entries[end - 1][-1] > step:
            end -= 1
        log, first = entries[:end], earlier[2]
        latest = {entry[-2]: entry for entry in log}
        ranked = {pos: entry for pos, entry in latest.items() if len(entry) == 5 and pos in remaining}
        heap = list(ranked.values())
        heapify(heap)
        raised = set()
        last = step
    else:
        log, first, last = [], step, step - 1
        ranked = {}
        heap = []
        raised = set(remaining)
    stop = None
    beta = update_weight(params, ctx)

    def score(pos):
        o = objects[pos]
        value = objective_value(o, costs, beta)
        if value > 0.0:
            ranked[pos] = entry = (-value, incremental_size(o, costs.config), o.id, pos, step)
            heappush(heap, entry)
            log.append(entry)
        elif ranked.pop(pos, None) is not None:
            log.append((pos, step))

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
        last = step

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
        for q, slot in take(obj, -neg_value, inc, tuple(entry[2] for entry in skipped)):
            raised.update(pos for s, pos in base_offers[q] if s != slot)
        for key in obj.keys:
            raised.update(readers_of_key[key])
        raised &= remaining
        # only an object sharing a member with the commit can have become
        # fully selected, and every such object is raised
        for pos in [p for p in raised if objects[p].keys <= costs.config]:
            raised.discard(pos)
            remaining.discard(pos)
            ranked.pop(pos, None)

    return SelectionResult(
        config=costs.config,
        selected=selected,
        used_bytes=used,
        iterations=iterations,
        stop_reason=stop,
        final_cost=sum(costs.cost),
        scorings=(objects, log, first, last),
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
