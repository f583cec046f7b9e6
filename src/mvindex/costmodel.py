"""Block-I/O cost model: storage sizes, query access costs, maintenance costs.

Every cost is a count of disk blocks.  A query's cost is the minimum over
its applicable rewritings:

  (a) scan every joined base table;
  (b) same, but any joined table with a usable selected base index is
      accessed through it: btree descent plus the matching fraction of
      the table's blocks (product of the query's predicate selectivities
      on that table, 1/cardinality each, the product floored at 1e-9);
  (c) scan a usable selected view;
  (d) access a usable selected view through a selected index built on it.

Joins beyond the scans themselves are not costed, so the workload cost is
the sum of independent per-query minima.  All block arithmetic is integer
(ceiling divisions), which keeps runs bit-identical across platforms.

A configuration is one frozenset of member keys (``member_key``): view and
base-index ids, and ``(view id, attribute)`` for on-view indexes.  A
rewriting only asks whether a key is selected, so view and index ids must
be distinct; selection names pairs ``v1+i8`` and re-targeted indexes
``i8@v1``, so no id may hold ``+`` or ``@``.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import compress

from .catalog import SchemaCatalog, btree_height, table_blocks
from .catalog import blocks as blocks_of
from .candidates import IndexCandidate, UsageMatrices, ViewCandidate
from .errors import ValidationError
from .record import Record
from .workload import Query

COST_MODEL_ID = "blockscan-btree/1"

# selectivity 1/d floored at 1e-9 means d capped at 10**9
_DIVISOR_CAP = 10**9


def _ceil_div(a: int, d: int) -> int:
    return -(-a // d)


def _indexed(height: int, blocks: int, divisor: int) -> int:
    """Btree descent plus the matching fraction of ``blocks``; 0 when empty."""
    return height + _ceil_div(blocks, min(divisor, _DIVISOR_CAP)) if blocks else 0


def object_size(obj, catalog: SchemaCatalog) -> int:
    """Storage bytes of a candidate view or index.

    View: estimated rows times row width.  Index: target row count times
    (key width + rowid width); an on-view index counts the view's rows.
    """
    if isinstance(obj, ViewCandidate):
        return obj.row_count * obj.row_width
    if isinstance(obj, IndexCandidate):
        key_width = catalog.attribute(*obj.attribute).width
        if obj.is_base():
            rows = catalog.table(obj.target).row_count
        else:
            rows = obj.on_view.row_count
        return rows * (key_width + catalog.rowid_width)
    raise ValidationError(f"cannot size object of type {type(obj).__name__}")


def maintenance_cost(obj, catalog: SchemaCatalog) -> int:
    """Blocks written per refresh, under a recompute-and-rewrite model.

    View: re-read its joined tables and rewrite the view.  Index: re-read
    the target and rewrite the index.
    """
    if isinstance(obj, ViewCandidate):
        source = sum(table_blocks(catalog.table(t), catalog) for t in sorted(obj.joined_tables))
        return source + blocks_of(obj.row_count, obj.row_width, catalog)
    if isinstance(obj, IndexCandidate):
        if obj.is_base():
            target = table_blocks(catalog.table(obj.target), catalog)
        else:
            target = blocks_of(obj.on_view.row_count, obj.on_view.row_width, catalog)
        return target + _ceil_div(object_size(obj, catalog), catalog.block_size)
    raise ValidationError(f"cannot cost object of type {type(obj).__name__}")


Configuration = frozenset  # of member keys, see member_key


def member_key(obj):
    """Configuration key of a candidate: its id, or (view id, attribute) for an
    on-view index, which is one member however it was named."""
    if isinstance(obj, IndexCandidate) and not obj.is_base():
        return (obj.target, obj.attribute)
    return obj.id


def _cheapest_selected(plan: tuple, config: Configuration) -> tuple[int, list, list, tuple | None]:
    """The cheapest terms of a plan that ``config`` selects.

    ``(base, mins, indexed, view)``: ``mins`` holds the cheapest selected
    blocks of each plan table, ``base`` their sum with the plan's fixed
    blocks, ``indexed`` the base indexes giving any of them, in table
    order; ``view`` is ``(blocks, key)`` of the cheapest selected view or
    on-view index term, or None.  The earlier term wins a tie.
    """
    base, tables, views = plan
    mins, indexed = [], []
    for scan, options in tables:
        best, best_iid = scan, None
        for iid, blocks in options:
            if blocks < best and iid in config:
                best, best_iid = blocks, iid
        base += best
        mins.append(best)
        if best_iid is not None:
            indexed.append(best_iid)
    view = None
    for vid, vblocks, options in views:
        if vid not in config:
            continue
        if view is None or vblocks < view[0]:
            view = (vblocks, vid)
        for key, blocks in options:
            if blocks < view[0] and key in config:
                view = (blocks, key)
    return base, mins, indexed, view


class CostReport(Record):
    """Per-query costs, chosen rewritings and their total for one configuration."""

    __slots__ = _fields = ("per_query_cost", "chosen_rewriting", "total")

    def __init__(self, per_query_cost: dict[str, int], chosen_rewriting: dict[str, str], total: int):
        self.per_query_cost = per_query_cost
        self.chosen_rewriting = chosen_rewriting
        self.total = total


class CostContext:
    """Cost evaluator bound to one set of usage matrices and a catalog.

    Every query's plan and every member key's offers come from one pass
    over the query rows of the usage matrices, at the first ``plan``,
    ``offers`` or ``query_cost`` with a non-empty configuration.  So one
    context per invocation serves every scoring pass and selection run, and
    a run that selects nothing derives neither.  Apart from what it derives
    on first use the context is pure: the plans and offers; the empty
    configuration's running costs, which each ``QueryCosts`` copies;
    ``paired``; per member key, the ``member_facts`` that selection
    objects are built from; and, per object list, the ``reader_index`` that
    greedy runs over it read, so the runs of a sweep over one list build it
    once.  None of these refers back to the context, so an invocation's
    context is freed as soon as it ends, by reference counting.  It carries
    its inputs (``queries``, ``views`` and ``indexes`` by id, read from
    ``matrices``, and ``catalog``), so it is the one handle that scoring,
    selection and reporting take.  It raises ``ValidationError`` for a view
    or index id that repeats or holds ``+`` or ``@``.  The build reads each
    query's joined tables for its scan; ``paired`` reads the view-index
    cells of the usage matrices at its first use.

    A plan is ``(fixed, tables, views)``, every cost in blocks: ``fixed``
    sums the scans of the joined tables no usable base index reaches;
    ``tables`` holds ``(scan, ((index id, indexed), ...))`` for each other
    joined table in sorted order; ``views`` holds ``(view id, scan,
    ((on-view key, indexed), ...))`` for each usable view.  An indexed cost
    is the btree descent plus the matching fraction of the target's blocks.
    ``query_cost`` takes the minimum over the terms whose keys the
    configuration holds, the earlier term on a tie, and names the winning
    key; ``plan(q)`` reads a plan, ``offers(key)`` a member's list, and
    ``QueryCosts`` is built on them.
    """

    def __init__(self, matrices: UsageMatrices, catalog: SchemaCatalog):
        views, indexes = matrices.views, matrices.indexes
        self.catalog = catalog
        self.matrices = matrices
        self.queries = list(matrices.queries)
        self.views = {v.id: v for v in views}
        self.indexes = {i.id: i for i in indexes}
        self._blocks_of_table = {t.name: table_blocks(t, catalog) for t in catalog.tables}
        # query id -> blocks of scanning its joined tables, rewriting (a)
        self._scan = {q.id: sum(self._blocks_of_table[t] for t in q.joined_tables)
                      for q in self.queries}
        # member key -> what a selection object reads of it, see member_facts
        self._facts: dict[object, tuple] = {}
        # object ids in list order -> who a commit can raise, see reader_index
        self._readers: dict[tuple, tuple] = {}

        seen = set()
        for id_ in matrices.view_ids + matrices.index_ids:
            if id_ in seen:
                raise ValidationError(f"view and index ids must be distinct, {id_!r} repeats")
            if "+" in id_ or "@" in id_:
                raise ValidationError(f"view and index ids may not hold '+' or '@', got {id_!r}")
            seen.add(id_)

    @cached_property
    def paired(self) -> dict[str, tuple]:
        """Candidate id -> ``(key, bytes)`` of each candidate it pairs with in
        the view-index matrix: a view's base indexes, a base index's views."""
        paired: dict[str, list] = {}
        for vid, iid in self.matrices.pairs():
            v, i = self.views[vid], self.indexes[iid]
            if i.is_base():
                paired.setdefault(vid, []).append(self.member_facts(i)[0])
                paired.setdefault(iid, []).append(self.member_facts(v)[0])
        return {cid: tuple(parts) for cid, parts in paired.items()}

    @cached_property
    def _plans_and_offers(self) -> tuple[dict[str, tuple], dict[object, tuple]]:
        """Every query's plan by id and every member key's offers, from one
        pass over the query rows of the usage matrices."""
        catalog, matrices, blocks_of_table = self.catalog, self.matrices, self._blocks_of_table

        # per-candidate facts in matrix column order, read once per query that can use it
        def height(attr):
            return btree_height(catalog.attribute(*attr).cardinality, catalog)

        base_access = [(i.id, i.target, height(i.attribute)) for i in matrices.indexes if i.is_base()]
        view_access = [(v.id, blocks_of(v.row_count, v.row_width, catalog),
                        [(attr, height(attr)) for attr in sorted(v.indexable_attrs)])
                       for v in matrices.views]
        plans, lists = {}, {}
        rows = zip(self.queries, matrices.query_index, matrices.query_view)
        for pos, (q, index_row, view_row) in enumerate(rows):
            cards = [(p.table, catalog.attribute(*p.attr).cardinality) for p in q.predicates]
            reaching: dict[str, list[tuple[str, int]]] = {}
            for iid, t, h in compress(base_access, index_row):
                divisor = math.prod(card for table, card in cards if table == t)
                reaching.setdefault(t, []).append((iid, _indexed(h, blocks_of_table[t], divisor)))
            fixed = sum(blocks_of_table[t] for t in q.joined_tables if t not in reaching)
            tables = tuple((blocks_of_table[t], tuple(reaching[t])) for t in sorted(reaching))
            for slot, (_, options) in enumerate(tables):
                for iid, blocks in options:
                    lists.setdefault(iid, []).append((pos, slot, blocks, ()))
            plan_views = []
            q_attrs = q.filter_group_attrs
            all_divisor = math.prod(card for _, card in cards)
            for vid, vblocks, on_view in compress(view_access, view_row):
                options = tuple(((vid, attr), _indexed(h, vblocks, all_divisor))
                                for attr, h in on_view if attr in q_attrs)
                plan_views.append((vid, vblocks, options))
                terms = ((vblocks, None), *((blocks, key) for key, blocks in options))
                lists.setdefault(vid, []).append((pos, None, None, terms))
                for key, blocks in options:
                    lists.setdefault(key, []).append((pos, None, None, ((blocks, vid),)))
            plans[q.id] = (fixed, tables, tuple(plan_views))
        return plans, {key: tuple(offers) for key, offers in lists.items()}

    @cached_property
    def _empty_costs(self) -> tuple[list[list[int]], list[int]]:
        """The empty configuration's ``mins`` and ``base`` per query, by
        position: its plan's table scans, and the scan of its joined tables,
        which is also its cost.  ``QueryCosts`` copies them."""
        plans = self._plans_and_offers[0]
        return (
            [[scan for scan, _ in plans[q.id][1]] for q in self.queries],
            [self._scan[q.id] for q in self.queries],
        )

    def member_facts(self, member) -> tuple:
        """What a selection object reads of ``member``, a candidate, derived
        once per ``member_key``.

        ``(part, keys, maintenance, offers, raised_by)``: ``part`` is ``(key,
        bytes)``, ``keys`` the key alone, ``maintenance`` its maintenance
        blocks and ``offers`` its offer list.  ``raised_by`` is ``keys`` plus
        the ``need`` of each offered term, the keys whose selection can make
        a term usable, which ``reader_index`` reads.  A view or base index is
        in many selection objects (its singleton, its pairs, the dependencies
        of the candidates it pairs with), and every member with one key has
        the same facts.
        """
        key = member_key(member)
        facts = self._facts.get(key)
        if facts is None:
            catalog, offers = self.catalog, self.offers(key)
            keys = frozenset((key,))
            needs = {need for _, _, _, terms in offers for _, need in terms if need is not None}
            facts = (
                (key, object_size(member, catalog)),
                keys,
                maintenance_cost(member, catalog),
                offers,
                keys | needs if needs else keys,
            )
            self._facts[key] = facts
        return facts

    def reader_index(self, objects) -> tuple[dict[object, list[int]], list[list[tuple[int, int]]]]:
        """Who a commit can raise among ``objects``, a list of selection
        objects built on this context, derived once per list.

        ``(readers_of_key, base_offers)``: ``readers_of_key`` maps each key
        to the positions in ``objects`` of the objects with a member whose
        ``raised_by`` (``member_facts``) holds it; a pair may be listed twice
        under its view.  ``base_offers`` holds, per query position, ``(slot,
        object position)`` for each offer of a base-index singleton there:
        every offer of a base-index key is at a plan table.  The index is
        keyed by the ordered tuple of object ids: an object's facts follow
        from its id on one context, and the positions from the order.
        Callers read it and never change it.
        """
        ids = tuple([o.id for o in objects])
        index = self._readers.get(ids)
        if index is None:
            facts = self._facts  # every member of an object built here has its facts
            readers_of_key: dict[object, list[int]] = {}
            base_offers: list[list[tuple[int, int]]] = [[] for _ in self.queries]
            for pos, obj in enumerate(objects):
                for part_key, _ in obj.parts:
                    for key in facts[part_key][4]:
                        readers_of_key.setdefault(key, []).append(pos)
                if obj.view is None and obj.index.is_base():
                    for q, slot, _, _ in obj.offers:
                        base_offers[q].append((slot, pos))
            index = self._readers[ids] = (readers_of_key, base_offers)
        return index

    def plan(self, q: Query) -> tuple:
        """The plan ``(fixed, tables, views)`` of ``q``, see the class docstring."""
        return self._plans_and_offers[0][q.id]

    def offers(self, key) -> tuple:
        """What selecting the member ``key`` alone offers each query.

        One ``(position, slot, blocks, terms)`` per query whose plan names
        ``key``, in workload order, or ``()``; every other query costs the
        same with or without it.  ``slot`` is the position in the plan's
        ``tables`` of a base index ``key`` and ``blocks`` its indexed cost
        there, or both are None.  ``terms`` holds ``(blocks, need)`` per view
        or on-view index term that names ``key``, where ``need`` is the one
        other key the term names, which must be selected too, or None.  A
        pair reads its view's list: its on-view index reaches only queries
        its view reaches, and each term that needs the index is counted by
        ``QueryCosts.before_after`` and ``commit`` once the pair is taken.
        """
        return self._plans_and_offers[1].get(key, ())

    def query_cost(self, q: Query, config: Configuration) -> tuple[int, str]:
        """Minimum block cost of answering ``q`` under ``config`` plus its rewriting label.

        With nothing selected only rewriting (a) applies: the scan of the
        joined tables, which is the plan's answer too, so no plan is built.
        """
        if not config:
            return self._scan[q.id], "base"
        cost, _, indexed, view = _cheapest_selected(self.plan(q), config)
        if view is not None and view[0] < cost:
            blocks, key = view
            if isinstance(key, str):
                return blocks, f"view {key}"
            return blocks, "view {} + index on {}.{}".format(key[0], *key[1])
        return cost, "base+indexes(" + ",".join(indexed) + ")" if indexed else "base"

    def workload_total(self, config: Configuration) -> int:
        return sum(self.query_cost(q, config)[0] for q in self.queries)


class QueryCosts:
    """A configuration, ``config``, and its per-query costs; only ``commit`` changes them.

    Per query of the workload, by position: ``mins``, the cheapest selected
    term of each plan table (its scan or a selected base index); ``base``,
    the plan's fixed blocks plus those minima; ``cost``, ``query_cost``'s:
    the lesser of ``base`` and the cheapest selected view or on-view term.
    ``before_after`` and ``commit`` read a selection object's ``keys`` and
    ``offers``, one member key's list, which objects share unchanged.  A
    state starts from the empty configuration, where every greedy run
    starts: its lists are copies of the ones ``ctx`` derives once, each
    ``mins`` row the plan's table scans, and ``base`` and ``cost`` the
    joined-table scan.  Any other configuration is reached by committing
    its members, and the state keeps no reference to ``ctx``.
    """

    def __init__(self, ctx: CostContext):
        self.config = Configuration()
        # copies, rows too: ``commit`` changes them in place
        mins, scans = ctx._empty_costs
        self.mins = [row.copy() for row in mins]
        self.base = scans.copy()
        self.cost = scans.copy()

    def commit(self, obj) -> list[tuple[int, int]]:
        """Add the keys of ``obj``, a selection object; each query its offers
        name takes its cost after, as ``before_after`` finds it.

        Returns the ``(position, slot)`` of each query whose ``base`` fell,
        with the plan table it fell at: at most one per query.
        """
        self.config = config = self.config | obj.keys
        mins, base, cost = self.mins, self.base, self.cost
        lowered = []
        for pos, slot, indexed, terms in obj.offers:
            if slot is not None and indexed < mins[pos][slot]:
                base[pos] += indexed - mins[pos][slot]
                mins[pos][slot] = indexed
                lowered.append((pos, slot))
            best = min(cost[pos], base[pos])
            for blocks, need in terms:
                if blocks < best and (need is None or need in config):
                    best = blocks
            cost[pos] = best
        return lowered

    def before_after(self, obj) -> tuple[int, int]:
        """Summed cost of the queries ``obj``'s offers name, before and after
        adding its keys; ``commit(obj)`` moves them to the costs after.

        A query's cost after is the least of its cost, its base part with the
        offered table lowered and the offered terms whose ``need`` is None,
        selected or one of ``obj.keys``; every other query keeps its cost, so
        ``before - after`` is the whole-workload cost reduction.
        """
        config, keys, mins, base, cost = self.config, obj.keys, self.mins, self.base, self.cost
        before = after = 0
        for pos, slot, indexed, terms in obj.offers:
            best = cost[pos]
            before += best
            if slot is not None and indexed < mins[pos][slot]:
                lowered = base[pos] + indexed - mins[pos][slot]
                if lowered < best:
                    best = lowered
            for blocks, need in terms:
                if blocks < best and (need is None or need in config or need in keys):
                    best = blocks
            after += best
        return before, after


def workload_cost(ctx: CostContext, config: Configuration) -> CostReport:
    """Cost report over the context's workload; deterministic, summed in query order."""
    per_query: dict[str, int] = {}
    rewriting: dict[str, str] = {}
    for q in ctx.queries:
        cost, label = ctx.query_cost(q, config)
        per_query[q.id] = cost
        rewriting[q.id] = label
    return CostReport(
        per_query_cost=per_query,
        chosen_rewriting=rewriting,
        total=sum(per_query.values()),
    )
