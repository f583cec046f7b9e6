"""Randomized star-schema instances and independent cost oracles for tests."""

from __future__ import annotations

import importlib.util
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from mvindex.candidates import (
    IndexCandidate,
    UsageMatrices,
    ViewCandidate,
    build_matrices,
    generate_index_candidates,
    generate_view_candidates,
    make_base_index,
    make_view,
)
from mvindex.baselines import enumerate_exhaustive_objects
from mvindex.catalog import AttributeStats, SchemaCatalog, TableStats, validate_catalog
from mvindex.costmodel import (
    Configuration,
    CostContext,
    QueryCosts,
    maintenance_cost,
    member_key,
    object_size,
)
from mvindex.selector import (
    STOP_BUDGET_EXHAUSTED,
    STOP_CANDIDATES_EXHAUSTED,
    STOP_NO_POSITIVE_OBJECTIVE,
    IterationRecord,
    SelectionResult,
    _member_records,
    enumerate_objects,
    incremental_size,
)
from mvindex.errors import ParseError, UnknownNameError, ValidationError
from mvindex.workload import _HEADER_RE, Predicate, Query, Workload


@dataclass
class Instance:
    catalog: SchemaCatalog
    workload: Workload
    matrices: UsageMatrices

    @property
    def queries(self):
        return list(self.matrices.queries)

    @property
    def views(self):
        return list(self.matrices.views)

    @property
    def indexes(self):
        return list(self.matrices.indexes)

    def context(self) -> CostContext:
        return CostContext(self.matrices, self.catalog)


def random_instance(
    seed: int,
    max_tables: int = 6,
    max_queries: int = 12,
    min_support: int = 1,
) -> Instance:
    """A small random star schema, workload and generated candidate sets."""
    rng = random.Random(seed)
    n_dims = rng.randint(1, max_tables - 1)

    dims = []
    for d in range(n_dims):
        rows = rng.choice([8, 50, 400, 3000, 20000])
        attrs = [AttributeStats(f"key{d}", rows, 4)]
        for a in range(rng.randint(1, 3)):
            attrs.append(
                AttributeStats(
                    f"a{d}_{a}",
                    min(rng.choice([2, 4, 10, 50, 300, 2000]), rows),
                    rng.choice([4, 8, 16]),
                )
            )
        dims.append(
            TableStats(f"dim{d}", "dimension", rows, rng.choice([16, 40, 80, 160]), tuple(attrs))
        )

    fact_rows = rng.choice([5000, 50000, 400000, 2000000])
    fact_attrs = [AttributeStats(f"fk{d}", min(dims[d].row_count, fact_rows), 4) for d in range(n_dims)]
    fact_attrs.append(AttributeStats("measure", min(1000, fact_rows), 4))
    fact = TableStats("fact", "fact", fact_rows, rng.choice([12, 24, 48]), tuple(fact_attrs))

    catalog = SchemaCatalog(tables=(fact, *dims))
    validate_catalog(catalog)

    queries = []
    for k in range(rng.randint(1, max_queries)):
        joined_dims = rng.sample(range(n_dims), rng.randint(1, n_dims))
        joined = frozenset({"fact"} | {f"dim{d}" for d in joined_dims})
        join_pairs = tuple(
            (("fact", f"fk{d}"), (f"dim{d}", f"key{d}")) for d in sorted(joined_dims)
        )
        dim_attrs = [
            (f"dim{d}", a.name)
            for d in joined_dims
            for a in dims[d].attributes
            if not a.name.startswith("key")
        ]
        rng.shuffle(dim_attrs)
        n_preds = min(rng.randint(0, 2), len(dim_attrs))
        preds = tuple(
            Predicate(t, a, f"'c{rng.randint(0, 9)}'") for t, a in dim_attrs[:n_preds]
        )
        group_pool = dim_attrs[n_preds:] + [("fact", f"fk{d}") for d in joined_dims]
        n_group = min(rng.randint(1, 2), len(group_pool))
        group_by = tuple(group_pool[:n_group])
        queries.append(
            Query(
                id=f"q{k + 1}",
                select_attrs=group_by,
                aggregates=(("sum", ("fact", "measure")),),
                joined_tables=joined,
                join_pairs=join_pairs,
                predicates=preds,
                group_by=group_by,
            )
        )

    workload = Workload(queries=tuple(queries), refresh_ratio=0.0)
    views = generate_view_candidates(workload, catalog)
    indexes = generate_index_candidates(workload, views, min_support)
    matrices = build_matrices(workload, views, indexes)
    return Instance(catalog, workload, matrices)


def with_random_candidates(inst: Instance, seed: int) -> Instance:
    """The instance plus random views and base indexes that no query shaped.

    Such candidates can share an attribute without sharing a query, and a
    view may be usable by no query at all, which generated candidates never
    produce.
    """
    rng = random.Random(seed)
    catalog = inst.catalog
    fact = catalog.fact_table
    dims = [t for t in catalog.tables if t is not fact]
    views = list(inst.views)
    for k in range(rng.randint(1, 3)):
        joined = rng.sample(dims, rng.randint(1, len(dims)))
        pool = [(t.name, a.name) for t in (fact, *joined) for a in t.attributes]
        group_by = rng.sample(pool, rng.randint(1, min(4, len(pool))))
        join_pairs = [((fact.name, f"fk{t.name[3:]}"), (t.name, f"key{t.name[3:]}")) for t in joined]
        tables = {fact.name, *(t.name for t in joined)}
        aggregates = [("sum", (fact.name, "measure"))]
        views.append(make_view(f"x{k}", tables, join_pairs, group_by, aggregates, catalog))
    indexes = list(inst.indexes)
    for k in range(rng.randint(1, 3)):
        table = rng.choice(catalog.tables)
        indexes.append(make_base_index(f"y{k}", (table.name, rng.choice(table.attributes).name), catalog))
    matrices = build_matrices(inst.workload, views, indexes)
    return Instance(catalog, inst.workload, matrices)


def log_uniform_budget(rng: random.Random, total_bytes: int) -> int:
    hi = max(total_bytes * 2, 200)
    return int(math.exp(rng.uniform(math.log(100), math.log(hi))))


def _oracle_blocks(rows: int, width: int, catalog: SchemaCatalog) -> int:
    return math.ceil(rows * width / catalog.block_size) if rows else 0


def _oracle_height(attr, catalog: SchemaCatalog) -> int:
    card = catalog.attribute(*attr).cardinality
    h, reach = 0, 1
    while reach < card:
        reach *= catalog.btree_fanout
        h += 1
    return h


def _oracle_indexed(attr, blocks: int, q: Query, catalog: SchemaCatalog, table=None) -> int:
    """Descent of an index on ``attr`` plus the fraction of ``blocks`` that the
    query's predicates (on ``table`` only, if given) match."""
    divisor = 1
    for p in q.predicates:
        if table is None or p.table == table:
            divisor *= catalog.attribute(p.table, p.attribute).cardinality
    divisor = min(divisor, 10**9)
    return _oracle_height(attr, catalog) + math.ceil(blocks / divisor) if blocks else 0


def usable_view(q: Query, v: ViewCandidate) -> bool:
    """``candidates.usable_view`` written out from its docstring rule: the
    query's join set is contained in the view's, its group-by and predicate
    attributes appear in the view's group-by, and its aggregates are
    carried by the view."""
    q_attrs = {p.attr for p in q.predicates} | set(q.group_by)
    return (
        q.joined_tables <= v.joined_tables
        and q_attrs <= set(v.group_by)
        and set(q.aggregates) <= set(v.aggregates)
    )


def usable_index(q: Query, i: IndexCandidate) -> bool:
    """``candidates.usable_index`` written out from its docstring rule: the
    indexed attribute is among the query's predicate or group-by attributes
    and its table is joined by the query."""
    q_attrs = {p.attr for p in q.predicates} | set(q.group_by)
    return i.attribute in q_attrs and i.attribute[0] in q.joined_tables


def view_index_cell(v: ViewCandidate, i: IndexCandidate, indexes: list[IndexCandidate]) -> bool:
    """A view-index cell written out from the ``build_matrices`` docstring
    rule: a view-targeted candidate pairs with exactly its view; a base
    candidate pairs with every view whose indexable attributes (its
    ``group_by`` when ``indexable`` is None) hold its attribute, unless a
    view-targeted candidate in ``indexes`` holds that view and attribute."""
    if i.on_view is not None:
        return i.on_view.id == v.id
    indexable = set(v.group_by) if v.indexable is None else set(v.indexable)
    dedicated = any(j.on_view is not None and j.on_view.id == v.id and j.attribute == i.attribute
                    for j in indexes)
    return i.attribute in indexable and not dedicated


def brute_force_query_cost(
    q: Query,
    config: Configuration,
    views: list[ViewCandidate],
    indexes: list[IndexCandidate],
    catalog: SchemaCatalog,
) -> int:
    """Enumerate every rewriting of one query and return the cheapest.

    Written independently of the production evaluator: usability is
    re-derived from first principles and all per-table access choices are
    expanded as an explicit cartesian product.
    """
    import itertools

    q_attrs = set(p.attr for p in q.predicates) | set(q.group_by)

    # per-table options: scan, or any usable selected base index
    per_table = []
    for t in sorted(q.joined_tables):
        stats = catalog.table(t)
        b = _oracle_blocks(stats.row_count, stats.row_width, catalog)
        options = [b]
        for i in indexes:
            if not i.is_base() or i.id not in config:
                continue
            if i.target != t or i.attribute not in q_attrs:
                continue
            options.append(_oracle_indexed(i.attribute, b, q, catalog, table=t))
        per_table.append(options)

    alternatives = [sum(combo) for combo in itertools.product(*per_table)]

    for v in views:
        if v.id not in config or not usable_view(q, v):
            continue
        vb = _oracle_blocks(v.row_count, v.row_width, catalog)
        alternatives.append(vb)
        for vid, attr in (key for key in config if isinstance(key, tuple)):
            if vid != v.id or attr not in q_attrs or attr not in v.indexable_attrs:
                continue
            alternatives.append(_oracle_indexed(attr, vb, q, catalog))

    return min(alternatives)


def labelled_rewriting_cost(
    q: Query,
    label: str,
    config: Configuration,
    views: list[ViewCandidate],
    indexes: list[IndexCandidate],
    catalog: SchemaCatalog,
) -> int:
    """Block cost of the one rewriting of ``q`` that a ``query_cost`` label names.

    Labels are ``base``, ``base+indexes(i1,i2)``, ``view v1`` and ``view v1 +
    index on t.a``.  Costed the way ``brute_force_query_cost`` costs each
    rewriting; an AssertionError when the label names a structure that
    ``config`` does not hold or ``q`` cannot use.
    """
    q_attrs = set(p.attr for p in q.predicates) | set(q.group_by)
    if label.startswith("view "):
        vid, _, on = label[len("view "):].partition(" + index on ")
        v = next(v for v in views if v.id == vid)
        assert vid in config and usable_view(q, v), label
        vb = _oracle_blocks(v.row_count, v.row_width, catalog)
        if not on:
            return vb
        attr = tuple(on.split("."))
        assert (vid, attr) in config and attr in q_attrs and attr in v.indexable_attrs, label
        return _oracle_indexed(attr, vb, q, catalog)

    via = {}  # table -> the base index the label reads it through
    if label != "base":
        assert label.startswith("base+indexes(") and label.endswith(")"), label
        for iid in label[len("base+indexes("):-1].split(","):
            i = next(i for i in indexes if i.id == iid)
            assert i.is_base() and iid in config and i.attribute in q_attrs, label
            assert i.target in q.joined_tables and i.target not in via, label
            via[i.target] = i
    cost = 0
    for t in q.joined_tables:
        stats = catalog.table(t)
        b = _oracle_blocks(stats.row_count, stats.row_width, catalog)
        cost += _oracle_indexed(via[t].attribute, b, q, catalog, table=t) if t in via else b
    return cost


def random_config(rng: random.Random, inst: Instance) -> Configuration:
    """Random subset of the instance's candidates, always dependency-closed."""
    views = frozenset(v.id for v in inst.views if rng.random() < 0.4)
    base = frozenset(i.id for i in inst.indexes if i.is_base() and rng.random() < 0.4)
    view_keys = set()
    for vpos, vid in enumerate(inst.matrices.view_ids):
        if vid not in views:
            continue
        for ipos, iid in enumerate(inst.matrices.index_ids):
            if inst.matrices.view_index[vpos][ipos] and rng.random() < 0.3:
                cand = next(i for i in inst.indexes if i.id == iid)
                view_keys.add((vid, cand.attribute))
    return Configuration(views | base | view_keys)


def related_views(i: IndexCandidate, matrices: UsageMatrices) -> list[str]:
    """Views the index is defined on, read from the unit cells of the view-index matrix."""
    if not i.is_base():
        return [i.target]
    pairs = matrices.pairs()
    return [vid for vid in matrices.view_ids if (vid, i.id) in pairs]


def related_indexes(v: ViewCandidate, matrices: UsageMatrices) -> list[str]:
    """Base-index candidates defined on the view's attributes, read from the same cells."""
    pairs = matrices.pairs()
    return [iid for iid in matrices.base_index_ids if (v.id, iid) in pairs]


def walk_offers(ctx: CostContext, keys: Configuration) -> tuple:
    """What adding ``keys``, one member or a view with an index on it,
    offers each query, in the shape of a member's ``offers`` in
    ``CostContext.member_facts``, from a walk over every query's whole plan
    checking each term against ``keys``; a term's ``need`` is None when
    ``keys`` holds it.  The reference that a singleton's offer list equals,
    and whose queries a pair's ``saving`` is checked over."""
    offers = []
    for pos, q in enumerate(ctx.queries):
        _, tables, views = ctx.plan(q)
        named = {iid for _, options in tables for iid, _ in options}
        named |= {vid for vid, _, _ in views} | {key for *_, options in views for key, _ in options}
        if not named & keys:
            continue
        slot = indexed = None
        for s, (_, options) in enumerate(tables):
            for iid, blocks in options:
                if iid in keys:
                    slot, indexed = s, blocks
        terms = []
        for vid, vblocks, options in views:
            mine = vid in keys
            if mine:
                terms.append((vblocks, None))
            for key, blocks in options:
                if key in keys:
                    terms.append((blocks, None if mine else vid))
                elif mine:
                    terms.append((blocks, key))
        offers.append((pos, slot, indexed, tuple(terms)))
    return tuple(offers)


def plan_walk_costs(ctx: CostContext, config: Configuration) -> tuple[list, list, list]:
    """``(mins, base, cost)`` of every query under ``config``, in the shape
    of ``QueryCosts``, each from a walk over the query's whole plan
    (``ctx.plan``) that takes the least selected term of each table and of
    the views: the from-scratch reference that running costs committed to
    ``config`` equal."""
    mins, base, cost = [], [], []
    for q in ctx.queries:
        fixed, tables, views = ctx.plan(q)
        q_mins = [min([scan] + [blocks for iid, blocks in options if iid in config])
                  for scan, options in tables]
        q_base = fixed + sum(q_mins)
        terms = []
        for vid, vblocks, options in views:
            if vid in config:
                terms += [vblocks] + [blocks for key, blocks in options if key in config]
        mins.append(q_mins)
        base.append(q_base)
        cost.append(min([q_base] + terms))
    return mins, base, cost


def committed_costs(ctx: CostContext, config: Configuration) -> QueryCosts:
    """The running costs of ``config``: ``QueryCosts(ctx)`` with one
    singleton object committed per key of ``config``, checked against
    ``plan_walk_costs``.  Every key must be a member of the context's
    objects, as ``random_config`` draws them."""
    singletons = enumerate_exhaustive_objects(ctx, enumerate_objects(ctx))
    by_key = {key: o for o in singletons for key in o.keys}
    costs = QueryCosts(ctx)
    for key in sorted(config, key=repr):
        costs.commit(by_key[key])
    assert costs.config == config
    assert (costs.mins, costs.base, costs.cost) == plan_walk_costs(ctx, config)
    return costs


def full_rescore_objective(obj, queries, config, matrices, catalog, params, ctx) -> float:
    """The greedy objective from two whole-workload cost totals, with the
    object's keys, sizes and maintenance recomputed from its candidates."""
    members = [m for m in (obj.view, obj.index) if m is not None]
    size = sum(object_size(m, catalog) for m in members)
    before = ctx.workload_total(config)
    after = ctx.workload_total(config | {member_key(m) for m in members})
    if obj.kind == "view":
        related = [iid for iid in related_indexes(obj.view, matrices) if iid in config]
        denom = object_size(obj.view, catalog)
        denom += sum(object_size(ctx.indexes[iid], catalog) for iid in related)
    elif obj.kind == "index":
        related = [vid for vid in related_views(obj.index, matrices) if vid in config]
        denom = object_size(obj.index, catalog)
        denom += sum(object_size(ctx.views[vid], catalog) for vid in related)
    else:
        denom = size
    gain = (before - after) / max(denom, 1)
    beta = len(queries) * params.refresh_ratio / max(1, len(ctx.views) + len(ctx.indexes))
    if beta == 0.0:
        return gain
    maintenance = sum(maintenance_cost(m, catalog) for m in members)
    return gain - beta * maintenance / max(size, 1)


def full_rescore_greedy(objects, matrices, catalog, budget_bytes, params):
    """Reference greedy loop: every step rescores every remaining object from scratch."""
    ctx = CostContext(matrices, catalog)
    queries = list(matrices.queries)
    config = Configuration()
    selected = []
    iterations = []
    used = 0
    remaining = list(objects)
    stop = None
    step = 0

    while True:
        if budget_bytes - used <= 0:
            stop = STOP_BUDGET_EXHAUSTED
            break
        remaining = [o for o in remaining if not o.keys <= config]
        if not remaining:
            stop = STOP_CANDIDATES_EXHAUSTED
            break

        scored = []
        for o in remaining:
            value = full_rescore_objective(o, queries, config, matrices, catalog, params, ctx)
            if value > 0.0:
                scored.append((-value, incremental_size(o, config), o.id, o))
        if not scored:
            stop = STOP_NO_POSITIVE_OBJECTIVE
            break
        scored.sort(key=lambda s: s[:3])

        chosen = None
        skipped = []
        for neg_value, inc, oid, obj in scored:
            if inc <= budget_bytes - used:
                chosen = (-neg_value, inc, obj)
                break
            skipped.append(oid)
        if chosen is None:
            stop = STOP_BUDGET_EXHAUSTED
            break

        value, inc, obj = chosen
        selected.extend(_member_records(obj, config))
        config = config | obj.keys
        used += inc
        step += 1
        iterations.append(
            IterationRecord(
                step=step,
                object_id=obj.id,
                kind=obj.kind,
                objective=value,
                incremental_bytes=inc,
                remaining_budget=budget_bytes - used,
                workload_cost=ctx.workload_total(config),
                skipped_unaffordable=tuple(skipped),
            )
        )

    return SelectionResult(
        config=config,
        selected=selected,
        used_bytes=used,
        iterations=iterations,
        stop_reason=stop,
        final_cost=ctx.workload_total(config),
    )


def run_console(argv, **env) -> subprocess.CompletedProcess:
    """``mvindex argv`` in a fresh interpreter, as the console script runs it:
    ``python -m mvindex.cli`` on this checkout's ``src``, with ``env`` added to
    the environment.  The result holds the exit code and the output bytes."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-m", "mvindex.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(src), **env}, capture_output=True, timeout=120,
    )


def load_synth():
    """``perfbench/synth.py``, the benchmark's instance generator, as the module ``synth``."""
    if "synth" not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / "synth.py"
        spec = importlib.util.spec_from_file_location("synth", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules["synth"] = module  # its dataclasses look their module up here
        spec.loader.exec_module(module)
    return sys.modules["synth"]


# A reference workload parser: the tokenizer and recursive-descent parser
# that yielded one (kind, text, offset) tuple per token from one match
# object each, and the resolution that looked each attribute up through the
# catalog's methods.  The production parser must return equal workloads and
# raise the same exceptions with the same messages.

_ORACLE_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<string>'[^']*')
  | (?P<number>\d+(?:\.\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<punct>[(),.;=:])
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)

_ORACLE_KEYWORDS = {"select", "from", "where", "and", "group", "by", "sum"}


def _oracle_tokenize(text: str, source: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _ORACLE_TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(
                f"unexpected character {m.group()!r}", source, *_oracle_line_column(text, m.start())
            )
        if kind != "ws" and kind != "comment":
            tokens.append((kind, m.group(), m.start()))
    return tokens


def _oracle_line_column(text: str, offset: int) -> tuple[int, int]:
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


class _OracleParser:
    def __init__(self, tokens: list[tuple[str, str, int]], source: str, text: str):
        self.tokens = tokens + [("end", "", tokens[-1][2] if tokens else None)]
        self.pos = 0
        self.source = source
        self.text = text

    def _error(self, message: str):
        kind, _, off = self.tokens[self.pos]
        if off is None:
            raise ParseError(message + " (empty statement)", self.source)
        if kind == "end":
            message += " (at end of statement)"
        raise ParseError(message, self.source, *_oracle_line_column(self.text, off))

    def at_keyword(self, word: str) -> bool:
        kind, text, _ = self.tokens[self.pos]
        return kind == "name" and text.lower() == word

    def expect_keyword(self, word: str) -> None:
        if not self.at_keyword(word):
            self._error(f"expected keyword {word!r}")
        self.pos += 1

    def expect_punct(self, ch: str) -> None:
        if not self.at_punct(ch):
            self._error(f"expected {ch!r}")
        self.pos += 1

    def at_punct(self, ch: str) -> bool:
        return self.tokens[self.pos][1] == ch

    def name(self) -> str:
        kind, text, _ = self.tokens[self.pos]
        if kind != "name":
            self._error("expected identifier")
        if text.lower() in _ORACLE_KEYWORDS:
            self._error(f"unexpected keyword {text!r}")
        self.pos += 1
        return text.lower()

    def qattr(self):
        table = self.name()
        self.expect_punct(".")
        attr = self.name()
        return (table, attr)

    def parse_statement(self) -> dict:
        label = None
        kind, text, _ = self.tokens[self.pos]
        if kind == "name" and text.lower() != "select" and self.tokens[self.pos + 1][1] == ":":
            label = self.name()
            self.pos += 1

        self.expect_keyword("select")
        selects, aggregates = [], []
        while True:
            if self.at_keyword("sum"):
                self.pos += 1
                self.expect_punct("(")
                measure = self.name()
                self.expect_punct(")")
                aggregates.append(("sum", measure))
            else:
                selects.append(self.qattr())
            if self.at_punct(","):
                self.pos += 1
                continue
            break

        self.expect_keyword("from")
        tables = [self.name()]
        while self.at_punct(","):
            self.pos += 1
            tables.append(self.name())

        self.expect_keyword("where")
        joins, predicates = [], []
        while True:
            left = self.qattr()
            self.expect_punct("=")
            kind, text, _ = self.tokens[self.pos]
            if kind == "name":
                right = self.qattr()
                joins.append((left, right))
            elif kind in ("number", "string"):
                self.pos += 1
                predicates.append((left, text))
            else:
                self._error("expected attribute or literal after '='")
            if self.at_keyword("and"):
                self.pos += 1
                continue
            break

        group_by = []
        if self.at_keyword("group"):
            self.pos += 1
            self.expect_keyword("by")
            group_by.append(self.qattr())
            while self.at_punct(","):
                self.pos += 1
                group_by.append(self.qattr())

        if self.tokens[self.pos][0] != "end":
            self._error("trailing input after statement")

        return {
            "label": label,
            "selects": selects,
            "aggregates": aggregates,
            "tables": tables,
            "joins": joins,
            "predicates": predicates,
            "group_by": group_by,
        }


def _oracle_statements(tokens: list[tuple[str, str, int]]) -> list[list[tuple[str, str, int]]]:
    """The non-empty runs of tokens between ``;`` tokens."""
    statements = [[]]
    for t in tokens:
        if t[1] == ";":
            statements.append([])
        else:
            statements[-1].append(t)
    return [s for s in statements if s]


def _oracle_resolve(parsed: dict, catalog: SchemaCatalog, qid: str) -> Query:
    tables = parsed["tables"]
    joined = frozenset(tables)
    if len(joined) != len(tables):
        raise ValidationError(f"{qid}: duplicate table in from list")
    for t in tables:
        if not catalog.has_table(t):
            raise UnknownNameError(f"{qid}: unknown table {t!r}")
    fact = catalog.fact_table.name
    if fact not in joined:
        raise ValidationError(f"{qid}: query must join the fact table {fact!r}")

    def check_attr(attr):
        table, name = attr
        if not catalog.has_table(table):
            raise UnknownNameError(f"{qid}: unknown table {table!r}")
        if catalog.table(table).attribute(name) is None:
            raise UnknownNameError(f"{qid}: unknown attribute {table}.{name}")
        if table not in joined:
            raise ValidationError(f"{qid}: {table}.{name} refers to a table not in the from list")
        return attr

    join_pairs = []
    for left, right in parsed["joins"]:
        check_attr(left)
        check_attr(right)
        if left[0] == fact and right[0] != fact:
            join_pairs.append((left, right))
        elif right[0] == fact and left[0] != fact:
            join_pairs.append((right, left))
        else:
            raise ValidationError(
                f"{qid}: join {left[0]}.{left[1]} = {right[0]}.{right[1]} "
                "must link the fact table to a dimension"
            )

    predicates = tuple(
        Predicate(table=a[0], attribute=a[1], constant=lit)
        for a, lit in ((check_attr(a), lit) for a, lit in parsed["predicates"])
    )

    aggregates = []
    for func, measure in parsed["aggregates"]:
        owner = None
        for t in tables:
            if catalog.table(t).attribute(measure) is not None:
                if owner is not None:
                    raise ValidationError(f"{qid}: aggregate attribute {measure!r} is ambiguous")
                owner = t
        if owner is None:
            raise UnknownNameError(f"{qid}: unknown aggregate attribute {measure!r}")
        aggregates.append((func, (owner, measure)))

    return Query(
        id=qid,
        select_attrs=tuple(check_attr(a) for a in parsed["selects"]),
        aggregates=tuple(aggregates),
        joined_tables=joined,
        join_pairs=tuple(join_pairs),
        predicates=predicates,
        group_by=tuple(check_attr(a) for a in parsed["group_by"]),
    )


def oracle_parse_query(text: str, catalog: SchemaCatalog, qid: str = "q1", source: str = "<query>") -> Query:
    first, *rest = _oracle_statements(_oracle_tokenize(text, source)) or [[]]
    parsed = _OracleParser(first, source, text).parse_statement()
    if rest:
        raise ParseError(
            "trailing input after statement", source, *_oracle_line_column(text, rest[0][0][2])
        )
    return _oracle_resolve(parsed, catalog, parsed["label"] or qid)


def oracle_load_workload(text: str, catalog: SchemaCatalog, source: str = "<workload>") -> Workload:
    refresh_ratio = 0.0
    lines = text.splitlines()
    body_start = 0
    for i, line in enumerate(lines):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        m = _HEADER_RE.match(stripped)
        if m:
            try:
                refresh_ratio = float(m.group(1))
            except ValueError:
                raise ParseError(
                    f"refresh_ratio takes a real number, got {m.group(1)!r}", source, i + 1
                ) from None
            if not math.isfinite(refresh_ratio) or refresh_ratio < 0:
                raise ValidationError(
                    f"refresh_ratio must be finite and >= 0, got {m.group(1)}", source, i + 1
                )
            body_start = i + 1
        break
    body = ("\n" * body_start) + "\n".join(lines[body_start:])

    queries = []
    seen_ids = set()
    for i, stmt_tokens in enumerate(_oracle_statements(_oracle_tokenize(body, source)), start=1):
        try:
            parsed = _OracleParser(stmt_tokens, source, body).parse_statement()
        except ParseError as exc:
            exc.args = (f"statement {i}: {exc}",)
            raise
        try:
            query = _oracle_resolve(parsed, catalog, parsed["label"] or f"q{i}")
            if query.id in seen_ids:
                raise ValidationError(f"duplicate query id {query.id!r}")
        except (UnknownNameError, ValidationError) as exc:
            line = _oracle_line_column(body, stmt_tokens[0][2])[0]
            located = type(exc)(str(exc), source, line)
            located.args = (f"statement {i}: {located}",)
            raise located from None
        seen_ids.add(query.id)
        queries.append(query)
    return Workload(queries=tuple(queries), refresh_ratio=refresh_ratio)
