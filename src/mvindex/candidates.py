"""Candidate views, candidate indexes and the three usage matrices.

View candidates come from grouping workload queries by identical join-table
signature and merging each group into a single aggregation view.  Index
candidates come from per-attribute support counting over predicates and
group-by lists.  Both generators are deterministic: the same workload
always yields the same candidates with the same ids.

A candidates file can inject fixed sets instead of generating them::

    view v1
      tables sales, times
      join sales.time_id = times.time_id
      group_by sales.time_id, times.time_fiscal_year
      agg sum(sales.amount_sold)
      indexable times.time_fiscal_year     # optional; defaults to all group_by

    index i1 on promotions key promo_category
    index j1 on v1 key times.time_fiscal_year

``indexable`` restricts which group-by attributes admit an index on that
view: the view-index matrix honours it, and an ``index ... on <view-id>``
line, which declares an index candidate targeting a view instead of a base
table, must key one of them.  ``build_matrices`` gives the stage's result:
the queries and candidates together with their three usage matrices.
"""

from __future__ import annotations

from itertools import compress

from .catalog import SchemaCatalog, strip_comment
from .errors import ParseError, UnknownNameError, ValidationError
from .record import Record
from .workload import Attr, Query, Workload


class ViewCandidate(Record):
    """A pre-joined, pre-aggregated view over the fact table and some dimensions."""

    _fields = ("id", "joined_tables", "join_pairs", "group_by", "aggregates", "row_count", "row_width",
               "indexable")
    __slots__ = _fields + ("_group_by_set",)

    def __init__(self, id: str, joined_tables: frozenset[str], join_pairs: tuple[tuple[Attr, Attr], ...],
                 group_by: tuple[Attr, ...], aggregates: tuple[tuple[str, Attr], ...], row_count: int,
                 row_width: int, indexable: frozenset[Attr] | None = None):
        self.id = id
        self.joined_tables = joined_tables
        self.join_pairs = join_pairs
        self.group_by = group_by
        self.aggregates = aggregates
        self.row_count = row_count  # estimated distinct groups
        self.row_width = row_width  # group-by widths plus 8 bytes per aggregate
        self.indexable = indexable  # None means every group_by attribute
        # every pair's index check reads it, through indexable_attrs
        self._group_by_set = frozenset(group_by)

    def group_by_set(self) -> frozenset[Attr]:
        return self._group_by_set

    def indexable_attrs(self) -> frozenset[Attr]:
        return self._group_by_set if self.indexable is None else self.indexable


class IndexCandidate(Record):
    """Single-attribute B-tree index on a base table or on a view."""

    __slots__ = _fields = ("id", "attribute", "on_view")

    def __init__(self, id: str, attribute: Attr, on_view: ViewCandidate | None = None):
        self.id = id
        self.attribute = attribute  # base attribute carrying width/cardinality stats
        self.on_view = on_view  # the target view of an on-view index

    @property
    def target(self) -> str:
        """The indexed table's name, or the id of the view the index is on."""
        return self.attribute[0] if self.on_view is None else self.on_view.id

    def is_base(self) -> bool:
        return self.on_view is None


def view_stats(group_by: tuple[Attr, ...], aggregates, catalog: SchemaCatalog) -> tuple[int, int]:
    """Estimated (row_count, row_width) of a view.

    Rows: product of group-by attribute cardinalities, capped at the fact
    table's row count (the standard distinct-group bound).  Width: sum of
    group-by attribute widths plus 8 bytes per aggregate.
    """
    fact_rows = catalog.fact_table.row_count
    prod = 1
    width = 0
    for table, attr in group_by:
        stats = catalog.attribute(table, attr)
        prod = min(prod * stats.cardinality, fact_rows)
        width += stats.width
    width += 8 * len(aggregates)
    return min(prod, fact_rows), width


def make_view(vid, joined_tables, join_pairs, group_by, aggregates, catalog, indexable=None):
    rows, width = view_stats(tuple(group_by), tuple(aggregates), catalog)
    return ViewCandidate(
        id=vid,
        joined_tables=frozenset(joined_tables),
        join_pairs=tuple(join_pairs),
        group_by=tuple(group_by),
        aggregates=tuple(aggregates),
        row_count=rows,
        row_width=width,
        indexable=frozenset(indexable) if indexable is not None else None,
    )


def make_base_index(iid: str, attr: Attr, catalog: SchemaCatalog) -> IndexCandidate:
    catalog.attribute(*attr)  # must resolve
    return IndexCandidate(id=iid, attribute=attr)


def make_view_index(iid: str, view: ViewCandidate, attr: Attr, catalog: SchemaCatalog) -> IndexCandidate:
    # the cost model keys an on-view index only on an indexable attribute
    if attr not in view.indexable_attrs():
        raise ValidationError(f"index {iid}: {attr[0]}.{attr[1]} is not indexable on view {view.id}")
    catalog.attribute(*attr)
    return IndexCandidate(id=iid, attribute=attr, on_view=view)


def generate_view_candidates(workload: Workload, catalog: SchemaCatalog) -> list[ViewCandidate]:
    """One merged view per distinct join-table signature, in first-query order.

    The merged view groups by the union of the group's group-by and
    predicate attributes and carries the union of the group's aggregates.
    """
    groups: dict[frozenset[str], list[Query]] = {}
    for q in workload.queries:
        groups.setdefault(q.joined_tables, []).append(q)

    views = []
    for k, (signature, members) in enumerate(groups.items(), start=1):
        # each union in first-query order: dict keys keep insertion order
        group_by = tuple(dict.fromkeys(
            a for q in members for a in (*q.group_by, *(p.attr for p in q.predicates))
        ))
        aggregates = tuple(dict.fromkeys(agg for q in members for agg in q.aggregates))
        join_pairs = tuple(dict.fromkeys(jp for q in members for jp in q.join_pairs))
        views.append(make_view(f"v{k}", signature, join_pairs, group_by, aggregates, catalog))
    return views


def generate_index_candidates(
    workload: Workload,
    views: list[ViewCandidate],
    catalog: SchemaCatalog,
    min_support: int = 1,
) -> list[IndexCandidate]:
    """Attribute-support index mining.

    Base tables: one candidate per attribute used in at least ``min_support``
    queries' predicates or group-by lists.  Views: one candidate per
    indexable group-by attribute with that support.  Ordering follows first
    occurrence in the workload, then view order.

    ``views`` must come from ``generate_view_candidates`` over the same
    workload.  Then every group-by attribute of a view is one that some
    query able to use the view filters or groups on: it comes from a member
    query, which can use its own merged view, and any query that can use
    the view filters and groups only on the view's group-by attributes.
    """
    if min_support < 1:
        raise ValidationError("min_support must be >= 1")
    # attribute -> the queries using it, in first-occurrence order
    support: dict[Attr, set[str]] = {}
    for q in workload.queries:
        for attr in (*(p.attr for p in q.predicates), *q.group_by):
            support.setdefault(attr, set()).add(q.id)

    candidates = []
    for attr, users in support.items():
        if len(users) >= min_support:
            candidates.append(make_base_index(f"i{len(candidates) + 1}", attr, catalog))

    for view in views:
        indexable = view.indexable_attrs()
        for attr in view.group_by:
            if attr in indexable and len(support.get(attr, ())) >= min_support:
                candidates.append(
                    make_view_index(f"i{len(candidates) + 1}", view, attr, catalog)
                )
    return candidates


def usable_view(q: Query, v: ViewCandidate) -> bool:
    """True when the query can be rewritten to scan the view.

    Requires the query's join set to be contained in the view's (extra
    pre-joined dimensions are harmless under foreign-key integrity), the
    query's group-by and predicate attributes to appear in the view's
    group-by, and the query's aggregates to be carried by the view.
    """
    return bool(_query_view_rows([q], [v])[0])


def _query_view_rows(queries, views) -> list[list[int]]:
    """Per query, the positions of the views it can use (``usable_view``), in
    ascending order.

    Each joined table, group-by attribute and aggregate maps to the views
    that hold it, as the bits of one int: bit ``c`` stands for ``views[c]``.
    A query can use exactly the views in the AND of the masks of its
    tables, the attributes it filters or groups on, and its aggregates, and
    those are listed lowest bit first.  The three kinds of key never clash:
    a table is a ``str``, an attribute a pair of them and an aggregate a
    function name with an attribute.
    """
    holding: dict[object, int] = {}
    for c, v in enumerate(views):
        for key in (*v.joined_tables, *v.group_by, *v.aggregates):
            holding[key] = holding.get(key, 0) | 1 << c
    every = (1 << len(views)) - 1
    rows = []
    for q in queries:
        usable = every
        for key in (*q.joined_tables, *q.filter_group_attrs, *q.aggregates):
            usable &= holding.get(key, 0)
        cols = []
        while usable:
            low = usable & -usable  # the lowest position left
            cols.append(low.bit_length() - 1)
            usable ^= low
        rows.append(cols)
    return rows


def usable_index(q: Query, i: IndexCandidate) -> bool:
    """True when a base-table index helps the query.

    The indexed attribute must appear among the query's predicate or
    group-by attributes and its table must be joined by the query.
    """
    if not i.is_base():
        raise ValidationError(f"usable_index expects a base-table index, got {i.id} on {i.target}")
    return bool(_query_index_rows([q], [i])[0])


def _query_index_rows(queries, base: list[IndexCandidate]) -> list[list[int]]:
    """Per query, the positions of the base indexes it can use (``usable_index``),
    looked up by the attributes the query filters or groups on."""
    columns: dict[Attr, list[tuple[int, str]]] = {}
    for c, i in enumerate(base):
        columns.setdefault(i.attribute, []).append((c, i.target))
    return [
        [
            c
            for attr in q.filter_group_attrs
            for c, table in columns.get(attr, ())
            if table in q.joined_tables
        ]
        for q in queries
    ]


class UsageMatrices(Record):
    """The queries and candidates of a workload with their three usage matrices.

    Each matrix is a tuple of rows, each row a ``bytes`` of the values 0 and
    1, one per column: indexing a row gives an int, ``compress`` and ``sum``
    read it as they would a tuple, and the report writes it in one pass
    (``jsonfmt``) with no check of each cell.
    ``query_index`` covers base-table candidates only; ``view_index``
    covers the full candidate list.  Rows and columns follow ``queries``,
    ``views`` and ``indexes``, whose ids are derived once, on construction.
    """

    _fields = ("queries", "views", "indexes", "query_view", "query_index", "view_index")
    __slots__ = _fields + ("query_ids", "view_ids", "index_ids", "base_index_ids")

    def __init__(self, queries: tuple[Query, ...], views: tuple[ViewCandidate, ...],
                 indexes: tuple[IndexCandidate, ...], query_view: tuple[bytes, ...],
                 query_index: tuple[bytes, ...], view_index: tuple[bytes, ...]):
        self.queries = queries
        self.views = views
        self.indexes = indexes  # all index candidates
        self.query_view = query_view  # [n_queries][n_views]
        self.query_index = query_index  # [n_queries][n_base_indexes]
        self.view_index = view_index  # [n_views][n_indexes]
        # plain slots, not properties: pairs() reads index_ids once per view row
        self.query_ids = tuple(q.id for q in queries)
        self.view_ids = tuple(v.id for v in views)
        self.index_ids = tuple(i.id for i in indexes)
        self.base_index_ids = tuple(i.id for i in indexes if i.is_base())

    def pairs(self) -> list[tuple[str, str]]:
        """(view id, index id) of every unit cell of the view-index matrix, row by row."""
        return [
            (vid, iid)
            for vid, row in zip(self.view_ids, self.view_index)
            for iid in compress(self.index_ids, row)
        ]

    def pair_count(self) -> int:
        return sum(map(sum, self.view_index))


def _unit_rows(rows: list[list[int]], n_cols: int) -> tuple[bytes, ...]:
    """0/1 rows, row r holding 1 exactly at the columns ``rows[r]`` lists."""
    filled = []
    for cols in rows:
        row = bytearray(n_cols)
        for c in cols:
            row[c] = 1
        filled.append(bytes(row))
    return tuple(filled)


def build_matrices(
    workload: Workload,
    views: list[ViewCandidate],
    indexes: list[IndexCandidate],
) -> UsageMatrices:
    """Populate the three matrices from the usability rules.

    View-index cells: a view-targeted candidate pairs with exactly its
    view; a base-table candidate pairs with every view whose indexable
    group-by attributes contain its attribute, unless a view-targeted
    candidate for the same (view, attribute) already exists (avoids
    enumerating the same physical on-view index twice).

    Each matrix is filled from per-row lists of its unit columns;
    query-view rows are one AND of per-key view masks
    (``_query_view_rows``), the other rows look their columns up by
    attribute or by view.
    """
    queries = workload.queries
    base = [i for i in indexes if i.is_base()]

    base_by_attr: dict[Attr, list[int]] = {}
    on_view: dict[str, list[int]] = {}
    for c, i in enumerate(indexes):
        if i.is_base():
            base_by_attr.setdefault(i.attribute, []).append(c)
        else:
            on_view.setdefault(i.target, []).append(c)
    dedicated = {(i.target, i.attribute) for i in indexes if not i.is_base()}
    vi_rows = []
    for v in views:
        cols = list(on_view.get(v.id, ()))
        for attr in v.indexable_attrs():
            if (v.id, attr) not in dedicated:
                cols += base_by_attr.get(attr, ())
        vi_rows.append(cols)

    return UsageMatrices(
        queries=tuple(queries),
        views=tuple(views),
        indexes=tuple(indexes),
        query_view=_unit_rows(_query_view_rows(queries, views), len(views)),
        query_index=_unit_rows(_query_index_rows(queries, base), len(base)),
        view_index=_unit_rows(vi_rows, len(indexes)),
    )


def _parse_attr(token: str, source: str, lineno: int) -> Attr:
    parts = token.split(".")
    if len(parts) != 2 or not all(parts):
        raise ParseError(f"expected table.attribute, got {token!r}", source, lineno)
    return (parts[0].lower(), parts[1].lower())


def _parse_agg(token: str, source: str, lineno: int) -> tuple[str, Attr]:
    token = token.strip()
    if not (token.lower().startswith("sum(") and token.endswith(")")):
        raise ParseError(f"expected sum(table.attribute), got {token!r}", source, lineno)
    return ("sum", _parse_attr(token[4:-1], source, lineno))


def load_candidates(
    text: str, catalog: SchemaCatalog, source: str = "<candidates>"
) -> tuple[list[ViewCandidate], list[IndexCandidate]]:
    """Parse a candidates file into fixed view and index candidate lists."""
    views: list[ViewCandidate] = []
    view_blocks: list[dict] = []
    index_lines: list[tuple[int, list[str]]] = []

    declared: dict[str, int] = {}  # view or index id -> line of its declaration

    def declare(kind: str, id_: str, lineno: int) -> None:
        # selection names pairs v1+i8 and re-targeted indexes i8@v1
        if "+" in id_ or "@" in id_:
            raise ValidationError(f"{kind} id {id_!r} may not hold '+' or '@'", source, lineno)
        if id_ in declared:
            raise ValidationError(
                f"{kind} id {id_!r} repeats, first declared at line {declared[id_]}", source, lineno
            )
        declared[id_] = lineno

    current: dict | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = strip_comment(raw).strip()
        if not line:
            continue
        tokens = line.replace(",", " ").split()
        if not tokens:
            raise ParseError("a line of commas holds no directive", source, lineno)
        head = tokens[0].lower()
        if head == "view":
            if len(tokens) != 2:
                raise ParseError("expected: view <id>", source, lineno)
            # index lines name a view or a table as their target
            if catalog.has_table(tokens[1].lower()):
                raise ParseError(f"view {tokens[1].lower()}: the id names a table", source, lineno)
            declare("view", tokens[1].lower(), lineno)
            current = {
                "id": tokens[1].lower(),
                "tables": None,
                "joins": [],
                "group_by": [],
                "aggs": [],
                "indexable": None,
                "line": lineno,
            }
            view_blocks.append(current)
        elif head == "index":
            # index <id> on <target> key <attr | table.attr>
            if len(tokens) != 6 or tokens[2].lower() != "on" or tokens[4].lower() != "key":
                raise ParseError("expected: index <id> on <target> key <attribute>", source, lineno)
            declare("index", tokens[1].lower(), lineno)
            index_lines.append((lineno, tokens))
            current = None
        elif current is None:
            raise ParseError(f"{tokens[0]!r} outside a view block", source, lineno)
        elif head == "tables":
            tables = [t.lower() for t in tokens[1:]]
            if current["tables"] is not None:
                raise ParseError(f"view {current['id']}: a second tables line", source, lineno)
            if len(set(tables)) < len(tables):
                raise ParseError(f"view {current['id']}: tables lists a table twice", source, lineno)
            current["tables"] = tables
        elif head == "join":
            if len(tokens) != 4 or tokens[2] != "=":
                raise ParseError("expected: join a.x = b.y", source, lineno)
            current["joins"].append(
                (_parse_attr(tokens[1], source, lineno), _parse_attr(tokens[3], source, lineno))
            )
        elif head == "group_by":
            current["group_by"] += [_parse_attr(t, source, lineno) for t in tokens[1:]]
        elif head == "agg":
            current["aggs"] += [_parse_agg(t, source, lineno) for t in tokens[1:]]
        elif head == "indexable":
            if current["indexable"] is None:
                current["indexable"] = []
            current["indexable"] += [(_parse_attr(t, source, lineno), lineno) for t in tokens[1:]]
        else:
            raise ParseError(f"unrecognized directive {tokens[0]!r}", source, lineno)

    fact = catalog.fact_table.name
    for blk in view_blocks:
        vid, line = blk["id"], blk["line"]
        if blk["tables"] is None:
            raise ParseError(f"view {vid}: no tables line", source, line)
        if not blk["group_by"]:
            raise ParseError(f"view {vid}: empty group_by", source, line)
        for t in blk["tables"]:
            if not catalog.has_table(t):
                raise UnknownNameError(f"view {vid}: unknown table {t!r}", source, line)
        if fact not in blk["tables"]:
            raise ValidationError(f"view {vid}: must join the fact table {fact!r}", source, line)
        # a view answers only queries over its tables, and a group-by
        # attribute or aggregate listed twice would count its size twice
        used = [("group_by", attr) for attr in blk["group_by"]]
        used += [("agg", attr) for _, attr in blk["aggs"]]
        used += [("join", attr) for pair in blk["joins"] for attr in pair]
        for directive, (table, name) in used:
            if table not in blk["tables"]:
                problem = f"{directive} {table}.{name} is on a table not on its tables line"
                raise ParseError(f"view {vid}: {problem}", source, line)
            if catalog.table(table).attribute(name) is None:
                raise ParseError(f"view {vid}: unknown attribute {table}.{name}", source, line)
        for directive, entries in (("group_by", blk["group_by"]), ("agg", blk["aggs"])):
            if len(set(entries)) < len(entries):
                raise ParseError(f"view {vid}: {directive} lists an entry twice", source, line)
        indexable = blk["indexable"]
        for attr, lineno in indexable or ():
            if attr not in blk["group_by"]:
                problem = f"indexable {attr[0]}.{attr[1]} is not in its group_by"
                raise ParseError(f"view {vid}: {problem}", source, lineno)
        views.append(
            make_view(
                vid,
                blk["tables"],
                blk["joins"],
                blk["group_by"],
                blk["aggs"],
                catalog,
                indexable=None if indexable is None else [attr for attr, _ in indexable],
            )
        )

    by_id = {v.id: v for v in views}
    indexes: list[IndexCandidate] = []
    for lineno, tokens in index_lines:
        iid, target, key = tokens[1].lower(), tokens[3].lower(), tokens[5].lower()
        try:  # an index that does not resolve is reported at its line
            if target in by_id:
                attr = _parse_attr(key, source, lineno)
                indexes.append(make_view_index(iid, by_id[target], attr, catalog))
            elif catalog.has_table(target):
                attr = (target, key) if "." not in key else _parse_attr(key, source, lineno)
                if attr[0] != target:
                    raise ValidationError(f"index {iid}: key {key!r} does not belong to {target!r}")
                indexes.append(make_base_index(iid, attr, catalog))
            else:
                raise UnknownNameError(f"index {iid}: unknown target {target!r}")
        except (UnknownNameError, ValidationError) as exc:
            raise type(exc)(str(exc), source, lineno) from None
    return views, indexes


def format_candidates(views: list[ViewCandidate], indexes: list[IndexCandidate]) -> str:
    """Serialize candidates into the candidates file format; load_candidates
    round-trips them over the catalog they were built on."""

    def attrs(items):
        return ", ".join(f"{t}.{a}" for t, a in items)

    out = []
    for v in views:
        out += [f"view {v.id}", "  tables " + ", ".join(sorted(v.joined_tables))]
        out += [f"  join {a[0]}.{a[1]} = {b[0]}.{b[1]}" for a, b in v.join_pairs]
        out.append("  group_by " + attrs(v.group_by))
        if v.aggregates:
            out.append("  agg " + ", ".join(f"{fn}({t}.{a})" for fn, (t, a) in v.aggregates))
        if v.indexable is not None:
            out.append("  indexable " + attrs(sorted(v.indexable)))
        out.append("")
    for i in indexes:
        out.append(f"index {i.id} on {i.target} key {i.attribute[0]}.{i.attribute[1]}")
    return "\n".join(out) + "\n"
