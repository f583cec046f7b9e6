import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvindex.candidates import (
    ViewCandidate,
    build_matrices,
    format_candidates,
    generate_index_candidates,
    generate_view_candidates,
    load_candidates,
    make_base_index,
    make_view,
    make_view_index,
    usable_index,
    usable_view,
)
from mvindex.errors import ParseError, UnknownNameError, ValidationError
from mvindex.fixtures import CANDIDATES_FILE, fixture_text
from mvindex.workload import Workload

from util import (
    random_instance,
    usable_index as oracle_usable_index,
    usable_view as oracle_usable_view,
    view_index_cell,
    with_random_candidates,
)


def _single_query_workload(workload, qid):
    by_qid = {q.id: q for q in workload.queries}
    return Workload(queries=(by_qid[qid],), refresh_ratio=0.0)


def test_generate_view_for_q1(workload, catalog):
    views = generate_view_candidates(_single_query_workload(workload, "q1"), catalog)
    assert len(views) == 1
    v = views[0]
    assert v.id == "v1"
    assert v.joined_tables == frozenset({"sales", "times"})
    assert set(v.group_by) == {("sales", "time_id"), ("times", "time_fiscal_year")}
    assert v.aggregates == (("sum", ("sales", "amount_sold")),)


def test_generate_empty_workload(catalog):
    assert generate_view_candidates(Workload(queries=()), catalog) == []
    assert generate_index_candidates(Workload(queries=()), [], 1) == []


def test_generate_merges_same_join_signature(workload, catalog):
    by_qid = {q.id: q for q in workload.queries}
    pair = Workload(queries=(by_qid["q2"], by_qid["q4"]))
    views = generate_view_candidates(pair, catalog)
    assert len(views) == 1
    got = set(views[0].group_by)
    assert {("sales", "prod_id"), ("products", "prod_name"), ("promotions", "promo_category")} <= got


def test_generated_ids_stable(workload, catalog):
    a = generate_view_candidates(workload, catalog)
    b = generate_view_candidates(workload, catalog)
    assert a == b
    # five distinct join signatures in the eight-query workload
    assert [v.id for v in a] == ["v1", "v2", "v3", "v4", "v5"]


def test_view_row_estimate_capped_by_fact(workload, catalog):
    for v in generate_view_candidates(workload, catalog):
        assert v.row_count <= catalog.fact_table.row_count


def test_index_candidates_min_support_one(workload, views, catalog):
    cands = generate_index_candidates(workload, [], 1)
    attrs = {c.attribute for c in cands}
    assert ("promotions", "promo_category") in attrs
    assert ("channels", "channel_class") in attrs
    # group-by attrs of the fact table mine candidates too
    assert ("sales", "time_id") in attrs


def test_index_candidates_min_support_two(workload, catalog):
    cands = generate_index_candidates(workload, [], 2)
    attrs = {c.attribute for c in cands}
    assert ("promotions", "promo_category") in attrs  # used by q2 and q4
    assert ("channels", "channel_class") not in attrs  # only q8


def test_index_candidates_support_above_workload(workload, catalog):
    assert generate_index_candidates(workload, [], 99) == []


def test_index_candidates_reject_support_below_one(workload, catalog):
    with pytest.raises(ValidationError, match="^min_support must be >= 1$"):
        generate_index_candidates(workload, [], min_support=0)


@pytest.mark.parametrize("seed", [None, *range(40)])
def test_generated_indexes_are_what_the_validating_factories_build(workload, catalog, seed):
    # generate_index_candidates builds its candidates directly: its
    # precondition guarantees every check the factories make
    if seed is not None:
        inst = random_instance(seed)
        workload, catalog = inst.workload, inst.catalog
    views = generate_view_candidates(workload, catalog)
    for min_support in (1, 2, 3):
        cands = generate_index_candidates(workload, views, min_support)
        if seed is None and min_support == 1:
            assert any(not c.is_base() for c in cands), "expected on-view index candidates"
        for c in cands:
            if c.is_base():
                assert c == make_base_index(c.id, c.attribute, catalog)
            else:
                assert any(c.on_view is v for v in views)
                assert c == make_view_index(c.id, c.on_view, c.attribute, catalog)


def test_usable_view_fixture_cases(workload, views):
    by_id = {v.id: v for v in views}
    by_qid = {q.id: q for q in workload.queries}
    assert usable_view(by_qid["q1"], by_id["v1"])
    assert not usable_view(by_qid["q1"], by_id["v4"])
    assert usable_view(by_qid["q5"], by_id["v7"])
    assert usable_view(by_qid["q8"], by_id["v2"])
    assert usable_view(by_qid["q8"], by_id["v6"])
    assert not usable_view(by_qid["q2"], by_id["v5"])


def test_generated_view_usable_by_its_group(workload, catalog):
    views = generate_view_candidates(workload, catalog)
    for q in workload.queries:
        own = [v for v in views if v.joined_tables == q.joined_tables]
        assert len(own) == 1
        assert usable_view(q, own[0])


@pytest.mark.parametrize("seed", [None, *range(60)])
def test_generated_view_group_by_is_what_its_usable_queries_filter_or_group_on(
    workload, catalog, seed
):
    # generate_index_candidates relies on this to offer an on-view index
    # for every indexable group-by attribute without a query-view pass
    if seed is not None:
        inst = random_instance(seed)
        workload, catalog = inst.workload, inst.catalog
    for v in generate_view_candidates(workload, catalog):
        attrs = [q.filter_group_attrs for q in workload.queries if usable_view(q, v)]
        assert frozenset().union(*attrs) == frozenset(v.group_by)


def test_usable_index_fixture_cases(workload, indexes):
    by_id = {i.id: i for i in indexes}
    by_qid = {q.id: q for q in workload.queries}
    assert usable_index(by_qid["q1"], by_id["i8"])
    assert usable_index(by_qid["q2"], by_id["i1"])
    assert not usable_index(by_qid["q8"], by_id["i1"])


def test_usable_index_rejects_view_target(workload, views, catalog):
    v1 = views[0]
    j = make_view_index("j1", v1, v1.group_by[0], catalog)
    q1 = {q.id: q for q in workload.queries}["q1"]
    with pytest.raises(ValidationError):
        usable_index(q1, j)


def test_build_matrices_empty(catalog):
    w = Workload(queries=())
    m = build_matrices(w, [], [])
    assert m.query_view == m.query_index == m.view_index == ()


def test_vi_requires_target_membership(matrices, views, indexes):
    # every unit cell pairs an index attribute with an indexable view attribute
    by_vid = {v.id: v for v in views}
    by_iid = {i.id: i for i in indexes}
    for vpos, vid in enumerate(matrices.view_ids):
        for ipos, iid in enumerate(matrices.index_ids):
            if matrices.view_index[vpos][ipos]:
                assert by_iid[iid].attribute in by_vid[vid].indexable_attrs


def test_vi_v7_i11(matrices):
    assert ("v7", "i11") in matrices.pairs()


def test_matrices_idempotent(workload, views, indexes):
    a = build_matrices(workload, views, indexes)
    b = build_matrices(workload, views, indexes)
    assert a.query_view == b.query_view
    assert a.query_index == b.query_index
    assert a.view_index == b.view_index


def test_row_sums_for_queries_with_usable_views(workload, catalog):
    views = generate_view_candidates(workload, catalog)
    m = build_matrices(workload, views, [])
    assert m.query_view and all(sum(row) >= 1 for row in m.query_view)


def test_load_candidates_round_trip_ids(views, indexes):
    assert [v.id for v in views] == [f"v{k}" for k in range(1, 8)]
    assert [i.id for i in indexes] == [f"i{k}" for k in range(1, 13)]


def test_load_candidates_rejects_unknown_names(catalog):
    with pytest.raises(UnknownNameError):
        load_candidates("view v1\n  tables sales, nosuch\n  group_by sales.time_id\n", catalog)
    with pytest.raises(UnknownNameError):
        load_candidates("index i1 on nosuch key attr\n", catalog)


def test_load_candidates_requires_fact(catalog):
    text = "view v1\n  tables times\n  group_by times.time_id\n"
    with pytest.raises(ValidationError):
        load_candidates(text, catalog)


def test_load_candidates_rejects_bad_view_index(catalog):
    text = (
        "view v1\n  tables sales, times\n  group_by sales.time_id\n"
        "index j1 on v1 key times.time_fiscal_year\n"
    )
    with pytest.raises(ValidationError):
        load_candidates(text, catalog)


def test_load_candidates_rejects_view_index_on_a_non_indexable_attribute(catalog):
    # the cost model keys on-view indexes on indexable attributes only, so
    # this index could pair with v1 yet never lower a query's cost
    text = (
        "view v1\n  tables sales, times\n  join sales.time_id = times.time_id\n"
        "  group_by sales.time_id, times.time_fiscal_year\n  agg sum(sales.amount_sold)\n"
        "  indexable sales.time_id\n"
        "index j1 on v1 key times.time_fiscal_year\n"
    )
    with pytest.raises(ValidationError, match="j1: times.time_fiscal_year is not indexable on view v1"):
        load_candidates(text, catalog)


@pytest.mark.parametrize("vid", ["sales", "Times"])
def test_load_candidates_rejects_a_view_id_naming_a_table(catalog, vid):
    # "index ... on <id>" would otherwise resolve to the view, hiding the table
    body = "  tables sales\n  group_by sales.prod_id\n  agg sum(sales.amount_sold)\n"
    text = "# one view\nview " + vid + "\n" + body + "index i1 on sales key prod_id\n"
    problem = f"^c.cand: line 2: view {vid.lower()}: the id names a table$"
    with pytest.raises(ParseError, match=problem):
        load_candidates(text, catalog, "c.cand")
    # nor can a file written from such a view be read back
    view = make_view(vid.lower(), ["sales"], [], [("sales", "prod_id")], [("sum", ("sales", "amount_sold"))],
                     catalog)
    with pytest.raises(ParseError, match=problem.replace("line 2", "line 1")):
        load_candidates(format_candidates([view], []), catalog, "c.cand")


def test_load_candidates_rejects_indexable_outside_group_by(catalog):
    text = (
        "view v1\n  tables sales, times\n  group_by sales.time_id\n"
        "  indexable times.time_fiscal_year\n  agg sum(sales.amount_sold)\n"
    )
    with pytest.raises(ParseError, match="^c.cand: line 4: .*time_fiscal_year is not in its group_by"):
        load_candidates(text, catalog, "c.cand")


@pytest.mark.parametrize(
    "body",
    [
        "  tables sales, times\n  group_by times.time_id\n  agg sum(sales.nope)\n",
        "  tables sales\n  group_by times.time_fiscal_year\n",
        "  tables sales\n  group_by sales.time_id\n  agg sum(times.time_id)\n",
        "  tables sales\n  join sales.time_id = times.time_id\n  group_by sales.time_id\n",
        "  tables sales, times\n  group_by times.time_fiscal_year, times.time_fiscal_year\n",
        "  tables sales\n  group_by sales.time_id\n  agg sum(sales.amount_sold), sum(sales.amount_sold)\n",
        "  tables sales, times\n  join sales.time_id = times.time_id\n  agg sum(sales.amount_sold)\n",
    ],
    ids=[
        "unknown-agg", "group-by-off-tables", "agg-off-tables", "join-off-tables",
        "repeated-group-by", "repeated-agg", "no-group-by",
    ],
)
def test_load_candidates_rejects_views_with_wrong_attributes(catalog, body):
    with pytest.raises(ParseError, match="^c.cand: line 2: view v1: "):
        load_candidates("# one view\nview v1\n" + body, catalog, "c.cand")


@pytest.mark.parametrize(
    "body, line, problem",
    [
        ("  tables sales, times\n  group_by sales.time_id\n  tables sales\n", 5, "a second tables line"),
        ("  tables sales\n  tables sales, times\n  group_by sales.time_id\n", 4, "a second tables line"),
        ("  tables sales, times, sales\n  group_by sales.time_id\n", 3, "tables lists a table twice"),
        ("  tables sales, Sales\n  group_by sales.time_id\n", 3, "tables lists a table twice"),
    ],
    ids=["second-tables-line-later", "second-tables-line-next", "repeated-table", "repeated-table-any-case"],
)
def test_load_candidates_rejects_a_repeated_tables_entry(catalog, body, line, problem):
    # group_by, agg and indexable lines add up; a second tables line would replace the first
    with pytest.raises(ParseError, match=f"^c.cand: line {line}: view v1: {problem}$"):
        load_candidates("# one view\nview v1\n" + body + "  agg sum(sales.amount_sold)\n", catalog, "c.cand")


_VIEW_V1 = (
    "view v1\n  tables sales, times\n  join sales.time_id = times.time_id\n"
    "  group_by sales.time_id, times.time_fiscal_year\n  agg sum(sales.amount_sold)\n"
    "  indexable sales.time_id\n"
)


@pytest.mark.parametrize(
    "text, line, error, problem",
    [
        ("view v1\n  tables sales, nosuch\n  group_by sales.time_id\n", 2, UnknownNameError,
         "view v1: unknown table 'nosuch'"),
        ("view v1\n  tables times\n  group_by times.time_id\n", 2, ValidationError,
         "view v1: must join the fact table 'sales'"),
        ("view v1\n  group_by sales.time_id\n", 2, ParseError, "view v1: no tables line"),
        ("index i1 on nosuch key attr\n", 2, UnknownNameError, "index i1: unknown target 'nosuch'"),
        ("index i1 on sales key times.time_id\n", 2, ValidationError,
         "index i1: key 'times.time_id' does not belong to 'sales'"),
        (_VIEW_V1 + "index i1 on sales key prod_id\nindex j1 on v1 key times.time_fiscal_year\n", 9,
         ValidationError, "index j1: times.time_fiscal_year is not indexable on view v1"),
        ("index i1 on sales key nosuch\n", 2, ValidationError, "table 'sales' has no attribute 'nosuch'"),
    ],
    ids=["unknown-table", "no-fact-table", "no-tables-line", "unknown-target", "key-off-target",
         "not-indexable", "unknown-attribute"],
)
def test_load_candidates_names_the_line_of_an_unresolved_view_or_index(catalog, text, line, error,
                                                                      problem):
    with pytest.raises(error, match=f"^c.cand: line {line}: {re.escape(problem)}$"):
        load_candidates("# one candidate\n" + text, catalog, "c.cand")


@pytest.mark.parametrize(
    "text, line, problem",
    [
        (_VIEW_V1 + _VIEW_V1, 8, "view id 'v1' repeats, first declared at line 2"),
        (_VIEW_V1 + "index V1 on sales key prod_id\n", 8,
         "index id 'v1' repeats, first declared at line 2"),
        ("index v1 on sales key prod_id\n" + _VIEW_V1, 3,
         "view id 'v1' repeats, first declared at line 2"),
        ("index i1 on sales key prod_id\nindex i1 on times key time_id\n", 3,
         "index id 'i1' repeats, first declared at line 2"),
        (_VIEW_V1.replace("view v1", "view a+b"), 2, "view id 'a+b' may not hold '+' or '@'"),
        (_VIEW_V1 + "index i8@v1 on sales key prod_id\n", 8,
         "index id 'i8@v1' may not hold '+' or '@'"),
    ],
    ids=["two-views", "index-after-view", "view-after-index", "two-indexes", "plus-in-view",
         "at-in-index"],
)
def test_load_candidates_names_the_line_of_an_id_breaking_the_id_rule(catalog, text, line, problem):
    with pytest.raises(ValidationError, match=f"^c.cand: line {line}: {re.escape(problem)}$"):
        load_candidates("# one candidate\n" + text, catalog, "c.cand")


def test_dedicated_view_index_suppresses_base_pairing(workload, catalog):
    text = (
        "view v1\n"
        "  tables sales, times\n"
        "  join sales.time_id = times.time_id\n"
        "  group_by sales.time_id, times.time_fiscal_year\n"
        "  agg sum(sales.amount_sold)\n"
        "index i1 on times key time_fiscal_year\n"
        "index j1 on v1 key times.time_fiscal_year\n"
    )
    views, indexes = load_candidates(text, catalog)
    m = build_matrices(workload, views, indexes)
    assert ("v1", "j1") in m.pairs()
    assert ("v1", "i1") not in m.pairs()  # the dedicated candidate owns the cell
    assert m.pair_count() == 1


def _narrowed_views(views, catalog):
    """Per view, a copy that carries no aggregate and copies that join one
    dimension fewer (dropping its group-by attributes), so that each part of
    the usability rule decides some cells on its own."""
    for v in views:
        yield make_view(f"{v.id}n", v.joined_tables, v.join_pairs, v.group_by, (), catalog)
        for t in sorted(v.joined_tables - {catalog.fact_table.name}):
            group_by = [a for a in v.group_by if a[0] != t]
            join_pairs = [jp for jp in v.join_pairs if t not in (jp[0][0], jp[1][0])]
            if group_by:
                yield make_view(f"{v.id}{t}", v.joined_tables - {t}, join_pairs, group_by, v.aggregates, catalog)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), max_tables=st.integers(2, 8), extra=st.booleans())
def test_query_view_matrix_equals_usability_rule(seed, max_tables, extra):
    inst = random_instance(seed=seed, max_tables=max_tables, max_queries=30)
    if extra:  # views no query shaped, some usable by no query
        inst = with_random_candidates(inst, seed)
    views = inst.views + list(_narrowed_views(inst.views, inst.catalog))
    expected = tuple(bytes(oracle_usable_view(q, v) for v in views) for q in inst.queries)
    assert build_matrices(inst.workload, views, inst.indexes).query_view == expected


def _restricted_views(views, catalog):
    """Per view, a copy whose ``indexable`` line keeps every other group-by
    attribute, and on-view indexes on the copy keying every other of those,
    so that both restrictions of the view-index rule decide some cells."""
    restricted, on_view = [], []
    for v in views:
        r = make_view(f"{v.id}r", v.joined_tables, v.join_pairs, v.group_by, v.aggregates, catalog,
                      indexable=v.group_by[::2])
        restricted.append(r)
        on_view += [make_view_index(f"{r.id}j{k}", r, a, catalog) for k, a in enumerate(v.group_by[::4])]
    return restricted, on_view


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), max_tables=st.integers(2, 8), min_support=st.integers(1, 3),
       extra=st.booleans(), restricted=st.booleans())
def test_query_index_and_view_index_matrices_equal_usability_rules(seed, max_tables, min_support, extra,
                                                                   restricted):
    inst = random_instance(seed=seed, max_tables=max_tables, max_queries=30, min_support=min_support)
    if extra:  # candidates no query shaped: base indexes sharing an attribute, views no query uses
        inst = with_random_candidates(inst, seed)
    views, indexes = inst.views, inst.indexes
    if restricted:
        more_views, more_indexes = _restricted_views(views, inst.catalog)
        views, indexes = views + more_views, indexes + more_indexes
    m = build_matrices(inst.workload, views, indexes)
    base = [i for i in indexes if i.is_base()]
    assert m.query_index == tuple(bytes(oracle_usable_index(q, i) for i in base) for q in inst.queries)
    assert m.view_index == tuple(bytes(view_index_cell(v, i, indexes) for i in indexes) for v in views)


def test_indexable_attrs_is_derived_and_takes_no_part_in_equality_hashing_or_repr(catalog):
    # the bundled file plus a view whose indexable line keeps one of its two group-by attributes
    text = fixture_text(CANDIDATES_FILE) + _VIEW_V1.replace("view v1", "view w1")
    views, _ = load_candidates(text, catalog)
    assert any(v.indexable is None for v in views) and any(v.indexable is not None for v in views)
    for v in views:
        assert v.indexable_attrs == (frozenset(v.group_by) if v.indexable is None else v.indexable)
        twin = ViewCandidate(*(getattr(v, name) for name in ViewCandidate._fields))
        twin.indexable_attrs = frozenset()
        assert twin == v and hash(twin) == hash(v) and repr(twin) == repr(v)
        assert "indexable_attrs" not in repr(v)
    assert views[-1].id == "w1" and views[-1].indexable_attrs == {("sales", "time_id")}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), max_tables=st.integers(2, 8), extra=st.booleans())
def test_matrix_rows_are_bytes_of_zero_and_one_per_column(seed, max_tables, extra):
    inst = random_instance(seed=seed, max_tables=max_tables)
    if extra:
        inst = with_random_candidates(inst, seed)
    m = inst.matrices
    for rows, row_ids, column_ids in (
        (m.query_view, m.query_ids, m.view_ids),
        (m.query_index, m.query_ids, m.base_index_ids),
        (m.view_index, m.view_ids, m.index_ids),
    ):
        assert type(rows) is tuple and len(rows) == len(row_ids)
        for row in rows:
            assert type(row) is bytes and len(row) == len(column_ids)
            assert set(row) <= {0, 1}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), max_tables=st.integers(2, 8))
def test_format_candidates_round_trips(seed, max_tables):
    inst = with_random_candidates(random_instance(seed=seed, max_tables=max_tables), seed)
    text = format_candidates(inst.views, inst.indexes)
    assert load_candidates(text, inst.catalog) == (inst.views, inst.indexes)


@pytest.mark.parametrize(
    "extra",
    [
        "index j1 on v2 key channels.channel_desc\n",
        # a view whose id extends a table name, with a base and an on-view index on one attribute
        "view salesv\n  tables sales\n  group_by sales.prod_id\n  agg sum(sales.amount_sold)\n"
        "index b1 on sales key prod_id\nindex j2 on salesv key sales.prod_id\n",
    ],
    ids=["on-view-index", "base-and-on-view-index-on-one-attribute"],
)
def test_format_candidates_round_trips_the_bundled_file(catalog, extra):
    # on-view indexes and indexable lists, which generated candidates lack
    views, indexes = load_candidates(fixture_text(CANDIDATES_FILE) + extra, catalog)
    assert any(v.indexable is not None for v in views)
    assert any(not i.is_base() for i in indexes)
    assert load_candidates(format_candidates(views, indexes), catalog) == (views, indexes)
