import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvindex.baselines import enumerate_exhaustive_objects
from mvindex.candidates import (
    build_matrices,
    generate_index_candidates,
    generate_view_candidates,
    load_candidates,
    make_base_index,
    make_view,
    make_view_index,
)
from mvindex.catalog import AttributeStats, SchemaCatalog, TableStats, btree_height, load_catalog
from mvindex.costmodel import (
    Configuration,
    CostContext,
    QueryCosts,
    maintenance_cost,
    member_key,
    object_size,
    workload_cost,
)
from mvindex.errors import ValidationError
from mvindex.selector import enumerate_objects
from mvindex.workload import Predicate, Query, Workload, load_workload

from util import (
    brute_force_query_cost,
    labelled_rewriting_cost,
    plan_walk_costs,
    random_config,
    random_instance,
    walk_offers,
    with_random_candidates,
)


def test_selectivity_floor_caps_the_divisor_at_ten_to_the_ninth():
    # 10**12 rows of one block each; a predicate on 10**9 values has
    # selectivity 1e-9, the floor, so the index reads 10**12 / 10**9 blocks
    cat = SchemaCatalog(
        tables=(
            TableStats(
                "f", "fact", 10**12, 8192, (AttributeStats("a", 10**9, 4), AttributeStats("m", 1, 4))
            ),
        )
    )
    q = Query(
        id="q1",
        select_attrs=(("f", "a"),),
        aggregates=(("sum", ("f", "m")),),
        joined_tables=frozenset({"f"}),
        join_pairs=(),
        predicates=(Predicate("f", "a", "1"),),
        group_by=(("f", "a"),),
    )
    index = make_base_index("i1", ("f", "a"), cat)
    ctx = CostContext(build_matrices(Workload(queries=(q,)), [], [index]), cat)
    config = Configuration({"i1"})
    cost = ctx.query_cost(q, config)[0]
    assert cost == btree_height(10**9, cat) + 1000
    assert cost == brute_force_query_cost(q, config, [], [index], cat)


def test_index_size_small_dimension(catalog):
    cat = SchemaCatalog(
        tables=(
            TableStats("f", "fact", 10, 4, (AttributeStats("m", 1, 4),)),
            TableStats("channels", "dimension", 5, 21, (AttributeStats("key16", 5, 16),)),
        )
    )
    idx = make_base_index("i1", ("channels", "key16"), cat)
    assert object_size(idx, cat) == 5 * (16 + 10) == 130


def test_index_size_fact_attribute(catalog):
    idx = make_base_index("ix", ("sales", "prod_id"), catalog)
    assert object_size(idx, catalog) == 16_260_336 * (4 + 10) == 227_644_704


def test_view_size_and_empty_view(catalog):
    v1 = make_view(
        "v1",
        {"sales", "times"},
        [(("sales", "time_id"), ("times", "time_id"))],
        [("sales", "time_id"), ("times", "time_fiscal_year")],
        [("sum", ("sales", "amount_sold"))],
        catalog,
    )
    assert v1.row_count == 1461 * 5
    assert v1.row_width == 4 + 4 + 8
    assert object_size(v1, catalog) == 7305 * 16

    empty_cat = SchemaCatalog(
        tables=(
            TableStats("f", "fact", 0, 4, (AttributeStats("m", 1, 4), AttributeStats("k", 1, 4))),
        )
    )
    v0 = make_view("v0", {"f"}, [], [("f", "k")], [], empty_cat)
    assert v0.row_count == 0
    assert object_size(v0, empty_cat) == 0


@pytest.mark.parametrize(
    "measure, message",
    [(object_size, "cannot size object of type SelectionObject"),
     (maintenance_cost, "cannot cost object of type SelectionObject")],
    ids=["object_size", "maintenance_cost"],
)
def test_size_and_maintenance_reject_a_selection_object(ctx, catalog, measure, message):
    # they measure a view or an index; a selection object is measured by its members
    with pytest.raises(ValidationError, match=f"^{message}$"):
        measure(enumerate_objects(ctx)[0], catalog)


def test_maintenance_view(catalog, views):
    v1 = views[0]
    # re-read sales and times, rewrite the 15-block view
    assert maintenance_cost(v1, catalog) == 47_638 + 26 + 15


def test_maintenance_index_on_empty_table():
    cat = SchemaCatalog(
        tables=(
            TableStats("f", "fact", 0, 4, (AttributeStats("k", 1, 4),)),
        )
    )
    idx = make_base_index("i1", ("f", "k"), cat)
    assert maintenance_cost(idx, cat) == 0


def test_maintenance_view_exceeds_fact_index_when_larger(catalog):
    # both structures target the fact table; the view is bigger than the index
    big_view = make_view(
        "vbig",
        {"sales", "products"},
        [(("sales", "prod_id"), ("products", "prod_id"))],
        [("sales", "prod_id"), ("sales", "cust_id"), ("products", "prod_name")],
        [("sum", ("sales", "amount_sold"))],
        catalog,
    )
    fact_index = make_base_index("ix", ("sales", "prod_id"), catalog)
    assert object_size(fact_index, catalog) < object_size(big_view, catalog)
    assert maintenance_cost(big_view, catalog) > maintenance_cost(fact_index, catalog)


def test_query_cost_base(queries, ctx):
    cost, label = ctx.query_cost(queries[0], Configuration())
    assert cost == 47_638 + 26
    assert label == "base"


def test_query_cost_view(queries, ctx):
    cfg = Configuration({"v1"})
    cost, label = ctx.query_cost(queries[0], cfg)
    assert cost == 15
    assert label == "view v1"
    assert cost < 47_664


def test_query_cost_view_plus_index(queries, ctx):
    cfg = Configuration({"v1", ("v1", ("times", "time_fiscal_year"))})
    cost, label = ctx.query_cost(queries[0], cfg)
    # descent height 1 for cardinality 5, then a fifth of the view's 15 blocks
    assert cost == 1 + 3
    assert "index on times.time_fiscal_year" in label
    assert cost <= 15


def test_query_cost_base_index(queries, ctx):
    cfg = Configuration({"i4"})
    q3 = queries[2]
    cost, label = ctx.query_cost(q3, cfg)
    # customers accessed through the marital-status index: 1 + ceil(855/4)
    assert cost == 47_638 + (1 + 214) + 292
    assert label == "base+indexes(i4)"


def test_workload_cost_base_total(ctx):
    report = workload_cost(ctx, Configuration())
    expected = {
        "q1": 47_638 + 26,
        "q2": 47_638 + 292 + 6,
        "q3": 47_638 + 855 + 292,
        "q4": 47_638 + 292 + 6,
        "q5": 47_638 + 6,
        "q6": 47_638 + 855 + 292,
        "q7": 47_638 + 292 + 6,
        "q8": 47_638 + 1,
    }
    assert report.per_query_cost == expected
    assert report.total == sum(expected.values()) == 384_325


def test_workload_cost_empty_workload(catalog, views, indexes):
    matrices = build_matrices(Workload(queries=()), views, indexes)
    report = workload_cost(CostContext(matrices, catalog), Configuration())
    assert report.total == 0


def test_cost_monotone_in_config(queries, views, indexes, ctx):
    rng = random.Random(11)
    for _ in range(50):
        views_sel = frozenset(v.id for v in views if rng.random() < 0.5)
        base_sel = frozenset(i.id for i in indexes if rng.random() < 0.5)
        small = Configuration(views_sel | base_sel)
        grown = small | {v.id for v in views if rng.random() < 0.5} | {
            i.id for i in indexes if rng.random() < 0.5
        }
        for q in queries:
            assert ctx.query_cost(q, grown)[0] <= ctx.query_cost(q, small)[0]


def test_query_cost_at_least_one_block(queries, views, indexes, ctx):
    cfg = Configuration({v.id for v in views} | {i.id for i in indexes})
    for q in queries:
        assert ctx.query_cost(q, cfg)[0] >= 1


def test_view_index_never_worse_when_selective(catalog, queries, views, ctx):
    # descent + matching fraction beats a view scan whenever
    # selectivity <= 1 - height/view_blocks
    from mvindex.catalog import blocks, btree_height

    q1 = queries[0]
    v1 = next(v for v in views if v.id == "v1")
    vblocks = blocks(v1.row_count, v1.row_width, catalog)
    card = catalog.attribute("times", "time_fiscal_year").cardinality
    height = btree_height(card, catalog)
    assert 1.0 / card <= 1 - height / vblocks
    with_view = Configuration({"v1"})
    with_both = with_view | {("v1", ("times", "time_fiscal_year"))}
    assert ctx.query_cost(q1, with_both)[0] <= ctx.query_cost(q1, with_view)[0]


def test_against_brute_force_oracle_fixture(queries, views, indexes, matrices, catalog, ctx):
    rng = random.Random(5)
    from util import Instance

    inst = Instance(catalog, None, matrices)
    for _ in range(40):
        cfg = random_config(rng, inst)
        for q in queries:
            expected = brute_force_query_cost(q, cfg, views, indexes, catalog)
            assert ctx.query_cost(q, cfg)[0] == expected


def test_against_brute_force_oracle_random_instances():
    rng = random.Random(99)
    for trial in range(30):
        inst = random_instance(seed=1000 + trial, max_tables=5, max_queries=6)
        ctx = inst.context()
        for _ in range(5):
            cfg = random_config(rng, inst)
            for q in inst.queries:
                expected = brute_force_query_cost(q, cfg, inst.views, inst.indexes, inst.catalog)
                assert ctx.query_cost(q, cfg)[0] == expected


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**6), extra_candidates=st.booleans())
def test_label_names_a_selected_rewriting_of_the_returned_cost(seed, extra_candidates):
    inst = random_instance(seed=seed, max_tables=5, max_queries=8)
    if extra_candidates:
        inst = with_random_candidates(inst, seed)
    ctx = inst.context()
    rng = random.Random(seed)
    for _ in range(4):
        cfg = random_config(rng, inst)
        for q in inst.queries:
            cost, label = ctx.query_cost(q, cfg)
            args = (cfg, inst.views, inst.indexes, inst.catalog)
            assert labelled_rewriting_cost(q, label, *args) == cost
            assert brute_force_query_cost(q, *args) == cost


# One table of 12 blocks, where terms of one query cost the same: qa reads
# f through ia or ib, 1 + ceil(12 / 100) = 2 blocks each; qc reads v1 or v2,
# 2 blocks each, or v1 through its index on f.a, 1 + ceil(2 / 10) = 2; qd
# scans f or vk, 12 blocks each.
_TIE_CATALOG = """\
block_size 1000
btree_fanout 10
rowid_width 10
table f fact rows 1000 row_width 12
  attr k card 1000 width 4
  attr a card 10 width 100
  attr b card 10 width 4
  attr m card 1000 width 4
"""
_TIE_WORKLOAD = """\
qa: select f.a, sum(m) from f where f.a = 1 and f.b = 2 group by f.a;
qc: select f.a, sum(m) from f where f.a = 1 group by f.a;
qd: select f.k, sum(m) from f where f.k = 5 group by f.k;
"""
_TIE_CANDIDATES = [
    "view v1\n  tables f\n  group_by f.a\n  agg sum(f.m)\n",
    "view v2\n  tables f\n  group_by f.a\n  agg sum(f.m)\n",
    "view vk\n  tables f\n  group_by f.k\n  agg sum(f.m)\n",
    "index ia on f key a\n",
    "index ib on f key b\n",
]


@pytest.mark.parametrize("reverse", [False, True], ids=["file-order", "reversed"])
@pytest.mark.parametrize(
    "qid, keys, tied, reorders",
    [
        ("qa", {"ia", "ib"}, ("base+indexes(ia)", "base+indexes(ib)"), True),
        ("qc", {"v1", "v2"}, ("view v1", "view v2"), True),
        ("qc", {"v1", ("v1", ("f", "a"))}, ("view v1", "view v1 + index on f.a"), False),
        ("qd", {"vk"}, ("base", "view vk"), False),
    ],
    ids=["two-base-indexes", "two-views", "view-and-its-index", "base-and-view"],
)
def test_the_earlier_term_wins_a_tie(reverse, qid, keys, tied, reorders):
    # two terms cost the same and the one earlier in the plan is named:
    # reversing the candidate file reverses the order of the indexes on a
    # table and of the views, not that of a view and its index or of the
    # base tables and a view
    catalog = load_catalog(_TIE_CATALOG)
    workload = load_workload(_TIE_WORKLOAD, catalog)
    blocks = _TIE_CANDIDATES[::-1] if reverse else _TIE_CANDIDATES
    views, indexes = load_candidates("".join(blocks), catalog)
    ctx = CostContext(build_matrices(workload, views, indexes), catalog)
    q, config = next(q for q in ctx.queries if q.id == qid), Configuration(keys)
    cost, label = ctx.query_cost(q, config)
    for term in tied:
        assert labelled_rewriting_cost(q, term, config, views, indexes, catalog) == cost, term
    assert label == tied[reverse and reorders]
    assert workload_cost(ctx, config).chosen_rewriting[qid] == label


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**6), extra_candidates=st.booleans())
def test_empty_configuration_costs_the_joined_table_scans(seed, extra_candidates):
    # query_cost answers the empty configuration with no plan; the running
    # costs still take it from the plans
    inst = random_instance(seed=seed, max_tables=6, max_queries=12)
    if extra_candidates:
        inst = with_random_candidates(inst, seed)
    ctx = inst.context()
    empty = Configuration()
    scans = [ctx.query_cost(q, empty) for q in ctx.queries]
    from_plans = QueryCosts(ctx).cost
    for pos, q in enumerate(ctx.queries):
        expected = brute_force_query_cost(q, empty, inst.views, inst.indexes, inst.catalog)
        assert scans[pos] == (expected, "base"), q.id
        assert from_plans[pos] == expected, q.id


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), extra_candidates=st.booleans())
def test_offers_equal_a_walk_over_every_plan(seed, extra_candidates):
    inst = random_instance(seed=seed, max_tables=6, max_queries=12)
    if extra_candidates:
        inst = with_random_candidates(inst, seed)
    ctx = inst.context()
    objects = enumerate_objects(ctx)
    pool = objects + enumerate_exhaustive_objects(ctx, objects)
    view_offers = {o.view.id: o.offers for o in objects if o.kind == "view"}
    pairs = [o for o in pool if o.kind == "pair"]
    for o in pool:
        if o.kind == "pair":  # the view's own list, not a copy
            assert o.offers is view_offers[o.view.id], o.id
        else:
            assert o.offers == walk_offers(ctx, o.keys), o.id
    # a pair's score counts the terms that need its own index: its saving
    # is that of its keys added, over the queries a walk names and over the
    # whole workload alike
    rng = random.Random(seed)
    costs = QueryCosts(ctx)
    for _ in range(3):
        for o in pairs:
            walked = [ctx.queries[pos] for pos, *_ in walk_offers(ctx, o.keys)]
            config, after = costs.config, costs.config | o.keys
            saving = costs.saving(o)
            assert saving == sum(
                ctx.query_cost(q, config)[0] - ctx.query_cost(q, after)[0] for q in walked
            ), o.id
            assert saving == ctx.workload_total(config) - ctx.workload_total(after), o.id
        for o in rng.sample(pool, min(len(pool), 2)):
            costs.commit(o)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), extra_candidates=st.booleans())
def test_reader_facts_equal_a_walk_over_every_plan(seed, extra_candidates):
    # a commit can raise an object only through its members and the needs
    # of its offered terms, or as a base index at a lowered table: the
    # reader index of each object list lists exactly those keys and
    # (position, slot) pairs
    inst = random_instance(seed=seed, max_tables=6, max_queries=12)
    if extra_candidates:
        inst = with_random_candidates(inst, seed)
    ctx = inst.context()
    objects = enumerate_objects(ctx)
    for objs in (objects, enumerate_exhaustive_objects(ctx, objects)):
        readers: dict[object, set[int]] = {}
        base_offers: list[list[tuple[int, int]]] = [[] for _ in ctx.queries]
        for pos, o in enumerate(objs):
            walked = walk_offers(ctx, o.keys)
            needs = {need for *_, terms in walked for _, need in terms if need is not None}
            for key in o.keys | needs:
                readers.setdefault(key, set()).add(pos)
            for q, slot, *_ in walked:
                if slot is not None:
                    base_offers[q].append((slot, pos))
        readers_of_key, index_base_offers = ctx.reader_index(objs)
        assert {key: set(ps) for key, ps in readers_of_key.items()} == readers
        assert index_base_offers == base_offers


def _assert_member_facts_equal_the_oracle(ctx):
    # every member's facts, derived in the plan pass, equal the sizing
    # functions, a walk over every plan, and the key plus the needs of the
    # terms walked; members are the views, the base indexes and (view id,
    # attribute) per indexable attribute of a view, so each on-view
    # candidate and each re-targeted index of a pair is one
    catalog, facts = ctx.catalog, ctx.member_facts
    members = {i.id: i for i in ctx.indexes.values() if i.is_base()}
    for v in ctx.views.values():
        members[v.id] = v
        for attr in v.indexable_attrs:
            members[(v.id, attr)] = make_view_index(f"j@{v.id}", v, attr, catalog)
    assert facts.keys() == members.keys()
    for key, member in members.items():
        keys = frozenset((key,))
        offers = walk_offers(ctx, keys)
        needs = {need for *_, terms in offers for _, need in terms if need is not None}
        expected = ((key, object_size(member, catalog)), keys, maintenance_cost(member, catalog), offers,
                    keys | needs)
        assert facts[key] == expected, key
    for o in enumerate_objects(ctx):
        for m, part in zip(o.members(), o.parts, strict=True):
            assert part == facts[member_key(m)][0] == (member_key(m), object_size(m, catalog)), o.id


@pytest.mark.parametrize("generated", [False, True], ids=["bundled", "generated"])
def test_member_facts_equal_the_oracle_on_the_fixture(workload, candidates, catalog, generated):
    views, indexes = candidates
    if generated:
        views = generate_view_candidates(workload, catalog)
        indexes = generate_index_candidates(workload, views)
    assert any(v.indexable is not None for v in views) is not generated
    _assert_member_facts_equal_the_oracle(CostContext(build_matrices(workload, views, indexes), catalog))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), extra_candidates=st.booleans())
def test_member_facts_equal_the_oracle(seed, extra_candidates):
    inst = random_instance(seed=seed, max_tables=6, max_queries=12)
    if extra_candidates:
        inst = with_random_candidates(inst, seed)
    _assert_member_facts_equal_the_oracle(inst.context())


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), extra_candidates=st.booleans(), order=st.randoms())
def test_commits_equal_a_fresh_build(seed, extra_candidates, order):
    inst = random_instance(seed=seed, max_tables=6, max_queries=12)
    if extra_candidates:
        inst = with_random_candidates(inst, seed)
    ctx = inst.context()
    objects = enumerate_objects(ctx)
    # in any order: an on-view index may come before its view, and an
    # object after some or all of its keys
    pool = objects + enumerate_exhaustive_objects(ctx, objects)
    costs = QueryCosts(ctx)
    for obj in order.sample(pool, order.randint(0, len(pool))):
        keys = costs.config | obj.keys
        costs.commit(obj)
        assert costs.config == keys
        assert (costs.mins, costs.base, costs.cost) == plan_walk_costs(ctx, keys), obj.id
        assert costs.cost == [ctx.query_cost(q, keys)[0] for q in ctx.queries]


def test_context_rejects_view_and_index_sharing_an_id(workload, views, indexes, catalog):
    # one configuration key set holds both families, so an id may name only one
    clash = make_base_index(views[0].id, ("times", "time_fiscal_year"), catalog)
    matrices = build_matrices(workload, views, [*indexes, clash])
    with pytest.raises(ValidationError, match=repr(views[0].id)):
        CostContext(matrices, catalog)


@pytest.mark.parametrize(
    "view_ids, index_ids, bad_id",
    [(["a+b"], [], "a+b"), (["a"], ["b+c"], "b+c"), (["a"], ["i1@a"], "i1@a"), (["a", "a"], [], "a")],
    ids=["plus-in-view-id", "plus-in-index-id", "at-sign", "repeated-view-id"],
)
def test_context_rejects_ids_selection_could_confuse(workload, catalog, view_ids, index_ids, bad_id):
    # selection names pairs "<view>+<index>" and re-targeted indexes "<index>@<view>"
    attr = ("times", "time_fiscal_year")
    views = [
        make_view(vid, {"sales", "times"}, [(("sales", "time_id"), ("times", "time_id"))], [attr],
                  [("sum", ("sales", "amount_sold"))], catalog)
        for vid in view_ids
    ]
    indexes = [make_base_index(iid, attr, catalog) for iid in index_ids]
    matrices = build_matrices(workload, views, indexes)
    with pytest.raises(ValidationError, match=re.escape(repr(bad_id))):
        CostContext(matrices, catalog)
