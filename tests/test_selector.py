import random
import sys
from functools import cached_property, partial
from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import mvindex.selector
from mvindex.baselines import INDEXES_ONLY, VIEWS_ONLY, exhaustive_select, isolated_select
from mvindex.benefit import ObjectiveParams, index_object, objective_value, update_weight, view_object
from mvindex.candidates import (
    IndexCandidate,
    UsageMatrices,
    ViewCandidate,
    build_matrices,
    generate_index_candidates,
    generate_view_candidates,
    load_candidates,
)
from mvindex.catalog import load_catalog
from mvindex.costmodel import (
    Configuration,
    CostContext,
    QueryCosts,
    object_size,
)
from mvindex.errors import InvalidBudgetError, ValidationError
from mvindex.fixtures import CANDIDATES_FILE, fixture_text
from mvindex.selector import (
    STOP_BUDGET_EXHAUSTED,
    STOP_CANDIDATES_EXHAUSTED,
    STOP_NO_POSITIVE_OBJECTIVE,
    IterationRecord,
    SelectionResult,
    enumerate_objects,
    greedy_core,
    greedy_select,
    incremental_size,
)
from mvindex.workload import load_workload

from util import (
    committed_costs,
    full_rescore_greedy,
    full_rescore_objective,
    load_synth,
    log_uniform_budget,
    plan_walk_costs,
    random_instance,
    with_random_candidates,
)


def _params(refresh=0.0):
    return ObjectiveParams(refresh_ratio=refresh)


def test_enumerate_counts_fixture(ctx):
    objects = enumerate_objects(ctx)
    singles = [o for o in objects if o.kind in ("view", "index")]
    pairs = [o for o in objects if o.kind == "pair"]
    assert len(singles) == 19
    assert len(pairs) == 22
    assert len(objects) == 41
    assert len({o.id for o in objects}) == 41


def _refuse(what):
    def refuse(*args):
        raise AssertionError(f"building the objects {what}")

    return refuse


def test_enumerate_derives_the_plan_pass_once(matrices, catalog, monkeypatch):
    # every member's facts come from the one plan pass: building the objects,
    # re-targeted pair indexes too, sizes no member, runs no key chain and
    # re-checks no index; the pass runs once on a fresh context
    for module in [m for name, m in sys.modules.items() if name.partition(".")[0] == "mvindex"]:
        for name in ("object_size", "maintenance_cost", "member_key", "make_view_index"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, _refuse(f"called {name}"))
    derive = CostContext.__dict__["_plans_and_offers"].func
    derived = []

    def counted(self):
        derived.append(self)
        return derive(self)

    counting = cached_property(counted)
    counting.__set_name__(CostContext, "_plans_and_offers")
    monkeypatch.setattr(CostContext, "_plans_and_offers", counting)
    ctx = CostContext(matrices, catalog)
    objects = enumerate_objects(ctx)
    assert any(o.kind == "pair" and o.index.id.endswith(f"@{o.view.id}") for o in objects)
    assert len(objects) == 41
    assert derived == [ctx]


def test_enumerate_walks_the_view_index_pairs_once(matrices, catalog, monkeypatch):
    # the singletons' pairing facts and the pair objects read one list
    walk, walks = UsageMatrices.pairs, []

    def counted(self):
        walks.append(self)
        return walk(self)

    monkeypatch.setattr(UsageMatrices, "pairs", counted)
    ctx = CostContext(matrices, catalog)
    objects = enumerate_objects(ctx)
    assert [o.id for o in objects if o.kind == "pair"] == [f"{v}+{i}" for v, i in walk(matrices)]
    assert enumerate_objects(ctx) == objects
    assert len(walks) == 1 and walks[0] is matrices


def test_enumerate_no_pairs_without_vi(workload, views, catalog):
    from mvindex.candidates import build_matrices

    m = build_matrices(workload, views, [])
    objects = enumerate_objects(CostContext(m, catalog))
    assert all(o.kind == "view" for o in objects)
    assert len(objects) == len(views)


def test_enumerate_one_view_one_index(workload, views, indexes, catalog):
    from mvindex.candidates import build_matrices

    v1 = [v for v in views if v.id == "v1"]
    i8 = [i for i in indexes if i.id == "i8"]
    m = build_matrices(workload, v1, i8)
    objects = enumerate_objects(CostContext(m, catalog))
    assert [o.kind for o in objects] == ["view", "index", "pair"]
    assert len(objects) == 3


def test_incremental_size(views, catalog, ctx):
    objects = enumerate_objects(ctx)
    pair = next(o for o in objects if o.id == "v1+i8")
    empty = Configuration()
    full = pair.size
    assert incremental_size(pair, empty) == full
    with_view = Configuration({"v1"})
    assert incremental_size(pair, with_view) == object_size(pair.index, catalog)
    both = empty | pair.keys
    assert incremental_size(pair, both) == 0

    single = next(o for o in objects if o.id == "v1")
    assert incremental_size(single, empty) == object_size(views[0], catalog)


def test_zero_budget(ctx):
    res = greedy_select(ctx, 0, _params())
    assert not res.config
    assert res.used_bytes == 0
    assert res.stop_reason == STOP_BUDGET_EXHAUSTED


@pytest.mark.parametrize(
    "run",
    [
        lambda ctx: greedy_select(ctx, -1, _params()),
        lambda ctx: exhaustive_select(ctx, [view_object(v, ctx) for v in ctx.views.values()], -1, _params()),
    ],
    ids=["greedy", "exhaustive"],
)
def test_negative_budget_rejected(ctx, run):
    with pytest.raises(InvalidBudgetError, match="^budget must be >= 0, got -1$"):
        run(ctx)


def test_huge_refresh_ratio_selects_nothing(ctx):
    res = greedy_select(ctx, 10**12, _params(refresh=1e9))
    assert not res.config
    assert res.stop_reason == STOP_NO_POSITIVE_OBJECTIVE


def test_budget_skip_picks_next_best(ctx):
    # v1 (116880 B) is the best object but does not fit; the selector must
    # fall back to something affordable instead of stopping
    res = greedy_select(ctx, 50_000, _params())
    assert res.used_bytes <= 50_000
    assert res.selected, "expected an affordable object to be chosen"
    assert "v1" not in res.config
    assert res.iterations[0].skipped_unaffordable


def test_trace_objectives_match_public_function(ctx):
    params = _params()
    budget = 10**12
    res = greedy_select(ctx, budget, params)
    assert res.iterations

    # replay: each recorded objective is the maximum over remaining objects
    objects = enumerate_objects(ctx)
    beta = update_weight(params, ctx)
    config = Configuration()
    for it in res.iterations:
        remaining = [o for o in objects if not o.keys <= config]
        costs = committed_costs(ctx, config)
        scores = {o.id: objective_value(o, costs, beta) for o in remaining}
        assert scores[it.object_id] == pytest.approx(it.objective, rel=1e-12)
        assert it.objective == pytest.approx(max(scores.values()), rel=1e-12)
        chosen = next(o for o in remaining if o.id == it.object_id)
        config = config | chosen.keys
    assert config == res.config


def test_costs_decrease_along_trace(ctx):
    res = greedy_select(ctx, 10**12, _params())
    costs = [it.workload_cost for it in res.iterations]
    assert all(a >= b for a, b in zip(costs, costs[1:]))
    assert costs[-1] == res.final_cost


def test_budget_safety_fixture(catalog, ctx):
    rng = random.Random(123)
    objects = enumerate_objects(ctx)
    total = sum(o.size for o in objects)
    for _ in range(25):
        budget = log_uniform_budget(rng, total)
        res = greedy_select(ctx, budget, _params())
        assert res.used_bytes <= budget
        assert sum(m.bytes for m in res.selected) == res.used_bytes


def test_view_index_dependency_fixture(ctx):
    rng = random.Random(321)
    for _ in range(20):
        budget = log_uniform_budget(rng, 10**9)
        res = greedy_select(ctx, budget, _params())
        for key in res.config:
            if isinstance(key, tuple):
                assert key[0] in res.config


def test_determinism(ctx):
    a = greedy_select(ctx, 10**9, _params())
    b = greedy_select(ctx, 10**9, _params())
    assert a.config == b.config
    assert a.iterations == b.iterations
    assert a.selected == b.selected


def test_random_instances_run_clean():
    rng = random.Random(77)
    for trial in range(40):
        inst = random_instance(seed=trial)
        ctx = inst.context()
        objects = enumerate_objects(ctx)
        total = sum(o.size for o in objects) or 1
        budget = log_uniform_budget(rng, total)
        params = _params(refresh=rng.choice([0.0, 0.5]))
        res = greedy_select(ctx, budget, params)
        assert res.used_bytes <= budget
        for key in res.config:
            if isinstance(key, tuple):
                assert key[0] in res.config
        assert res.stop_reason in (
            STOP_BUDGET_EXHAUSTED,
            STOP_CANDIDATES_EXHAUSTED,
            STOP_NO_POSITIVE_OBJECTIVE,
        )


# The property tests that compare with a full-rescore reference report a
# failing example as drawn: every shrink step reruns the reference, so
# shrinking one failure took minutes.  The same examples are drawn.
NO_SHRINK = [phase for phase in Phase if phase is not Phase.shrink]


@settings(max_examples=150, deadline=None, phases=NO_SHRINK)
@given(
    seed=st.integers(0, 10**6),
    max_queries=st.integers(1, 24),
    refresh=st.one_of(st.just(0.0), st.floats(0.01, 3.0)),
    budget_seed=st.integers(0, 2**32 - 1),
    extra_candidates=st.booleans(),
)
def test_incremental_greedy_matches_full_rescore(
    seed, max_queries, refresh, budget_seed, extra_candidates
):
    inst = random_instance(seed=seed, max_queries=max_queries)
    if extra_candidates:
        inst = with_random_candidates(inst, seed)
    ctx = inst.context()
    objects = enumerate_objects(ctx)
    total = sum(o.size for o in objects) or 1
    budget = log_uniform_budget(random.Random(budget_seed), total)
    params = _params(refresh=refresh)
    args = (inst.matrices, inst.catalog, budget, params)
    runs = [
        (greedy_select(ctx, budget, params), objects),
        (isolated_select(VIEWS_ONLY, ctx, budget, params), [view_object(v, ctx) for v in inst.views]),
        (
            isolated_select(INDEXES_ONLY, ctx, budget, params),
            [index_object(i, ctx) for i in inst.indexes if i.is_base()],
        ),
    ]
    for result, family in runs:
        expected = full_rescore_greedy(family, *args)
        assert result.iterations == expected.iterations
        assert result.selected == expected.selected
        assert result.used_bytes == expected.used_bytes
        assert result.stop_reason == expected.stop_reason
        assert result.final_cost == expected.final_cost


@settings(max_examples=30, deadline=None, phases=NO_SHRINK)
@given(
    seed=st.integers(0, 10**6),
    refresh=st.one_of(st.just(0.0), st.floats(0.01, 3.0)),
    budget_seed=st.integers(0, 2**32 - 1),
    extra_candidates=st.booleans(),
)
def test_running_costs_score_every_remaining_object_as_objective_value(
    seed, refresh, budget_seed, extra_candidates
):
    inst = random_instance(seed=seed, max_tables=8, max_queries=40)
    if extra_candidates:
        inst = with_random_candidates(inst, seed)
    ctx = inst.context()
    objects = enumerate_objects(ctx)
    budget = log_uniform_budget(random.Random(budget_seed), sum(o.size for o in objects) or 1)
    params = _params(refresh=refresh)
    beta = update_weight(params, ctx)
    configs = []

    class CheckedCosts(QueryCosts):
        """The loop's running costs, checked when built and after each commit."""

        def __init__(self, ctx):
            super().__init__(ctx)
            self.check()

        def commit(self, obj):
            mins, base = [list(m) for m in self.mins], list(self.base)
            lowered = super().commit(obj)
            # exactly the (position, slot) whose minimum fell, and only
            # their base parts moved
            assert lowered == [
                (pos, slot)
                for pos, (was, now) in enumerate(zip(mins, self.mins))
                for slot in range(len(now))
                if was[slot] != now[slot]
            ], obj.id
            assert [pos for pos, _ in lowered] == [
                pos for pos, (was, now) in enumerate(zip(base, self.base)) if was != now
            ], obj.id
            self.check()
            return lowered

        def check(self):
            config = self.config
            configs.append(config)
            assert self.cost == [ctx.query_cost(q, config)[0] for q in ctx.queries]
            assert (self.mins, self.base, self.cost) == plan_walk_costs(ctx, config)
            for o in objects:
                if not o.keys <= config:
                    got = objective_value(o, self, beta)
                    assert got == full_rescore_objective(
                        o, inst.queries, config, inst.matrices, inst.catalog, params, ctx
                    ), o.id

    with mock.patch.object(mvindex.selector, "QueryCosts", CheckedCosts):
        res = greedy_select(ctx, budget, params, objects)
    # the empty configuration, then once per commit
    assert configs[0] == Configuration() and len(configs) == len(res.iterations) + 1
    assert configs[-1] == res.config


def _candidate_file_parts(text):
    """The view blocks and index lines of a candidates file, comments dropped."""
    blocks, index_lines = [], []
    for line in text.splitlines():
        if not line.split("#", 1)[0].strip():
            continue
        if line.startswith("index "):
            index_lines.append(line)
        elif line.startswith("view "):
            blocks.append([line])
        else:
            blocks[-1].append(line)
    return ["\n".join(b) for b in blocks], index_lines


_FIXTURE_BLOCKS, _FIXTURE_INDEX_LINES = _candidate_file_parts(fixture_text(CANDIDATES_FILE))


@settings(max_examples=40, deadline=None)
@given(
    blocks=st.permutations(_FIXTURE_BLOCKS),
    index_lines=st.permutations(_FIXTURE_INDEX_LINES),
    budget=st.one_of(st.integers(0, 2_000_000), st.just(10**12)),
    refresh=st.sampled_from([0.0, 0.5]),
)
def test_greedy_ignores_candidate_file_order(workload, catalog, blocks, index_lines, budget, refresh):
    def run(view_blocks, lines):
        text = "\n\n".join(view_blocks) + "\n\n" + "\n".join(lines) + "\n"
        views, indexes = load_candidates(text, catalog)
        matrices = build_matrices(workload, views, indexes)
        ctx = CostContext(matrices, catalog)
        return greedy_select(ctx, budget, _params(refresh=refresh))

    expected = run(_FIXTURE_BLOCKS, _FIXTURE_INDEX_LINES)
    permuted = run(blocks, index_lines)
    assert permuted.selected_ids() == expected.selected_ids()
    assert permuted.iterations == expected.iterations


def test_commit_rescores_objects_whose_denominator_it_changes(catalog):
    # v1 groups on sales.prod_id, which only qb uses, and qb cannot use v1:
    # v1 and index i1 touch no common query, yet committing v1 grows i1's
    # denominator, so i1 must be rescored before step 2 records its objective.
    workload = load_workload(
        "qa: select times.time_fiscal_year, sum(amount_sold) from sales, times"
        " where sales.time_id = times.time_id group by times.time_fiscal_year;"
        "qb: select products.prod_category, sum(amount_sold) from sales, products"
        " where sales.prod_id = products.prod_id and sales.prod_id = 7"
        " group by products.prod_category;",
        catalog,
    )
    views, indexes = load_candidates(
        "view v1\n  tables sales, times\n  join sales.time_id = times.time_id\n"
        "  group_by times.time_fiscal_year, sales.prod_id\n  agg sum(sales.amount_sold)\n"
        "index i1 on sales key prod_id\n",
        catalog,
    )
    matrices = build_matrices(workload, views, indexes)
    ctx = CostContext(matrices, catalog)
    offers = ctx.member_facts["v1"][3], ctx.member_facts["i1"][3]
    assert not {pos for pos, *_ in offers[0]} & {pos for pos, *_ in offers[1]}
    res = greedy_select(ctx, 10**12, _params())
    assert [it.object_id for it in res.iterations] == ["v1", "i1"]
    expected = full_rescore_greedy(enumerate_objects(ctx), matrices, catalog, 10**12, _params())
    assert res.iterations == expected.iterations


# Two tables, two queries, a view that answers only q1, and a base index on
# each table.  q1 costs 208 blocks through v1 and beats that on its base
# tables only with both indexes (3 + 6 blocks).
_LOWERED_BASE_CATALOG = """\
block_size 8192
btree_fanout 200
rowid_width 10
table f fact rows 100000 row_width 80
  attr k card 100000 width 4
  attr a card 1000 width 4
  attr m card 1000 width 4
  attr n card 1000 width 4
  attr c card 1 width 1
table d dimension rows 400000 row_width 20
  attr k card 400000 width 4
  attr b card 200 width 4
"""
_LOWERED_BASE_WORKLOAD = """\
q1: select f.a, sum(m) from f, d where f.k = d.k and f.a = 1 and d.b = 2 group by f.a;
q2: select d.b, sum(n) from f, d where f.k = d.k and d.b = 3 group by d.b;
"""
_LOWERED_BASE_CANDIDATES = """\
view v1
  tables f, d
  join f.k = d.k
  group_by f.a, d.b, f.c
  agg sum(f.m)
  indexable f.c
index i1 on f key a
index i2 on d key b
"""


def test_commit_rescores_base_indexes_at_another_lowered_table():
    # i1 scores 0.0 once v1 is selected: q1's base part with f lowered is
    # still above v1's 208 blocks.  Selecting i2 lowers q1's base part at d,
    # not at f, and leaves q1 at v1's cost; only then does i1 score positive.
    catalog = load_catalog(_LOWERED_BASE_CATALOG)
    workload = load_workload(_LOWERED_BASE_WORKLOAD, catalog)
    matrices = build_matrices(workload, *load_candidates(_LOWERED_BASE_CANDIDATES, catalog))
    ctx = CostContext(matrices, catalog)
    res = greedy_select(ctx, 10**12, _params())
    assert [it.object_id for it in res.iterations] == res.selected_ids() == ["v1", "i2", "i1"]
    assert res.stop_reason == STOP_CANDIDATES_EXHAUSTED
    expected = full_rescore_greedy(enumerate_objects(ctx), matrices, catalog, 10**12, _params())
    assert res.iterations == expected.iterations
    assert res.stop_reason == expected.stop_reason


def test_commit_rescores_objects_with_a_term_that_needs_its_key(workload, catalog):
    # j1's only term is on v1, so j1 scores 0.0 until v1 is selected.  v1 is
    # not a member of j1 and lowers no base part: only the term's need on
    # v1 says that committing v1 can raise j1.
    matrices = build_matrices(
        workload,
        *load_candidates(
            "view v1\n  tables sales, times\n  join sales.time_id = times.time_id\n"
            "  group_by sales.time_id, times.time_fiscal_year\n  agg sum(sales.amount_sold)\n"
            "  indexable times.time_fiscal_year\n"
            "index j1 on v1 key times.time_fiscal_year\n",
            catalog,
        ),
    )
    ctx = CostContext(matrices, catalog)
    res = greedy_select(ctx, 10**12, _params())
    assert [it.object_id for it in res.iterations] == ["v1", "j1"]
    expected = full_rescore_greedy(enumerate_objects(ctx), matrices, catalog, 10**12, _params())
    assert res.iterations == expected.iterations


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    max_queries=st.integers(1, 24),
    refresh=st.one_of(st.just(0.0), st.floats(0.01, 3.0)),
    extra_candidates=st.booleans(),
    headroom=st.one_of(st.just(0), st.integers(1, 10**3), st.integers(1, 10**12)),
)
def test_budget_at_or_above_unconstrained_use_selects_the_same(
    seed, max_queries, refresh, extra_candidates, headroom
):
    inst = random_instance(seed=seed, max_queries=max_queries)
    if extra_candidates:
        inst = with_random_candidates(inst, seed)
    ctx = inst.context()
    params = _params(refresh=refresh)
    unconstrained = sum(o.size for o in enumerate_objects(ctx)) + 1
    free = greedy_select(ctx, unconstrained, params)
    budget = free.used_bytes + headroom
    res = greedy_select(ctx, budget, params)

    def steps(result):
        return [
            (it.object_id, it.kind, it.objective, it.incremental_bytes, it.workload_cost,
             it.skipped_unaffordable)
            for it in result.iterations
        ]

    assert res.selected_ids() == free.selected_ids()
    assert res.config == free.config
    assert steps(res) == steps(free)
    assert res.used_bytes == free.used_bytes
    assert res.final_cost == free.final_cost
    if headroom:
        assert res.stop_reason == free.stop_reason


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    max_queries=st.integers(1, 24),
    refresh=st.one_of(st.just(0.0), st.floats(0.01, 3.0)),
    extra_candidates=st.booleans(),
    budget_seed=st.integers(0, 2**32 - 1),
)
def test_resumed_run_equals_fresh_run(
    seed, max_queries, refresh, extra_candidates, budget_seed
):
    inst = random_instance(seed=seed, max_queries=max_queries)
    if extra_candidates:
        inst = with_random_candidates(inst, seed)
    ctx = inst.context()
    objects = enumerate_objects(ctx)
    params = _params(refresh=refresh)
    unconstrained = sum(o.size for o in objects) + 1
    rng = random.Random(budget_seed)
    strategies = [
        partial(greedy_select, ctx),
        partial(isolated_select, VIEWS_ONLY, ctx),
        partial(isolated_select, INDEXES_ONLY, ctx),
    ]
    for select in strategies:
        reference = select(unconstrained, params, objects)
        # budgets above the reference's too: it skips nothing, so it replays whole
        budgets = [0, reference.used_bytes, 2 * unconstrained]
        budgets += [log_uniform_budget(rng, unconstrained) for _ in range(4)]
        # a budget that just fits one of the reference's commits, and one byte less
        fits = list(accumulate(it.incremental_bytes for it in reference.iterations))
        if fits:
            k = rng.randrange(len(fits))
            budgets += [fits[k], fits[k] - 1]
        fresh = {b: select(b, params) for b in budgets if b >= 0}  # own object lists
        previous = reference
        for budget in sorted(fresh, reverse=True):
            assert select(budget, params, objects, reference) == fresh[budget]
            previous = select(budget, params, objects, previous)  # decreasing budgets
            assert previous == fresh[budget]
        previous = None
        for budget in sorted(fresh):
            previous = select(budget, params, objects, previous)  # increasing budgets
            assert previous == fresh[budget]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    refresh=st.one_of(st.just(0.0), st.floats(0.01, 3.0)),
    extra_candidates=st.booleans(),
    budget_seed=st.integers(0, 2**32 - 1),
)
def test_runs_on_one_context_equal_runs_on_fresh_ones(
    seed, refresh, extra_candidates, budget_seed
):
    # what a context derives for every run (the empty configuration's costs,
    # the member facts) is copied or only read: runs one after another on
    # one context select as each does alone on a fresh context and objects
    inst = random_instance(seed=seed, max_tables=8, max_queries=24)
    if extra_candidates:
        inst = with_random_candidates(inst, seed)
    params = _params(refresh=refresh)
    rng = random.Random(budget_seed)
    budget = log_uniform_budget(rng, sum(o.size for o in enumerate_objects(inst.context())) + 1)
    smaller = rng.randint(0, budget)

    calls = [
        lambda ctx, objects: greedy_select(ctx, budget, params, objects),
        lambda ctx, objects: greedy_select(ctx, smaller, params, objects, shared[0]),
        lambda ctx, objects: isolated_select(VIEWS_ONLY, ctx, budget, params, objects),
        lambda ctx, objects: isolated_select(INDEXES_ONLY, ctx, budget, params, objects),
    ]
    ctx = inst.context()
    objects = enumerate_objects(ctx)
    shared = []
    for call in calls:
        shared.append(call(ctx, objects))
    for k, (call, result) in enumerate(zip(calls, shared)):
        fresh = inst.context()
        assert call(fresh, enumerate_objects(fresh)) == result, k
    costs = QueryCosts(ctx)
    assert (costs.mins, costs.base, costs.cost) == plan_walk_costs(ctx, Configuration())


@settings(max_examples=20, deadline=None, phases=NO_SHRINK)
@given(
    seed=st.integers(0, 10**6),
    refresh=st.one_of(st.just(0.0), st.floats(0.01, 3.0)),
    extra_candidates=st.booleans(),
    budget_seed=st.integers(0, 2**32 - 1),
)
def test_reader_index_follows_each_object_list_and_its_order(
    seed, refresh, extra_candidates, budget_seed
):
    # the context derives one reader index per object list, by position: runs
    # on one context over the list, a shuffled copy and a family filtered
    # from it select as each does on a fresh context and as the reference.
    # Scorings are by position too: a run over the shuffled copy resumed
    # from the run over the list replays its steps but scores afresh
    inst = random_instance(seed=seed, max_tables=8, max_queries=16)
    if extra_candidates:
        inst = with_random_candidates(inst, seed)
    params = _params(refresh=refresh)
    ctx = inst.context()
    objects = enumerate_objects(ctx)
    rng = random.Random(budget_seed)
    budget = log_uniform_budget(rng, sum(o.size for o in objects) + 1)
    order = rng.sample(range(len(objects)), len(objects))
    lists = [
        lambda objs: objs,
        lambda objs: [objs[k] for k in order],
        lambda objs: [o for o in objs if o.kind == "index" and o.index.is_base()],
    ]
    results = [greedy_core(ctx, pick(objects), budget, params) for pick in lists]
    for k, (pick, result) in enumerate(zip(lists, results)):
        fresh = inst.context()
        assert greedy_core(fresh, pick(enumerate_objects(fresh)), budget, params) == result, k
        expected = full_rescore_greedy(pick(objects), inst.matrices, inst.catalog, budget, params)
        assert result == expected, k
    smaller = rng.randint(0, budget)
    shuffled = lists[1](objects)
    resumed = greedy_core(ctx, shuffled, smaller, params, results[0])
    assert resumed == greedy_core(ctx, shuffled, smaller, params)


def test_resume_replays_only_leading_steps_that_skipped_nothing(ctx):
    objects = enumerate_objects(ctx)
    params = _params()
    earlier = greedy_select(ctx, 200_000, params, objects)
    assert any(it.skipped_unaffordable for it in earlier.iterations)
    assert not earlier.iterations[0].skipped_unaffordable
    for budget in (100_000, 200_001, 10**6, 10**12):
        assert greedy_select(ctx, budget, params, objects, earlier) == greedy_select(
            ctx, budget, params
        )


def test_resume_records_replayed_steps_from_the_run(ctx):
    # a resume the greedy loop did not produce, such as a hand-built one,
    # may carry any step numbers, bytes and costs: a replayed step records
    # this run's, as a chosen one does, and fits its bytes as this run
    # derives them, so a resume that claims no bytes breaks no budget
    objects = enumerate_objects(ctx)
    params = _params()
    fresh = greedy_select(ctx, 10**12, params, objects)
    assert len(fresh.iterations) > 1 and not any(it.skipped_unaffordable for it in fresh.iterations)
    rewritten = [
        IterationRecord(it.step + 100, it.object_id, it.kind, it.objective, 0,
                        it.remaining_budget, it.workload_cost - 1)
        for it in fresh.iterations
    ]
    hand_built = SelectionResult(fresh.config, fresh.selected, fresh.used_bytes, rewritten,
                                 fresh.stop_reason, fresh.final_cost)
    for budget in (10**12, fresh.used_bytes // 2):
        resumed = greedy_select(ctx, budget, params, objects, hand_built)
        assert resumed == greedy_select(ctx, budget, params, objects), budget
        assert resumed.used_bytes == sum(m.bytes for m in resumed.selected) <= budget


def _objective_calls(run):
    """``run()`` and the number of objective calls the greedy loop made."""
    calls = []

    def counted(*args):
        calls.append(args)
        return objective_value(*args)

    with mock.patch.object(mvindex.selector, "objective_value", counted):
        return run(), len(calls)


def test_resume_replays_every_step_that_fits_exactly(ctx):
    # under a budget of exactly the bytes of the earlier run's first k
    # steps, the k-th step fits with nothing left: all k are replayed and
    # the budget is spent before anything is scored
    objects = enumerate_objects(ctx)
    params = _params()
    earlier = greedy_select(ctx, 10**12, params, objects)
    assert all(it.incremental_bytes > 0 and not it.skipped_unaffordable for it in earlier.iterations)
    for k, budget in enumerate(accumulate(it.incremental_bytes for it in earlier.iterations), 1):
        resumed, calls = _objective_calls(lambda: greedy_select(ctx, budget, params, objects, earlier))
        assert calls == 0, k
        assert len(resumed.iterations) == k and resumed.stop_reason == STOP_BUDGET_EXHAUSTED
        assert resumed == greedy_select(ctx, budget, params, objects), k


def test_resume_replays_no_step_once_the_budget_is_spent(ctx):
    # a hand-built resume whose next record, once the budget is spent, names
    # an object already fully selected: that step would add no bytes, yet
    # with no budget left it is not replayed
    objects = enumerate_objects(ctx)
    params = _params()
    earlier = greedy_select(ctx, 10**12, params, objects)
    first = earlier.iterations[0]
    again = IterationRecord(2, first.object_id, first.kind, first.objective, 0, 0, first.workload_cost)
    hand_built = SelectionResult(earlier.config, earlier.selected, earlier.used_bytes, [first, again],
                                 earlier.stop_reason, earlier.final_cost)
    budget = first.incremental_bytes
    resumed, calls = _objective_calls(lambda: greedy_select(ctx, budget, params, objects, hand_built))
    assert [it.object_id for it in resumed.iterations] == [first.object_id] and calls == 0
    assert resumed == greedy_select(ctx, budget, params, objects)


def test_resume_stops_at_the_first_step_that_skipped_an_id(workload, catalog):
    # the earlier run's step 3 skipped ids; at the bytes committed through
    # step 3 that step still fits, yet the resumed run replays only steps 1
    # and 2 and goes on from there, as a run resumed from those two does.
    # The hand-built cut carries no scorings, so its resume scores afresh;
    # the resume from the earlier run starts from that run's ranking at
    # step 2, whose exact scores already settle step 3
    views = generate_view_candidates(workload, catalog)
    indexes = generate_index_candidates(workload, views, 1)
    ctx = CostContext(build_matrices(workload, views, indexes), catalog)
    objects = enumerate_objects(ctx)
    params = _params()
    earlier = greedy_select(ctx, 200_000, params, objects)
    assert [bool(it.skipped_unaffordable) for it in earlier.iterations[:3]] == [
        False, False, True
    ]
    budget = sum(it.incremental_bytes for it in earlier.iterations[:3])
    assert budget == 126_498

    def resumed(resume):
        return _objective_calls(lambda: greedy_select(ctx, budget, params, objects, resume))

    result, calls = resumed(earlier)
    cut, cut_calls = resumed(SelectionResult(earlier.config, earlier.selected, earlier.used_bytes,
                                             earlier.iterations[:2], earlier.stop_reason, earlier.final_cost))
    assert result == cut == greedy_select(ctx, budget, params)
    assert cut_calls == 51 and calls == 0


def _hand_built(result):
    """A copy of ``result``'s records without its scorings."""
    return SelectionResult(*result._values())


def test_resume_scores_afresh_before_the_earlier_run_began_scoring(ctx):
    # a run resumed from a hand-built copy replays k steps and scores from
    # state k on, so its log holds no ranking at an earlier state: a run
    # resumed from it at fewer steps scores afresh, as one resumed from a
    # copy of it does, and selects as a fresh run
    objects = enumerate_objects(ctx)
    params = _params()
    reference = greedy_select(ctx, 10**12, params, objects)
    fits = list(accumulate(it.incremental_bytes for it in reference.iterations))
    k = 5
    later = greedy_select(ctx, fits[k - 1] + 1, params, objects, _hand_built(reference))
    assert len(later.iterations) == k and later.scorings[2] == k
    for budget in (fits[0] // 2, fits[0] + 1, fits[2] + 1):
        resumed, calls = _objective_calls(lambda: greedy_select(ctx, budget, params, objects, later))
        copied, copy_calls = _objective_calls(
            lambda: greedy_select(ctx, budget, params, objects, _hand_built(later))
        )
        assert resumed == copied == greedy_select(ctx, budget, params), budget
        assert resumed.selected and calls == copy_calls > 0, budget


def test_resume_from_a_run_that_only_replayed_inherits_its_scorings(ctx):
    # a sweep's whole fraction replays every step of the reference run and
    # stops with no budget left, scoring nothing; it carries the reference
    # run's ranking on, so a smaller fraction resumed from it rescores no
    # more than one resumed from the reference, and less than a fresh one
    objects = enumerate_objects(ctx)
    params = _params()
    reference = greedy_select(ctx, 10**12, params, objects)
    whole, whole_calls = _objective_calls(
        lambda: greedy_select(ctx, reference.used_bytes, params, objects, reference)
    )
    assert whole_calls == 0 and whole.stop_reason == STOP_BUDGET_EXHAUSTED
    assert whole.selected == reference.selected
    for fraction in (0.25, 0.05, 0.001):
        budget = int(reference.used_bytes * fraction)
        resumed, calls = _objective_calls(lambda: greedy_select(ctx, budget, params, objects, whole))
        direct, direct_calls = _objective_calls(
            lambda: greedy_select(ctx, budget, params, objects, reference)
        )
        copied, copy_calls = _objective_calls(
            lambda: greedy_select(ctx, budget, params, objects, _hand_built(whole))
        )
        assert resumed == direct == copied == greedy_select(ctx, budget, params), fraction
        assert calls == direct_calls < copy_calls, fraction


@settings(max_examples=60, deadline=None, phases=NO_SHRINK)
@given(
    seed=st.integers(0, 10**6),
    max_queries=st.integers(1, 24),
    refresh=st.one_of(st.just(0.0), st.floats(0.01, 3.0)),
    extra_candidates=st.booleans(),
    budget_seed=st.integers(0, 2**32 - 1),
)
def test_resume_from_a_greedy_run_scores_no_more_than_from_its_records(
    seed, max_queries, refresh, extra_candidates, budget_seed
):
    # down a chain of decreasing budgets, each run resumed from the last one
    # or from the run resumed from a hand-built copy of it (whose scorings
    # begin where its replay stopped): the resume from the greedy result
    # makes no more objective calls than the one from the copy, and both
    # select as a fresh run
    inst = random_instance(seed=seed, max_queries=max_queries)
    if extra_candidates:
        inst = with_random_candidates(inst, seed)
    ctx = inst.context()
    objects = enumerate_objects(ctx)
    params = _params(refresh=refresh)
    unconstrained = sum(o.size for o in objects) + 1
    rng = random.Random(budget_seed)
    strategies = [
        partial(greedy_select, ctx),
        partial(isolated_select, VIEWS_ONLY, ctx),
        partial(isolated_select, INDEXES_ONLY, ctx),
    ]
    for select in strategies:
        previous = select(unconstrained, params, objects)
        budgets = {previous.used_bytes, *(log_uniform_budget(rng, unconstrained) for _ in range(4))}
        for budget in sorted(budgets, reverse=True):
            resumed, calls = _objective_calls(lambda: select(budget, params, objects, previous))
            copied, copy_calls = _objective_calls(
                lambda: select(budget, params, objects, _hand_built(previous))
            )
            assert resumed == copied == select(budget, params), budget
            assert calls <= copy_calls, budget
            previous = rng.choice([resumed, copied])


def test_candidates_whose_pair_ids_could_repeat_are_rejected(workload, catalog):
    # pair ids join a view id and an index id with "+": views "a" and "a+b"
    # with indexes "b+c" and "c" would give two pairs named "a+b+c"
    text = (
        "view a\n  tables sales, times\n  join sales.time_id = times.time_id\n"
        "  group_by times.time_fiscal_year, times.time_id\n  agg sum(sales.amount_sold)\n"
        "view a+b\n  tables sales, times\n  join sales.time_id = times.time_id\n"
        "  group_by times.time_fiscal_year\n  agg sum(sales.amount_sold)\n"
        "index b+c on times key time_id\n"
        "index c on times key time_fiscal_year\n"
    )
    with pytest.raises(ValidationError, match=r"^c.cand: line 6: view id 'a\+b'"):
        load_candidates(text, catalog, "c.cand")
    # candidates built by a library caller meet the same rule in the context
    views, indexes = load_candidates(text.replace("+", ""), catalog)
    v, i = views[1], indexes[0]
    views[1] = ViewCandidate("a+b", v.joined_tables, v.join_pairs, v.group_by, v.aggregates, v.row_count,
                             v.row_width, v.indexable)
    indexes[0] = IndexCandidate("b+c", i.attribute, i.on_view)
    matrices = build_matrices(workload, views, indexes)
    with pytest.raises(ValidationError, match=r"'a\+b'"):
        CostContext(matrices, catalog)


def _fiscal_year_view(vid):
    return (
        f"view {vid}\n  tables sales, times\n  join sales.time_id = times.time_id\n"
        "  group_by sales.time_id, times.time_fiscal_year\n  agg sum(sales.amount_sold)\n"
    )


def test_equal_scores_break_by_incremental_bytes_then_id(workload, catalog):
    # two copies of one view and of one index under different ids, listed
    # against id order: every tie in the trace is decided by (inc, id)
    views, indexes = load_candidates(
        _fiscal_year_view("v!") + _fiscal_year_view("v")
        + "index ib on times key time_fiscal_year\nindex ia on times key time_fiscal_year\n",
        catalog,
    )
    matrices = build_matrices(workload, views, indexes)
    ctx = CostContext(matrices, catalog)
    objects = enumerate_objects(ctx)
    by_id = {o.id: o for o in objects}
    params = _params()

    # unbounded: v and v! tie, and "v" < "v!"; then every pair scores the
    # same, and v+ia adds fewer bytes than v!+ia, whose id is the smaller
    res = greedy_select(ctx, 10**12, params, objects)
    assert [it.object_id for it in res.iterations] == ["v", "v+ia"]
    config = Configuration({"v"})
    costs, beta = committed_costs(ctx, config), update_weight(params, ctx)
    assert objective_value(by_id["v+ia"], costs, beta) == objective_value(by_id["v!+ia"], costs, beta)
    assert incremental_size(by_id["v+ia"], config) < incremental_size(by_id["v!+ia"], config)
    expected = full_rescore_greedy(objects, matrices, catalog, 10**12, params)
    assert res.iterations == expected.iterations

    # 100,000 bytes fit one index: the skipped views and pairs tie in pairs and
    # are listed by id, and ia is taken before its copy ib
    res = greedy_select(ctx, 100_000, params, objects)
    assert [(it.object_id, it.skipped_unaffordable) for it in res.iterations] == [
        ("ia", ("v", "v!", "v!+ia", "v!+ib", "v+ia", "v+ib")),
    ]
    expected = full_rescore_greedy(objects, matrices, catalog, 100_000, params)
    assert res.iterations == expected.iterations


def test_skipped_objects_stay_ranked_at_later_steps(ctx):
    # at 100,000 bytes five objects outrank every commit without fitting;
    # they are put back after each step, so each later step lists them again
    objects = enumerate_objects(ctx)
    params = _params()
    res = greedy_select(ctx, 100_000, params, objects)
    skipped = ("v1", "v1+i8", "i10", "i9", "i5")
    assert [(it.object_id, it.skipped_unaffordable) for it in res.iterations] == [
        ("i8", skipped),
        ("i7", skipped),
        ("i1", (*skipped, "i4")),
    ]
    assert res.stop_reason == STOP_BUDGET_EXHAUSTED
    expected = full_rescore_greedy(objects, ctx.matrices, ctx.catalog, 100_000, params)
    assert res.iterations == expected.iterations


@pytest.mark.parametrize(
    "shape, row",
    [
        ((36, 8, 3, 3, 0.0), (565_961, 20_106, 44, 3_730_218_120, 139_791, 34)),
        ((20, 5, 3, 3, 2.0), (2_359_732, 716_502, 12, 1_475_102_880, 950_522, 11)),
    ],
    ids=["36q", "20q-refresh-2"],
)
def test_relabelled_instances_cost_and_select_alike(shape, row):
    # a synth seed only permutes names and query order and redraws literals,
    # so every seed starts from the same cost and greedy ends alike: the
    # empty configuration's cost; the unconstrained run's final cost, steps
    # and bytes; the final cost and steps at 25% of those bytes
    synth = load_synth()
    rows = set()
    for seed in range(12):
        catalog, workload = synth.star_instance(synth.Shape(*shape), seed)
        views = generate_view_candidates(workload, catalog)
        indexes = generate_index_candidates(workload, views, 1)
        ctx = CostContext(build_matrices(workload, views, indexes), catalog)
        objects = enumerate_objects(ctx)
        params = _params(workload.refresh_ratio)
        full = greedy_select(ctx, sum(o.size for o in objects) + 1, params, objects)
        part = greedy_select(ctx, int(full.used_bytes * 0.25), params, objects)
        rows.add((ctx.workload_total(Configuration()), full.final_cost, len(full.iterations),
                  full.used_bytes, part.final_cost, len(part.iterations)))
    assert rows == {row}
