import random

import pytest

from mvindex.baselines import (
    INDEXES_ONLY,
    VIEWS_ONLY,
    enumerate_exhaustive_objects,
    exhaustive_select,
    isolated_select,
)
from mvindex.benefit import ObjectiveParams, view_object
from mvindex.candidates import build_matrices, generate_index_candidates, generate_view_candidates
from mvindex.catalog import AttributeStats, SchemaCatalog, TableStats
from mvindex.costmodel import Configuration, CostContext
from mvindex.errors import TooManyObjectsError, ValidationError
from mvindex.selector import enumerate_objects, greedy_select
from mvindex.workload import Query, Workload

from util import random_instance


PARAMS = ObjectiveParams(refresh_ratio=0.0)


def test_exhaustive_empty_objects(ctx):
    res = exhaustive_select(ctx, [], 10**9, PARAMS)
    assert res.selected_ids() == []
    assert res.final_cost == 384_325


def test_exhaustive_guard():
    inst = random_instance(seed=8, max_tables=6, max_queries=12)
    objects = [view_object(v, inst.context()) for v in inst.views]
    while len(objects) < 21:
        objects = objects + objects
    with pytest.raises(TooManyObjectsError):
        exhaustive_select(inst.context(), objects[:21], 10**9, PARAMS)


@pytest.mark.parametrize(
    "run, message",
    [
        (lambda ctx: exhaustive_select(ctx, [next(o for o in enumerate_objects(ctx) if o.kind == "pair")],
                                       10**9, PARAMS),
         "exhaustive enumeration expects singleton objects"),
        (lambda ctx: isolated_select("bogus", ctx, 10**9, PARAMS), "unknown isolated strategy 'bogus'"),
    ],
    ids=["exhaustive-pair", "isolated-bogus"],
)
def test_baselines_reject_what_they_cannot_run(ctx, run, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        run(ctx)


def test_exhaustive_three_object_knapsack():
    """Three non-interacting equal-size objects, budget for two: the oracle
    keeps the two with the larger savings."""
    inst = _uniform_instance(seed=1, n_dims=3)
    ctx = inst.context()
    objects = [view_object(v, ctx) for v in inst.views]
    size = objects[0].size
    assert all(o.size == size for o in objects)

    savings = {}
    base = ctx.workload_total(Configuration())
    for o in objects:
        savings[o.id] = base - ctx.workload_total(Configuration() | o.keys)
    keep = sorted(savings, key=lambda k: (-savings[k], k))[:2]

    res = exhaustive_select(ctx, objects, 2 * size, PARAMS)
    assert sorted(res.selected_ids()) == sorted(keep)


def _uniform_instance(seed: int, n_dims: int):
    """Non-interacting family: one query per dimension, one view per query,
    uniform view sizes, no usable indexes."""
    rng = random.Random(seed)
    card = rng.choice([64, 128, 256])
    width = rng.choice([8, 16])
    dims = []
    for d in range(n_dims):
        rows = rng.randint(2000, 4000)
        dims.append(
            TableStats(
                f"dim{d}",
                "dimension",
                rows,
                160,
                (AttributeStats(f"key{d}", rows, 4), AttributeStats(f"a{d}", card, width)),
            )
        )
    fact_rows = 500_000
    fact = TableStats(
        "fact",
        "fact",
        fact_rows,
        24,
        tuple(AttributeStats(f"fk{d}", dims[d].row_count, 4) for d in range(n_dims))
        + (AttributeStats("measure", 1000, 4),),
    )
    catalog = SchemaCatalog(tables=(fact, *dims))
    queries = []
    for d in range(n_dims):
        queries.append(
            Query(
                id=f"q{d + 1}",
                select_attrs=((f"dim{d}", f"a{d}"),),
                aggregates=(("sum", ("fact", "measure")),),
                joined_tables=frozenset({"fact", f"dim{d}"}),
                join_pairs=((("fact", f"fk{d}"), (f"dim{d}", f"key{d}")),),
                predicates=(),
                group_by=(((f"dim{d}", f"a{d}")),),
            )
        )
    workload = Workload(queries=tuple(queries))
    views = generate_view_candidates(workload, catalog)
    indexes = generate_index_candidates(workload, views, min_support=99)
    assert indexes == []
    matrices = build_matrices(workload, views, indexes)
    from util import Instance

    return Instance(catalog, workload, matrices)


def test_uniform_family_views_identical_size():
    inst = _uniform_instance(seed=3, n_dims=4)
    ctx = inst.context()
    sizes = {view_object(v, ctx).size for v in inst.views}
    assert len(sizes) == 1


def test_greedy_matches_exhaustive_on_uniform_family():
    for seed in range(12):
        n_dims = 2 + seed % 4
        inst = _uniform_instance(seed=seed, n_dims=n_dims)
        ctx = inst.context()
        objects = [view_object(v, ctx) for v in inst.views]
        size = objects[0].size
        for m in range(1, n_dims + 1):
            budget = m * size
            greedy = greedy_select(ctx, budget, PARAMS)
            exact = exhaustive_select(ctx, objects, budget, PARAMS)
            assert greedy.final_cost == exact.final_cost


def test_exhaustive_never_worse_than_greedy_random():
    checked = 0
    for seed in range(60):
        inst = random_instance(seed=5000 + seed, max_tables=5, max_queries=8)
        ctx = inst.context()
        objects = enumerate_exhaustive_objects(ctx, enumerate_objects(ctx))
        if len(objects) > 12:
            continue
        total = sum(o.size for o in objects) or 1
        rng = random.Random(seed)
        budget = rng.randint(1, total)
        greedy = greedy_select(ctx, budget, PARAMS)
        exact = exhaustive_select(ctx, objects, budget, PARAMS)
        assert exact.final_cost <= greedy.final_cost
        assert exact.used_bytes <= budget
        checked += 1
    assert checked >= 10


def test_isolated_views_only_empty(workload, indexes, catalog):
    matrices = build_matrices(workload, [], indexes)
    ctx = CostContext(matrices, catalog)
    res = isolated_select(VIEWS_ONLY, ctx, 10**9, PARAMS)
    assert not res.config


def test_isolated_indexes_only_never_composite(ctx):
    res = isolated_select(INDEXES_ONLY, ctx, 10**12, PARAMS)
    assert res.config <= {i.id for i in ctx.indexes.values() if i.is_base()}
    for it in res.iterations:
        assert it.kind == "index"


def test_simultaneous_beats_isolated_at_full_budget(catalog, ctx):
    objects = enumerate_objects(ctx)
    budget = sum(o.size for o in objects) + 1
    sim = greedy_select(ctx, budget, PARAMS)
    only_v = isolated_select(VIEWS_ONLY, ctx, budget, PARAMS)
    only_i = isolated_select(INDEXES_ONLY, ctx, budget, PARAMS)
    assert sim.final_cost <= only_v.final_cost
    assert sim.final_cost <= only_i.final_cost
