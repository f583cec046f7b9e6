import random
import re
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvindex.benefit import (
    ObjectiveParams,
    index_object,
    object_benefit,
    objective_value,
    pair_object,
    update_weight,
    view_object,
)
from mvindex.candidates import build_matrices, make_base_index, make_view, make_view_index
from mvindex.costmodel import Configuration, CostContext, QueryCosts, object_size
from mvindex.errors import ValidationError
from mvindex.selector import enumerate_objects

from util import (
    committed_costs,
    full_rescore_objective,
    random_config,
    random_instance,
    with_random_candidates,
)


class _FixedCosts:
    """A ``QueryCosts`` stand-in whose saving is given."""

    def __init__(self, saving, config=Configuration()):
        self.config = config
        self._saving = saving

    def saving(self, obj):
        return self._saving


def _sized(size, deps=()):
    return SimpleNamespace(size=size, deps=deps)


def test_benefit_direct_substitution():
    # 600 blocks saved over 100 bytes of storage
    assert object_benefit(_sized(100), _FixedCosts(600)) == 6.0
    assert object_benefit(_sized(100), _FixedCosts(0)) == 0.0
    # a selected dependency joins the denominator, an unselected one does not
    deps = (("v1", 40), ("v2", 1000))
    assert object_benefit(_sized(60, deps), _FixedCosts(600, Configuration({"v1"}))) == 6.0


def test_benefit_zero_size_floor():
    assert object_benefit(_sized(0), _FixedCosts(6)) == 6.0


def test_view_benefit_first_branch(views, ctx):
    v1 = views[0]
    got = object_benefit(view_object(v1, ctx), QueryCosts(ctx))
    # only q1 improves: (47664 - 15) saved blocks over the view's 116880 bytes
    assert got == pytest.approx(47_649 / 116_880, rel=1e-12)


def test_view_benefit_zero_when_unused(views, ctx):
    v5 = next(v for v in views if v.id == "v5")
    assert object_benefit(view_object(v5, ctx), QueryCosts(ctx)) == 0.0


def test_index_benefit_zero_when_useless(workload, views, indexes, catalog):
    # an index that helps nothing scores exactly zero
    useless = make_base_index("ix", ("sales", "amount_sold"), catalog)
    ctx = CostContext(build_matrices(workload, views, [*indexes, useless]), catalog)
    got = object_benefit(index_object(useless, ctx), QueryCosts(ctx))
    assert got == 0.0


@pytest.mark.parametrize("case", ["base-index", "view", "on-view-index", "pair"])
def test_objects_refuse_a_member_the_context_never_saw(views, indexes, catalog, ctx, case):
    # a context derives the facts of its own members only and refuses any
    # other key by name
    v1 = views[0]
    stranger = make_view("vx", v1.joined_tables, v1.join_pairs, v1.group_by, v1.aggregates, catalog)
    base_index = make_base_index("ix", ("sales", "amount_sold"), catalog)
    on_view = make_view_index("jx", stranger, stranger.group_by[0], catalog)
    build, name = {
        "base-index": (lambda: index_object(base_index, ctx), "'ix'"),
        "view": (lambda: view_object(stranger, ctx), "'vx'"),
        "on-view-index": (lambda: index_object(on_view, ctx), repr(("vx", on_view.attribute))),
        "pair": (lambda: pair_object(stranger, indexes[0], ctx), "'vx'"),
    }[case]
    with pytest.raises(ValidationError, match=f"^{re.escape(name)} is not a member key of this cost context$"):
        build()


def test_pair_on_a_non_indexable_attribute_keeps_the_view_index_error(views, catalog, ctx):
    # the re-targeted index i@v is built directly; an attribute the view
    # does not offer for indexing is refused as make_view_index refuses it
    v1 = views[0]
    base = make_base_index("ix", ("sales", "amount_sold"), catalog)
    with pytest.raises(ValidationError) as direct:
        make_view_index(f"ix@{v1.id}", v1, base.attribute, catalog)
    with pytest.raises(ValidationError, match=f"^{re.escape(str(direct.value))}$"):
        pair_object(v1, base, ctx)


def test_index_benefit_second_branch_base_candidate(indexes, ctx):
    # i8 relates to selected v1, but as a base index it no longer improves
    # anything once v1 answers q1: zero saved blocks over a heavier denominator
    i8 = next(i for i in indexes if i.id == "i8")
    cfg = Configuration({"v1"})
    got = object_benefit(index_object(i8, ctx), committed_costs(ctx, cfg))
    assert got == 0.0


def test_index_benefit_second_branch_on_view(views, catalog, ctx):
    # the physical index on v1: q1 falls 15 -> 4, denominator counts v1 too
    v1 = views[0]
    on_view = make_view_index("i8@v1", v1, ("times", "time_fiscal_year"), catalog)
    cfg = Configuration({"v1"})
    got = object_benefit(index_object(on_view, ctx), committed_costs(ctx, cfg))
    denom = 7305 * 14 + 116_880
    assert got == pytest.approx(11 / denom, rel=1e-12)


def test_pair_rejects_an_index_on_another_view(views, catalog, ctx):
    on_v1 = make_view_index("i8@v1", views[0], ("times", "time_fiscal_year"), catalog)
    with pytest.raises(ValidationError, match=f"^index i8@v1 targets v1, not view {views[1].id}$"):
        pair_object(views[1], on_v1, ctx)


def test_index_benefit_unselected_view_scores_zero(views, catalog, ctx):
    v1 = views[0]
    on_view = make_view_index("i8@v1", v1, ("times", "time_fiscal_year"), catalog)
    got = object_benefit(index_object(on_view, ctx), QueryCosts(ctx))
    assert got == 0.0


def test_view_benefit_second_branch_denominator(views, indexes, catalog, ctx):
    # with base i8 already selected, adding v1 divides by both sizes
    i8 = next(i for i in indexes if i.id == "i8")
    v1 = views[0]
    cfg = Configuration({"i8"})
    # with the index, q1 costs 47638 + (1 + ceil(26/5)) = 47645
    saved = 47_645 - 15
    denom = object_size(v1, catalog) + object_size(i8, catalog)
    got = object_benefit(view_object(v1, ctx), committed_costs(ctx, cfg))
    assert got == pytest.approx(saved / denom, rel=1e-12)
    assert denom == 116_880 + 1461 * 14


def test_second_branch_reduces_to_first_when_unrelated(indexes, ctx):
    # selecting an unrelated view must not change an index's score
    i4 = next(i for i in indexes if i.id == "i4")
    plain = object_benefit(index_object(i4, ctx), QueryCosts(ctx))
    cfg = Configuration({"v1"})  # VI[v1][i4] = 0
    related = object_benefit(index_object(i4, ctx), committed_costs(ctx, cfg))
    assert plain == related > 0.0


def test_benefit_never_negative(views, indexes, ctx):
    rng = random.Random(2)
    objects = enumerate_objects(ctx)
    for _ in range(10):
        cfg = Configuration(
            {v.id for v in views if rng.random() < 0.3}
            | {i.id for i in indexes if rng.random() < 0.3}
        )
        costs = committed_costs(ctx, cfg)
        for o in objects:
            if o.keys <= cfg:
                continue
            assert object_benefit(o, costs) >= 0.0


def test_size_scaling_inverts_first_branch(views, matrices, catalog):
    # an object's size is its member's bytes in the context's facts, and the
    # first-branch benefit divides the saving by it
    v1 = views[0]
    ctx = CostContext(matrices, catalog)  # a fresh context: its facts change below
    base = object_benefit(view_object(v1, ctx), QueryCosts(ctx))
    (key, nbytes), *rest = ctx.member_facts[v1.id]
    assert nbytes == object_size(v1, catalog)
    ctx.member_facts[v1.id] = ((key, 3 * nbytes), *rest)
    tripled = view_object(v1, ctx)
    assert tripled.size == 3 * nbytes
    assert object_benefit(tripled, QueryCosts(ctx)) == pytest.approx(base / 3, rel=1e-12)


def test_update_weight(ctx):
    params = ObjectiveParams(refresh_ratio=1.0)
    assert update_weight(params, ctx) == 8 / 19
    assert update_weight(ObjectiveParams(refresh_ratio=0.0), ctx) == 0.0


def test_objective_params_validation():
    with pytest.raises(ValidationError):
        ObjectiveParams(refresh_ratio=-0.1)
    for ratio in (float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            ObjectiveParams(refresh_ratio=ratio)
    with pytest.raises(ValidationError):
        ObjectiveParams(mode="bogus")


def test_objective_equals_benefit_without_refresh(ctx):
    params = ObjectiveParams(refresh_ratio=0.0)
    objects = enumerate_objects(ctx)
    costs = QueryCosts(ctx)
    beta = update_weight(params, ctx)
    for o in objects:
        gain = object_benefit(o, costs)
        value = objective_value(o, costs, params, beta)
        assert value == gain


def test_objective_modes_penalize(views, catalog, ctx):
    v1 = views[0]
    obj = enumerate_objects(ctx)[0]
    assert obj.view is v1
    costs = QueryCosts(ctx)
    gain = object_benefit(obj, costs)
    beta = update_weight(ObjectiveParams(refresh_ratio=0.5), ctx)
    for mode in ("normalized", "literal"):
        params = ObjectiveParams(refresh_ratio=0.5, mode=mode)
        value = objective_value(obj, costs, params, beta)
        assert value < gain
    lit = objective_value(obj, costs, ObjectiveParams(refresh_ratio=0.5, mode="literal"), beta)
    assert lit == pytest.approx(gain - beta * obj.maintenance, rel=1e-12)


def test_argmax_stable_under_refresh_zero():
    ctx = random_instance(seed=42, max_tables=5, max_queries=8).context()
    objects = enumerate_objects(ctx)
    params = ObjectiveParams(refresh_ratio=0.0)
    costs = QueryCosts(ctx)
    beta = update_weight(params, ctx)
    scored_f = [objective_value(o, costs, params, beta) for o in objects]
    scored_b = [object_benefit(o, costs) for o in objects]
    assert scored_f == scored_b


def test_pair_object_benefit_uses_combined_size(views, indexes, catalog, ctx):
    v1 = views[0]
    i8 = next(i for i in indexes if i.id == "i8")
    pair = pair_object(v1, i8, ctx)
    got = object_benefit(pair, QueryCosts(ctx))
    # q1: 47664 -> 4; combined storage of view and its index
    denom = 116_880 + 7305 * 14
    assert got == pytest.approx(47_660 / denom, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    refresh=st.one_of(st.just(0.0), st.floats(0.01, 3.0)),
    mode=st.sampled_from(["normalized", "literal"]),
    extra_candidates=st.booleans(),
)
def test_touched_query_objective_equals_whole_workload_objective(
    seed, refresh, mode, extra_candidates
):
    inst = random_instance(seed=seed, max_queries=20)
    if extra_candidates:
        inst = with_random_candidates(inst, seed)
    ctx = inst.context()
    objects = enumerate_objects(ctx)
    params = ObjectiveParams(refresh_ratio=refresh, mode=mode)
    config = random_config(random.Random(seed), inst)
    costs = committed_costs(ctx, config)
    beta = update_weight(params, ctx)
    for obj in objects:
        got = objective_value(obj, costs, params, beta)
        want = full_rescore_objective(obj, inst.queries, config, inst.matrices, inst.catalog,
                                      params, ctx)
        assert got == want
