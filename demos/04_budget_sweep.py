"""Compare selection strategies across storage budgets on a scaled warehouse.

Reproduces the qualitative picture the advisor is built around: with
generous storage, selecting views and indexes together beats selecting
either family alone; with no structures at all, cost stays flat and high.
Budgets are fractions of the space an unconstrained simultaneous run uses.
"""

from mvindex.baselines import INDEXES_ONLY, VIEWS_ONLY, isolated_select
from mvindex.benefit import ObjectiveParams
from mvindex.candidates import build_matrices, generate_index_candidates, generate_view_candidates
from mvindex.catalog import scale_catalog
from mvindex.costmodel import Configuration, CostContext
from mvindex.fixtures import sales_star_catalog, sales_star_workload
from mvindex.selector import enumerate_objects, greedy_select

catalog = scale_catalog(sales_star_catalog(), 100)
workload = sales_star_workload(catalog)
views = generate_view_candidates(workload, catalog)
indexes = generate_index_candidates(workload, views, min_support=1)
ctx = CostContext(build_matrices(workload, views, indexes), catalog)
params = ObjectiveParams(refresh_ratio=0.0)

print(f"scaled warehouse: fact table {catalog.fact_table.row_count:,} rows")
print(f"generated candidates: {len(views)} views, {len(indexes)} indexes\n")

objects = enumerate_objects(ctx)
unconstrained = greedy_select(ctx, sum(o.size for o in objects) + 1, params, objects)
reference = unconstrained.used_bytes
print(f"unconstrained simultaneous run uses {reference:,} B; "
      "budgets below are fractions of that\n")

base_cost = ctx.workload_total(Configuration())

# Largest budget first: each run resumes from the same strategy's run at the
# next larger budget (the simultaneous one first from the unconstrained run),
# replaying its leading steps that skipped no id and still fit instead of
# choosing them again.
fractions = [0.01, 0.05, 0.1, 0.25, 0.5, 1.0]
rows = {}
only_v = only_i = None
sim = unconstrained
for fraction in sorted(fractions, reverse=True):
    budget = int(reference * fraction)
    only_v = isolated_select(VIEWS_ONLY, ctx, budget, params, objects, only_v)
    only_i = isolated_select(INDEXES_ONLY, ctx, budget, params, objects, only_i)
    sim = greedy_select(ctx, budget, params, objects, sim)
    rows[fraction] = (only_v.final_cost, only_i.final_cost, sim.final_cost)

print(f"{'fraction':>8} {'none':>10} {'views':>10} {'indexes':>10} {'simultaneous':>13}")
for fraction in fractions:
    views_cost, indexes_cost, sim_cost = rows[fraction]
    print(f"{fraction:>8} {base_cost:>10,} {views_cost:>10,} "
          f"{indexes_cost:>10,} {sim_cost:>13,}")

print("\nViews carry the big wins here (they collapse fact-table scans); "
      "indexes are cheap to store, so they fill whatever budget remains "
      "and the simultaneous column never loses to either family alone.")
