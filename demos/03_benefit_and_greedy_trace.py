"""Score candidates with the benefit density and watch the greedy loop work.

The benefit of an object is blocks saved per byte stored.  After each
commit the selector rescores at once only the objects whose score the
commit can raise: those that hold or need a committed key, and the base
indexes on a query whose base part it lowered at another table.  A grown
denominator only lowers a score, so every other score stays an upper
bound until it is popped.  An index can become attractive only after its
view is in place: that is the interaction the composite (view + index)
objects make explicit.  Every call takes the one CostContext built below;
a score reads a QueryCosts, a configuration with its per-query costs.
"""

from mvindex.benefit import ObjectiveParams, object_benefit
from mvindex.candidates import build_matrices
from mvindex.costmodel import Configuration, CostContext, QueryCosts, workload_cost
from mvindex.fixtures import sales_star_candidates, sales_star_catalog, sales_star_workload
from mvindex.selector import enumerate_objects, greedy_select

catalog = sales_star_catalog()
workload = sales_star_workload(catalog)
views, indexes = sales_star_candidates(catalog)
ctx = CostContext(build_matrices(workload, views, indexes), catalog)

base = workload_cost(ctx, Configuration())
print(f"workload cost with no structures: {base.total:,} blocks\n")

objects = enumerate_objects(ctx)
print(f"candidate space: {len(objects)} objects "
      f"({len(views)} views, {len(indexes)} indexes, "
      f"{len(objects) - len(views) - len(indexes)} pairs)")

print("\n=== top ten benefit densities against the empty configuration ===")
empty = QueryCosts(ctx)  # the empty configuration and its per-query costs
scored = sorted(
    ((object_benefit(o, empty), o) for o in objects),
    key=lambda t: -t[0],
)[:10]
for gain, o in scored:
    print(f"  {o.id:<10} {o.kind:<6} {gain:12.6g} blocks/byte  "
          f"({o.size:,} B)")

print("\nNote i8 alone scores far below v1+i8: on base tables the fiscal-year "
      "index shaves a 26-block dimension, but on the view it carves up the "
      "only copy of the data the query still touches.")

params = ObjectiveParams(refresh_ratio=0.0)
budget = sum(o.size for o in objects) + 1
result = greedy_select(ctx, budget, params)

print("\n=== greedy trace, unconstrained budget ===")
print(f"{'step':>4} {'object':<10} {'objective':>12} {'added bytes':>14} {'cost after':>12}")
for it in result.iterations:
    print(f"{it.step:>4} {it.object_id:<10} {it.objective:>12.6g} "
          f"{it.incremental_bytes:>14,} {it.workload_cost:>12,}")
print(f"\nstop reason: {result.stop_reason}")
print(f"final cost {result.final_cost:,} blocks "
      f"({base.total / result.final_cost:.1f}x cheaper), "
      f"storage {result.used_bytes / 2**20:,.1f} MB")

after = workload_cost(ctx, result.config)
print("\nper-query rewritings:")
for qid in after.per_query_cost:
    print(f"  {qid}: {base.per_query_cost[qid]:>8,} -> {after.per_query_cost[qid]:>8,}  "
          f"via {after.chosen_rewriting[qid]}")
