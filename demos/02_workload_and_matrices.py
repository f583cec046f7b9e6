"""Parse the eight-query workload and build the three usage matrices.

The matrices are the interaction map: which queries each view can answer,
which base-table indexes each query can use, and which indexes can be
built on which views.  Everything downstream (benefits, the greedy loop)
reads interactions from here.
"""

from mvindex.candidates import build_matrices
from mvindex.fixtures import sales_star_candidates, sales_star_catalog, sales_star_workload
from mvindex.workload import format_query

catalog = sales_star_catalog()
workload = sales_star_workload(catalog)
views, indexes = sales_star_candidates(catalog)

print("=== parsed workload ===")
for q in workload.queries:
    print(" ", format_query(q))

print("\n=== candidates (from the fixture file) ===")
for v in views:
    print(f"  {v.id}: over {{{', '.join(sorted(v.joined_tables))}}}, "
          f"{len(v.group_by)} group-by attrs, est. {v.row_count:,} rows")
for i in indexes:
    print(f"  {i.id}: {i.attribute[0]}.{i.attribute[1]}")

matrices = build_matrices(workload, views, indexes)


def show(name, matrix, rows, cols):
    print(f"\n{name}  (rows: {', '.join(rows)})")
    print(f"      cols: {', '.join(cols)}")
    for rid, row in zip(rows, matrix):
        print(f"  {rid:>3} " + " ".join(str(x) for x in row))


show("query-view matrix", matrices.query_view, matrices.query_ids, matrices.view_ids)
show("query-index matrix", matrices.query_index, matrices.query_ids, matrices.base_index_ids)
show("view-index matrix", matrices.view_index, matrices.view_ids, matrices.index_ids)

print(f"\n{matrices.pair_count()} view-index pairings "
      f"-> that many composite objects join the candidate space.")
print("row sums of the query-view matrix:",
      [sum(row) for row in matrices.query_view],
      "(every query here has exactly one usable view except q8, which has two)")
