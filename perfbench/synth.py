"""Seeded star-schema instances of exact size for the benchmark.

Unlike the test helper it resembles, every instance has exactly
``n_queries`` queries.  The statistics and query shapes of a tier come from
one fixed draw (``MASTER_SEED``); the run seed then relabels that draw: it
permutes dimension names, attribute names within each dimension, query
order and ids, and redraws predicate literals.  Different seeds therefore
give different bytes, candidate ids and greedy tie-break order, while the
cost structure, and with it the work per run, stays that of the tier.
Drawing the statistics from the run seed as well moved the final cost
ratio of a 100-query greedy instance between 0.037 and 0.100, and its run
time between 9.6 s and 12.3 s, across five seeds: more than a 25% bound
absorbs.

The same seed always gives the same bytes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from mvindex.catalog import AttributeStats, SchemaCatalog, TableStats, format_catalog, validate_catalog
from mvindex.workload import Predicate, Query, Workload, format_workload

MASTER_SEED = 0
DIM_ROWS = (400, 3000, 20000, 100000, 500000)
ATTR_CARDS = (2, 4, 12, 50, 300, 2000)
FACT_ROWS = (5_000_000, 20_000_000, 80_000_000)


@dataclass(frozen=True)
class Shape:
    """Size parameters of a synthetic instance."""

    n_queries: int
    n_dims: int
    n_attrs: int  # non-key attributes per dimension
    max_join: int  # most dimensions one query joins
    refresh_ratio: float = 0.0


@dataclass(frozen=True)
class _Draw:
    """Seed-independent part of an instance, in master dimension/attribute numbers."""

    dim_rows: tuple[int, ...]
    dim_widths: tuple[int, ...]
    attr_stats: tuple[tuple[tuple[int, int], ...], ...]  # [dim][attr] -> (card, width)
    fact_rows: int
    fact_width: int
    queries: tuple[tuple[tuple[int, ...], int, tuple[tuple[int, int], ...]], ...]
    # per query: (joined dims, predicate count, filter-then-group attrs as (dim, attr) or (dim, -1) for fact.fk)


def _draw(shape: Shape) -> _Draw:
    rng = random.Random(MASTER_SEED)
    dim_rows, dim_widths, attr_stats = [], [], []
    for _ in range(shape.n_dims):
        rows = rng.choice(DIM_ROWS)
        dim_rows.append(rows)
        attr_stats.append(
            tuple((min(rng.choice(ATTR_CARDS), rows), rng.choice((4, 8, 16))) for _ in range(shape.n_attrs))
        )
        dim_widths.append(rng.choice((40, 80, 160)))
    fact_rows = rng.choice(FACT_ROWS)
    fact_width = rng.choice((24, 48))

    queries = []
    for _ in range(shape.n_queries):
        joined = tuple(sorted(rng.sample(range(shape.n_dims), rng.randint(1, shape.max_join))))
        attrs = [(d, a) for d in joined for a in range(shape.n_attrs)]
        rng.shuffle(attrs)
        n_preds = rng.randint(0, 2)
        group_pool = attrs[n_preds:] + [(d, -1) for d in joined]
        used = attrs[:n_preds] + group_pool[: rng.randint(1, 2)]
        queries.append((joined, n_preds, tuple(used)))
    return _Draw(
        tuple(dim_rows), tuple(dim_widths), tuple(attr_stats), fact_rows, fact_width, tuple(queries)
    )


def star_instance(shape: Shape, seed: int) -> tuple[SchemaCatalog, Workload]:
    """A star schema and a workload of exactly ``shape.n_queries`` queries."""
    draw = _draw(shape)
    rng = random.Random(seed)
    dim_name = rng.sample(range(shape.n_dims), shape.n_dims)  # master dim -> label
    attr_name = [rng.sample(range(shape.n_attrs), shape.n_attrs) for _ in range(shape.n_dims)]

    dims = [None] * shape.n_dims
    for d in range(shape.n_dims):
        k = dim_name[d]
        attrs = [AttributeStats(f"key{k}", draw.dim_rows[d], 4)]
        by_label = sorted(zip(attr_name[d], draw.attr_stats[d]))
        attrs += [AttributeStats(f"a{k}_{label}", card, width) for label, (card, width) in by_label]
        dims[k] = TableStats(f"dim{k}", "dimension", draw.dim_rows[d], draw.dim_widths[d], tuple(attrs))
    fact_attrs = [AttributeStats(f"fk{k}", dims[k].row_count, 4) for k in range(shape.n_dims)]
    fact_attrs.append(AttributeStats("measure", 1000, 8))
    fact = TableStats("fact", "fact", draw.fact_rows, draw.fact_width, tuple(fact_attrs))
    catalog = SchemaCatalog(tables=(fact, *dims))
    validate_catalog(catalog)

    def attr_of(d: int, a: int) -> tuple[str, str]:
        k = dim_name[d]
        return ("fact", f"fk{k}") if a < 0 else (f"dim{k}", f"a{k}_{attr_name[d][a]}")

    order = rng.sample(range(shape.n_queries), shape.n_queries)
    queries = []
    for pos, m in enumerate(order, start=1):
        joined, n_preds, used = draw.queries[m]
        labels = sorted(dim_name[d] for d in joined)
        preds = tuple(Predicate(*attr_of(*da), f"'c{rng.randint(0, 99)}'") for da in used[:n_preds])
        group_by = tuple(attr_of(*da) for da in used[n_preds:])
        queries.append(
            Query(
                id=f"q{pos}",
                select_attrs=group_by,
                aggregates=(("sum", ("fact", "measure")),),
                joined_tables=frozenset({"fact"} | {f"dim{k}" for k in labels}),
                join_pairs=tuple((("fact", f"fk{k}"), (f"dim{k}", f"key{k}")) for k in labels),
                predicates=preds,
                group_by=group_by,
            )
        )
    return catalog, Workload(queries=tuple(queries), refresh_ratio=shape.refresh_ratio)


def instance_texts(shape: Shape, seed: int) -> tuple[str, str]:
    """Catalog and workload file contents for one seeded instance."""
    catalog, workload = star_instance(shape, seed)
    return format_catalog(catalog), format_workload(workload)
