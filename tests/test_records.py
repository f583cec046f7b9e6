"""The record contract: mvindex's records are plain classes that compare by value.

Each record takes its fields by position or keyword, with the defaults
below; equal fields give equal records, and equal hashes where the record
is hashable; a record of another class is never equal to one of these; the
repr names the declared fields only; and the four selection records are
unhashable.  Importing the package loads no ``dataclasses``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from mvindex.benefit import ObjectiveParams, SelectionObject
from mvindex.candidates import IndexCandidate, UsageMatrices, ViewCandidate
from mvindex.catalog import AttributeStats, SchemaCatalog, TableStats
from mvindex.costmodel import CostReport
from mvindex.selector import IterationRecord, SelectedMember, SelectionResult
from mvindex.workload import Predicate, Query, Workload

_ATTR = AttributeStats("time_id", 1461, 4)
_TABLE = TableStats("times", "dimension", 1461, 144, (_ATTR,))
_PRED = Predicate("times", "time_id", "7")
_QUERY = Query("q1", (("times", "time_id"),), (("sum", ("sales", "amount_sold")),),
               frozenset({"sales", "times"}), ((("sales", "time_id"), ("times", "time_id")),),
               (_PRED,), (("times", "time_id"),))
_VIEW = ViewCandidate("v1", frozenset({"sales", "times"}), _QUERY.join_pairs, _QUERY.group_by,
                      _QUERY.aggregates, 1461, 12)
_INDEX = IndexCandidate("i1", ("times", "time_id"))
_MEMBER = SelectedMember("v1", "view", 17532)
_STEP = IterationRecord(1, "v1", "view", 0.5, 17532, 100, 40)

# class, its fields in constructor order with one value each, the defaulted
# fields' defaults, and whether it is hashable
RECORDS = [
    (AttributeStats, {"name": "time_id", "cardinality": 1461, "width": 4}, {}, True),
    (TableStats, {"name": "times", "kind": "dimension", "row_count": 1461, "row_width": 144,
                  "attributes": (_ATTR,)}, {"attributes": ()}, True),
    (SchemaCatalog, {"tables": (_TABLE,), "block_size": 4096, "btree_fanout": 100, "rowid_width": 8},
     {"block_size": 8192, "btree_fanout": 200, "rowid_width": 10}, True),
    (Predicate, {"table": "times", "attribute": "time_id", "constant": "7"}, {}, True),
    (Query, {"id": "q1", "select_attrs": _QUERY.select_attrs, "aggregates": _QUERY.aggregates,
             "joined_tables": _QUERY.joined_tables, "join_pairs": _QUERY.join_pairs,
             "predicates": (_PRED,), "group_by": _QUERY.group_by}, {}, True),
    (Workload, {"queries": (_QUERY,), "refresh_ratio": 2.0}, {"refresh_ratio": 0.0}, True),
    (ViewCandidate, {"id": "v1", "joined_tables": _VIEW.joined_tables, "join_pairs": _VIEW.join_pairs,
                     "group_by": _VIEW.group_by, "aggregates": _VIEW.aggregates, "row_count": 1461,
                     "row_width": 12, "indexable": frozenset(_VIEW.group_by)}, {"indexable": None}, True),
    (IndexCandidate, {"id": "j1", "attribute": ("times", "time_id"), "on_view": _VIEW},
     {"on_view": None}, True),
    (UsageMatrices, {"queries": (_QUERY,), "views": (_VIEW,), "indexes": (_INDEX,), "query_view": (b"\1",),
                     "query_index": (b"\1",), "view_index": (b"\0",)}, {}, True),
    # hashable as a class, but its dict fields make ``hash`` raise, as they always did
    (CostReport, {"per_query_cost": {"q1": 3}, "chosen_rewriting": {"q1": "v1"}, "total": 3}, {}, False),
    (ObjectiveParams, {"refresh_ratio": 1.5}, {"refresh_ratio": 0.0}, True),
    (SelectionObject, {"id": "v1", "kind": "view", "view": _VIEW, "index": None, "keys": frozenset({"v1"}),
                       "size": 17532, "maintenance": 3, "parts": (("v1", 17532),), "deps": (),
                       "offers": ()}, {}, False),
    (IterationRecord, {"step": 1, "object_id": "v1", "kind": "view", "objective": 0.5,
                       "incremental_bytes": 17532, "remaining_budget": 100, "workload_cost": 40,
                       "skipped_unaffordable": ("i1",)}, {"skipped_unaffordable": ()}, False),
    (SelectedMember, {"id": "v1", "kind": "view", "bytes": 17532}, {}, False),
    (SelectionResult, {"config": frozenset({"v1"}), "selected": [_MEMBER], "used_bytes": 17532,
                       "iterations": [_STEP], "stop_reason": "budget_exhausted", "final_cost": 40},
     {"final_cost": 0}, False),
]
SELECTION_RECORDS = {SelectionObject, IterationRecord, SelectedMember, SelectionResult}


def test_every_record_class_is_covered():
    assert len(RECORDS) == 15
    assert SELECTION_RECORDS <= {cls for cls, *_ in RECORDS}


@pytest.mark.parametrize("cls, fields, defaults, hashable", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, fields, defaults, hashable):
    names, values = list(fields), list(fields.values())
    by_position, by_keyword = cls(*values), cls(**fields)
    for record in (by_position, by_keyword):
        assert [getattr(record, name) for name in names] == values
    assert by_position == by_keyword and not by_position != by_keyword

    required = {name: value for name, value in fields.items() if name not in defaults}
    defaulted = cls(**required)
    assert {name: getattr(defaulted, name) for name in defaults} == defaults
    assert names[len(required):] == list(defaults)  # defaults close the parameter list
    if defaults:
        assert defaulted != by_keyword

    class Other(cls):
        pass

    assert by_keyword != Other(**fields) and Other(**fields) != by_keyword
    assert repr(by_keyword) == f"{cls.__qualname__}({', '.join(f'{n}={v!r}' for n, v in fields.items())})"

    if hashable:
        assert hash(by_position) == hash(by_keyword)
        assert {by_position: 1}[by_keyword] == 1
    else:
        with pytest.raises(TypeError):
            hash(by_keyword)
    assert (cls in SELECTION_RECORDS) == (cls.__hash__ is None)


def test_importing_the_package_loads_no_dataclass_machinery():
    # Importing ``dataclasses`` also loads ``inspect``, ``ast``, ``dis`` and
    # ``tokenize``, and every decorated class execs generated methods: a
    # record declared with ``@dataclass`` again makes every fresh process
    # start tens of milliseconds later.  Records derive from ``Record``.
    src = Path(__file__).resolve().parents[1] / "src"
    program = ("import sys, mvindex, mvindex.cli; "
               "print(*[m for m in ('dataclasses', 'inspect', 'string') if m in sys.modules])")
    proc = subprocess.run(
        [sys.executable, "-c", program],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [], f"importing mvindex loaded {proc.stdout.split()}"
