import codecs
import collections
import contextlib
import enum
import gc
import hashlib
import importlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import weakref
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvindex.baselines import INDEXES_ONLY, VIEWS_ONLY, isolated_select
from mvindex.benefit import ObjectiveParams
from mvindex import cli
from mvindex.candidates import UsageMatrices, build_matrices, format_candidates
from mvindex.catalog import MAX_CATALOG_INT, format_catalog, table_blocks
from mvindex.cli import SWEEP_HEADER, main, make_parser, run_advise
from mvindex.costmodel import Configuration, CostContext
from mvindex.fixtures import CANDIDATES_FILE, CATALOG_FILE, WORKLOAD_FILE, fixture_path, fixture_text
from mvindex.selector import SelectionResult, enumerate_objects, greedy_select
from mvindex.jsonfmt import format_json, write_json
from mvindex.workload import Query, Workload, format_workload

from util import load_synth, random_instance, run_console, with_random_candidates


@pytest.fixture(scope="module")
def fixture_args():
    return [
        "--schema", fixture_path(CATALOG_FILE),
        "--workload", fixture_path(WORKLOAD_FILE),
        "--candidates", fixture_path(CANDIDATES_FILE),
    ]


def test_missing_schema_flag_exits_1(capsys):
    code = main(["--workload", fixture_path(WORKLOAD_FILE), "--budget", "0"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_unreadable_schema_exits_1(capsys):
    code = main(["--schema", "/nonexistent.cat", "--workload", fixture_path(WORKLOAD_FILE),
                 "--budget", "0"])
    assert code == 1


def test_negative_budget_exits_2(fixture_args, capsys):
    code = main(fixture_args + ["--budget", "-5"])
    assert code == 2


def test_zero_budget_empty_config(fixture_args, capsys):
    code = main(fixture_args + ["--budget", "0", "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["selection"]["objects"] == []
    assert report["selection"]["stop_reason"] == "budget_exhausted"
    assert report["costs"]["after"]["total"] == report["costs"]["before"]["total"]


def test_full_budget_report(fixture_args, capsys):
    code = main(fixture_args + ["--budget", "100%", "--format", "json", "--trace"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["costs"]["after"]["total"] < report["costs"]["before"]["total"]
    assert report["selection"]["iterations"]
    used = report["selection"]["used_bytes"]
    assert used <= report["budget_bytes"]
    assert report["costs"]["before"]["total"] == 384_325


def test_reports_byte_identical(fixture_args, tmp_path):
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out_a, out_b):
        code = main(fixture_args + ["--budget", "10000000", "--format", "json",
                                    "--trace", "--out", str(out)])
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_generated_candidates_without_fixture(capsys):
    code = main([
        "--schema", fixture_path(CATALOG_FILE),
        "--workload", fixture_path(WORKLOAD_FILE),
        "--budget", "200000",
        "--format", "json",
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["candidates"]["views"], "generation should produce views"


# one view and one base index: within the exhaustive object limit
TWO_CANDIDATES = (
    "view v1\n"
    "  tables sales, times\n"
    "  join sales.time_id = times.time_id\n"
    "  group_by sales.time_id, times.time_fiscal_year\n"
    "  agg sum(sales.amount_sold)\n"
    "index i8 on times key time_fiscal_year\n"
)


@pytest.fixture
def two_candidate_args(fixture_args, tmp_path):
    cand_file = tmp_path / "two.candidates"
    cand_file.write_text(TWO_CANDIDATES)
    return fixture_args[:4] + ["--candidates", str(cand_file)]


def test_exhaustive_mode_small_candidates(two_candidate_args, capsys):
    code = main(two_candidate_args + [
        "--budget", "100000000",
        "--mode", "exhaustive",
        "--format", "json",
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["selection"]["stop_reason"] == "exhaustive"
    assert report["costs"]["after"]["total"] < report["costs"]["before"]["total"]


def test_exhaustive_report_lists_the_selected_members(two_candidate_args, capsys):
    code = main(two_candidate_args + ["--budget", "50%", "--mode", "exhaustive", "--format", "json"])
    assert code == 0
    selection = json.loads(capsys.readouterr().out)["selection"]
    assert selection["objects"]
    assert [m["id"] for m in selection["selected"]] == selection["objects"]
    assert sum(m["bytes"] for m in selection["selected"]) == selection["used_bytes"]


@pytest.mark.parametrize("budget", ["1000", "50%"])
def test_exhaustive_mode_too_many_objects(fixture_args, capsys, monkeypatch, budget):
    def no_reference_run(*args):
        raise AssertionError("the object limit must be checked before the reference run")

    monkeypatch.setattr("mvindex.cli.greedy_select", no_reference_run)
    code = main(fixture_args + ["--budget", budget, "--mode", "exhaustive"])
    assert code == 1
    assert "exceed" in capsys.readouterr().err


def test_mode_none(fixture_args, capsys):
    code = main(fixture_args + ["--budget", "100%", "--mode", "none", "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["selection"]["objects"] == []
    assert report["costs"]["after"]["total"] == 384_325


def _refuse(what):
    def refuse(self, *args):
        raise AssertionError(f"--mode none {what}")

    return refuse


@pytest.mark.parametrize(
    "owner, name, refusal",
    [
        # the empty configuration costs the joined-table scans: no plan, no offer list
        (CostContext, "_plans_and_offers", property(_refuse("derived the plans and offers"))),
        # no object is enumerated, so nothing reads which candidates pair
        (UsageMatrices, "pairs", _refuse("read the view-index pairs")),
    ],
    ids=["plans-and-offers", "view-index-pairs"],
)
def test_mode_none_derives_nothing(capsys, monkeypatch, owner, name, refusal):
    monkeypatch.setattr(owner, name, refusal)
    code = main(["--schema", fixture_path(CATALOG_FILE), "--workload", fixture_path(WORKLOAD_FILE),
                 "--mode", "none", "--budget", "0", "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["selection"]["stop_reason"] == "not_run"
    assert report["selection"]["objects"] == []
    costs = report["costs"]
    assert costs["after"]["per_query"] == costs["before"]["per_query"]
    assert costs["after"]["total"] == costs["before"]["total"]
    assert set(costs["after"]["rewriting"].values()) == {"base"}


def test_budget_percentage_derives_plans_and_offers_once(fixture_args, capsys, monkeypatch):
    # the reference run, the run resumed from it and the report share one derivation
    derive = CostContext.__dict__["_plans_and_offers"].func
    derived, runs = [], []

    def counted(self):
        derived.append(self)
        return derive(self)

    def greedy(*args):
        runs.append(args)
        return greedy_select(*args)

    counting = cached_property(counted)
    counting.__set_name__(CostContext, "_plans_and_offers")
    monkeypatch.setattr(CostContext, "_plans_and_offers", counting)
    monkeypatch.setattr("mvindex.cli.greedy_select", greedy)
    code = main(fixture_args + ["--budget", "50%", "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["selection"]["objects"]
    assert report["costs"]["after"]["total"] < report["costs"]["before"]["total"]
    assert len(runs) == 2 and runs[1][-1] is not None  # the second resumes from the first
    assert len(derived) == 1


@pytest.mark.parametrize(
    "flags", [["--budget", "50%", "--format", "json", "--trace"], ["--sweep", "0.05,0.25,1.0"]]
)
def test_context_is_freed_by_reference_counting(fixture_args, capsys, monkeypatch, flags):
    # nothing a context derives refers back to it, so an invocation's context
    # is freed when main returns, without waiting for the cycle collector
    contexts = []

    class Recorded(CostContext):
        def __init__(self, *args):
            super().__init__(*args)
            contexts.append(weakref.ref(self))

    monkeypatch.setattr(cli, "CostContext", Recorded)
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert main(fixture_args + flags) == 0
        assert len(contexts) == 1
        assert contexts[0]() is None
    finally:
        if enabled:
            gc.enable()
    assert capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--schema", "--workload", "--candidates"])
def test_non_utf8_input_names_its_file(fixture_args, tmp_path, capsys, flag):
    args = list(fixture_args)
    at = args.index(flag) + 1
    bad = tmp_path / "bad.input"
    bad.write_bytes(b"\xff" + Path(args[at]).read_bytes())
    args[at] = str(bad)
    code = main(args + ["--budget", "50%"])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")


@pytest.mark.parametrize("flags", [["--schema"], ["--workload"], ["--candidates"],
                                   ["--schema", "--workload", "--candidates"]])
@pytest.mark.parametrize("report", [["--format", "json", "--trace"], ["--format", "text"]])
def test_byte_order_mark_gives_the_plain_files_report(fixture_args, tmp_path, capsys, flags, report):
    assert main(fixture_args + ["--budget", "50%"] + report) == 0
    plain = capsys.readouterr().out
    args = list(fixture_args)
    for flag in flags:
        at = args.index(flag) + 1
        marked = tmp_path / Path(args[at]).name
        marked.write_bytes(codecs.BOM_UTF8 + Path(args[at]).read_bytes())
        args[at] = str(marked)
    assert main(args + ["--budget", "50%"] + report) == 0
    assert capsys.readouterr().out.encode() == plain.encode()


def test_non_utf8_input_after_a_byte_order_mark_names_its_file_offset(fixture_args, tmp_path, capsys):
    args = list(fixture_args)
    text = Path(args[3]).read_bytes()
    bad = tmp_path / "bad.workload"
    bad.write_bytes(codecs.BOM_UTF8 + text + b"\xff")
    args[3] = str(bad)
    assert main(args + ["--budget", "50%"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {bad}: not UTF-8 text: byte 0xff at offset {3 + len(text)} (invalid start byte)\n"


def test_sweep_rows(fixture_args, capsys):
    code = main(fixture_args + ["--sweep", "0.5,1.0"])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "budget_fraction,strategy,total_cost_blocks,used_bytes,objects"
    rows = [line.split(",", 4) for line in out[1:]]
    assert len(rows) == 8  # two fractions x four strategies
    strategies = {r[1] for r in rows}
    assert strategies == {"none", "views", "indexes", "simultaneous"}
    # 'none' rows are flat across fractions
    none_costs = {r[2] for r in rows if r[1] == "none"}
    assert len(none_costs) == 1


def test_sweep_fraction_validation(fixture_args, capsys):
    code = main(fixture_args + ["--sweep", "0.0,1.0"])
    assert code == 1
    code = main(fixture_args + ["--sweep", "1.5"])
    assert code == 1


@pytest.mark.parametrize("budget", ["1e20", "5%%"])
def test_malformed_budget_exits_1(fixture_args, capsys, budget):
    code = main(fixture_args + ["--budget", budget])
    assert code == 1
    assert "--budget" in capsys.readouterr().err


@pytest.mark.parametrize("sweep", ["abc", "0.5,,1"])
def test_malformed_sweep_exits_1(fixture_args, capsys, sweep):
    code = main(fixture_args + ["--sweep", sweep])
    assert code == 1
    assert "--sweep" in capsys.readouterr().err


def test_text_report_runs(fixture_args, capsys):
    code = main(fixture_args + ["--budget", "100%", "--trace"])
    assert code == 0
    out = capsys.readouterr().out
    assert "query-view matrix" in out
    assert "per-query cost" in out


@pytest.mark.parametrize("budget", ["inf%", "-inf%", "nan%"])
def test_non_finite_budget_percentage_exits_1(fixture_args, capsys, budget):
    code = main(fixture_args + [f"--budget={budget}"])
    assert code == 1
    assert "not a finite number" in capsys.readouterr().err


def test_overflowing_budget_percentage_exits_1(fixture_args, capsys):
    code = main(fixture_args + ["--budget=1e308%"])
    assert code == 1
    assert "too large to represent" in capsys.readouterr().err


@pytest.mark.parametrize("ratio", ["nan", "inf"])
def test_non_finite_refresh_ratio_exits_1(fixture_args, capsys, ratio):
    code = main(fixture_args + ["--budget", "50%", "--refresh-ratio", ratio])
    assert code == 1
    assert "refresh_ratio must be finite" in capsys.readouterr().err


def test_overflowing_refresh_ratio_header_exits_1(tmp_path, capsys):
    workload = tmp_path / "overflow.workload"
    workload.write_text("refresh_ratio = 1e400\n" + Path(fixture_path(WORKLOAD_FILE)).read_text())
    code = main(["--schema", fixture_path(CATALOG_FILE), "--workload", str(workload),
                 "--sweep", "0.5"])
    assert code == 1
    assert "refresh_ratio must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["-1%", "-0.5%"])
def test_negative_budget_percentage_exits_2_before_reference_run(
    fixture_args, capsys, monkeypatch, budget
):
    def no_reference_run(*args):
        raise AssertionError("the reference run must not start for a negative budget")

    monkeypatch.setattr("mvindex.cli.greedy_select", no_reference_run)
    code = main(fixture_args + [f"--budget={budget}"])
    assert code == 2
    assert repr(budget) in capsys.readouterr().err


def test_sweep_with_budget_exits_1(fixture_args, capsys):
    code = main(fixture_args + ["--sweep", "0.5", "--budget", "0%"])
    assert code == 1
    assert "not allowed with" in capsys.readouterr().err


def test_console_script_runs_on_fixture(capsys):
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["mvindex"] == "mvindex.cli:main"
    module, func = scripts["mvindex"].split(":")
    entry = getattr(importlib.import_module(module), func)
    code = entry([
        "--schema", fixture_path(CATALOG_FILE),
        "--workload", fixture_path(WORKLOAD_FILE),
        "--budget", "50%",
    ])
    assert code == 0
    assert "selected objects" in capsys.readouterr().out


def test_comma_only_candidates_line_exits_1(tmp_path, capsys):
    lines = Path(fixture_path(CANDIDATES_FILE)).read_text().splitlines()
    at = next(n for n, line in enumerate(lines) if line.strip().startswith("tables"))
    lines.insert(at, " ,")
    cand_file = tmp_path / "commas.candidates"
    cand_file.write_text("\n".join(lines) + "\n")
    code = main(["--schema", fixture_path(CATALOG_FILE), "--workload", fixture_path(WORKLOAD_FILE),
                 "--candidates", str(cand_file), "--budget", "50%"])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{cand_file}: line {at + 1}" in err
    assert "Traceback" not in err


_VIEW_BLOCK = (
    "view {}\n  tables sales, times\n  join sales.time_id = times.time_id\n"
    "  group_by times.time_fiscal_year\n  agg sum(sales.amount_sold)\n"
)


@pytest.mark.parametrize(
    "text, bad_id, line",
    [
        (_VIEW_BLOCK.format("a+b"), "a+b", 1),
        (_VIEW_BLOCK.format("v1") + "index v1 on times key time_fiscal_year\n", "v1", 6),
    ],
    ids=["plus-in-view-id", "view-and-index-share-an-id"],
)
def test_candidate_id_selection_could_confuse_exits_1(tmp_path, capsys, text, bad_id, line):
    cand_file = tmp_path / "bad-id.candidates"
    cand_file.write_text(text)
    code = main(["--schema", fixture_path(CATALOG_FILE), "--workload", fixture_path(WORKLOAD_FILE),
                 "--candidates", str(cand_file), "--budget", "50%"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cand_file}: line {line}: ") and repr(bad_id) in err
    assert "Traceback" not in err


def test_non_positive_rowid_width_exits_1(tmp_path, capsys):
    # a negative rowid width would size indexes at negative bytes, so any budget fits them
    text = Path(fixture_path(CATALOG_FILE)).read_text()
    assert "\nrowid_width 10\n" in text
    catalog = tmp_path / "negative-rowid.catalog"
    catalog.write_text(text.replace("\nrowid_width 10\n", "\nrowid_width -10\n"))
    code = main(["--schema", str(catalog), "--workload", fixture_path(WORKLOAD_FILE),
                 "--budget", "50%"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: " in captured.err and "rowid_width must be >= 1" in captured.err
    assert "Traceback" not in captured.err


def test_invalid_catalog_declaration_error_names_its_file_and_line(tmp_path, capsys):
    lines = Path(fixture_path(CATALOG_FILE)).read_text().splitlines()
    line = lines.index("rowid_width 10") + 1
    lines[line - 1] = "rowid_width 0"
    catalog = tmp_path / "zero-rowid.catalog"
    catalog.write_text("\n".join(lines) + "\n")
    code = main(["--schema", str(catalog), "--workload", fixture_path(WORKLOAD_FILE),
                 "--budget", "0"])
    assert code == 1
    assert capsys.readouterr().err == f"error: {catalog}: line {line}: rowid_width must be >= 1\n"


_SALES = "table sales fact rows 16260336 row_width 24"
# catalog integer -> its fixture lines, changed with the value as {n}, and
# the name its error gives it; a cardinality may not exceed its table's row
# count, so sales' rows stay at the bound with it
_CATALOG_INTS = {
    "block_size": ({"block_size 8192": "block_size {n}"}, "block_size"),
    "btree_fanout": ({"btree_fanout 200": "btree_fanout {n}"}, "btree_fanout"),
    "rowid_width": ({"rowid_width 10": "rowid_width {n}"}, "rowid_width"),
    "row_count": ({_SALES: "table sales fact rows {n} row_width 24"}, "table 'sales': row_count"),
    "row_width": ({_SALES: "table sales fact rows 16260336 row_width {n}"}, "table 'sales': row_width"),
    "cardinality": (
        {_SALES: f"table sales fact rows {MAX_CATALOG_INT} row_width 24",
         "  attr amount_sold card 100000 width 4": "  attr amount_sold card {n} width 4"},
        "sales.amount_sold: cardinality",
    ),
    "width": ({"  attr time_id card 1461 width 4": "  attr time_id card 1461 width {n}"}, "sales.time_id: width"),
}


@pytest.mark.parametrize("field", _CATALOG_INTS)
def test_catalog_integer_runs_at_the_bound_and_exits_1_above_it(tmp_path, capsys, field):
    changes, name = _CATALOG_INTS[field]
    plain = Path(fixture_path(CATALOG_FILE)).read_text().splitlines()
    catalog = tmp_path / "bound.catalog"
    argv = ["--schema", str(catalog), "--workload", fixture_path(WORKLOAD_FILE)]

    def write_catalog(n):
        lines = [changes.get(line, line).format(n=n) for line in plain]
        catalog.write_text("\n".join(lines) + "\n")

    write_catalog(MAX_CATALOG_INT)
    assert main(argv + ["--budget", "50%", "--format", "json", "--trace"]) == 0
    iterations = json.loads(capsys.readouterr().out)["selection"]["iterations"]
    assert iterations and all(math.isfinite(it["objective"]) for it in iterations)
    assert main(argv + ["--sweep", "0.05,0.25,1.0"]) == 0
    assert capsys.readouterr().err == ""
    write_catalog(MAX_CATALOG_INT + 1)
    line = 1 + next(k for k, text in enumerate(plain) if "{n}" in changes.get(text, ""))
    assert main(argv + ["--budget", "50%"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {catalog}: line {line}: {name} must be <= {MAX_CATALOG_INT}\n")


# at and near the bound, and far above it, where a float of a cost overflows
_NEAR_BOUND = st.one_of(
    st.integers(MAX_CATALOG_INT - 2, MAX_CATALOG_INT + 2),
    st.sampled_from([2**53 + 1, 2**62, MAX_CATALOG_INT // 2, 2**64, 10**315]),
)


@st.composite
def near_bound_inputs(draw):
    """Catalog and workload texts, the fixture's or a random instance's, with
    some of the catalog's numbers, or all of them, moved to or near
    ``MAX_CATALOG_INT``."""
    seed = draw(st.none() | st.integers(0, 10_000))
    if seed is None:
        catalog, workload = fixture_text(CATALOG_FILE), fixture_text(WORKLOAD_FILE)
    else:
        inst = random_instance(seed)
        catalog, workload = format_catalog(inst.catalog), format_workload(inst.workload)
    lines = catalog.splitlines()
    spots = [(k, m.span()) for k, line in enumerate(lines) if not line.lstrip().startswith("#")
             for m in re.finditer(r"(?<!\S)\d+(?!\S)", line)]
    if draw(st.booleans()):
        value = draw(_NEAR_BOUND)
        moved = {spot: value for spot in spots}
    else:
        chosen = draw(st.lists(st.sampled_from(spots), min_size=1, max_size=6, unique=True))
        moved = {spot: draw(_NEAR_BOUND) for spot in chosen}
    for (k, (start, end)), value in sorted(moved.items(), reverse=True):
        lines[k] = lines[k][:start] + str(value) + lines[k][end:]
    return "\n".join(lines) + "\n", workload


@settings(max_examples=100, deadline=None)
@given(inputs=near_bound_inputs(), refresh=st.sampled_from(["0", "2"]))
def test_catalog_near_the_integer_bound_runs_or_exits_with_one_error(inputs, refresh):
    # at the bound every cost, size and objective must stay finite; above it,
    # or where a moved cardinality exceeds its table's rows, the run stops
    # with one error line and writes no report
    catalog, workload = inputs
    with tempfile.TemporaryDirectory() as tmp:
        schema, queries, output = Path(tmp, "star.catalog"), Path(tmp, "star.workload"), Path(tmp, "report.json")
        schema.write_text(catalog, encoding="utf-8")
        queries.write_text(workload, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["--schema", str(schema), "--workload", str(queries), "--refresh-ratio", refresh,
                         "--budget", "50%", "--format", "json", "--trace", "--out", str(output)])
        out = output.read_text(encoding="utf-8")
    if code != 0:
        assert code in (1, 2)
        assert out == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err.getvalue()
        return
    assert err.getvalue() == ""
    report = json.loads(out)
    for side in ("before", "after"):
        assert report["costs"][side]["total"] == sum(report["costs"][side]["per_query"].values())
    selection = report["selection"]
    assert selection["total_cost_blocks"] == report["costs"]["after"]["total"]
    assert selection["used_bytes"] == sum(member["bytes"] for member in selection["selected"])
    assert selection["used_bytes"] <= report["budget_bytes"]
    assert all(math.isfinite(it["objective"]) for it in selection["iterations"])


@pytest.mark.parametrize("text", ["", "# comments only\n\n# and blank lines\n",
                                  "refresh_ratio = 1\n"])
def test_workload_without_statements_exits_1(tmp_path, capsys, text):
    workload = tmp_path / "empty.workload"
    workload.write_text(text)
    code = main(["--schema", fixture_path(CATALOG_FILE), "--workload", str(workload),
                 "--budget", "0", "--format", "json"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{workload}: the workload holds no statements" in captured.err


@settings(max_examples=20, deadline=None)
@given(
    percent=st.one_of(st.floats(0, 150), st.integers(0, 100)),
    with_candidates=st.booleans(),
    mode=st.sampled_from(["simultaneous", "view-only", "index-only"]),
)
def test_percentage_budget_selects_as_its_byte_count(percent, with_candidates, mode):
    argv = ["--schema", fixture_path(CATALOG_FILE), "--workload", fixture_path(WORKLOAD_FILE),
            "--mode", mode, "--format", "json"]
    if with_candidates:
        argv += ["--candidates", fixture_path(CANDIDATES_FILE)]
    parser = make_parser()

    def report(budget):
        pieces = []
        run_advise(parser.parse_args(argv + ["--budget", budget]), pieces.append)
        return json.loads("".join(pieces))

    by_percent = report(f"{percent}%")
    budget = str(by_percent["budget_bytes"])
    by_bytes = report(budget)
    assert by_bytes["budget_bytes"] == by_percent["budget_bytes"]
    assert by_bytes["selection"] == by_percent["selection"]


_SHARED_KEYS = ("a", "b", "\u00e9")


@st.composite
def _shared_key_dicts(draw, children):
    """A list of records over one key set, each with its own insertion order;
    a value may be another record of that key set, one indent deeper, so one
    key set meets other insertion orders and other indents, as the records
    of a report do."""
    keys = draw(st.lists(st.sampled_from(_SHARED_KEYS), min_size=1, unique=True))

    def record(depth):
        return {
            key: record(depth + 1) if depth < 2 and draw(st.booleans()) else draw(children)
            for key in draw(st.permutations(keys))
        }

    return [record(0) for _ in range(draw(st.integers(1, 3)))]


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: (
        st.lists(children)
        | _shared_key_dicts(children)
        | st.lists(children).map(tuple)
        | st.dictionaries(st.text(), children)
        | st.lists(st.integers() | st.booleans())
        | st.lists(st.integers(-3, 12))
        | st.lists(st.integers(-3, 12)).map(tuple)
        | st.lists(st.integers(0, 9) | st.booleans()).map(tuple)
        # bytes, written as the list of its values: usage-matrix rows of 0/1,
        # digits with their neighbours above 9, and any byte, none included
        | st.lists(st.integers(0, 1)).map(bytes)
        | st.lists(st.integers(0, 12)).map(bytes)
        | st.binary()
    ),
    max_leaves=30,
)


def bytes_as_lists(value):
    """``value`` with each bytes in it, at any depth, replaced by the list of its values."""
    if isinstance(value, bytes):
        return list(value)
    if isinstance(value, (list, tuple)):
        return [bytes_as_lists(item) for item in value]
    if isinstance(value, dict):
        return {key: bytes_as_lists(item) for key, item in value.items()}
    return value


@settings(max_examples=150, deadline=None)
@given(value=json_values)
@example(value={"x": [math.nan, math.inf, -math.inf], "y": math.inf})
def test_format_json_equals_indented_sorted_json_dumps(value):
    assert format_json(value) == json.dumps(bytes_as_lists(value), indent=2, sort_keys=True)


class _Flag(enum.IntEnum):
    ON = 1


class _Label(str):
    pass


def test_format_json_writes_bools_and_subclasses_as_json_dumps():
    # a container writes exact ``str`` and ``int`` children itself; these
    # take the general branches, as ``type(True) is bool``
    value = {
        "bools": [True, False, None, 0, 1],
        "subclasses": (_Flag.ON, _Label("x"), {"k": _Flag.ON, "s": _Label("y")}),
        "ordered": collections.OrderedDict([("b", [1.5, "z"]), ("a", True)]),
    }
    assert format_json(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "value, message",
    [({1: 2}, "keys must be str, not int"), ({"s": {1}}, "Object of type set is not JSON serializable")],
    ids=["int-key", "set"],
)
def test_format_json_refuses_what_json_cannot_hold(value, message):
    # json.dumps would write the key 1 as "1"; format_json takes str keys only
    with pytest.raises(TypeError, match=f"^{message}$"):
        format_json(value)


@pytest.mark.parametrize(
    "value, text",
    [
        (b"", "[]"),
        (b"\x00\x01\x01", "[\n  0,\n  1,\n  1\n]"),
        (b"\x0a\xff", "[\n  10,\n  255\n]"),
        ({"m": (b"\x01", b"")}, '{\n  "m": [\n    [\n      1\n    ],\n    []\n  ]\n}'),
    ],
)
def test_format_json_writes_bytes_as_the_list_of_its_values(value, text):
    assert format_json(value) == text


def test_json_report_equals_indented_sorted_json_dumps(fixture_args, capsys):
    code = main(fixture_args + ["--budget", "50%", "--format", "json", "--trace"])
    assert code == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


class _Pieces(list):
    """A stand-in for stdout that keeps each piece written to it."""

    write = list.append


def test_200_query_report_equals_indented_sorted_json_dumps(monkeypatch, tmp_path):
    synth = load_synth()
    catalog, workload = synth.instance_texts(synth.Shape(200, 10, 4, 4), 5)
    (tmp_path / "c").write_text(catalog)
    (tmp_path / "w").write_text(workload)
    reports, matrices, pieces = [], [], _Pieces()
    monkeypatch.setattr(cli, "write_json", lambda report, write: reports.append(report) or write_json(report, write))
    monkeypatch.setattr(cli, "build_matrices", lambda *a: matrices.append(build_matrices(*a)) or matrices[-1])
    monkeypatch.setattr(sys, "stdout", pieces)
    argv = ["--schema", str(tmp_path / "c"), "--workload", str(tmp_path / "w"), "--min-support", "5",
            "--mode", "none", "--budget", "0", "--format", "json"]
    assert main(argv) == 0
    [report], [built] = reports, matrices
    assert len(report["matrices"]["query_ids"]) == 200
    assert report["matrices"]["query_view"] is built.query_view  # written as built
    for name in ("query_view", "query_index", "view_index"):
        assert all(type(row) is bytes for row in report["matrices"][name])
    text = "".join(pieces)
    assert text == json.dumps(bytes_as_lists(report), indent=2, sort_keys=True) + "\n"
    # written in bounded pieces as it is formatted, never as one string
    assert len(pieces) > 1
    assert max(map(len, pieces)) < len(text) / 4


def test_cli_imports_without_numpy():
    # nor does the import build the argument parser: main builds it
    src = Path(__file__).resolve().parents[1] / "src"
    program = "import mvindex.cli, sys; print('numpy' in sys.modules, mvindex.cli._parser.cache_info().currsize)"
    proc = subprocess.run(
        [sys.executable, "-c", program],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False 0"


def test_unwritable_out_exits_1_before_selection(fixture_args, capsys, monkeypatch, tmp_path):
    def no_selection(*args):
        raise AssertionError("the output must be opened before any selection")

    monkeypatch.setattr("mvindex.cli.greedy_select", no_selection)
    code = main(fixture_args + ["--budget", "50%", "--out", str(tmp_path / "missing" / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("spelling", ["{}", "./{}"], ids=["same_path", "dot_slash"])
@pytest.mark.parametrize("flag", ["--schema", "--workload", "--candidates"])
def test_out_naming_an_input_exits_1_and_leaves_it_unchanged(capsys, monkeypatch, tmp_path,
                                                             flag, spelling):
    monkeypatch.chdir(tmp_path)
    inputs = {"--schema": CATALOG_FILE, "--workload": WORKLOAD_FILE, "--candidates": CANDIDATES_FILE}
    argv = []
    for name, fixture in inputs.items():
        Path(name[2:]).write_bytes(Path(fixture_path(fixture)).read_bytes())
        argv += [name, name[2:]]
    before = Path(flag[2:]).read_bytes()
    code = main(argv + ["--budget", "50%", "--out", spelling.format(flag[2:])])
    assert code == 1
    assert Path(flag[2:]).read_bytes() == before
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --out: names the {flag} file" in captured.err


@pytest.mark.parametrize(
    "args, code, message",
    [
        (["--budget", "5x"], 1, "--budget takes a byte count or a percentage N%, got '5x'"),
        ([], 1, "--budget is required unless --sweep is given"),
        (["--sweep", "0.5,2"], 1, "--sweep takes comma-separated fractions in (0, 1], got '2'"),
        (["--budget", "-5"], 2, "budget must be >= 0, got '-5'"),
        (["--budget", "nan%"], 1, "budget percentage 'nan%' is not a finite number"),
        (["--budget", "0", "--refresh-ratio", "-1"], 1, "refresh_ratio must be finite and >= 0, got -1.0"),
        (["--sweep", "0.5", "--refresh-ratio", "nan"], 1, "refresh_ratio must be finite and >= 0, got nan"),
        (["--budget", "0", "--objective", "normalized"], 1, "unrecognized arguments: --objective normalized"),
    ],
    ids=["malformed-budget", "no-budget", "sweep-above-1", "negative-budget", "nan-percentage",
         "negative-refresh-ratio", "nan-refresh-ratio", "no-objective-option"],
)
def test_argument_error_is_reported_before_out_is_opened_or_an_input_read(
    tmp_path, capsys, args, code, message
):
    # the workload is missing: an argument checked after the inputs were read
    # would report it instead, with exit 1, and --out would be left empty
    out = tmp_path / "report.json"
    out.write_bytes(b'{"kept": true}\n')
    argv = ["--schema", fixture_path(CATALOG_FILE), "--workload", str(tmp_path / "missing"),
            "--out", str(out)]
    assert main(argv + args) == code
    captured = capsys.readouterr()
    # argparse's own errors print the usage first
    usage = make_parser().format_usage() if message.startswith("unrecognized arguments") else ""
    assert (captured.out, captured.err) == ("", f"{usage}error: {message}\n")
    assert out.read_bytes() == b'{"kept": true}\n'


@pytest.mark.parametrize("to_out", [True, False], ids=["out", "stdout"])
@pytest.mark.parametrize("case", ["percentage-too-large", "unknown-table", "exhaustive-limit"])
def test_error_raised_while_running_writes_no_byte(fixture_args, tmp_path, capsys, case, to_out):
    # these are raised only after --out is opened: the report is written
    # once the run has finished, so an error leaves the output empty
    workload = tmp_path / "unknown.workload"
    workload.write_text("q1: select sum(amount_sold) from nowhere where nowhere.x = 1;\n")
    argv, message = {
        "percentage-too-large": (
            fixture_args + ["--budget=1e308%"],
            "budget percentage '1e308%' gives a budget too large to represent",
        ),
        "unknown-table": (
            ["--schema", fixture_path(CATALOG_FILE), "--workload", str(workload), "--budget", "50%"],
            f"statement 1: {workload}: line 1: q1: unknown table 'nowhere'",
        ),
        "exhaustive-limit": (
            fixture_args + ["--budget", "50%", "--mode", "exhaustive"],
            "41 objects exceed the exhaustive limit of 20",
        ),
    }[case]
    out = tmp_path / "report.txt"
    if to_out:
        out.write_bytes(b"an earlier report\n")
        argv = argv + ["--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    if to_out:
        assert out.read_bytes() == b""


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("candidates", [False, True], ids=["generated", "candidates_file"])
def test_min_support_below_one_exits_1(fixture_args, capsys, candidates, value):
    argv = fixture_args if candidates else fixture_args[:4]
    code = main(argv + ["--min-support", value, "--budget", "50%"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --min-support: must be >= 1, got {value}" in captured.err


@pytest.mark.parametrize(
    "extra",
    [["--mode", "simultaneous"], ["--mode", "exhaustive"], ["--format", "text"],
     ["--format", "json"], ["--trace"]],
    ids=lambda extra: "=".join(extra),
)
def test_sweep_rejects_options_it_ignores(fixture_args, capsys, extra):
    code = main(fixture_args + ["--sweep", "1"] + extra)
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"not allowed with {extra[0]}" in captured.err


# SHA-256 of bundled-fixture outputs; "fixture" adds the bundled candidates
# file.  The JSON and sweep digests were recorded before budgeted runs resumed
# from the reference run, the text ones before reports were written in pieces.
PINNED_OUTPUTS = {
    ("fixture", "--budget", "25%", "--format", "json", "--trace"):
        "e8aa4bd4aee2cb1f2c7a68ebcd3f7e2398bce38a34971a5ca7792590edac4904",
    ("fixture", "--budget", "50%", "--format", "json", "--trace"):
        "1520fd8446e559c079bc544b7e329279467d8051d32f652a38f0f81685721a88",
    ("fixture", "--budget", "100%", "--format", "json", "--trace"):
        "b16bb4d3338f317fd8a3aba6f4c47481dba48521d1af260ae2ecaee762a4b1b7",
    ("generated", "--budget", "25%", "--format", "json", "--trace"):
        "0bb2276fe7569c182792301cc956c42d6c19169c5177d28615952a919f799016",
    ("generated", "--budget", "50%", "--format", "json", "--trace"):
        "7c44a1fc34678d8e06143a47259fcc565f4c1363df2ae1a60674f71c633a8bc7",
    ("generated", "--budget", "100%", "--format", "json", "--trace"):
        "c48dde291ce7130328babe087e268a4dc38d98ba5d1b4738bece81755500e9c0",
    # the trace's objectives under a maintenance penalty
    ("fixture", "--budget", "50%", "--refresh-ratio", "2", "--format", "json", "--trace"):
        "5d87bd9ae59e81a3c607cc88bd32e77864e7ff4b4188dba4876b0e717a3c4aac",
    ("generated", "--budget", "50%", "--refresh-ratio", "2", "--format", "json", "--trace"):
        "547dee749f00764a9d68b1c11a38843528fede68079fbbe27e56da43c8e68d82",
    ("fixture", "--sweep", "0.05,0.25,0.5,1.0", "--refresh-ratio", "0"):
        "f2bed2c2594d1738dd24cb3c499a69db8478ae9e5c01dac6f117345690f15e09",
    ("fixture", "--sweep", "0.05,0.25,0.5,1.0", "--refresh-ratio", "2"):
        "7d24fa73590e68b3113dee6f5784b79b88b4c2d4c0d2353ced6f33683f484e0a",
    ("generated", "--sweep", "0.05,0.25,0.5,1.0", "--refresh-ratio", "0"):
        "c08e70c46c48a890cd537a814a5cae324d62feaa80143f92908ae10aacb67494",
    ("generated", "--sweep", "0.05,0.25,0.5,1.0", "--refresh-ratio", "2"):
        "efed9b1fe13915bf521f33e2f2bdaf6ef070b7a1686ee1ee674993ecf5bd811a",
    ("fixture", "--budget", "50%"):
        "bd202b19e1c4376a0e41af65806c9d83213e4802cc66ea7c1b62a98407d8b0dd",
    ("fixture", "--budget", "50%", "--trace"):
        "bbc20af0079c6df1646a7faaf6a3166b99098f6b3177a074124e33b710a416e3",
    ("fixture", "--mode", "none", "--budget", "0"):
        "fb830c2b7077e28c645f3adf54dc68c60c884b1bac71a764881b675f16f9dd7a",
    ("generated", "--budget", "25%"):
        "cb0048970bac325ac367d7dc1e44c3ee965df526342335467edf6e349ec9c12d",
}


@pytest.mark.parametrize("case", PINNED_OUTPUTS, ids=" ".join)
def test_output_matches_pinned_digest(fixture_args, capsys, case):
    candidates, *flags = case
    argv = fixture_args if candidates == "fixture" else fixture_args[:4]
    assert main(argv + flags) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == PINNED_OUTPUTS[case]


@pytest.mark.parametrize("with_candidates", [True, False])
def test_text_matrix_headers_name_every_column(fixture_args, capsys, with_candidates):
    argv = fixture_args if with_candidates else fixture_args[:4]
    assert main(argv + ["--budget", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    headed = 0
    for at, line in enumerate(lines):
        if line.startswith(("query-view matrix", "query-index matrix")):
            columns = line[line.index("cols: ") + 6:-1].split(",")
            row = lines[at + 1].split()
            assert len(columns) == len(row), line
            headed += 1
    assert headed == 2


def test_sweep_rows_equal_fresh_library_runs(fixture_args, capsys, ctx):
    fractions = ["1.0", "0.05", "0.25", "0.25"]
    assert main(fixture_args + ["--sweep", ",".join(fractions), "--refresh-ratio", "2"]) == 0
    params = ObjectiveParams(2.0)
    objects = enumerate_objects(ctx)
    reference = greedy_select(ctx, sum(o.size for o in objects) + 1, params).used_bytes
    none = ctx.workload_total(Configuration())
    rows = [SWEEP_HEADER]
    for fraction in map(float, fractions):
        budget = int(reference * fraction)
        rows.append(f"{fraction},none,{none},0,")
        for strategy, result in [
            ("views", isolated_select(VIEWS_ONLY, ctx, budget, params)),
            ("indexes", isolated_select(INDEXES_ONLY, ctx, budget, params)),
            ("simultaneous", greedy_select(ctx, budget, params)),
        ]:
            ids = ";".join(result.selected_ids())
            rows.append(f"{fraction},{strategy},{result.final_cost},{result.used_bytes},{ids}")
    assert capsys.readouterr().out.splitlines() == rows


@pytest.mark.parametrize(
    "flags, enumerations",
    [
        (["--budget", "50%"], 1),
        (["--sweep", "0.05,0.25,1.0"], 1),
        (["--budget", "50%", "--mode", "index-only"], 1),
        # an isolated strategy under a byte budget builds only its own family
        (["--budget", "300000", "--mode", "view-only"], 0),
        (["--budget", "300000", "--mode", "index-only"], 0),
        # exhaustive mode and its reference run share one object list
        (["--budget", "50%", "--mode", "exhaustive"], 1),
    ],
)
def test_object_enumerations_per_invocation(
    fixture_args, two_candidate_args, capsys, monkeypatch, flags, enumerations
):
    calls = []

    def counted(ctx):
        calls.append(ctx)
        return enumerate_objects(ctx)

    # patched in every module that could look the name up, so any extra enumeration counts
    for module in ("mvindex.cli", "mvindex.selector", "mvindex.baselines"):
        monkeypatch.setattr(f"{module}.enumerate_objects", counted, raising=False)
    # the fixture's candidates exceed the exhaustive object limit
    inputs = two_candidate_args if "exhaustive" in flags else fixture_args
    assert main(inputs + flags) == 0
    assert len(calls) == enumerations


@pytest.mark.parametrize("mode", ["simultaneous", "view-only", "index-only"])
def test_percentage_above_the_reference_budget_equals_byte_budget_run(fixture_args, capsys, mode):
    # 100000% of the reference's used bytes exceeds the budget the reference
    # ran under; the run resumed from it matches a run from nothing
    flags = ["--mode", mode, "--format", "json", "--trace"]
    assert main(fixture_args + ["--budget", "100000%"] + flags) == 0
    report = capsys.readouterr().out
    budget = json.loads(report)["budget_bytes"]
    assert main(fixture_args + ["--budget", str(budget)] + flags) == 0
    assert capsys.readouterr().out == report


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    budget=st.sampled_from(["100%", "25%", "5%"]),
    refresh=st.sampled_from(["0", "0.5", "2"]),
)
def test_duplicated_workload_doubles_every_cost_and_selects_alike(seed, budget, refresh):
    # every statement again under a new id: at --min-support 1 the generated
    # candidates do not change, each saving and |Q| in the update weight
    # double, and doubling is exact in binary floating point; the workloads
    # are formatted text, so the parser reads what format_workload writes
    inst = random_instance(seed)
    queries = inst.workload.queries
    doubled = Workload(queries + tuple(
        Query(f"again_{q.id}", q.select_attrs, q.aggregates, q.joined_tables, q.join_pairs, q.predicates,
              q.group_by)
        for q in queries
    ))
    reports = []
    with tempfile.TemporaryDirectory() as tmp:
        schema = Path(tmp, "star.catalog")
        schema.write_text(format_catalog(inst.catalog), encoding="utf-8")
        for name, workload in (("once", inst.workload), ("twice", doubled)):
            path, out = Path(tmp, f"{name}.workload"), Path(tmp, f"{name}.json")
            path.write_text(format_workload(workload), encoding="utf-8")
            code = main([
                "--schema", str(schema), "--workload", str(path), "--min-support", "1",
                "--refresh-ratio", refresh, "--budget", budget, "--format", "json", "--trace",
                "--out", str(out),
            ])
            assert code == 0
            reports.append(json.loads(out.read_text(encoding="utf-8")))
    once, twice = reports
    assert twice["candidates"] == once["candidates"]
    assert twice["budget_bytes"] == once["budget_bytes"]
    doubled_fields = ("objective", "workload_cost")
    for it_once, it_twice in zip(once["selection"]["iterations"], twice["selection"]["iterations"], strict=True):
        assert {k: it_twice[k] for k in doubled_fields} == {k: 2 * it_once[k] for k in doubled_fields}
        assert {k: v for k, v in it_twice.items() if k not in doubled_fields} == {
            k: v for k, v in it_once.items() if k not in doubled_fields
        }
    for key in ("objects", "selected", "stop_reason", "used_bytes"):
        assert twice["selection"][key] == once["selection"][key], key
    assert twice["selection"]["total_cost_blocks"] == 2 * once["selection"]["total_cost_blocks"]
    for side in ("before", "after"):
        assert twice["costs"][side]["total"] == 2 * once["costs"][side]["total"]
        per_query = twice["costs"][side]["per_query"]
        assert {q.id: per_query[f"again_{q.id}"] for q in queries} == once["costs"][side]["per_query"]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000), budget=st.sampled_from(["100%", "25%", "5%"]))
def test_a_query_no_fixed_candidate_serves_adds_its_scan_and_changes_no_selection(seed, budget):
    # the appended query sums a foreign key, which no view carries, and
    # neither filters nor groups, so no base index helps it: every
    # configuration answers it by scanning its joined tables, and at refresh
    # ratio 0 its count in the update weight is multiplied by zero
    inst = with_random_candidates(random_instance(seed), seed)
    catalog, rng = inst.catalog, random.Random(seed)
    fact = catalog.fact_table
    dims = [t for t in catalog.tables if t is not fact]
    dims = rng.sample(dims, rng.randint(1, len(dims)))
    unserved = Query(
        "unserved", (), (("sum", (fact.name, f"fk{dims[0].name[3:]}")),),
        frozenset({fact.name} | {t.name for t in dims}),
        tuple(((fact.name, f"fk{t.name[3:]}"), (t.name, f"key{t.name[3:]}")) for t in dims), (), (),
    )
    scan = sum(table_blocks(t, catalog) for t in (fact, *dims))
    reports = []
    with tempfile.TemporaryDirectory() as tmp:
        schema, candidates = Path(tmp, "star.catalog"), Path(tmp, "star.candidates")
        schema.write_text(format_catalog(catalog), encoding="utf-8")
        candidates.write_text(format_candidates(inst.views, inst.indexes), encoding="utf-8")
        appended = Workload(inst.workload.queries + (unserved,))
        for name, workload in (("without", inst.workload), ("with", appended)):
            path, out = Path(tmp, f"{name}.workload"), Path(tmp, f"{name}.json")
            path.write_text(format_workload(workload), encoding="utf-8")
            code = main([
                "--schema", str(schema), "--workload", str(path), "--candidates", str(candidates),
                "--refresh-ratio", "0", "--budget", budget, "--format", "json", "--trace", "--out", str(out),
            ])
            assert code == 0
            reports.append(json.loads(out.read_text(encoding="utf-8")))
    without, with_ = reports
    matrices = with_["matrices"]
    assert matrices["query_ids"][-1] == "unserved"
    assert not any(matrices["query_view"][-1]) and not any(matrices["query_index"][-1])
    for key in ("candidates", "budget_bytes"):
        assert with_[key] == without[key], key
    for key in ("objects", "selected", "stop_reason", "used_bytes"):
        assert with_["selection"][key] == without["selection"][key], key
    assert with_["selection"]["total_cost_blocks"] == without["selection"]["total_cost_blocks"] + scan
    for it_without, it_with in zip(without["selection"]["iterations"], with_["selection"]["iterations"],
                                   strict=True):
        assert it_with == {**it_without, "workload_cost": it_without["workload_cost"] + scan}
    for side in ("before", "after"):
        assert with_["costs"][side]["total"] == without["costs"][side]["total"] + scan
        per_query = dict(with_["costs"][side]["per_query"])
        assert per_query.pop("unserved") == scan
        assert per_query == without["costs"][side]["per_query"]


# argv after the fixture's three input flags -> exit code; the schema and
# missing-file cases replace the inputs
NO_CYCLE_CASES = {
    "json_trace": (["--budget", "50%", "--format", "json", "--trace"], 0),
    "text_report": (["--budget", "50%"], 0),
    "sweep": (["--sweep", "0.05,0.25,1.0"], 0),
    "mode_none": (["--mode", "none", "--budget", "0"], 0),
    "negative_budget": (["--budget", "-5"], 2),
    "non_catalog_schema": (["--schema", fixture_path(WORKLOAD_FILE), "--budget", "0"], 1),
    "missing_input": (["--candidates", fixture_path("missing.candidates"), "--budget", "0"], 1),
    "usage_error": (["--budget", "0", "--mode", "bogus"], 1),
    "help": (["--help"], 0),
}


@pytest.mark.parametrize("case", NO_CYCLE_CASES)
def test_invocation_leaves_no_cyclic_garbage(fixture_args, capsys, case):
    # the parser is built once per process and parsing leaves nothing in it,
    # so reference counting frees all an invocation made when main returns;
    # a first call builds what is built once, the collector stays off for
    # the second
    flags, code = NO_CYCLE_CASES[case]
    assert main(fixture_args + flags) == code
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert main(fixture_args + flags) == code
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def _noting_the_collector(run, seen):
    """``run``, noting in ``seen`` whether the collector is on at each call."""
    def noting(*args):
        seen.append(gc.isenabled())
        return run(*args)

    return noting


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("case", NO_CYCLE_CASES)
def test_main_leaves_the_collector_as_it_found_it(fixture_args, capsys, monkeypatch, case, enabled):
    # main pauses the cyclic collector while it runs, whatever the outcome
    flags, code = NO_CYCLE_CASES[case]
    seen = []
    for name in ("run_advise", "run_sweep"):
        monkeypatch.setattr(cli, name, _noting_the_collector(getattr(cli, name), seen))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(fixture_args + flags) == code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert not any(seen)


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_main_restores_the_collector_on_an_unexpected_error(fixture_args, monkeypatch, enabled):
    seen = []

    def broken(args, write):
        seen.append(gc.isenabled())
        raise RuntimeError("unexpected")

    monkeypatch.setattr(cli, "run_advise", broken)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with pytest.raises(RuntimeError, match="^unexpected$"):
            main(fixture_args + ["--budget", "0"])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False]


@pytest.mark.parametrize(
    "flags, most",
    [
        (["--budget", "50%", "--format", "json", "--trace"], 0),
        (["--budget", "50%"], 0),
        # each strategy's latest result, none of the larger fractions' ones
        (["--sweep", "1.0,0.5,0.25,0.05"], len(cli.SWEEP_STRATEGIES)),
    ],
    ids=["advise-json", "advise-text", "sweep"],
)
def test_results_nothing_reads_are_freed_before_the_report_is_written(fixture_args, flags, most):
    # a greedy result holds its run's scoring log; once the report is built
    # only a sweep still reads results, and then only to resume from them
    def live_results():
        return sum(isinstance(o, SelectionResult) for o in gc.get_objects())

    gc.collect()
    before = live_results()
    seen = []

    def write(piece):
        if not seen:
            seen.append(live_results() - before)

    args = make_parser().parse_args(fixture_args + flags)
    (cli.run_sweep if "--sweep" in flags else run_advise)(args, write)
    assert seen[0] <= most


def test_shared_parser_answers_each_argv_as_a_fresh_interpreter(fixture_args, capsys, monkeypatch):
    # one process parses every argv with the same parser, the whole sequence
    # 20 times over; each exit code and output equals that of a new
    # interpreter, so no parse state carries over
    # (COLUMNS fixes the width argparse wraps usage and help text to)
    sequence = [
        (fixture_args + ["--budget", "0", "--mode", "bogus"], 1),
        (fixture_args + ["--sweep", "1", "--format", "json"], 1),
        (["--help"], 0),
        (fixture_args + ["--budget", "-5"], 2),
        (fixture_args + ["--budget", "50%", "--format", "json", "--trace"], 0),
        (fixture_args + ["--sweep", "0.05,0.25,1.0"], 0),
        (fixture_args + ["--budget", "25%", "--format", "json"], 0),
    ]
    monkeypatch.setenv("COLUMNS", "80")
    fresh = [run_console(argv) for argv, _ in sequence]
    for _ in range(20):
        for (argv, code), run in zip(sequence, fresh):
            assert main(argv) == code
            captured = capsys.readouterr()
            assert (run.returncode, run.stdout.decode(), run.stderr.decode()) == (code, captured.out, captured.err)


# four more base indexes, on attributes the bundled file already indexes
# (i5, i10, i4, i9); their ids sort after the bundled ids, so they lose every
# tie to them and are never selected
UNSELECTED_INDEXES = (
    "index i90 on customers key cust_gender\n"
    "index i91 on products key prod_category\n"
    "index i92 on customers key cust_marital_status\n"
    "index i93 on products key prod_name\n"
)


@pytest.mark.parametrize(
    "refresh, bundled, appended",
    [("0", (15, 45_496), None), ("0.5", (6, 334_735), (10, 205_651)), ("2", (6, 334_735), None)],
)
def test_unselected_candidates_move_a_selection_through_beta(fixture_args, tmp_path, capsys,
                                                             refresh, bundled, appended):
    # beta = |Q| * refresh / |O|: candidates that are never chosen still
    # lower every penalty, and at refresh 0 there is no penalty to lower
    candidates = tmp_path / "more.candidates"
    candidates.write_text(Path(fixture_path(CANDIDATES_FILE)).read_text() + UNSELECTED_INDEXES)
    selections = []
    for path in (fixture_path(CANDIDATES_FILE), str(candidates)):
        argv = fixture_args[:4] + ["--candidates", path, "--refresh-ratio", refresh,
                                   "--budget", "100%", "--format", "json"]
        assert main(argv) == 0
        selections.append(json.loads(capsys.readouterr().out)["selection"])
    for selection, (count, total) in zip(selections, (bundled, appended or bundled)):
        assert (len(selection["objects"]), selection["total_cost_blocks"]) == (count, total)
        assert not {"i90", "i91", "i92", "i93"} & set(selection["objects"])
    if appended is None:
        assert selections[1] == selections[0]
