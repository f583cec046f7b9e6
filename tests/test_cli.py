import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvindex.cli import main, make_parser, run_advise
from mvindex.fixtures import CANDIDATES_FILE, CATALOG_FILE, WORKLOAD_FILE, fixture_path
from mvindex.jsonfmt import format_json


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


def test_exhaustive_mode_small_candidates(tmp_path, capsys):
    candidates = (
        "view v1\n"
        "  tables sales, times\n"
        "  join sales.time_id = times.time_id\n"
        "  group_by sales.time_id, times.time_fiscal_year\n"
        "  agg sum(sales.amount_sold)\n"
        "index i8 on times key time_fiscal_year\n"
    )
    cand_file = tmp_path / "small.candidates"
    cand_file.write_text(candidates)
    code = main([
        "--schema", fixture_path(CATALOG_FILE),
        "--workload", fixture_path(WORKLOAD_FILE),
        "--candidates", str(cand_file),
        "--budget", "100000000",
        "--mode", "exhaustive",
        "--format", "json",
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["selection"]["stop_reason"] == "exhaustive"
    assert report["costs"]["after"]["total"] < report["costs"]["before"]["total"]


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
    workload.write_text("refresh_ratio = 1e400\n" + open(fixture_path(WORKLOAD_FILE)).read())
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
    by_percent = json.loads(run_advise(parser.parse_args(argv + ["--budget", f"{percent}%"]))[0])
    budget = str(by_percent["budget_bytes"])
    by_bytes = json.loads(run_advise(parser.parse_args(argv + ["--budget", budget]))[0])
    assert by_bytes["budget_bytes"] == by_percent["budget_bytes"]
    assert by_bytes["selection"] == by_percent["selection"]


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: (
        st.lists(children)
        | st.lists(children).map(tuple)
        | st.dictionaries(st.text(), children)
        | st.lists(st.integers() | st.booleans())
    ),
    max_leaves=30,
)


@settings(max_examples=150, deadline=None)
@given(value=json_values)
def test_format_json_equals_indented_sorted_json_dumps(value):
    assert format_json(value) == json.dumps(value, indent=2, sort_keys=True)


def test_json_report_equals_indented_sorted_json_dumps(fixture_args, capsys):
    code = main(fixture_args + ["--budget", "50%", "--format", "json", "--trace"])
    assert code == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_cli_imports_without_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", "import mvindex.cli, sys; print('numpy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_unwritable_out_exits_1_before_selection(fixture_args, capsys, monkeypatch, tmp_path):
    def no_selection(*args):
        raise AssertionError("the output must be opened before any selection")

    monkeypatch.setattr("mvindex.cli.greedy_select", no_selection)
    code = main(fixture_args + ["--budget", "50%", "--out", str(tmp_path / "missing" / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


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
