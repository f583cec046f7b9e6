import importlib
import json
from pathlib import Path

import pytest

from mvindex.cli import main
from mvindex.fixtures import CANDIDATES_FILE, CATALOG_FILE, WORKLOAD_FILE, fixture_path


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
