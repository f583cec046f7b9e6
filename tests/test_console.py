"""End-to-end checks of the console script: each invocation runs
``python -m mvindex.cli`` in a fresh interpreter, as ``mvindex`` does."""

import csv
import io
import json

import pytest

from mvindex.fixtures import CANDIDATES_FILE, CATALOG_FILE, WORKLOAD_FILE, fixture_path

from util import load_synth, run_console

FIXTURE_INPUTS = ["--schema", fixture_path(CATALOG_FILE), "--workload", fixture_path(WORKLOAD_FILE)]


def _in_two_interpreters(argv):
    """``argv`` run twice, in fresh interpreters whose string hashes differ."""
    return [run_console(argv, PYTHONHASHSEED=seed) for seed in ("1", "2")]


def _assert_same_output(runs):
    first, second = runs
    assert (first.returncode, first.stderr) == (second.returncode, second.stderr) == (0, b"")
    assert first.stdout == second.stdout


@pytest.mark.parametrize("report", ["json", "text"])
def test_stdout_and_out_receive_the_same_bytes(tmp_path, report):
    # a report is written in pieces through the sink's write, to a pipe or
    # to a file; both sinks must receive the same bytes
    argv = FIXTURE_INPUTS + ["--budget", "50%", "--trace", "--format", report]
    out = tmp_path / f"report.{report}"
    piped, written = run_console(argv), run_console(argv + ["--out", str(out)])
    assert (piped.returncode, written.returncode, written.stdout) == (0, 0, b"")
    assert piped.stdout == out.read_bytes()


@pytest.mark.parametrize("candidates", [[], ["--candidates", fixture_path(CANDIDATES_FILE)]],
                         ids=["generated", "bundled"])
def test_isolated_modes_select_what_the_sweeps_isolated_rows_report(candidates):
    # --mode view-only and --mode index-only at the full budget select what
    # the views and indexes rows of --sweep 1.0 report
    argv = FIXTURE_INPUTS + candidates
    sweep = run_console(argv + ["--sweep", "1.0"])
    assert sweep.returncode == 0
    rows = {row["strategy"]: row for row in csv.DictReader(io.StringIO(sweep.stdout.decode()))}
    for mode, strategy in (("view-only", "views"), ("index-only", "indexes")):
        run = run_console(argv + ["--mode", mode, "--budget", "100%", "--format", "json"])
        assert run.returncode == 0
        selection = json.loads(run.stdout)["selection"]
        row = rows[strategy]
        got = (selection["total_cost_blocks"], selection["used_bytes"], selection["objects"])
        want = (int(row["total_cost_blocks"]), int(row["used_bytes"]),
                row["objects"].split(";") if row["objects"] else [])
        assert got == want, mode


def _synth_inputs(directory, shape, seed):
    """Input flags of a benchmark-generator instance written to ``directory``."""
    synth = load_synth()
    catalog_text, workload_text = synth.instance_texts(synth.Shape(*shape), seed)
    catalog, workload = directory / "star.catalog", directory / "star.workload"
    catalog.write_text(catalog_text)
    workload.write_text(workload_text)
    return ["--schema", str(catalog), "--workload", str(workload)]


def test_200_query_text_report_is_the_same_in_two_fresh_interpreters(tmp_path):
    runs = _in_two_interpreters(_synth_inputs(tmp_path, (200, 10, 4, 4), 5)
                                + ["--budget", "25%", "--trace", "--format", "text"])
    _assert_same_output(runs)
    assert any(line.startswith(b"query-view matrix") for line in runs[0].stdout.splitlines())


@pytest.fixture(scope="module")
def q400(tmp_path_factory):
    return _synth_inputs(tmp_path_factory.mktemp("q400"), (400, 12, 4, 4), 1)


@pytest.fixture(scope="module")
def q400_report_runs(q400):
    return _in_two_interpreters(q400 + ["--budget", "25%", "--trace", "--format", "json"])


def test_400_query_report_is_the_same_in_two_fresh_interpreters(q400_report_runs):
    _assert_same_output(q400_report_runs)
    # the report writer equals the standard encoder on a full-size report;
    # the property test of test_cli.py draws small values only
    text = q400_report_runs[0].stdout.decode()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_400_query_sweep_is_the_same_in_two_fresh_interpreters(q400):
    _assert_same_output(_in_two_interpreters(q400 + ["--sweep", "0.05,0.25,1.0"]))


def test_400_query_mode_none_costs_what_the_selection_leaves_on_its_base_tables(q400, q400_report_runs):
    # --mode none costs the joined-table scans and builds no plan; a query
    # the selection leaves on its base tables costs them in the plans too
    run = run_console(q400 + ["--mode", "none", "--budget", "0", "--format", "json"])
    assert q400_report_runs[0].returncode == run.returncode == 0
    none, greedy = (json.loads(r.stdout)["costs"] for r in (run, q400_report_runs[0]))
    assert none["before"] == greedy["before"]
    after = greedy["after"]
    base = [q for q, label in after["rewriting"].items() if label == "base"]
    assert base, "no query is left on its base tables"
    assert all(after["per_query"][q] == none["before"]["per_query"][q] for q in base)
    assert all(c <= none["before"]["per_query"][q] for q, c in after["per_query"].items())
