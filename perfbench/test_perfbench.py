"""Tests of the benchmark itself: generator, counters, reference digests, contract."""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import BENCH_DIR, ROOT, _import_program

_import_program()

from synth import instance_texts  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    REFERENCE_SEEDS,
    WORKLOADS,
    OutputChecker,
    OutputError,
    invoke,
    load_reference,
    reference_digest,
)

SYNTHETIC = [name for name, w in WORKLOADS.items() if w.shape is not None]
COUNTERS = (
    "costmodel.query_cost_calls",
    "costmodel.workload_total_calls",
    "benefit.objective_calls",
    "selector.steps",
    "costmodel.context_builds",
)


@pytest.mark.parametrize("name", SYNTHETIC)
def test_generator_is_seeded_and_exact(name):
    shape = WORKLOADS[name].shape
    first = instance_texts(shape, 7)
    assert instance_texts(shape, 7) == first
    assert instance_texts(shape, 8) != first
    assert first[1].count(";") == shape.n_queries


def _traced(name: str, seed: int, directory: Path) -> dict:
    workload = WORKLOADS[name]
    argv = workload.write_inputs(seed, directory)
    checker = OutputChecker(workload, argv, directory, reference_digest(workload, seed))
    tracer = Tracer()
    with tracer.patched():
        (code, data), stats = tracer.invoke(invoke, argv, directory / "output")
    checker.check(code, data)
    return layer_metrics(stats)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_counters_repeat_across_traced_runs(name, tmp_path):
    first, second = _traced(name, 0, tmp_path), _traced(name, 0, tmp_path)
    assert {c: first[c] for c in COUNTERS} == {c: second[c] for c in COUNTERS}
    assert first["costmodel.query_cost_calls"] > 0
    shape = load_reference()[name]["shape"]
    assert (first["workload.queries"], first["candidates.views"], first["candidates.indexes"],
            first["candidates.vi_pairs"]) == (shape["queries"], shape["views"], shape["indexes"],
                                              shape["vi_pairs"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_output_matches_reference_digest(name, tmp_path):
    workload = WORKLOADS[name]
    argv = workload.write_inputs(0, tmp_path)
    checker = OutputChecker(workload, argv, tmp_path, reference_digest(workload, 0))
    code, data = invoke(argv, tmp_path / "output")
    assert code == 0
    assert hashlib.sha256(data).hexdigest() == checker.expected
    checker.check(code, data)
    assert 0 < checker.cost_ratio <= 1


def test_changed_output_is_a_failure(tmp_path):
    workload = WORKLOADS["fixture_cli"]
    argv = workload.write_inputs(0, tmp_path)
    checker = OutputChecker(workload, argv, tmp_path, reference_digest(workload, 0))
    code, data = invoke(argv, tmp_path / "output")
    with pytest.raises(OutputError, match="differs from reference"):
        checker.check(code, data.replace(b'"used_bytes"', b'"used_bytes" ', 1))
    with pytest.raises(OutputError, match="exit code"):
        checker.check(1, data)


def test_changed_output_reports_its_cost_ratio(tmp_path):
    workload = WORKLOADS["fixture_cli"]
    argv = workload.write_inputs(0, tmp_path)
    checker = OutputChecker(workload, argv, tmp_path, reference_digest(workload, 0))
    report = json.loads(invoke(argv, tmp_path / "output")[1])
    report["costs"]["after"]["per_query"] = {q: 0 for q in report["costs"]["after"]["per_query"]}
    report["costs"]["after"]["total"] = report["selection"]["total_cost_blocks"] = 0
    with pytest.raises(OutputError, match="differs from reference"):
        checker.check(0, json.dumps(report).encode())
    assert checker.cost_ratio == 0


@pytest.mark.parametrize("name", SYNTHETIC)
def test_every_instance_seed_has_a_digest(name):
    digests = load_reference()[name]["digests"]
    assert sorted(map(int, digests)) == list(range(REFERENCE_SEEDS))


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_gives_every_contract_metric_a_value(trace):
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "fixture_cli", "--seed", "103",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=ROOT, timeout=170,
    ).stdout
    result = json.loads(out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in contract["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names
    assert all(isinstance(metric["value"], (int, float)) for metric in result["metrics"].values())


def test_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fixture_cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
