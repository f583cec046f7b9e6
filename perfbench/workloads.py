"""Benchmark workloads: their inputs, CLI flags and output checks."""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

from mvindex.cli import main as cli_main
from mvindex.fixtures import CANDIDATES_FILE, CATALOG_FILE, WORKLOAD_FILE, fixture_text

from synth import Shape, instance_texts

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
ANY_SEED = "any"  # digest key of a workload whose inputs ignore the seed
REFERENCE_SEEDS = 100  # instance seeds with a recorded digest; --seed is taken modulo this
UNBOUNDED_BYTES = "1000000000000000"  # above any tier's unconstrained space


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: Shape | None  # None: the bundled sales_star fixture
    flags: tuple[str, ...]

    def write_inputs(self, seed: int, directory: Path) -> list[str]:
        """Write this workload's input files; return the CLI arguments that read them."""
        if self.shape is None:
            files = {"--schema": CATALOG_FILE, "--workload": WORKLOAD_FILE, "--candidates": CANDIDATES_FILE}
            texts = {flag: fixture_text(name) for flag, name in files.items()}
        else:
            catalog, workload = instance_texts(self.shape, seed)
            texts = {"--schema": catalog, "--workload": workload}
        argv = []
        for flag, text in texts.items():
            path = directory / f"input{flag.replace('--', '.')}"
            path.write_text(text, encoding="utf-8")
            argv += [flag, str(path)]
        return argv + list(self.flags)

    @property
    def is_sweep(self) -> bool:
        return "--sweep" in self.flags


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fixture_cli",
            "bundled sales_star inputs at a 50% budget: parse, matrices and report dominate",
            None,
            ("--budget", "50%", "--format", "json", "--trace"),
        ),
        Workload(
            "greedy_large",
            "one greedy run of 44 steps over 36 queries and 196 objects: selector, benefit and cost model",
            Shape(n_queries=36, n_dims=8, n_attrs=3, max_join=3),
            ("--budget", UNBOUNDED_BYTES, "--trace", "--format", "json"),
        ),
        Workload(
            "sweep_refresh",
            "budget sweep at refresh ratio 2: 10 short greedy runs, isolated baselines, maintenance penalty",
            Shape(n_queries=20, n_dims=5, n_attrs=3, max_join=3, refresh_ratio=2.0),
            ("--sweep", "0.05,0.25,1.0"),
        ),
        Workload(
            "wide_analyze",
            "200 queries and 986 objects, no selection: candidates, CostContext builds and JSON report",
            Shape(n_queries=200, n_dims=10, n_attrs=4, max_join=4),
            ("--min-support", "5", "--mode", "none", "--budget", "0", "--format", "json"),
        ),
    )
}


def load_reference() -> dict:
    """Recorded shape and output digests per workload (see record_reference.py)."""
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def reference_digest(workload: Workload, seed: int) -> str:
    """SHA-256 of the reference commit's output for this workload and instance seed.

    Raises KeyError when ``reference.json`` holds no digest for them.
    """
    digests = load_reference()[workload.name]["digests"]
    return digests[ANY_SEED] if workload.shape is None else digests[str(seed)]


def invoke(argv: list[str], out: Path) -> tuple[int, bytes]:
    """One in-process CLI invocation writing to ``out``; returns exit code and output bytes."""
    if out.exists():
        os.unlink(out)
    code = cli_main(argv + ["--out", str(out)])
    return code, out.read_bytes() if out.exists() else b""


class OutputError(Exception):
    """An output that is not what the program should have produced."""


def _check_report(data: bytes) -> float:
    """Check one JSON report; return its after/before cost ratio."""
    report = json.loads(data)
    selection, costs = report["selection"], report["costs"]
    if selection["used_bytes"] > report["budget_bytes"]:
        raise OutputError(f"used {selection['used_bytes']} bytes of a {report['budget_bytes']} budget")
    after = costs["after"]
    if sum(after["per_query"].values()) != after["total"] or selection["total_cost_blocks"] != after["total"]:
        raise OutputError("report totals disagree with its per-query costs")
    if after["total"] > costs["before"]["total"]:
        raise OutputError("selection made the workload more expensive")
    return after["total"] / costs["before"]["total"]


def _check_sweep(data: bytes, reference_space: int) -> float:
    """Check sweep CSV rows; return simultaneous over none total cost."""
    totals = {"none": 0, "simultaneous": 0}
    lines = data.decode("utf-8").splitlines()
    if lines[0] != "budget_fraction,strategy,total_cost_blocks,used_bytes,objects":
        raise OutputError(f"unexpected sweep header {lines[0]!r}")
    for line in lines[1:]:
        fraction, strategy, cost, used = line.split(",")[:4]
        budget = int(reference_space * float(fraction))
        if int(used) > budget:
            raise OutputError(f"{strategy} at {fraction} used {used} bytes of a {budget} budget")
        if strategy in totals:
            totals[strategy] += int(cost)
    if totals["simultaneous"] > totals["none"]:
        raise OutputError("simultaneous selection cost more than no selection")
    return totals["simultaneous"] / totals["none"]


class OutputChecker:
    """Judges each invocation's output by its content and against the reference digest.

    ``expected=None`` judges by content alone (used to record the digests).
    """

    def __init__(self, workload: Workload, argv: list[str], directory: Path, expected: str | None):
        self.workload = workload
        self.expected = expected
        self.cost_ratio: float | None = None  # of the last output that passed the content checks
        self._checked = None  # digest of the last output that passed every check
        self._reference_space = None
        if workload.is_sweep:
            # a 100% budget resolves to exactly the space the sweep's fractions scale
            at = argv.index("--sweep")
            probe = argv[:at] + argv[at + 2:]
            code, data = invoke(probe + ["--budget", "100%", "--format", "json"], directory / "probe.json")
            if code != 0:
                raise OutputError(f"reference-space probe exited {code}")
            self._reference_space = json.loads(data)["budget_bytes"]

    def check(self, code: int, data: bytes) -> None:
        """Raise OutputError unless the invocation succeeded with the expected output.

        The content checks run before the digest comparison, so a changed
        output still reports its cost ratio beside the failure.
        """
        if code != 0:
            raise OutputError(f"exit code {code}")
        digest = hashlib.sha256(data).hexdigest()
        if digest == self._checked:
            return
        try:
            if self.workload.is_sweep:
                self.cost_ratio = _check_sweep(data, self._reference_space)
            else:
                self.cost_ratio = _check_report(data)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise OutputError(f"malformed output: {exc!r}") from None
        if self.expected is not None and digest != self.expected:
            raise OutputError(f"output digest {digest[:12]} differs from reference {self.expected[:12]}")
        self._checked = digest
