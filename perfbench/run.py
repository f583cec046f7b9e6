"""mvindex benchmark: seeded advisor workloads driven through ``mvindex.cli.main``.

    python3 perfbench/run.py --workload greedy_large --seed 1 --seconds 25 --trace 0

Run from anywhere inside a source checkout; the program is imported from
the checkout's ``src`` directory and nowhere else.  One process, one
thread: the CLI is called in-process as a closed loop of back-to-back
invocations on the generated input files, each output is checked, and the
last line of standard output is one JSON object with the run's metrics.
Run time is reported relative to a fixed calibration loop timed next to
each invocation, which cancels the machine's speed swings.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced loop.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / ".out"
CONTRACT = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 3  # before the timed loop, and again after it
CALIBRATION_ITERATIONS = 20000  # about 12 ms on a 2-core x86-64 VM
IMPORT_PROGRAM = f"import sys; sys.path.insert(0, {str(SRC)!r}); import mvindex"


def _import_program():
    """Import mvindex from this checkout's src, refusing any other copy."""
    if not (SRC / "mvindex" / "__init__.py").is_file():
        raise SystemExit(f"error: no mvindex sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mvindex

    if Path(mvindex.__file__).resolve().parent != SRC / "mvindex":
        raise SystemExit(f"error: mvindex imported from {mvindex.__file__}, not {SRC}")


def _setup(workload, seed: int, directory: Path) -> tuple[list[str], list[float]]:
    """Import the program in a fresh interpreter and write the inputs, several
    times; return the CLI arguments and the wall seconds of each set-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_PROGRAM], check=True, cwd=ROOT)
        argv = workload.write_inputs(seed, directory)
        times.append(time.perf_counter() - start)
    return argv, times


def _calibrate() -> float:
    """Wall seconds of a fixed pure-Python loop of dict, tuple and generator work.

    It runs between invocations on the same thread, so it meets the same
    machine speed as the invocations beside it; nothing in it depends on the
    program.
    """
    start = time.perf_counter()
    table = {}
    for i in range(CALIBRATION_ITERATIONS):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + sum(x for x in key)
    return time.perf_counter() - start


def _closed_loop(call, seconds: float, checker) -> tuple[list[float], list[float], list, int, int]:
    """Invoke back to back until ``seconds`` have passed (at least once).

    Returns the wall seconds of each invocation, each one's wall seconds over
    the mean of the calibration loops run just before and just after it, what
    each call returned beside its output, and the attempted and failed counts.
    """
    from workloads import OutputError

    durations, relative, extras = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    calibration = _calibrate()
    while attempted == 0 or time.perf_counter() - start < seconds:
        attempted += 1
        began = time.perf_counter()
        try:
            (code, data), extra = call()
        except Exception:  # the program raised: a failed invocation, not a benchmark error
            traceback.print_exc(file=sys.stderr)
            failed += 1
            continue
        durations.append(time.perf_counter() - began)
        after = _calibrate()
        relative.append(durations[-1] * 2 / (calibration + after))
        calibration = after
        extras.append(extra)
        try:
            checker.check(code, data)
        except OutputError as exc:
            print(f"invocation {attempted}: incorrect output: {exc}", file=sys.stderr)
            failed += 1
    return durations, relative, extras, attempted, failed


def _tail(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it, or None."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    pct = (n - 10) * 100 // n
    return pct, ordered[max(0, -(-pct * n // 100) - 1)]


def _result(correct: bool, attempted: int, failed: int, metrics: dict, declared: list[dict]) -> str:
    """The result line: every metric ``declared`` in BENCHMARK.json, with its unit there."""
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from tracing import LAYER_METRICS, Tracer, layer_metrics
    from workloads import REFERENCE_SEEDS, WORKLOADS, OutputChecker, invoke, load_reference, reference_digest

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    directory = OUT_DIR / workload.name
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)

    contract = json.loads(CONTRACT.read_text(encoding="utf-8"))
    seed = args.seed % REFERENCE_SEEDS  # every instance seed has a recorded digest
    try:
        expected = reference_digest(workload, seed)
    except KeyError:
        raise SystemExit(f"error: reference.json has no digest for {workload.name} seed {seed}") from None
    cli_argv, setup_times = _setup(workload, seed, directory)
    checker = OutputChecker(workload, cli_argv, directory, expected)
    out = directory / "output"

    untraced_seconds = args.seconds / 2 if args.trace else args.seconds
    durations, relative, _, attempted, failed = _closed_loop(
        lambda: (invoke(cli_argv, out), None), untraced_seconds, checker
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # set up again (same bytes) after the loop, so the median spans the run's speed swings
    setup_s = statistics.median(setup_times + _setup(workload, seed, directory)[1])
    output_bytes = out.stat().st_size if out.exists() else 0

    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed} (instance {seed}); inputs in {directory.relative_to(ROOT)}; "
          f"output reference {expected[:12]}")
    shape = load_reference()[workload.name]["shape"]
    print("shape: " + ", ".join(f"{key} {value}" for key, value in shape.items()))
    print(f"untraced: {len(durations)} of {attempted} invocations timed, {failed} failed "
          f"(error_rate {failed / attempted:.6g})")
    run_min_s = min(durations, default=None)

    if not args.trace:
        metrics = {
            "run_rel": statistics.median(relative) if relative else None,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "final_cost_ratio": checker.cost_ratio,
        }
        if durations:
            print(f"run_median_s {statistics.median(durations):.6g} s, run_min_s {run_min_s:.6g} s "
                  f"over {len(durations)} invocations")
        tail = _tail(durations)
        if tail is not None:
            print(f"run_tail_s p{tail[0]} = {tail[1]:.6g} s over {len(durations)} invocations")
        else:
            print(f"run_tail_s not reported: {len(durations)} invocations leave fewer than ten beyond any percentile")
    else:
        tracer = Tracer()
        with tracer.patched():
            traced, _, stats, t_attempted, t_failed = _closed_loop(
                lambda: tracer.invoke(invoke, cli_argv, out), args.seconds / 2, checker
            )
        attempted += t_attempted
        failed += t_failed
        spans_file = directory / "spans.jsonl"
        tracer.write(spans_file)
        print(f"traced: {len(traced)} of {t_attempted} invocations, {t_failed} failed; "
              f"{len(tracer.spans)} spans in {spans_file.relative_to(ROOT)}")
        # layers of the fastest traced invocation, set against the fastest untraced one
        fastest = min(zip(traced, stats), key=lambda pair: pair[0], default=None)
        metrics = layer_metrics(fastest[1]) if fastest else dict.fromkeys(LAYER_METRICS)
        metrics["cli.output_bytes"] = output_bytes
        metrics["trace.overhead_s"] = fastest[0] - run_min_s if fastest and durations else None

    declared = contract["per_layer" if args.trace else "end_to_end"]
    for m in declared:
        value = metrics[m["name"]]
        print(f"  {m['name']:32} {value if value is None else format(value, '.6g')} {m['unit']}")
    print(_result(failed == 0, attempted, failed, metrics, declared))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
