"""Record each workload's instance shape and reference output digests.

    python3 perfbench/record_reference.py

Run it on the commit whose outputs are the reference; the benchmark then
counts any other output as a failed invocation.  It records every workload
for every seed in ``REFERENCE_SEEDS`` and rewrites ``reference.json`` whole,
so the file never mixes digests of different commits.  Each output must
first pass the same content checks the benchmark applies.  The shape
(queries, views, indexes, view-index pairs, objects) is read off one traced
invocation; by construction it does not depend on the seed.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys

from run import OUT_DIR, _import_program


def _shape(values: dict) -> dict:
    shape = {
        "queries": values["workload.queries"],
        "views": values["candidates.views"],
        "indexes": values["candidates.indexes"],
        "vi_pairs": values["candidates.vi_pairs"],
    }
    shape["objects"] = shape["views"] + shape["indexes"] + shape["vi_pairs"]
    return shape


def main() -> int:
    _import_program()
    from tracing import Tracer
    from workloads import ANY_SEED, REFERENCE_FILE, REFERENCE_SEEDS, WORKLOADS, OutputChecker, invoke

    reference = {}
    for name, workload in WORKLOADS.items():
        directory = OUT_DIR / f"record-{name}"
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        digests = {}
        shape = None
        for seed in [0] if workload.shape is None else range(REFERENCE_SEEDS):
            argv = workload.write_inputs(seed, directory)
            checker = OutputChecker(workload, argv, directory, expected=None)
            if shape is None:
                tracer = Tracer()
                with tracer.patched():
                    (code, data), stats = tracer.invoke(invoke, argv, directory / "output")
                shape = _shape(stats["values"])
            else:
                code, data = invoke(argv, directory / "output")
            checker.check(code, data)
            key = ANY_SEED if workload.shape is None else str(seed)
            digests[key] = hashlib.sha256(data).hexdigest()
            print(f"{name} seed {key}: {digests[key][:12]} {shape}", flush=True)
        shutil.rmtree(directory)
        reference[name] = {"shape": shape, "digests": digests}
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
