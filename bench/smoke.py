#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload once, at a small flow count.

    python3 bench/smoke.py

Runs each workload untraced and traced through the same output and
trace checks as ``bench/run.py``, with a few thousand flows, and checks
that ``BENCHMARK.json`` declares exactly the workloads and metrics that
``run.py`` reports. No timing is asserted. Exits 1 on any failure.
"""

from __future__ import annotations

import json
import sys

import run

SMOKE_FLOWS = 3_000


def main() -> int:
    failures = []
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    for key, units in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        if {m["name"]: m["unit"] for m in spec[key]} != units:
            failures.append(f"BENCHMARK.json {key} metrics differ from run.py's")
    for workload in run.WORKLOADS.values():
        for trace in (False, True):
            result, _ = run.run_workload(workload, run.REFERENCE_SEED, 0, trace,
                                         flows=SMOKE_FLOWS)
            expected = run.PER_LAYER if trace else run.END_TO_END
            if set(result) != {"correct", "attempted", "failed", "metrics"} \
                    or set(result["metrics"]) != set(expected) \
                    or not result["correct"]:
                failures.append(f"{workload.name} trace={int(trace)}: {json.dumps(result)}")
    for failure in failures:
        print(f"smoke: FAIL {failure}", file=sys.stderr)
    print(f"smoke: {'FAIL' if failures else 'ok'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
