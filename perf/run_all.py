#!/usr/bin/env python3
"""Run every workload once plain and once traced; write results/baseline.json.

    python3 perf/run_all.py

Each run is a fresh process of perf/run.py, exactly as the driver starts it,
with seed 12. The baseline keeps, per workload, both metric groups, the
per-segment series and the trace totals: the reference point later changes
are compared with.
"""

from __future__ import annotations

import json
import os
import sys

from aa import HERE, SEED0, load_spec, run_once

OUT = os.path.join(HERE, "results", "baseline.json")
KEEP = ("attempted", "failed", "correct", "segments", "ops_per_segment", "measured_wall_s",
        "measured_flushes", "wall_s", "setup_times_s", "calib_us")


def main() -> int:
    spec = load_spec()
    baseline = {"seed": SEED0, "seconds": spec["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        entry = baseline["workloads"][workload] = {}
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            report = run_once(workload, SEED0, spec["run_seconds"], trace)
            entry[group] = report[group]
            entry["traced_run" if trace else "plain_run"] = {k: report[k] for k in KEEP}
            if trace:
                entry["trace_totals"] = report["trace_table"]
            else:
                entry["series"] = report["series"]
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w") as out:
        json.dump(baseline, out, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
