#!/usr/bin/env python3
"""A/A check: two interleaved sets of runs of this checkout must agree.

    python3 perf/aa.py [--runs 10]

Runs set A and set B alternately (A B A B ...), ``--runs`` runs per workload
in each set, run *i* of both sets with seed ``SEED0 + i``. For every
workload x end-to-end metric it prints both medians, both quartile spreads
(first to third quartile, as a share of the median: the figure the driver
computes over ten seeds) and how much worse set B's median is than set A's,
against the metric's bound. It exits non-zero when that disagreement or a
spread (``setup_s`` excepted, as in the driver) breaches the bound, and
writes everything to ``perf/results/aa.json``: the table's rows and, for
every run, each timing's per-segment series, so that another estimator over
the segments can be tried on the recorded runs without running them again.

Rule for the benchmark's author: a timing whose spread exceeds half its bound
is not ready to gate on; steady it or move it to ``per_layer``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED0 = 12
OUT = os.path.join(HERE, "results", "aa.json")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_once(workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One fresh-process run of perf/run.py, as the driver starts it; returns
    the run's full report."""
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        path = os.path.join(tmp, "report.json")
        command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                   "--report", path]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            raise RuntimeError(
                f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}"
            )
        with open(path) as handle:
            return json.load(handle)


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with the driver's quantile method."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first`` (<0 = better)."""
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload per set (>= 2)")
    args = parser.parse_args(argv)

    spec = load_spec()
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]

    runs = {w: {"A": [], "B": []} for w in workloads}
    started = time.time()
    for i in range(args.runs):
        for workload in workloads:
            for side in ("A", "B"):
                report = run_once(workload, SEED0 + i, seconds)
                runs[workload][side].append({
                    "seed": SEED0 + i,
                    "wall_s": report["wall_s"],
                    "calib_us": report["calib_us"],
                    "end_to_end": report["end_to_end"],
                    "segments": {
                        name: [float(f"{v:.6g}") for v in series.get("values", [])]
                        for name, series in report["series"].items()
                    },
                })
        print(f"round {i + 1}/{args.runs} done after {time.time() - started:.0f} s",
              file=sys.stderr)

    rows, breaches = [], []
    print(f"{'workload':12s} {'metric':18s} {'median A':>12s} {'median B':>12s} "
          f"{'spread A':>9s} {'spread B':>9s} {'B worse':>8s} {'bound':>6s}")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = ([run["end_to_end"][name] for run in runs[workload][side]]
                    for side in ("A", "B"))
            row = {
                "workload": workload, "metric": name, "unit": metric["unit"], "bound": bound,
                "median_a": statistics.median(a), "median_b": statistics.median(b),
                "spread_a": quartile_spread(a), "spread_b": quartile_spread(b),
            }
            row["b_worse_by"] = worse_by(row["median_a"], row["median_b"], metric["better"])
            spread = max(row["spread_a"], row["spread_b"])
            row["breach"] = abs(row["b_worse_by"]) > bound or (
                name != "setup_s" and spread > bound
            )
            row["steady"] = name == "setup_s" or spread <= bound / 2
            if row["breach"]:
                breaches.append(f"{workload} {name}")
            flag = " BREACH" if row["breach"] else ("" if row["steady"] else " unsteady")
            print(f"{workload:12s} {name:18s} {row['median_a']:12.5g} {row['median_b']:12.5g} "
                  f"{row['spread_a']:9.4f} {row['spread_b']:9.4f} {row['b_worse_by']:8.4f} "
                  f"{bound:6.2f}{flag}")
            rows.append(row)

    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w") as out:
        json.dump({"runs_per_set": args.runs, "seed0": SEED0, "seconds": seconds,
                   "wall_s": time.time() - started, "breaches": breaches, "rows": rows,
                   "runs": runs}, out)
        out.write("\n")
    if breaches:
        print(f"A/A breaches: {', '.join(breaches)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
