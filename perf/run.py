#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics (the BENCHMARK.json command).

    python3 perf/run.py --workload point-hot --seed 12 --seconds 15 --trace 0

Prints a human-readable table of every metric (name, value, unit, spread over
segments) and, as the last line of standard output, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. Exits
non-zero when an answer was wrong, an operation raised or the store failed
``verify_integrity()`` (the result line then says ``"correct": false``), and
exits non-zero without any result when the engine cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def pin_to_one_cpu() -> None:
    """Keep every thread of the run on one CPU.

    Left to the scheduler, the wire workload's client and server threads land
    on one CPU in some runs and on two in others, and a cross-CPU wake-up in
    this VM is slow enough that throughput halves: two modes, chosen at
    random. One CPU costs nothing under the interpreter lock and has one mode.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def load_declared() -> dict:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}`` from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {
        group: {metric["name"]: metric["unit"] for metric in spec[group]}
        for group in ("end_to_end", "per_layer")
    }


def result_line(report: dict, declared: dict) -> dict:
    """The contract's last-line object for one run's report."""
    group = "per_layer" if report["traced"] else "end_to_end"
    values = report[group]
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in declared[group].items()
        },
    }


def print_table(report: dict, declared: dict) -> None:
    group = "per_layer" if report["traced"] else "end_to_end"
    print(
        f"# {report['workload']} seed={report['seed']} segments={report['segments']} x "
        f"{report['ops_per_segment']} ops, measured {report['measured_wall_s']:.2f} s, "
        f"set-ups {['%.2f' % s for s in report['setup_times_s']]} s, "
        f"calib {report['calib_us']:.0f} us"
    )
    for name, unit in declared[group].items():
        line = f"{name:34s} {report[group][name]:>16.6g} {unit:12s}"
        spread = report["series"].get(name)
        if spread and spread.get("n"):
            line += (
                f" n={spread['n']} min={spread['min']:.5g} q1={spread['q1']:.5g} "
                f"q3={spread['q3']:.5g} max={spread['max']:.5g}"
            )
        print(line)
    print(f"attempted={report['attempted']} failed={report['failed']} correct={report['correct']}")
    if report["first_failure"]:
        print(f"first failure: {report['first_failure']}")
    for error in report["integrity_errors"]:
        print(f"integrity: {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink preload and op counts (smoke runs)")
    parser.add_argument("--report", help="also write the full report as JSON to this path")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perf/run.py: no engine to measure: {src}/repro is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    pin_to_one_cpu()
    from harness import run_workload
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perf/run.py: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    declared = load_declared()
    trace_path = os.path.join(HERE, "results", f"trace-{args.workload}.json")
    report = run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
        scale=args.scale, trace_path=trace_path,
    )
    if args.report:
        with open(args.report, "w") as out:
            json.dump(report, out, indent=1)
    print_table(report, declared)
    print(json.dumps(result_line(report, declared)))
    if not report["correct"]:
        print("perf/run.py: wrong answers or a damaged store", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
