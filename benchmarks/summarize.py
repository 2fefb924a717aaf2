#!/usr/bin/env python
"""Collect every experiment table from benchmarks/results/ into one report.

Usage:  python benchmarks/summarize.py [> report.txt]

Run ``pytest benchmarks/ --benchmark-only`` first; each bench writes its
table to ``benchmarks/results/<name>.txt``. This script concatenates them in
experiment order so the whole evaluation reads top to bottom (the same
ordering as EXPERIMENTS.md).
"""

from __future__ import annotations

import json
import pathlib
import re
import sys

RESULTS = pathlib.Path(__file__).parent / "results"

ORDER = [
    "e1_", "e2_", "e3_", "e4_", "e5_", "e6_cache", "e6_leaper", "e7_partial.",
    "e7_partial_vs", "e8_", "e9_", "e10_", "e11_", "e12_", "e13_", "e14_",
    "e15_", "e16_", "e17_", "e18_", "e22_", "e23_", "e24_", "e25_", "e26_",
    "e27_", "a1_", "a2_", "a3_",
]

#: The one perf-smoke JSON: every ``bench_e2[2-7]`` run merges its section here.
PERF_JSON = RESULTS / "BENCH_perf.json"


def render_perf_json() -> str:
    """Flatten BENCH_perf.json into a report section.

    The perf smokes (``bench_e22_parallel.py``, ``bench_e23_server.py``,
    ``bench_e24_tracing.py``, ``bench_e25_txn.py``,
    ``bench_e26_compression.py``, ``bench_e27_chaos.py``) emit nested JSON
    rather than a table; render the leaf metrics as
    ``section.sub.key = value`` lines (sections nest arbitrarily deep —
    E26's ``compression.codecs.zlib.*`` for one).
    """
    try:
        merged = json.loads(PERF_JSON.read_text())
    except (OSError, ValueError):
        merged = {}
    if not merged:
        return ""
    lines = ["== perf smoke (BENCH_perf.json) =="]

    def flatten(prefix: str, values) -> None:
        if isinstance(values, dict):
            for key, value in values.items():
                flatten(f"{prefix}.{key}" if prefix else key, value)
        else:
            lines.append(f"{prefix} = {values}")

    flatten("", merged)
    return "\n".join(lines)


def sort_key(path: pathlib.Path) -> "tuple[int, str]":
    for rank, prefix in enumerate(ORDER):
        if path.name.startswith(prefix) or (path.name + ".").startswith(prefix):
            return rank, path.name
    return len(ORDER), path.name


def main() -> int:
    if not RESULTS.is_dir():
        print("no results yet: run `pytest benchmarks/ --benchmark-only` first",
              file=sys.stderr)
        return 1
    tables = sorted(RESULTS.glob("*.txt"), key=sort_key)
    if not tables:
        print("results directory is empty", file=sys.stderr)
        return 1
    print("=" * 72)
    print("repro — experiment summary (%d tables)" % len(tables))
    print("=" * 72)
    for path in tables:
        print()
        print(path.read_text().rstrip())
    perf = render_perf_json()
    if perf:
        print()
        print(perf)
    experiments = {re.match(r"([ea]\d+)", p.name).group(1)
                   for p in tables if re.match(r"([ea]\d+)", p.name)}
    print()
    print(f"-- {len(experiments)} experiments, {len(tables)} tables --")
    return 0


if __name__ == "__main__":
    sys.exit(main())
