"""Shared benchmark machinery.

Every experiment Ei prints its result table and also writes it to
``benchmarks/results/ei_*.txt`` so the rows survive pytest's output capture;
EXPERIMENTS.md records these measured rows against the expected shapes.
"""

import json
import pathlib

from repro.bench.report import format_table

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def record(name: str, title: str, headers, rows) -> None:
    """Print a table and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    table = f"== {title} ==\n" + format_table(headers, rows) + "\n"
    print("\n" + table)
    (RESULTS_DIR / f"{name}.txt").write_text(table)


def merge_perf_json(path: pathlib.Path, sections: dict) -> dict:
    """Merge ``sections`` into the perf JSON at ``path`` (by default
    ``results/BENCH_perf.json``, the one file every perf smoke shares),
    keeping the other experiments' sections; returns the merged document."""
    merged = {}
    if path.is_file():
        try:
            merged = json.loads(path.read_text())
        except ValueError:
            merged = {}
    merged.update(sections)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(merged, indent=2))
    return merged


def once(benchmark, func):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, rounds=1, iterations=1)
