"""What the randomized harnesses share: cycle results, the report, the grid
runner and the matrix CLI's common options and epilogue.

:class:`~repro.faults.harness.CrashHarness` (storage crashes) and
:class:`~repro.chaos.harness.ChaosHarness` (network faults) each keep their
own ``run_cycle`` and verification — they check different invariants — and
take everything around them from here, so a matrix run, its per-config
summary lines, its failures file and its replay hints mean the same thing
for both.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple


@dataclass
class CycleResult:
    """Outcome of one fault/recover cycle."""

    cycle: int
    crash_point: str
    countdown: int
    fired: bool  # did the scheduled crash actually trigger?
    ops_acked: int = 0
    keys_checked: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class HarnessReport:
    """Aggregate over a harness run; ``ok`` is the CI pass/fail bit."""

    cycles: List[CycleResult] = field(default_factory=list)
    #: Cycle field → label: what ``summary()`` totals between the cycle
    #: count and the violation count.
    totals: Dict[str, str] = field(
        default_factory=lambda: {"fired": "crashes fired", "ops_acked": "acked ops"}
    )

    @property
    def ok(self) -> bool:
        return all(cycle.ok for cycle in self.cycles)

    @property
    def crashes_fired(self) -> int:
        return sum(1 for c in self.cycles if c.fired)

    @property
    def violations(self) -> List[str]:
        return [v for c in self.cycles for v in c.violations]

    def summary(self) -> str:
        parts = [f"{len(self.cycles)} cycles"]
        parts += [
            f"{sum(getattr(c, name) for c in self.cycles)} {label}"
            for name, label in self.totals.items()
        ]
        return ", ".join(parts + [f"{len(self.violations)} violations"])


def run_grid(
    grid: Iterable[dict],
    make_harness: Callable[..., object],
    cycles: int,
    verbose: bool = False,
) -> Tuple[bool, List[dict]]:
    """Run ``make_harness(**coords).run(cycles)`` for every point of ``grid``.

    Each ``coords`` dict is the configuration's replayable identity: it
    labels the per-config summary line and, with the violations, becomes the
    failure record. A harness with a ``close()`` is closed even if it raises.

    Returns:
        ``(ok, failures)`` where each failure dict pins the exact
        configuration and seed needed to replay it.
    """
    failures: List[dict] = []
    total = 0
    for coords in grid:
        harness = make_harness(**coords)
        try:
            report = harness.run(cycles)
        finally:
            if hasattr(harness, "close"):
                harness.close()
        total += len(report.cycles)
        if verbose:
            label = " ".join(f"{name}={value}" for name, value in coords.items())
            print(f"{label}: {report.summary()}")
        if not report.ok:
            failures.append({**coords, "violations": report.violations})
    if verbose:
        print(f"matrix total: {total} cycles, {len(failures)} failing configs")
    return not failures, failures


def matrix_parser(doc: str, default_cycles: int) -> argparse.ArgumentParser:
    """A parser with the options every matrix CLI takes; add the grid's own."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--cycles", type=int, default=default_cycles,
                        help="cycles per config")
    parser.add_argument("--seed", type=int, action="append", default=None,
                        help="seed(s) for the matrix (repeatable)")
    parser.add_argument("--failures-file", default=None,
                        help="write failing configurations here as JSON")
    parser.add_argument("--quiet", action="store_true")
    return parser


def finish_matrix(
    failures: List[dict],
    failures_file: Optional[str],
    contract: str,
    replay_flags: Callable[[dict], str],
) -> int:
    """Write the failures file, print FAIL + one replay line per failing
    configuration, and return the process exit code."""
    if not failures:
        return 0
    if failures_file:
        with open(failures_file, "w") as fh:
            json.dump(failures, fh, indent=2)
    print(f"FAIL: {len(failures)} configuration(s) violated {contract}", file=sys.stderr)
    for failure in failures:
        print(f"  replay: {replay_flags(failure)}", file=sys.stderr)
    return 1
