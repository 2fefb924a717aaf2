"""Compaction granularity: which tables one compaction consumes.

The third primitive of Sarkar et al.'s decomposition. A granularity object
names the inputs and destination for a level whose trigger fired; the
trivial-move test, merge and install that follow are one pipeline that
never asks which granularity chose them.

* :class:`FullLevel`: a level is a set of runs — all are consumed, plus the
  destination's when it is leveled; the output arrives as one new run.
* :class:`PartialFile`: a leveled level is one partitioned run — one victim
  file (the data-movement picker's) is consumed with the destination files
  it overlaps; the output joins the destination's run in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.compaction.layout import LayoutPolicy
from repro.compaction.picker import FilePicker
from repro.compaction.trigger import LevelState
from repro.storage.run import Run
from repro.storage.sstable import SSTable


@dataclass
class CompactionPlan:
    """A schedulable unit of re-organization, picked under the tree mutex.

    ``inputs`` are the sorted streams the merge reads, source side first;
    ``LSMTree.plan_compaction`` pins every table in them, so the merge can
    read without the mutex while flushes install new runs. Installation
    removes exactly these tables and adds the output at ``dest`` — as a new
    run, or (``join``) into the destination's partitioned run.
    """

    kind: str
    level: int
    dest: int
    inputs: List[Run] = field(default_factory=list)
    purge: bool = False
    join: bool = False
    bytes_in: int = field(init=False)  # input bytes: what a rate limiter is charged

    def __post_init__(self) -> None:
        self.bytes_in = sum(run.size_bytes for run in self.inputs)

    @property
    def tables(self) -> List[SSTable]:
        return [table for run in self.inputs for table in run.tables]

    @property
    def trivial(self) -> bool:
        """One input slides down without touching overlapping data — unless
        it carries tombstones into the bottom of the tree, where nothing
        would ever rewrite (and thus purge) them: that case takes the merge
        path (RocksDB's bottommost-level compaction; Lethe's concern)."""
        if self.dest <= self.level or len(self.inputs) != 1:
            return False
        return not (self.purge and self.inputs[0].tombstone_count > 0)


def deepest_data_level(levels: Sequence[Sequence[Run]]) -> int:
    """Deepest level currently holding any run (0 when storage is empty)."""
    deepest = 0
    for idx, runs in enumerate(levels):
        if runs:
            deepest = idx + 1
    return deepest


class FullLevel:
    """Whole-level granularity: merge every run of the level at once."""

    name = "full"

    def __init__(self, layout: LayoutPolicy, saturation_threshold: float) -> None:
        self._layout = layout
        self._saturation = saturation_threshold

    def select(self, levels: Sequence[Sequence[Run]], state: LevelState) -> CompactionPlan:
        level = state.level
        runs = levels[level - 1]
        saturated = state.size_bytes >= state.capacity_bytes * self._saturation
        dest = level + 1 if saturated else level
        if dest == level and len(runs) == 1:
            # A single-run level can only make progress by moving down
            # (e.g. a staleness trigger on a leveled level).
            dest = level + 1
        inputs = list(runs)
        if level < dest <= len(levels) and levels[dest - 1]:
            if self._layout.max_runs(dest, dest >= deepest_data_level(levels)) == 1:
                inputs += levels[dest - 1]
        # Tombstones may be dropped iff nothing older lives at or below dest.
        consumed = {id(run) for run in inputs}
        purge = all(
            id(run) in consumed for runs_below in levels[dest - 1 :] for run in runs_below
        )
        return CompactionPlan(self.name, level, dest, inputs, purge=purge)


class PartialFile:
    """File granularity: move one victim file down per compaction.

    Applies to a level holding a single (partitioned) run; a level with
    several runs — level 1 after a burst of flushes — is consolidated by a
    whole-level merge first.
    """

    name = "partial"

    def __init__(self, picker: FilePicker, whole_level: FullLevel) -> None:
        self._picker = picker
        self._whole_level = whole_level

    def select(self, levels: Sequence[Sequence[Run]], state: LevelState) -> CompactionPlan:
        level = state.level
        runs = levels[level - 1]
        if len(runs) != 1:
            return self._whole_level.select(levels, state)
        candidates = runs[0].tables
        below = levels[level][0] if level < len(levels) and levels[level] else None
        if state.size_bytes >= state.capacity_bytes:
            victim = self._picker.pick(candidates, below.tables if below else [])
        else:
            # The level is not oversized, so the trigger was staleness: move
            # the oldest file, not the picker's.
            victim = min(candidates, key=lambda table: (table.born_at, table.min_key))
        overlapping = (
            below.tables_overlapping(victim.min_key, victim.max_key) if below else []
        )
        # The destination run's other files cannot hold the victim's keys,
        # so only data deeper than dest can block purging.
        purge = level + 1 >= deepest_data_level(levels)
        inputs = [Run([victim])] + [Run([table]) for table in overlapping]
        return CompactionPlan(self.name, level, level + 1, inputs, purge=purge, join=True)
