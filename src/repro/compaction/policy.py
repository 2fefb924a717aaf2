"""A compaction policy: trigger × layout × granularity × data movement.

:class:`CompactionPolicy` composes the four primitives a configuration names
and answers what the engine asks of them: does any level need work, what is
the next unit of work, how far past its shape bounds is the tree. It reads
the level structure and never mutates it.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from repro.compaction.granularity import (
    CompactionPlan,
    FullLevel,
    PartialFile,
    deepest_data_level,
)
from repro.compaction.picker import make_picker
from repro.compaction.trigger import (
    CompositeTrigger,
    LevelState,
    RunCountTrigger,
    SaturationTrigger,
    StalenessTrigger,
)
from repro.storage.run import Run

Levels = Sequence[Sequence[Run]]


class CompactionPolicy:
    """The compaction primitives one configuration selects, composed."""

    def __init__(self, config) -> None:
        self._capacity = config.level_capacity
        self.layout = config.layout_policy()
        triggers = [RunCountTrigger(), SaturationTrigger(config.saturation_threshold)]
        if config.staleness_flushes is not None:
            triggers.append(StalenessTrigger(config.staleness_flushes))
        self.trigger = CompositeTrigger(*triggers)
        self.granularity = FullLevel(self.layout, config.saturation_threshold)
        if config.partial_compaction:
            self.granularity = PartialFile(make_picker(config.picker), self.granularity)

    def level_state(self, levels: Levels, level: int, tick: int) -> LevelState:
        """What the triggers see of ``level``; ``tick`` is the flush counter
        (the staleness clock)."""
        runs = levels[level - 1]
        is_last = level >= deepest_data_level(levels)
        oldest_age = 0
        if runs:
            oldest_age = tick - min(table.born_at for run in runs for table in run.tables)
        return LevelState(
            level=level,
            num_runs=len(runs),
            size_bytes=sum(run.size_bytes for run in runs),
            capacity_bytes=self._capacity(level),
            max_runs=self.layout.max_runs(level, is_last),
            is_last=is_last,
            oldest_run_age=oldest_age,
        )

    def _states(self, levels: Levels, tick: int) -> Iterator[LevelState]:
        """Every non-empty level's state, shallowest first."""
        for idx, runs in enumerate(levels):
            if runs:
                yield self.level_state(levels, idx + 1, tick)

    def _firing(self, levels: Levels, tick: int) -> Optional[LevelState]:
        """The shallowest level whose trigger fires (flush debt at level 1
        outranks deep saturation), or None."""
        states = self._states(levels, tick)
        return next((state for state in states if self.trigger.should_compact(state)), None)

    def needed(self, levels: Levels, tick: int) -> bool:
        """True when any level's trigger currently fires."""
        return self._firing(levels, tick) is not None

    def next_plan(self, levels: Levels, tick: int) -> Optional[CompactionPlan]:
        """The next compaction (inputs not yet pinned), or None."""
        state = self._firing(levels, tick)
        return self.granularity.select(levels, state) if state is not None else None

    def debt(self, levels: Levels, tick: int) -> float:
        """How far the tree is past its shape bounds (0 = within bounds): each
        level's byte overflow (as a fraction of its capacity) plus run-count
        overflow (as a fraction of its bound) — the gauge throttling watches.
        """
        debt = 0.0
        for state in self._states(levels, tick):
            debt += max(0.0, state.size_bytes / state.capacity_bytes - 1.0)
            debt += max(0.0, (state.num_runs - state.max_runs) / max(1, state.max_runs))
        return debt
