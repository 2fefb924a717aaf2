"""Service-layer knobs: group commit, scheduling, rate limiting, stalls.

These are deliberately separate from :class:`repro.core.config.LSMConfig`:
the tree's knobs shape *what* the structure looks like; the service's knobs
shape *when and on which thread* reorganization runs — the dimension the
compaction design-space work isolates as first-class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, Optional

from repro.common.config_base import (
    NON_NEGATIVE, POSITIVE, at_least, check_fields, kwonly_dataclass,
)
from repro.errors import ConfigError


@kwonly_dataclass
@dataclass
class ServiceConfig:
    """Every knob of the concurrent front-end, with RocksDB-shaped defaults.

    Keyword-only: field order is not a stable interface.

    Attributes:
        max_batch: group-commit batch cap; a commit leader drains at most
            this many queued writes into one WAL frame.
        max_batch_wait_s: upper bound on the leader's wait for followers
            *when another writer has been seen* — the previous write came
            from a different thread, or one is still in flight — before
            committing a short batch (the group-commit latency/amortization
            tradeoff). A thread that wrote last itself commits at once, so a
            lone writer pays it once.
        num_workers: background worker threads shared by flush and
            compaction jobs.
        compaction_rate_bytes: token-bucket refill rate (bytes/second of
            compaction input) limiting background I/O so foreground reads
            are not starved; None disables rate limiting.
        compaction_burst_bytes: bucket capacity; defaults to one second of
            refill when None.
        l0_slowdown_runs: flush backlog (sealed memtables + level-1 runs)
            at which writers are delayed (soft stall).
        l0_stop_runs: backlog at which writers block until compaction
            catches up (hard stall).
        debt_slowdown: compaction-debt gauge (see
            ``LSMTree.compaction_debt``) for a soft stall; None disables.
        debt_stop: debt gauge for a hard stall; None disables.
        slowdown_delay_s: sleep injected per soft-stalled write.
        stop_timeout_s: safety valve — the longest a hard stall may block
            one write before letting it through (prevents deadlock if
            maintenance cannot make progress).
        subcompaction_workers: when set, the scheduler owns one shared
            thread pool of this size that serves every registered tree's
            key-range subcompactions (see
            :class:`repro.parallel.ParallelConfig`); None lets each tree
            lazily create a private pool on first parallel merge.
    """

    max_batch: Annotated[int, at_least(1)] = 64
    max_batch_wait_s: Annotated[float, NON_NEGATIVE] = 0.002
    num_workers: Annotated[int, at_least(1)] = 2
    compaction_rate_bytes: Annotated[Optional[float], POSITIVE] = None
    compaction_burst_bytes: Annotated[Optional[float], POSITIVE] = None
    l0_slowdown_runs: Annotated[int, at_least(1)] = 8
    l0_stop_runs: int = 16
    debt_slowdown: Annotated[Optional[float], NON_NEGATIVE] = None
    debt_stop: Annotated[Optional[float], NON_NEGATIVE] = None
    slowdown_delay_s: Annotated[float, NON_NEGATIVE] = 0.001
    stop_timeout_s: Annotated[float, POSITIVE] = 10.0
    subcompaction_workers: Annotated[Optional[int], at_least(1)] = None

    def validate(self) -> None:
        """Check every field, then the stall thresholds' order; raises ConfigError."""
        check_fields(self)
        if self.l0_stop_runs < self.l0_slowdown_runs:
            raise ConfigError("l0_stop_runs must be >= l0_slowdown_runs")
        if (
            self.debt_stop is not None
            and self.debt_slowdown is not None
            and self.debt_stop < self.debt_slowdown
        ):
            raise ConfigError("debt_stop must be >= debt_slowdown")
