"""The compaction executor: the one merge every plan runs through.

One fold decides what each key keeps; one call merges a plan's inputs
through it over one key range or several
(:mod:`repro.parallel.subcompaction`). The executor reads pinned tables and
writes brand-new files; installing the result is the tree's job.
"""

from __future__ import annotations

import concurrent.futures
from typing import Callable, List, Optional, Sequence

from repro.common.entry import (
    DELETE,
    MERGE,
    PUT,
    PUT_TTL,
    Entry,
    encode_merge_value,
    live_value,
    split_chain,
)
from repro.compaction.granularity import CompactionPlan
from repro.parallel.subcompaction import run_subcompactions, split_key_ranges
from repro.storage.sstable import SSTable

Fold = Callable[[Sequence[Entry]], Optional[Entry]]


class CompactionExecutor:
    """Merges plans for one tree (its device, table factory, merge operators,
    value codec and counters); owns its subcompaction worker pool."""

    def __init__(self, device, config, factory, operators, values, stats, stats_lock) -> None:
        self._device = device
        self._config = config
        self._factory = factory
        self._operators = operators
        self._values = values
        self._stats = stats
        self._stats_lock = stats_lock
        # Created lazily on the first parallel merge and shut down in
        # close() — unless a service scheduler lent its own pool, which is
        # borrowed and never shut down.
        self._pool: Optional[concurrent.futures.Executor] = None
        self._pool_borrowed = False

    # -- worker pool ---------------------------------------------------------

    def borrow_pool(self, executor: Optional[concurrent.futures.Executor]) -> None:
        """Use an externally owned pool (None: a private, lazily created one)."""
        with self._stats_lock:
            previous, owned = self._pool, not self._pool_borrowed
            self._pool = executor
            self._pool_borrowed = executor is not None
        if previous is not None and owned:
            previous.shutdown(wait=True)

    def close(self) -> None:
        self.borrow_pool(None)

    def _workers(self) -> concurrent.futures.Executor:
        with self._stats_lock:
            if self._pool is None:
                self._pool = concurrent.futures.ThreadPoolExecutor(
                    max_workers=self._config.parallel.max_subcompactions,
                    thread_name_prefix=f"{self._config.name}-subcompact",
                )
            return self._pool

    # -- the merge -----------------------------------------------------------

    def merge(self, plan: CompactionPlan) -> List[SSTable]:
        """Merge a plan's inputs into new tables at ``plan.dest``."""
        parallel = self._config.parallel
        ranges = [(None, None)]
        readahead = 1
        if parallel is not None:
            readahead = parallel.merge_readahead_blocks
            ranges = split_key_ranges(
                plan.inputs, parallel.max_subcompactions, parallel.min_subcompaction_blocks
            )
        # One TTL clock reading for the whole merge, serial or parallel: the
        # fold's decisions must not depend on execution schedule.
        fold = self.fold(plan.purge, self._device.stats.simulated_time)
        tables = run_subcompactions(
            plan.inputs,
            ranges,
            fold,
            self._factory.table_builder(self._device, plan.dest),
            self._config.file_bytes,
            readahead=readahead,
            executor=self._workers() if len(ranges) > 1 else None,
        )
        with self._stats_lock:
            self._stats.compaction_bytes_in += plan.bytes_in
            if len(ranges) > 1:
                self._stats.parallel_compactions += 1
                self._stats.subcompactions += len(ranges)
        return tables

    def fold(self, purge: bool, now: float) -> Fold:
        """Build the per-key fold every compaction output flows through:
        tombstone purging, merge-operand folding, TTL reclamation, the
        compaction filter.

        The returned callable takes one key's versions newest-first (the
        merge hands it the newest alone unless that is a merge operand) and
        returns the entry the output keeps, or None. It is a pure function of
        ``(group, purge, now)`` and ranges never split a group, so serial and
        parallel executions produce bit-identical entry sequences. Workers
        call it concurrently: shared counters go through the stats lock, and
        folded values are stored inline (never appended to the single-writer
        value log).
        """
        keep = self._config.compaction_filter
        operators = self._operators
        values = self._values
        stats = self._stats
        stats_lock = self._stats_lock

        def note_expired() -> None:
            with stats_lock:
                stats.ttl_expired_dropped += 1

        def note_filtered() -> None:
            with stats_lock:
                stats.filtered_by_compaction += 1

        def fold(group: Sequence[Entry]) -> Optional[Entry]:
            newest = group[0]
            kind = newest.kind
            if kind is not MERGE:
                if kind is DELETE:
                    return None if purge else newest
                if kind is PUT_TTL and newest.expired(now):
                    note_expired()
                    if purge:
                        return None
                    # Older copies may live below this compaction's output:
                    # leave a tombstone at the same seqno to shadow them.
                    return Entry(key=newest.key, seqno=newest.seqno, kind=DELETE)
                if keep is not None and not keep(newest.key, newest.value):
                    note_filtered()
                    return None
                return newest
            base, operands = split_chain(group)  # anything older is shadowed
            op, parts = operators.operator_for(operands)
            if base is None and not purge:
                # The chain's base may live below this compaction's inputs:
                # partially combine the operands into one MERGE entry.
                combined = parts[-1]
                for part in reversed(parts[:-1]):  # older -> newer
                    combined = op.combine(combined, part)
                return Entry(
                    key=newest.key, seqno=newest.seqno, kind=MERGE,
                    value=encode_merge_value(op.name, combined),
                )
            if base is not None and base.expired(now):
                note_expired()
            value = op.fold(live_value(base, now, values), reversed(parts))  # oldest first
            stored = values.INLINE + value if values is not None else value
            if keep is not None and not keep(newest.key, stored):
                note_filtered()
                return None
            return Entry(key=newest.key, seqno=newest.seqno, kind=PUT, value=stored)

        return fold
