"""Sorted runs: one or more non-overlapping SSTables acting as one sorted unit.

A *run* is the unit the LSM read path reasons about: within a run every key
appears at most once and files cover disjoint key ranges. Engines that use
partial (file-granularity) compaction treat a level as a single partitioned
run whose files can be compacted individually; engines with full-level
compaction produce single-file runs. Both are modeled here.
"""

from __future__ import annotations

import bisect
import itertools
from operator import methodcaller
from typing import Iterator, List, Optional, Sequence

from repro.common.entry import Entry
from repro.storage.block import Columns
from repro.storage.sstable import ProbeStats, SSTable

_run_ids = itertools.count(1)


class Run:
    """An immutable sorted run over one or more non-overlapping SSTables.

    Args:
        tables: SSTables sorted by ``min_key`` with pairwise-disjoint ranges.

    Raises:
        ValueError: when tables are empty, unsorted, or overlapping.
    """

    def __init__(self, tables: Sequence[SSTable]) -> None:
        if not tables:
            raise ValueError("a run needs at least one table")
        for prev, curr in zip(tables, tables[1:]):
            if prev.max_key >= curr.min_key:
                raise ValueError("run tables must be sorted and non-overlapping")
        self.tables: List[SSTable] = list(tables)
        self._max_keys: List[bytes] = [table.max_key for table in self.tables]
        self._min_keys: List[bytes] = [table.min_key for table in self.tables]
        self.run_id = next(_run_ids)

    # -- metadata ------------------------------------------------------------

    @property
    def min_key(self) -> bytes:
        return self.tables[0].min_key

    @property
    def max_key(self) -> bytes:
        return self.tables[-1].max_key

    @property
    def entry_count(self) -> int:
        return sum(table.entry_count for table in self.tables)

    @property
    def tombstone_count(self) -> int:
        return sum(table.tombstone_count for table in self.tables)

    @property
    def size_bytes(self) -> int:
        return sum(table.size_bytes for table in self.tables)

    @property
    def memory_bytes(self) -> int:
        """Combined in-memory footprint of all auxiliary structures."""
        return sum(table.memory_bytes for table in self.tables)

    def overlaps(self, lo: bytes, hi: bytes) -> bool:
        return not (hi < self.min_key or lo > self.max_key)

    def tables_overlapping(self, lo: Optional[bytes], hi: Optional[bytes]) -> List[SSTable]:
        """Files whose key range intersects the closed range [lo, hi] (None:
        unbounded), in key order: two bisections, of the max keys and of the
        min keys, so no other file is inspected."""
        first = 0 if lo is None else bisect.bisect_left(self._max_keys, lo)
        last = len(self.tables) if hi is None else bisect.bisect_right(self._min_keys, hi)
        return self.tables[first:last]

    # -- reads ---------------------------------------------------------------

    def get(
        self,
        key: bytes,
        stats: Optional[ProbeStats] = None,
        cache=None,
        digest=None,
    ) -> Optional[Entry]:
        """Point lookup: route to the single file that may hold the key."""
        idx = bisect.bisect_left(self._max_keys, key)  # _table_for, without the call
        if idx == len(self._max_keys):
            return None
        table = self.tables[idx]
        entry = table.get(key, stats, cache, digest)
        if entry is not None:
            table.hotness += 1
        return entry

    def get_many(
        self,
        keys: Sequence[bytes],
        stats: Optional[ProbeStats] = None,
        cache=None,
        span: int = 8,
        digests: "Optional[dict[bytes, int]]" = None,
    ) -> "dict[bytes, Entry]":
        """Batched point lookup: group keys by owning file, coalesce I/O per file.

        Returns ``key -> Entry`` (tombstones included) for keys present in
        this run; same per-key accounting as :meth:`get`. ``digests`` holds
        the keys' shared filter digests, as ``digest`` does for :meth:`get`.
        """
        grouped: "dict[int, tuple[SSTable, List[bytes]]]" = {}
        for key in keys:
            table = self._table_for(key)
            if table is not None:
                grouped.setdefault(table.file_id, (table, []))[1].append(key)
        out: "dict[bytes, Entry]" = {}
        for table, table_keys in grouped.values():
            found = table.get_many(table_keys, stats, cache, span, digests)
            table.hotness += len(found)
            out.update(found)
        return out

    def iter_entries(
        self,
        start: Optional[bytes] = None,
        end: Optional[bytes] = None,
        cache=None,
        stats: Optional[ProbeStats] = None,
        readahead: int = 1,
    ) -> Iterator[Entry]:
        """The entries in key order across all files in the run."""
        return itertools.chain.from_iterable(map(
            methodcaller("iter_entries", start, end, cache, stats, readahead),
            self.tables_overlapping(start, end),
        ))

    def iter_chunks(
        self,
        start: Optional[bytes] = None,
        end: Optional[bytes] = None,
        cache=None,
        stats: Optional[ProbeStats] = None,
        readahead: int = 1,
    ) -> Iterator[Columns]:
        """Yield each file's :meth:`SSTable.iter_chunks` in key order."""
        return itertools.chain.from_iterable(map(
            methodcaller("iter_chunks", start, end, cache, stats, readahead),
            self.tables_overlapping(start, end),
        ))

    def may_contain_range(self, lo: bytes, hi: bytes) -> bool:
        """Consult range filters: can any file contain a key in [lo, hi]?

        Falls back to key-range overlap when a file carries no range filter.
        """
        for table in self.tables_overlapping(lo, hi):
            if table.range_filter is None:
                return True
            if table.range_filter.may_intersect(lo, hi):
                return True
        return False

    # -- lifecycle -----------------------------------------------------------

    def replace_tables(self, removed: Sequence[SSTable], added: Sequence[SSTable]) -> "Run":
        """Return a new run with ``removed`` files swapped for ``added``.

        Used by partial compaction: the victim file leaves the run and the
        merged output files (belonging to the next level's run) replace
        nothing here — or vice versa on the destination run.
        """
        removed_ids = {table.file_id for table in removed}
        kept = [table for table in self.tables if table.file_id not in removed_ids]
        merged = sorted(list(kept) + list(added), key=lambda table: table.min_key)
        return Run(merged)

    # -- internals -----------------------------------------------------------

    def _table_for(self, key: bytes) -> Optional[SSTable]:
        """The one file whose range can hold ``key``: the first whose max key
        is not below it. (Whether the key clears that file's min key is the
        table's own admission check — done once, there.)"""
        idx = bisect.bisect_left(self._max_keys, key)
        return self.tables[idx] if idx < len(self.tables) else None
