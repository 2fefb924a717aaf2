"""Leaper-style post-compaction prefetching (Yang et al., VLDB 2020).

Compactions rewrite hot data into new files, invalidating the block cache's
hottest entries and causing a burst of cache misses right after the compaction
("cache invalidation" dips). Leaper predicts which *new* blocks correspond to
previously hot *old* blocks and loads them into the cache immediately after
the compaction finishes.

The original uses a learned classifier over access statistics; this
implementation uses the same signal (per-block access counts maintained by the
cache) with a threshold predictor, which preserves the mechanism the E6
experiment measures: hot-range identification -> targeted prefetch -> restored
hit rate, at the cost of a bounded number of prefetch I/Os.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro.cache.block_cache import BlockCache
from repro.storage.sstable import SSTable


class LeaperPrefetcher:
    """Re-warms the block cache after a compaction.

    Args:
        cache: the block cache shared with the read path.
        hot_threshold: minimum access count for an old block to be considered
            hot (the stand-in for Leaper's learned hotness classifier).
        max_prefetch_blocks: I/O budget per compaction event.
    """

    def __init__(
        self, cache: BlockCache, hot_threshold: int = 2, max_prefetch_blocks: int = 64
    ) -> None:
        if hot_threshold < 1:
            raise ValueError("hot_threshold must be at least 1")
        if max_prefetch_blocks < 0:
            raise ValueError("max_prefetch_blocks must be non-negative")
        self._cache = cache
        self._hot_threshold = hot_threshold
        self._max_prefetch = max_prefetch_blocks
        self.prefetched_blocks = 0
        self.events = 0

    def on_compaction(
        self, old_tables: Sequence[SSTable], new_tables: Sequence[SSTable]
    ) -> int:
        """React to a compaction: prefetch new blocks covering hot old ranges.

        Must be called *after* the new tables are readable and *before* the
        old files' cache entries are invalidated (it needs their access
        counts), i.e. exactly where the engine's compaction path calls it.

        Returns:
            The number of blocks prefetched.
        """
        self.events += 1
        hot_ranges = self._hot_key_ranges(old_tables)
        if not hot_ranges or not new_tables:
            return 0
        budget = self._max_prefetch
        fetched = 0
        for table in new_tables:
            for block_no in self._covering_blocks(table, hot_ranges):
                if fetched >= budget:
                    return fetched
                key = (table.file_id, block_no)
                if self._cache.contains(key):
                    continue
                # Read and charge the prefetch exactly like a demand read.
                block = table._load_block(block_no, None, None)
                self._cache.put(key, block, block.charge_bytes)
                self.prefetched_blocks += 1
                fetched += 1
        return fetched

    # -- internals -----------------------------------------------------------

    def _hot_key_ranges(
        self, old_tables: Sequence[SSTable]
    ) -> List[Tuple[bytes, bytes]]:
        """Key ranges of hot cached blocks in the compaction's input files."""
        by_file = {table.file_id: table for table in old_tables}
        ranges: List[Tuple[bytes, bytes]] = []
        for key in self._cache.hot_keys(self._hot_threshold):
            if not (isinstance(key, tuple) and len(key) == 2):
                continue
            file_id, block_no = key
            table = by_file.get(file_id)
            if table is None or not 0 <= block_no < table.num_data_blocks:
                continue
            ranges.append(
                (table._block_first_keys[block_no], table._block_last_keys[block_no])
            )
        return ranges

    @staticmethod
    def _covering_blocks(
        table: SSTable, hot_ranges: Iterable[Tuple[bytes, bytes]]
    ) -> List[int]:
        """Block numbers of ``table`` overlapping any hot range, deduplicated."""
        blocks = set()
        for lo, hi in hot_ranges:
            if not table.overlaps(lo, hi):
                continue
            first = table._first_block_for(lo)
            for block_no in range(first, table.num_data_blocks):
                if table._block_first_keys[block_no] > hi:
                    break
                blocks.add(block_no)
        return sorted(blocks)
