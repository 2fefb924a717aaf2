"""Coalesced device I/O: multi-block reads for scans, merges, and batched gets.

The device charges every random access one seek (4x a sequential read in the
default latency model), and a seek is exactly what an iterator pays whenever
another thread's read lands between two of its own. Readers that *know* they
will consume consecutive blocks — merge inputs during compaction, long range
scans, the grouped block list of a ``multi_get`` — buy those seeks back by
fetching spans of blocks with one
:meth:`~repro.storage.block_device.BlockDevice.read_blocks` request: a span
is admitted under a single device lock acquisition and charged one seek plus
sequential transfers no matter how many other readers interleave.

:class:`CoalescingReader` packages that pattern for one table file. It
composes with the block cache — cached blocks are served from memory and
spans split around them — and mirrors the per-block ``ProbeStats``
accounting of the ordinary read path, so experiments see identical logical
block counts whichever path served them.

Fault-injection note: when a read guard is installed on the device
(``device.guard is not None``) callers take the per-block guarded path
instead of this layer; retry and quarantine decisions are per block.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from repro.storage import sstable
from repro.storage.sstable import DataBlock, ProbeStats


class CoalescingReader:
    """Reads one table file's data blocks in coalesced multi-block spans.

    Args:
        device: the block device holding the file.
        file_id: the table's file.
        span: maximum blocks per coalesced device request (>= 1).
        cache: optional :class:`~repro.cache.block_cache.BlockCache`; hits
            are served from memory and freshly loaded blocks are inserted.
        stats: optional :class:`~repro.storage.sstable.ProbeStats` receiving
            the same per-block accounting the ordinary read path records.
        hash_index: build per-block hash indexes on parsed blocks (matches
            the owning table's configuration).
    """

    __slots__ = ("_device", "_file_id", "_span", "_cache", "_stats", "_hash_index")

    def __init__(
        self,
        device,
        file_id: int,
        span: int,
        cache=None,
        stats: Optional[ProbeStats] = None,
        hash_index: bool = False,
    ) -> None:
        if span < 1:
            raise ValueError("span must be >= 1")
        self._device = device
        self._file_id = file_id
        self._span = span
        self._cache = cache
        self._stats = stats
        self._hash_index = hash_index

    # -- streaming (merge iterators, range scans) ----------------------------

    def iter_blocks(self, first_block: int, last_block: int) -> Iterator[DataBlock]:
        """Yield parsed blocks ``first_block..last_block`` in order.

        Uncached stretches are fetched ``span`` blocks at a time; a cached
        block is served from memory and terminates the stretch before it
        (never re-read just to keep a span contiguous).
        """
        cache = self._cache
        block_no = first_block
        while block_no <= last_block:
            if cache is not None:
                cached = cache.get((self._file_id, block_no))
                if cached is not None:
                    self._note(from_cache=True)
                    yield cached
                    block_no += 1
                    continue
                block = self._from_compressed_tier(block_no)
                if block is not None:
                    yield block
                    block_no += 1
                    continue
            end = min(block_no + self._span - 1, last_block)
            if cache is not None:
                probe = block_no + 1
                while probe <= end and not cache.contains((self._file_id, probe)):
                    probe += 1
                end = probe - 1
            yield from self._load_span(block_no, end - block_no + 1)
            block_no = end + 1

    # -- batched point loads (multi_get) -------------------------------------

    def load_many(self, block_nos: Sequence[int]) -> Dict[int, DataBlock]:
        """Load an ascending list of distinct block numbers.

        Adjacent requested blocks are grouped into coalesced device requests
        (capped at ``span``); non-adjacent groups each pay their own seek,
        exactly as they would individually.
        """
        out: Dict[int, DataBlock] = {}
        pending: List[int] = []
        for block_no in block_nos:
            if self._cache is not None:
                cached = self._cache.get((self._file_id, block_no))
                if cached is not None:
                    self._note(from_cache=True)
                    out[block_no] = cached
                    continue
                block = self._from_compressed_tier(block_no)
                if block is not None:
                    out[block_no] = block
                    continue
            if pending and (
                block_no != pending[-1] + 1 or len(pending) >= self._span
            ):
                self._drain(pending, out)
            pending.append(block_no)
        if pending:
            self._drain(pending, out)
        return out

    # -- internals -----------------------------------------------------------

    def _drain(self, pending: List[int], out: Dict[int, DataBlock]) -> None:
        first = pending[0]
        for offset, block in enumerate(self._load_span(first, len(pending))):
            out[first + offset] = block
        pending.clear()

    def _open(self, payload) -> DataBlock:
        # Through the module, at call time: perf/tracing.py times block
        # opening by replacing ``sstable.parse_block``.
        return sstable.parse_block(payload, True, self._hash_index)

    def _from_compressed_tier(self, block_no: int) -> Optional[DataBlock]:
        """Open a block from the cache's compressed tier, if it is there.

        A hit costs CPU only — no device request — and promotes the opened
        block into the uncompressed tier so the next touch is free.
        """
        cache = self._cache
        get_compressed = getattr(cache, "get_compressed", None)
        if get_compressed is None:
            return None
        frame = get_compressed((self._file_id, block_no))
        if frame is None:
            return None
        block = self._open(frame)
        cache.put((self._file_id, block_no), block, block.charge_bytes)
        self._note(from_cache=True)
        return block

    def _load_span(self, first_block: int, count: int) -> List[DataBlock]:
        payloads = self._device.read_blocks(self._file_id, first_block, count)
        blocks: List[DataBlock] = []
        cache = self._cache
        put_compressed = getattr(cache, "put_compressed", None)
        for offset, payload in enumerate(payloads):
            block = self._open(payload)
            self._note(from_cache=False)
            if cache is not None:
                key = (self._file_id, first_block + offset)
                # Charge the decoded size, not the on-disk size: the budget
                # bounds resident memory (see DataBlock.charge_bytes).
                cache.put(key, block, block.charge_bytes)
                if put_compressed is not None:
                    put_compressed(key, payload)
            blocks.append(block)
        return blocks

    def _note(self, from_cache: bool) -> None:
        if self._stats is not None:
            self._stats.blocks_read += 1
            if from_cache:
                self._stats.cache_hits += 1
