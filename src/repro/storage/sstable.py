"""Sorted String Tables: the immutable sorted-run file format.

An SSTable is written once (by a flush or a compaction), sealed, and then only
read. On creation it packs entries into fixed-size data blocks and builds the
auxiliary structures the tutorial surveys:

* a **search index** over the data blocks — classic fence pointers by default,
  or any :class:`~repro.indexes.base.SearchIndex` (learned indexes, etc.);
* an optional **point filter** (Bloom and friends) consulted before any I/O;
* an optional **range filter** (prefix Bloom / SuRF / Rosetta / SNARF)
  consulted before range scans;
* an optional **per-block hash index** for O(1) in-block lookup.

Index and filter payloads are also written to the file as trailing blocks so
that flush/compaction write-amplification accounts for them, exactly as in
LevelDB/RocksDB; at read time the in-memory copies are used (the tutorial:
"such light-weight data structures are typically pre-fetched to memory").
The last of those blocks ends in a footer that records the table's data-block
format (see ``_FOOTER``); a table without an intact v2 footer is corrupt.

Data blocks are the v2 blocks of :mod:`repro.storage.block`, which also
decides whether entries fit one and what a stored block's first byte means.
"""

from __future__ import annotations

import bisect
import struct
import sys
import zlib
from dataclasses import dataclass
from itertools import accumulate, chain, islice, starmap
from operator import add, lt
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Union

from repro.common.entry import DELETE, Entry, approximate_sizes
from repro.errors import CorruptionError, ReproError, SimulatedCrashError, StorageError
from repro.storage.block import (
    Columns, DataBlock, budget, columns_of, encode_block_v2, encode_columns, fill_end,
    framed, parse_block, raw_size, running_budget,
)
from repro.storage.block_device import BlockDevice
from repro.storage.compression import Codec, get_codec

BLOCK_FORMAT_V2 = 2  # the data-block format a table footer records


# One is built per point read: slotted where dataclasses can (3.10+).
@dataclass(**({"slots": True} if sys.version_info >= (3, 10) else {}))
class ProbeStats:
    """Filter/index accounting for one or more point lookups."""

    filter_probes: int = 0
    filter_negatives: int = 0
    false_positives: int = 0
    index_probes: int = 0
    blocks_read: int = 0
    cache_hits: int = 0  # block accesses served from the block cache

    def merge(self, other: "ProbeStats") -> None:
        self.filter_probes += other.filter_probes
        self.filter_negatives += other.filter_negatives
        self.false_positives += other.false_positives
        self.index_probes += other.index_probes
        self.blocks_read += other.blocks_read
        self.cache_hits += other.cache_hits


class SSTable:
    """A sealed sorted run file and its in-memory auxiliary structures.

    Construct through :class:`SSTableBuilder`; never directly.
    """

    def __init__(
        self,
        device: BlockDevice,
        file_id: int,
        num_data_blocks: int,
        block_first_keys: List[bytes],
        block_last_keys: List[bytes],
        entry_count: int,
        tombstone_count: int,
        search_index,
        point_filter,
        range_filter,
        hash_index: bool,
        aux_blocks: int,
        uncompressed_data_bytes: int = 0,
        compressed_data_bytes: int = 0,
    ) -> None:
        self._device = device
        self.file_id = file_id
        # Per-table compression accounting (equal when uncompressed): the
        # raw payload bytes the data region *would* occupy vs. what it
        # actually does. The tree folds these into its ratio counters.
        self.uncompressed_data_bytes = uncompressed_data_bytes
        self.compressed_data_bytes = compressed_data_bytes
        self.num_data_blocks = num_data_blocks
        self._block_first_keys = block_first_keys
        self._block_last_keys = block_last_keys
        self.entry_count = entry_count
        self.tombstone_count = tombstone_count
        self.search_index = search_index
        self.point_filter = point_filter
        # Whether shared hashing can hand this filter a precomputed digest.
        self._digest_probes = hasattr(point_filter, "may_contain_digest")
        self.range_filter = range_filter
        self._hash_index = hash_index
        self.aux_blocks = aux_blocks
        self.hotness = 0  # access counter; used by ElasticBF and pickers
        self.refs = 0  # pin count: live tree + open snapshots (managed by LSMTree)
        self.born_at = 0  # flush tick when written (staleness clock; set by LSMTree)

    # -- metadata ------------------------------------------------------------

    @property
    def fence_keys(self) -> List[bytes]:
        """The decoded fence-pointer array: first key of each data block.

        Cached in memory for the table's lifetime (decoded once at build or
        recovery). Subcompaction planning bisects these to split a
        compaction's key space into block-aligned ranges.
        """
        return self._block_first_keys

    @property
    def min_key(self) -> bytes:
        return self._block_first_keys[0]

    @property
    def max_key(self) -> bytes:
        return self._block_last_keys[-1]

    @property
    def size_bytes(self) -> int:
        """Payload bytes on device (data + auxiliary blocks)."""
        return self._device.file_size(self.file_id)

    @property
    def memory_bytes(self) -> int:
        """In-memory footprint of the auxiliary structures."""
        total = sum(len(key) for key in self._block_first_keys)
        if self.search_index is not None:
            total += self.search_index.size_bytes
        if self.point_filter is not None:
            total += self.point_filter.size_bytes
        if self.range_filter is not None:
            total += self.range_filter.size_bytes
        return total

    def overlaps(self, lo: bytes, hi: bytes) -> bool:
        """True when the table's key range intersects the closed range [lo, hi]."""
        return not (hi < self.min_key or lo > self.max_key)

    # -- reads ---------------------------------------------------------------

    def get(
        self,
        key: bytes,
        stats: Optional[ProbeStats] = None,
        cache=None,
        digest: Optional[int] = None,
    ) -> Optional[Entry]:
        """Point lookup inside this run file.

        Returns the entry (possibly a tombstone) or None when absent. The
        filter is consulted first; a negative answer costs no I/O. When
        ``digest`` is given and the filter supports digest probes, the
        precomputed digest is reused (shared hashing, tutorial §II-B.2).
        """
        blocks = self._candidate_blocks(key, stats, digest)
        if blocks is None:
            return None
        for block_no in blocks:
            entry = self._load_block(block_no, cache, stats).find(key)
            if entry is not None:
                return entry
        if stats is not None and self.point_filter is not None:
            stats.false_positives += 1
        return None

    def iter_entries(
        self,
        start: Optional[bytes] = None,
        end: Optional[bytes] = None,
        cache=None,
        stats: Optional[ProbeStats] = None,
        readahead: int = 1,
    ) -> Iterator[Entry]:
        """The entries with ``start <= key <= end`` in key order, reading
        the blocks :meth:`iter_chunks` reads."""
        return chain.from_iterable(
            block[lo:hi] for block, lo, hi in self._windows(start, end, cache, stats, readahead)
        )

    def iter_chunks(
        self,
        start: Optional[bytes] = None,
        end: Optional[bytes] = None,
        cache=None,
        stats: Optional[ProbeStats] = None,
        readahead: int = 1,
    ) -> Iterator[Columns]:
        """The entries with ``start <= key <= end`` as
        :data:`~repro.storage.block.Columns`, non-empty and read-only, one
        data block at a time (:meth:`DataBlock.columns`: no entry is built).

        Blocks are fetched lazily so a consumer that stops early does not pay
        for the rest of the file. With ``readahead > 1`` a cache miss reads
        up to that many of the blocks ahead in the same device request
        (:meth:`_frame_source`) — one seek buys the whole stretch even when
        other threads interleave their own reads.
        """
        return starmap(DataBlock.columns, self._windows(start, end, cache, stats, readahead))

    def _windows(self, start, end, cache, stats, readahead):
        """``(block, lo, hi)`` for each data block holding keys in
        ``[start, end]``, loaded when the consumer reaches it: its slots
        ``[lo, hi)`` are the keys in range. One bisect of the block's key
        list per boundary block; interior blocks are taken whole."""
        first_block = 0 if start is None else self._first_block_for(start)
        last_block = self.num_data_blocks - 1
        if end is not None:
            # Blocks whose first key exceeds ``end`` cannot contribute.
            last_block = bisect.bisect_right(self._block_first_keys, end) - 1
        if last_block < first_block:
            return
        wanted = range(first_block, last_block + 1)
        frames = self._frame_source(wanted, readahead, cache)
        for block_no in wanted:
            block = self._load_block(block_no, cache, stats, frames)
            keys = block.keys_list()
            lo, hi = 0, len(keys)
            if start is not None and keys[0] < start:
                lo = bisect.bisect_left(keys, start)
            past_end = end is not None and keys[-1] > end
            if past_end:
                hi = bisect.bisect_right(keys, end, lo)
            if lo < hi:
                yield block, lo, hi
            if past_end:
                return

    def get_many(
        self,
        keys: Sequence[bytes],
        stats: Optional[ProbeStats] = None,
        cache=None,
        span: int = 8,
        digests: "Optional[dict[bytes, int]]" = None,
    ) -> "dict[bytes, Entry]":
        """Batched point lookup: resolve many keys, loading each block once.

        Phase one admits every key exactly as :meth:`get` would (filters,
        fence pointers; same per-key accounting) without touching the
        device; phase two searches each key's candidate blocks in key order,
        loading a block the first time a key needs it — one
        :meth:`_load_block` per distinct block, whose cache misses also read
        up to ``span - 1`` of the batch's candidate blocks that follow
        without a gap (:meth:`_frame_source`).

        ``digests`` maps keys to their shared filter digests (shared hashing;
        a key without one hashes itself, as in :meth:`get`). Returns a dict of
        ``key -> Entry`` (tombstones included) for the keys present in this
        table; absent keys are simply omitted.
        """
        candidates: "List[tuple[bytes, Sequence[int]]]" = []
        needed: "set[int]" = set()
        for key in keys:
            blocks = self._candidate_blocks(key, stats, digests.get(key) if digests else None)
            if blocks is not None:
                candidates.append((key, blocks))
                needed.update(blocks)
        frames = self._frame_source(sorted(needed), span, cache)
        loaded: "dict[int, DataBlock]" = {}
        out = {}
        for key, blocks in candidates:
            for block_no in blocks:
                block = loaded.get(block_no)
                if block is None:
                    block = loaded[block_no] = self._load_block(block_no, cache, stats, frames)
                entry = block.find(key)
                if entry is not None:
                    out[key] = entry
                    break
            else:
                if stats is not None and self.point_filter is not None:
                    stats.false_positives += 1
        return out

    def keys(self) -> Iterator[bytes]:
        """Yield every key in the table (used by filter rebuilds and tests)."""
        for entry in self.iter_entries():
            yield entry.key

    # -- lifecycle -----------------------------------------------------------

    def approximate_bytes(self, start: bytes, end: bytes) -> int:
        """On-device bytes of the blocks intersecting [start, end], estimated
        from fence metadata alone (no I/O)."""
        if not self.overlaps(start, end) or not self.num_data_blocks:
            return 0
        blocks = sum(
            1
            for block_no in range(self.num_data_blocks)
            if not (
                self._block_last_keys[block_no] < start
                or self._block_first_keys[block_no] > end
            )
        )
        return self.size_bytes * blocks // self.num_data_blocks

    def scrub(self) -> "tuple[int, List[str]]":
        """Re-read every data block from the device (bypassing the cache) and
        check checksums, sort order and fence agreement; returns
        ``(blocks_checked, findings)`` — findings empty for a healthy file."""
        findings: List[str] = []
        last_key: Optional[bytes] = None
        for block_no in range(self.num_data_blocks):
            try:
                entries = parse_block(self._device.read_block(self.file_id, block_no))
            except StorageError as exc:
                findings.append(f"block {block_no}: {exc}")
                continue
            for entry in entries:
                if last_key is not None and entry.key <= last_key:
                    findings.append(f"block {block_no}: keys out of order")
                    break
                last_key = entry.key
            if entries and (
                entries[0].key != self._block_first_keys[block_no]
                or entries[-1].key != self._block_last_keys[block_no]
            ):
                findings.append(f"block {block_no}: fence keys disagree with contents")
        return self.num_data_blocks, findings

    def delete(self) -> None:
        """Drop the file of a table never published (a failed build); a
        published table's file leaves through the tree's retire queue."""
        if self._device.file_exists(self.file_id):
            self._device.delete_file(self.file_id)

    # -- internals -----------------------------------------------------------

    def _first_block_for(self, key: bytes) -> int:
        """Index of the first block whose key range may include ``key``."""
        idx = bisect.bisect_left(self._block_last_keys, key)
        return min(idx, self.num_data_blocks - 1)

    def _candidate_blocks(
        self, key: bytes, stats: Optional[ProbeStats], digest: Optional[int] = None
    ) -> Optional[Sequence[int]]:
        """The admission step of every point read, single or batched: key
        range, filter, index, fence narrowing — no I/O. None when the key
        cannot be here (outside the range, or a filter negative); otherwise
        the data blocks to search, possibly none (a false positive). A
        broken filter or index degrades to probing more blocks."""
        first_keys = self._block_first_keys
        last_keys = self._block_last_keys
        if key < first_keys[0] or key > last_keys[-1]:
            return None
        point_filter = self.point_filter
        if point_filter is not None:
            if stats is not None:
                stats.filter_probes += 1
            try:
                if digest is not None and self._digest_probes:
                    positive = point_filter.may_contain_digest(digest)
                else:
                    positive = point_filter.may_contain(key)
            except ReproError:
                # Broken filter: its negatives cannot be trusted.
                positive = True
                self._note_degraded_read()
            if not positive:
                if stats is not None:
                    stats.filter_negatives += 1
                return None
        if stats is not None:
            stats.index_probes += 1
        index = self.search_index
        try:
            if index is not None:
                lo, hi = index.locate(key)
                if lo < 0:
                    lo = 0
                if hi >= len(last_keys):
                    hi = len(last_keys) - 1
            else:
                lo = hi = self._first_block_for(key)
        except ReproError:
            # Broken index: search every data block rather than fail the get.
            lo, hi = 0, self.num_data_blocks - 1
            self._note_degraded_read()
        if lo == hi:
            return (lo,) if first_keys[lo] <= key <= last_keys[lo] else ()
        return [b for b in range(lo, hi + 1) if first_keys[b] <= key <= last_keys[b]]

    def _note_degraded_read(self) -> None:
        guard = self._device.guard
        if guard:  # only a guard counts them; the fallback itself needs none
            guard.note_degraded_read()

    def _open(self, payload) -> DataBlock:
        # ``parse_block`` is looked up in the module on every call:
        # perf/tracing.py times the read path by replacing that name.
        return parse_block(payload, self._hash_index)

    def _open_charged(self, payload) -> "tuple[DataBlock, int, bool]":
        """A payload opened, its cache charge (the decoded size: the cache
        budget bounds resident memory), and whether the payload is a
        compressed frame worth keeping in the compressed tier."""
        block = self._open(payload)
        return block, block.charge_bytes, framed(payload)

    def _load_block(
        self, block_no: int, cache, stats: Optional[ProbeStats], frames=None
    ) -> DataBlock:
        """Every reader's one way to a data block: through the cache's
        two-tier load when a cache is given (it credits ``stats.cache_hits``
        where it serves the hit), else straight off the device. ``frames`` is
        the reader's :meth:`_frame_source`; without one a miss reads its own
        block."""
        if stats is not None:
            stats.blocks_read += 1
        key = (self.file_id, block_no)
        if cache is None:
            return self._open((frames or self._read_frame)(key))
        return cache.get_or_load_block(
            key, frames or self._read_frame, self._open_charged, stats
        )

    def _frame_source(self, wanted: Sequence[int], span: int, cache):
        """``frames`` for a reader that will load the ascending block numbers
        ``wanted``: None (every miss reads its own block) when ``span`` is 1,
        else a :class:`~repro.parallel.coalesce.FrameSource` whose misses
        also read ahead — up to ``span`` blocks per device request, over
        wanted blocks that are consecutive and in neither cache tier."""
        if span == 1:
            return None
        from repro.parallel.coalesce import FrameSource

        resident = cache.contains if cache is not None else None
        return FrameSource(self._read_frames, wanted, span, resident)

    def _read_frame(self, key: "tuple[int, int]") -> bytes:
        return self._read_frames(key, 1)[0]

    def _read_frames(self, key: "tuple[int, int]", count: int) -> Sequence[bytes]:
        """The one function that turns a block number into frames off the
        device, and the one place a read depends on whether a read guard is
        installed: unguarded, ``count`` consecutive raw frames in a single
        request; guarded, only the first — read, verified, retried and
        quarantined per block by :meth:`ReadGuard.read_parsed
        <repro.faults.guard.ReadGuard.read_parsed>`, whose typed errors
        (``TransientIOError``, ``CorruptionError``, ``QuarantinedFileError``)
        propagate to the reader."""
        device = self._device
        guard = device.guard
        if guard is not None:
            return (guard.read_parsed(device, key[0], key[1], self._open)[0],)
        if count == 1:
            return (device.read_block(*key),)
        return device.read_blocks(key[0], key[1], count)


# Factories let the engine plug in any index/filter without import cycles:
# they receive the full sorted key list plus each key's block number.
IndexFactory = Callable[[Sequence[bytes], Sequence[int]], object]
FilterFactory = Callable[[Sequence[bytes]], object]


# The table footer: the last bytes of a table's last auxiliary block (zero
# padding before it). A table without an intact one is corrupt.
_FOOTER = struct.Struct("<4sBI")  # magic, data-block format, data blocks
_FOOTER_MAGIC = b"\x89SST"
_FOOTER_SIZE = _FOOTER.size + 4  # + crc32 of the fields


def _encode_footer(data_blocks: int) -> bytes:
    fields = _FOOTER.pack(_FOOTER_MAGIC, BLOCK_FORMAT_V2, data_blocks)
    return fields + zlib.crc32(fields).to_bytes(4, "big")


def _read_footer(device: BlockDevice, file_id: int) -> int:
    """The number of data blocks a table's footer records.

    Raises:
        CorruptionError: when the file's last block ends in no intact
            footer, or in one that names a block format other than v2 or
            leaves no block for itself.
    """
    total = device.num_blocks(file_id)
    footer = device.read_block(file_id, total - 1)[-_FOOTER_SIZE:] if total else b""
    fields = footer[: _FOOTER.size]
    if (
        len(footer) < _FOOTER_SIZE
        or zlib.crc32(fields) != int.from_bytes(footer[_FOOTER.size :], "big")
        or not fields.startswith(_FOOTER_MAGIC)
    ):
        raise CorruptionError(f"file {file_id}: table footer damaged (last block {total - 1})")
    _, version, data_blocks = _FOOTER.unpack(fields)
    if version != BLOCK_FORMAT_V2 or not 0 < data_blocks < total:
        raise CorruptionError(
            f"file {file_id}: footer names block format {version} "
            f"over {data_blocks} of {total} blocks"
        )
    return data_blocks


def rebuild_sstable(
    device: BlockDevice,
    file_id: int,
    index_factory: Optional[IndexFactory] = None,
    filter_factory: Optional[FilterFactory] = None,
    range_filter_factory: Optional[FilterFactory] = None,
    hash_index: bool = False,
) -> SSTable:
    """Reconstruct an SSTable object from its on-device file (recovery path).

    Data blocks are scanned to recover keys and block boundaries; the
    in-memory auxiliary structures (fences, filters, indexes) are rebuilt by
    the supplied factories — the real-engine equivalent of loading the filter
    and index blocks. The footer at the end of the file gives the data-block
    count.

    Raises:
        CorruptionError: if the footer is missing, damaged or names another
            format, or a data block fails to open.
    """
    first_keys: List[bytes] = []
    last_keys: List[bytes] = []
    keys: List[bytes] = []
    block_of_key: List[int] = []
    entry_count = 0
    tombstones = 0
    uncompressed_bytes = 0
    compressed_bytes = 0
    data_blocks = _read_footer(device, file_id)
    for block_no in range(data_blocks):
        payload = device.read_block(file_id, block_no)
        entries = parse_block(payload)
        compressed_bytes += len(payload)
        uncompressed_bytes += raw_size(payload)
        first_keys.append(entries[0].key)
        last_keys.append(entries[-1].key)
        for entry in entries:
            keys.append(entry.key)
            block_of_key.append(block_no)
            entry_count += 1
            if entry.is_tombstone:
                tombstones += 1
    return SSTable(
        device=device,
        file_id=file_id,
        num_data_blocks=data_blocks,
        block_first_keys=first_keys,
        block_last_keys=last_keys,
        entry_count=entry_count,
        tombstone_count=tombstones,
        search_index=index_factory(keys, block_of_key) if index_factory else None,
        point_filter=filter_factory(keys) if filter_factory else None,
        range_filter=range_filter_factory(keys) if range_filter_factory else None,
        hash_index=hash_index,
        aux_blocks=device.num_blocks(file_id) - data_blocks,
        uncompressed_data_bytes=uncompressed_bytes,
        compressed_data_bytes=compressed_bytes,
    )


class SSTableBuilder:
    """Streams sorted entries into data blocks and builds the aux structures.

    Args:
        device: target block device.
        block_size: data-block payload budget (defaults to the device's).
        index_factory: builds the block search index from ``(keys, block_nos)``;
            None disables indexing (every lookup scans from a bisected guess).
        filter_factory: builds the point filter from the key list.
        range_filter_factory: builds the range filter from the key list.
        hash_index: attach a per-block hash map for O(1) in-block search.
        write_buffer_blocks: finished data blocks held back and appended as
            one coalesced span (:meth:`BlockDevice.append_blocks`); 1 (the
            default) appends each block immediately. Parallel subcompaction
            workers buffer so their interleaved appends to one shared
            device stay sequential instead of paying a head switch each.
        codec: block compression codec (a :class:`Codec` instance or a
            registry name); None or ``'none'`` writes raw blocks.
            Blocks the codec cannot shrink are stored uncompressed, so the
            per-table ratio counters reflect what actually hit the device.
    """

    def __init__(
        self,
        device: BlockDevice,
        block_size: Optional[int] = None,
        index_factory: Optional[IndexFactory] = None,
        filter_factory: Optional[FilterFactory] = None,
        range_filter_factory: Optional[FilterFactory] = None,
        hash_index: bool = False,
        write_buffer_blocks: int = 1,
        codec: "Optional[Union[Codec, str]]" = None,
    ) -> None:
        self._device = device
        self._block_size = block_size or device.block_size
        if self._block_size > device.block_size:
            raise ValueError("table block size cannot exceed device block size")
        self._index_factory = index_factory
        self._filter_factory = filter_factory
        self._range_filter_factory = range_filter_factory
        self._hash_index = hash_index
        if isinstance(codec, str):
            codec = get_codec(codec)
        self._codec = codec if codec is not None and codec.codec_id != 0 else None
        self._uncompressed_bytes = 0
        self._stored_bytes = 0
        if write_buffer_blocks < 1:
            raise ValueError("write_buffer_blocks must be at least 1")
        self._write_buffer_blocks = write_buffer_blocks
        self._write_buffer: List[bytes] = []

        self._file_id = device.create_file()
        # The pending block: the columns of the entries that joined it and
        # their packing budget.
        self._pending: Columns = ([], bytearray(), [], [])
        self._held = 0
        self._keys: List[bytes] = []
        self._block_of_key: List[int] = []
        self._block_first_keys: List[bytes] = []
        self._block_last_keys: List[bytes] = []
        self._tombstones = 0
        self._last_key: Optional[bytes] = None
        self._finished = False

    def add(self, entry: Entry) -> None:
        """Append the next entry; keys must arrive in strictly increasing
        order. A one-row :meth:`add_columns`."""
        self.add_columns((entry.key,), bytes((entry.kind,)), (entry.value,), (entry.seqno,))

    def add_all(self, entries) -> None:
        """Append every entry of an iterable, as one :meth:`add_columns` piece."""
        entries = list(entries)
        if entries:
            self.add_columns(*columns_of([entry.key for entry in entries], entries))

    def add_columns(
        self, keys: Sequence[bytes], kinds: bytes, values: Sequence[bytes], seqnos: Sequence[int]
    ) -> None:
        """Append a sorted piece: :data:`~repro.storage.block.Columns` (the
        seqnos decoded) whose keys strictly increase and follow every key
        added before. The one packing loop.

        The block module's fill rule (:func:`~repro.storage.block.fill_end`)
        places the entries: one running budget over the piece, one bisect
        per block. Each block it closes is written at once, so a build's
        writes keep their place among the reads of the merge that feeds it;
        the block the piece leaves open stays pending for the next piece.
        No entry is built.
        """
        if self._finished:
            raise RuntimeError("builder already finished")
        if not keys:
            return
        last_key = self._last_key
        if (last_key is not None and keys[0] <= last_key) or not all(
            map(lt, keys, islice(keys, 1, None))
        ):
            after = [last_key, *keys] if last_key is not None else list(keys)
            bad = next(i for i in range(1, len(after)) if after[i] <= after[i - 1])
            raise ValueError(
                f"entries must be added in strictly increasing key order "
                f"({after[bad]!r} after {after[bad - 1]!r})"
            )
        self._last_key = keys[-1]
        running = running_budget(map(add, map(len, keys), map(len, values)))
        block_size = self._block_size
        count = len(keys)
        start = 0
        while True:
            end = fill_end(running, start, self._held, block_size)
            held_keys, held_kinds, held_values, held_seqnos = self._pending
            held_keys += keys[start:end]
            held_kinds += kinds[start:end]
            held_values += values[start:end]
            held_seqnos += seqnos[start:end]
            if end == count:
                self._held += running[count] - running[start]
                return
            self._flush_block()  # the block closes before entry ``end``
            start = end

    @property
    def entry_count(self) -> int:
        return len(self._keys) + len(self._pending[0])

    def finish(self) -> SSTable:
        """Seal the file and return the readable table.

        Raises:
            ValueError: when no entries were added (empty tables are illegal;
                callers should simply skip creating them).
        """
        if self._finished:
            raise RuntimeError("builder already finished")
        if not self.entry_count:
            self._device.delete_file(self._file_id)
            raise ValueError("cannot build an empty SSTable")
        while self._pending[0]:
            self._flush_block()
        self._drain_writes()
        self._finished = True

        search_index = (
            self._index_factory(self._keys, self._block_of_key)
            if self._index_factory is not None
            else None
        )
        point_filter = (
            self._filter_factory(self._keys) if self._filter_factory is not None else None
        )
        range_filter = (
            self._range_filter_factory(self._keys)
            if self._range_filter_factory is not None
            else None
        )

        aux_blocks = self._write_aux_blocks(search_index, point_filter, range_filter)
        self._device.seal_file(self._file_id)
        return SSTable(
            device=self._device,
            file_id=self._file_id,
            num_data_blocks=len(self._block_first_keys),
            block_first_keys=self._block_first_keys,
            block_last_keys=self._block_last_keys,
            entry_count=len(self._keys),
            tombstone_count=self._tombstones,
            search_index=search_index,
            point_filter=point_filter,
            range_filter=range_filter,
            hash_index=self._hash_index,
            aux_blocks=aux_blocks,
            uncompressed_data_bytes=self._uncompressed_bytes,
            compressed_data_bytes=self._stored_bytes,
        )

    def abandon(self) -> None:
        """Discard a partially written table (compaction error paths)."""
        if not self._finished and self._device.file_exists(self._file_id):
            self._device.delete_file(self._file_id)
        self._finished = True

    # -- internals -----------------------------------------------------------

    def _flush_block(self) -> None:
        """Write the pending entries as one block; those it could not take
        stay pending, with their budget."""
        keys, kinds, values, seqnos = self._pending
        written = self._write_block(keys, kinds, values, seqnos)
        if written == len(keys):
            self._pending = ([], bytearray(), [], [])
            self._held = 0
        else:
            del keys[:written], kinds[:written], values[:written], seqnos[:written]
            self._held = budget(len(keys), sum(map(len, keys)) + sum(map(len, values)))

    def _write_block(self, keys, kinds, values, seqnos) -> int:
        """Write the longest head of these columns that encodes within the
        block size as one block and return how many entries it holds: all of
        them, unless the budget under-counts them (wide seqnos, offsets or
        ``kk`` cells) and the block closes before its last entries."""
        count = len(keys)
        codec = self._codec
        payload, uncompressed, stored = encode_columns(keys, kinds, values, seqnos, codec)
        while stored > self._block_size:
            if count == 1:
                raise ValueError(
                    f"an entry of {len(keys[0]) + len(values[0])} bytes "
                    f"encodes to {stored} bytes, over the {self._block_size}-byte block size"
                )
            count -= 1
            payload, uncompressed, stored = encode_columns(
                keys[:count], kinds[:count], values[:count], seqnos[:count], codec
            )
        self._uncompressed_bytes += uncompressed
        self._stored_bytes += stored
        if self._write_buffer_blocks > 1:
            self._write_buffer.append(payload)
            if len(self._write_buffer) >= self._write_buffer_blocks:
                self._drain_writes()
        else:
            self._device.append_block(self._file_id, payload)
        if count < len(keys):
            keys, kinds = keys[:count], kinds[:count]
        self._block_of_key += [len(self._block_first_keys)] * count
        self._keys += keys
        self._block_first_keys.append(keys[0])
        self._block_last_keys.append(keys[-1])
        self._tombstones += kinds.count(DELETE)
        return count

    def _drain_writes(self) -> None:
        if self._write_buffer:
            self._device.append_blocks(self._file_id, self._write_buffer)
            self._write_buffer = []

    def _write_aux_blocks(self, search_index, point_filter, range_filter) -> int:
        """Persist index/filter payload sizes as trailing blocks, the last of
        which ends in the table footer (``_FOOTER``).

        The in-memory structures are authoritative at read time; these writes
        exist so flush/compaction write-amplification includes the auxiliary
        data, as it does in real engines. The footer takes the place of the
        padding's last bytes, so the region only grows when it would be
        shorter than the footer.
        """
        aux_bytes = sum(len(key) for key in self._block_first_keys)
        for structure in (search_index, point_filter, range_filter):
            if structure is not None:
                aux_bytes += structure.size_bytes
        chunks = []
        remaining = max(aux_bytes, _FOOTER_SIZE)
        while remaining > 0:
            chunk = min(remaining, self._block_size)
            chunks.append(chunk)
            remaining -= chunk
        chunks[-1] = max(chunks[-1], _FOOTER_SIZE)
        footer = _encode_footer(len(self._block_first_keys))
        for number, chunk in enumerate(chunks, 1):
            if number < len(chunks):
                self._device.append_block(self._file_id, b"\x00" * chunk)
            else:
                self._device.append_block(self._file_id, bytes(chunk - _FOOTER_SIZE) + footer)
        return len(chunks)


def build_tables(
    pieces: Iterable[Columns],
    new_builder: Callable[[], "SSTableBuilder"],
    file_limit: Optional[int],
) -> List[SSTable]:
    """Write sorted unique-key :data:`~repro.storage.block.Columns` (the
    seqnos decoded), piece by piece, into one or more table files — the one
    build loop flushes, serial merges and every subcompaction range run.

    A new file starts whenever ``file_limit`` approximate bytes have been
    written (:func:`~repro.common.entry.approximate_sizes`, what
    :attr:`Entry.approximate_size <repro.common.entry.Entry.approximate_size>`
    counts; None keeps one file): the entry that reaches it is the file's
    last, found by one bisect of the piece's running total. On failure every
    output, finished or partial, is deleted before the error propagates —
    except for a simulated crash, which freezes the device as-is so recovery
    has real orphans.
    """
    tables: List[SSTable] = []
    builder: Optional[SSTableBuilder] = None
    written = 0
    try:
        for keys, kinds, values, seqnos in pieces:
            count = len(keys)
            if file_limit is not None:
                running = list(accumulate(approximate_sizes(keys, values), initial=0))
            start = 0
            while start < count:
                if builder is None:
                    builder = new_builder()
                    written = 0
                stop = count
                if file_limit is not None:
                    goal = file_limit - written + running[start]
                    stop = min(bisect.bisect_left(running, goal, start + 1), count)
                    written += running[stop] - running[start]
                builder.add_columns(
                    keys[start:stop], kinds[start:stop], values[start:stop], seqnos[start:stop]
                )
                if file_limit is not None and written >= file_limit:
                    tables.append(builder.finish())
                    builder = None
                start = stop
        if builder is not None:
            tables.append(builder.finish())
            builder = None
        return tables
    except SimulatedCrashError:
        raise
    except BaseException:
        if builder is not None:
            builder.abandon()
        for table in tables:
            table.delete()
        raise
