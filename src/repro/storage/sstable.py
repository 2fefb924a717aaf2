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
"""

from __future__ import annotations

import bisect
import collections.abc
import sys
import zlib
from array import array
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence, Union

from repro.common.encoding import decode_varint, encode_varint
from repro.common.entry import Entry, EntryKind
from repro.errors import CorruptionError, ReproError, SimulatedCrashError, StorageError
from repro.storage.block_device import BlockDevice
from repro.storage.compression import (
    FRAME_MAGIC as _FRAME_MAGIC,
    Codec,
    codec_by_id,
    get_codec,
    is_compressed_frame,
)

# Compressed-frame layout (SegmentDB-style: sizes + data + checksum; the
# compressed size is implicit in the payload length):
#
#   +-------+----------+---------------------+-----------------+-----------+
#   | magic | codec_id | varint uncompressed | compressed data | crc32 (4) |
#   +-------+----------+---------------------+-----------------+-----------+
#
# The trailing CRC covers every preceding byte, i.e. the *compressed* payload
# plus its header, so bit rot is detected before the codec runs. Legacy
# blocks (and every block written with compression='none') keep the seed
# layout ``crc32 | body``; parse_block() accepts both, so files written
# before this format — and WAL/value-log blocks, which never compress —
# keep working unchanged.


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


# Estimated resident cost of one decoded Entry beyond its key/value bytes:
# the Entry object (four __slots__) plus two bytes-object headers. Used for
# cache charge accounting, where the budget must bound *decoded* memory.
_ENTRY_RESIDENT_OVERHEAD = 72
_BLOCK_RESIDENT_OVERHEAD = 56  # the DataBlock itself + entries list header


class DataBlock(collections.abc.Sequence):
    """One verified data block: an immutable ``Sequence[Entry]``, sorted by
    key for table blocks, with an optional hash index for point lookups.

    :func:`parse_block` opens a block **in place**: it keeps the verified
    payload, the key list and one packed offset per entry, and decodes an
    entry the first time it is asked for (``find``, indexing, slicing,
    iteration), memoising it in its slot. Filling the last empty slot, by
    whichever path, drops the payload and offsets; the block is then the
    plain list of entries ``DataBlock(entries)`` builds directly.

    Slots are filled with idempotent stores of equal entries, so readers
    sharing a cached block need no lock.
    """

    __slots__ = ("_entries", "_keys", "_charge", "_buf", "_offsets", "_hashed", "_hash_index")

    def __init__(self, entries: Sequence[Entry], build_hash_index: bool = False) -> None:
        self._entries: List[Optional[Entry]] = (
            entries if entries.__class__ is list else list(entries)
        )
        self._keys: Optional[List[bytes]] = None  # built on first binary search
        self._charge: Optional[int] = None  # decoded resident size, computed once
        self._buf: Optional[bytes] = None
        self._offsets = None
        self._hashed = build_hash_index
        self._hash_index: Optional[dict] = None  # built on first find()

    @classmethod
    def _in_place(cls, buf: bytes, offsets, keys: List[bytes], charge: int, hashed: bool):
        """A block over ``buf``: ``offsets[i]`` is where entry ``i``'s seqno
        starts (just past its key, which is already ``keys[i]``)."""
        block = cls.__new__(cls)
        block._entries = [None] * len(keys)
        block._keys = keys
        block._charge = charge
        block._buf = buf
        block._offsets = offsets
        block._hashed = hashed
        block._hash_index = None
        return block

    # -- search ----------------------------------------------------------------

    def keys_list(self) -> List[bytes]:
        """The block's sorted key list, decoded once and cached.

        Cached blocks are probed and window-sliced many times; rebuilding
        this list per access dominated the point-read profile.
        """
        keys = self._keys
        if keys is None:
            keys = self._keys = [entry.key for entry in self._entries]
        return keys

    def find(self, key: bytes) -> Optional[Entry]:
        """Locate ``key`` via the hash index when present, else binary search;
        decodes (once) only the entry it returns."""
        if self._hashed:
            index = self._hash_index
            if index is None:
                keys = self.keys_list()
                index = self._hash_index = dict(zip(keys, range(len(keys))))
            slot = index.get(key)
            if slot is None:
                return None
        else:
            keys = self._keys
            if keys is None:
                keys = self.keys_list()
            slot = bisect.bisect_left(keys, key)
            if slot == len(keys) or keys[slot] != key:
                return None
        entry = self._entries[slot]
        if entry is None:
            entry = self._fill(slot, slot + 1)[slot]
        return entry

    # -- the sequence ------------------------------------------------------------

    @property
    def entries(self) -> List[Entry]:
        """Every entry, as a list (decodes whatever is still missing)."""
        if self._buf is not None:
            self._fill(0, len(self._entries))
        return self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Entry]:
        return iter(self.entries)

    def __getitem__(self, index):
        entries = self._entries
        if self._buf is None:
            return entries[index]
        if index.__class__ is slice:
            window = entries[index]
            if all(window):  # nothing missing (an Entry is always truthy)
                return window
            lo, hi, step = index.indices(len(entries))
            if step != 1:
                return self.entries[index]
            return self._fill(lo, hi)[index]
        entry = entries[index]
        if entry is None:
            slot = index + len(entries) if index < 0 else index
            entry = self._fill(slot, slot + 1)[slot]
        return entry

    def __eq__(self, other) -> bool:
        if isinstance(other, DataBlock):
            return self.entries == other.entries
        if isinstance(other, (list, tuple)):
            return self.entries == list(other)
        return NotImplemented

    __hash__ = None  # a mutable-looking sequence: compare, never hash

    def __repr__(self) -> str:
        state = "decoded" if self._buf is None else "in place"
        return f"<DataBlock {len(self._entries)} entries, {state}>"

    @property
    def charge_bytes(self) -> int:
        """Resident (decoded) size for cache accounting.

        This is what the block costs once every entry is decoded — key and
        value bytes plus per-entry object overhead — **not** its on-device
        size, and the same number whether the block is in place or decoded
        (so eviction order does not depend on which). Compressed files
        would otherwise let the uncompressed cache tier hold several times
        its configured budget in decoded memory. A block in place holds its
        payload beside the entries decoded so far, which stays under twice
        this number and ends when the last slot fills (``_fill``).
        """
        charge = self._charge
        if charge is None:
            charge = _BLOCK_RESIDENT_OVERHEAD
            for entry in self._entries:
                charge += len(entry.key) + len(entry.value) + _ENTRY_RESIDENT_OVERHEAD
            self._charge = charge
        return charge

    # -- internals -----------------------------------------------------------

    def _fill(self, lo: int, hi: int) -> List[Entry]:
        """Decode the still-empty slots of ``[lo, hi)``; returns the slot list.

        The structural pass at open already proved every field in bounds and
        every kind valid, so nothing here can raise on a block that opened.
        """
        entries = self._entries
        offsets = self._offsets
        buf = self._buf
        if offsets is None or buf is None:
            return entries  # a concurrent reader filled the last slot
        keys = self._keys
        kinds = _ENTRY_KINDS
        make = Entry
        for slot in range(lo, hi):
            if entries[slot] is None:
                pos = offsets[slot]
                seqno = buf[pos]
                pos += 1
                if seqno & 0x80:
                    seqno &= 0x7F
                    shift = 7
                    while True:
                        byte = buf[pos]
                        pos += 1
                        seqno |= (byte & 0x7F) << shift
                        if not byte & 0x80:
                            break
                        shift += 7
                kind = kinds[buf[pos]]
                size = buf[pos + 1]
                pos += 2
                if size & 0x80:
                    size, pos = decode_varint(buf, pos - 1)
                entries[slot] = make(keys[slot], seqno, kind, buf[pos : pos + size])
        if all(entries):
            # Fully decoded, by whichever path filled the last slot: the
            # payload and offsets have nothing left to give.
            self._offsets = None
            self._buf = None
        return entries


def _encode_body(entries: Sequence[Entry]) -> bytearray:
    """Pack entries into the (uncompressed) block body.

    One flat loop with bound locals and no call per field: a varint below
    0x80 is its own byte, so key/value lengths are appended directly (only a
    wide one pays an ``encode_varint`` call) and the seqno's LEB128 bytes are
    appended in place (this runs once per block per flush/compaction, inside
    the write path).
    """
    body = bytearray(encode_varint(len(entries)))
    varint = encode_varint
    append = body.append
    for entry in entries:
        key = entry.key
        value = entry.value
        seqno = entry.seqno
        size = len(key)
        if size < 0x80:
            append(size)
        else:
            body += varint(size)
        body += key
        while seqno > 0x7F:  # seqnos outgrow one byte after 127 writes
            append(seqno & 0x7F | 0x80)
            seqno >>= 7
        append(seqno)
        append(entry.kind)
        size = len(value)
        if size < 0x80:
            append(size)
        else:
            body += varint(size)
        body += value
    return body


def encode_block(
    entries: Sequence[Entry], codec: Optional[Codec] = None
) -> "tuple[bytes, int, int]":
    """Serialize entries into an on-device payload, optionally compressed.

    With no codec (or the ``none`` codec) the legacy ``crc32 | body`` layout
    is emitted, bit-identical to pre-compression files. Otherwise the block
    is compressed and framed (see ``_FRAME_MAGIC``); blocks the codec cannot
    shrink below their legacy size are stored in the legacy layout instead —
    a per-block decision :func:`parse_block` resolves transparently — so a
    compressed table is never larger than an uncompressed one.

    Returns:
        ``(payload, uncompressed_size, stored_size)`` where the sizes are the
        legacy payload size and ``len(payload)`` — the compression-ratio
        counters' inputs.
    """
    body = _encode_body(entries)
    uncompressed_size = 4 + len(body)
    if codec is not None and codec.codec_id != 0:
        compressed = codec.compress(bytes(body))
        frame = bytearray((_FRAME_MAGIC, codec.codec_id))
        frame += encode_varint(len(body))
        frame += compressed
        if len(frame) + 4 < uncompressed_size:
            frame += zlib.crc32(frame).to_bytes(4, "big")
            return bytes(frame), uncompressed_size, len(frame)
    payload = zlib.crc32(body).to_bytes(4, "big") + bytes(body)
    return payload, uncompressed_size, uncompressed_size


def serialize_block(entries: Sequence[Entry], codec: Optional[Codec] = None) -> bytes:
    """Serialize entries into the on-device block payload.

    The payload is checksummed, so every consumer of :func:`parse_block` —
    data blocks, value-log blocks, WAL frames — detects bit rot (verified by
    the fault-injection tests and the integrity scrubber). Pass a
    :class:`~repro.storage.compression.Codec` to emit a compressed frame.
    """
    return encode_block(entries, codec)[0]


_ENTRY_KINDS = tuple(EntryKind(i) for i in range(4))


def _index_body(buf: bytes, pos: int, hash_index: bool) -> DataBlock:
    """The structural pass: validate the body at ``buf[pos:]`` (``varint
    count`` + packed entries) field by field without building a single entry.

    Yields what searching the block in place needs: the key list, one packed
    offset per entry and the cache charge the decoded block would carry.
    """
    n = len(buf)
    keys: List[bytes] = []
    add_key = keys.append
    offsets = array("H" if n <= 0xFFFF else "I")
    add_offset = offsets.append
    payload_bytes = 0
    try:
        count = buf[pos]
        pos += 1
        if count & 0x80:
            count, pos = decode_varint(buf, pos - 1)
        for _ in range(count):
            size = buf[pos]
            pos += 1
            if size & 0x80:
                size, pos = decode_varint(buf, pos - 1)
            end = pos + size
            if end > n:
                raise ValueError("truncated length-prefixed field")
            add_key(buf[pos:end])
            add_offset(end)
            payload_bytes += size
            pos = end
            while buf[pos] & 0x80:  # the seqno varint: skipped, not decoded
                pos += 1
            kind_byte = buf[pos + 1]
            if kind_byte > 3:
                raise CorruptionError(f"invalid entry kind {kind_byte}")
            size = buf[pos + 2]
            pos += 3
            if size & 0x80:
                size, pos = decode_varint(buf, pos - 1)
            if size:
                pos += size
                if pos > n:
                    raise ValueError("truncated length-prefixed field")
                if kind_byte == 1:
                    raise ValueError("tombstones carry no value")
                payload_bytes += size
    except IndexError:
        raise ValueError("truncated entry") from None
    charge = _BLOCK_RESIDENT_OVERHEAD + count * _ENTRY_RESIDENT_OVERHEAD + payload_bytes
    return DataBlock._in_place(buf, offsets, keys, charge, hash_index)


def _parse_legacy(buf: bytes, hash_index: bool) -> DataBlock:
    """Open a ``crc32 | body`` payload. The checksum is verified *after* the
    body is read, preserving the legacy contract that truncation surfaces as
    ``ValueError`` (spanning consumers like the value log's jumbo scan retry
    with more blocks)."""
    block = _index_body(buf, 4, hash_index)
    if zlib.crc32(memoryview(buf)[4:]) != int.from_bytes(buf[:4], "big"):
        raise CorruptionError("block checksum mismatch")
    return block


def _parse_framed(buf: bytes, hash_index: bool) -> DataBlock:
    """Open a compressed frame; raises only CorruptionError on any damage."""
    view = memoryview(buf)
    n = len(view)
    stored_crc = int.from_bytes(view[n - 4 :], "big")
    if zlib.crc32(view[: n - 4]) != stored_crc:
        raise CorruptionError("compressed block checksum mismatch")
    codec = codec_by_id(view[1])
    try:
        uncompressed_size, pos = decode_varint(view, 2)
        if pos > n - 4:
            raise ValueError("frame header overruns payload")
        body = codec.decompress(view[pos : n - 4], uncompressed_size)
        if body.__class__ is not bytes:
            body = bytes(body)  # a registered codec may hand back any buffer
        return _index_body(body, 0, hash_index)
    except CorruptionError:
        raise
    except ValueError as exc:
        # The checksum passed but the content is unusable: either a one-in-
        # 2^32 legacy-block collision (the caller falls back) or mis-framed
        # data. Both are corruption from this layer's point of view.
        raise CorruptionError(f"invalid compressed frame: {exc}") from exc


def parse_block(payload, detect_frames: bool = True, hash_index: bool = False) -> DataBlock:
    """Inverse of :func:`serialize_block`, and the one place a payload is
    verified; accepts legacy and framed blocks.

    Everything that can be wrong with a payload — checksum, entry count,
    field bounds, entry kinds, a tombstone carrying a value — is rejected
    here, so the returned block never raises later. The block is searched
    **in place**: the entries stay packed in the (decompressed) payload until
    ``find``, indexing, slicing or iteration asks for them (see
    :class:`DataBlock`). An uncompressed block references the caller's
    ``bytes`` payload rather than copying it.

    A payload that *looks* framed (magic byte + known codec id) is decoded
    through its codec; its trailing CRC disambiguates the one-in-2^32 legacy
    block whose leading checksum happens to mimic a frame header — on frame
    corruption the intact-legacy interpretation is tried before giving up.

    Args:
        payload: the on-device bytes (any bytes-like object; anything but
            ``bytes`` is copied once).
        detect_frames: consumers that never write compressed frames *and*
            parse partial payloads (the value log's jumbo spans) pass False,
            both skipping the header probe and keeping truncation errors
            typed as ``ValueError`` — a frame-looking prefix must extend,
            not quarantine.
        hash_index: ``find`` uses a per-block hash map (built on its first
            call) instead of binary search.

    Raises:
        CorruptionError: when the checksum does not match under either
            layout, or decompression fails.
        ValueError: on truncated legacy input (spanning consumers retry with
            more blocks; see the value log's jumbo scan).
    """
    if not payload:
        return DataBlock([], hash_index)
    n = len(payload)
    if n < 4:
        raise CorruptionError(f"block of {n} bytes is too short")
    if payload.__class__ is not bytes:
        payload = bytes(payload)  # blocks are immutable: own the buffer
    if detect_frames and is_compressed_frame(payload):
        try:
            return _parse_framed(payload, hash_index)
        except CorruptionError as framed_err:
            # Frame-detecting consumers hand in whole payloads, so a valid
            # legacy block parses fully here; any failure — including
            # truncation — means the payload is a damaged frame.
            try:
                return _parse_legacy(payload, hash_index)
            except (CorruptionError, ValueError):
                raise framed_err from None
    return _parse_legacy(payload, hash_index)


#: Upper bound on one serialized entry beyond its key and value bytes: the
#: kind byte plus three varints (lengths and seqno).
_ENTRY_ENCODED_OVERHEAD = 12


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
        # legacy payload bytes the data region *would* occupy vs. what it
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
        """Yield entries with ``start <= key <= end`` in key order
        (:meth:`iter_chunks`, flattened)."""
        for _, entries in self.iter_chunks(start, end, cache, stats, readahead):
            yield from entries

    def iter_chunks(
        self,
        start: Optional[bytes] = None,
        end: Optional[bytes] = None,
        cache=None,
        stats: Optional[ProbeStats] = None,
        readahead: int = 1,
    ) -> Iterator["tuple[List[bytes], List[Entry]]"]:
        """Yield ``(keys, entries)`` — the entries with ``start <= key <= end``
        and their keys, as parallel non-empty read-only lists — one data
        block at a time.

        Blocks are fetched lazily so a consumer that stops early does not pay
        for the rest of the file. With ``readahead > 1`` a cache miss reads
        up to that many of the blocks ahead in the same device request
        (:meth:`_frame_source`) — one seek buys the whole stretch even when
        other threads interleave their own reads.
        """
        first_block = 0 if start is None else self._first_block_for(start)
        last_block = self.num_data_blocks - 1
        if end is not None:
            # Blocks whose first key exceeds ``end`` cannot contribute.
            last_block = bisect.bisect_right(self._block_first_keys, end) - 1
        if last_block < first_block:
            return
        wanted = range(first_block, last_block + 1)
        frames = self._frame_source(wanted, readahead, cache)
        # Instead of testing the range per entry, bisect the key list once
        # per boundary block — decoding only that window of it — and hand
        # interior blocks over whole; the per-entry dispatch this removes
        # dominated long-scan and merge profiles.
        for block_no in wanted:
            block = self._load_block(block_no, cache, stats, frames)
            keys = block.keys_list()
            lo, hi = 0, len(keys)
            if start is not None and keys[0] < start:
                lo = bisect.bisect_left(keys, start)
            past_end = end is not None and keys[-1] > end
            if past_end:
                hi = bisect.bisect_right(keys, end, lo)
            if hi - lo == len(keys):
                yield keys, block.entries
            elif lo < hi:
                yield keys[lo:hi], block[lo:hi]
            if past_end:
                return

    def get_many(
        self,
        keys: Sequence[bytes],
        stats: Optional[ProbeStats] = None,
        cache=None,
        span: int = 8,
    ) -> "dict[bytes, Entry]":
        """Batched point lookup: resolve many keys, loading each block once.

        Phase one admits every key exactly as :meth:`get` would (filters,
        fence pointers; same per-key accounting) without touching the
        device; phase two searches each key's candidate blocks in key order,
        loading a block the first time a key needs it — one
        :meth:`_load_block` per distinct block, whose cache misses also read
        up to ``span - 1`` of the batch's candidate blocks that follow
        without a gap (:meth:`_frame_source`).

        Returns a dict of ``key -> Entry`` (tombstones included) for the
        keys present in this table; absent keys are simply omitted.
        """
        candidates: "List[tuple[bytes, Sequence[int]]]" = []
        needed: "set[int]" = set()
        for key in keys:
            blocks = self._candidate_blocks(key, stats)
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
            except (StorageError, ValueError) as exc:
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
        """Drop the underlying file (called when a compaction obsoletes it)."""
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
        return parse_block(payload, True, self._hash_index)

    def _open_charged(self, payload) -> "tuple[DataBlock, int]":
        """A payload opened and paired with its cache charge (the decoded
        size: the cache budget bounds resident memory)."""
        block = self._open(payload)
        return block, block.charge_bytes

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
    and index blocks. Auxiliary padding blocks (zero-filled) terminate the
    data region.

    Raises:
        ValueError: if the file holds no data blocks.
    """
    first_keys: List[bytes] = []
    last_keys: List[bytes] = []
    keys: List[bytes] = []
    block_of_key: List[int] = []
    entry_count = 0
    tombstones = 0
    uncompressed_bytes = 0
    compressed_bytes = 0
    total_blocks = device.num_blocks(file_id)
    data_blocks = 0
    for block_no in range(total_blocks):
        payload = device.read_block(file_id, block_no)
        if not payload.strip(b"\x00"):
            break  # zero-filled auxiliary padding: end of the data region
        entries = parse_block(payload)
        if not entries:
            break
        compressed_bytes += len(payload)
        if is_compressed_frame(payload):
            # The frame header declares the body's decoded size; +4 restores
            # the legacy payload size the ratio counters compare against.
            uncompressed_bytes += 4 + decode_varint(payload, 2)[0]
        else:
            uncompressed_bytes += len(payload)
        data_blocks += 1
        first_keys.append(entries[0].key)
        last_keys.append(entries[-1].key)
        for entry in entries:
            keys.append(entry.key)
            block_of_key.append(block_no)
            entry_count += 1
            if entry.is_tombstone:
                tombstones += 1
    if not data_blocks:
        raise ValueError(f"file {file_id} holds no data blocks")
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
        aux_blocks=total_blocks - data_blocks,
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
            registry name); None or ``'none'`` writes the legacy layout.
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
        self._pending: List[Entry] = []
        self._pending_size = len(encode_varint(0))
        self._keys: List[bytes] = []
        self._block_of_key: List[int] = []
        self._block_first_keys: List[bytes] = []
        self._block_last_keys: List[bytes] = []
        self._tombstones = 0
        self._last_key: Optional[bytes] = None
        self._finished = False

    def add(self, entry: Entry) -> None:
        """Append the next entry; keys must arrive in strictly increasing order.

        Only order, size and the pending block are touched per entry; the
        key list, block numbers and counts are settled a block at a time in
        :meth:`_flush_block`.
        """
        if self._finished:
            raise RuntimeError("builder already finished")
        key = entry.key
        last_key = self._last_key
        if last_key is not None and key <= last_key:
            raise ValueError(
                f"entries must be added in strictly increasing key order "
                f"({key!r} after {last_key!r})"
            )
        self._last_key = key

        size = len(key) + len(entry.value) + _ENTRY_ENCODED_OVERHEAD
        pending = self._pending
        if pending and self._pending_size + size > self._block_size:
            self._flush_block()
            pending = self._pending
        pending.append(entry)
        self._pending_size += size

    def add_all(self, entries) -> None:
        """Convenience: add every entry from an iterable."""
        for entry in entries:
            self.add(entry)

    @property
    def entry_count(self) -> int:
        return len(self._keys) + len(self._pending)

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
        if self._pending:
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
        payload, uncompressed, stored = encode_block(self._pending, self._codec)
        self._uncompressed_bytes += uncompressed
        self._stored_bytes += stored
        if self._write_buffer_blocks > 1:
            self._write_buffer.append(payload)
            if len(self._write_buffer) >= self._write_buffer_blocks:
                self._drain_writes()
        else:
            self._device.append_block(self._file_id, payload)
        keys = [entry.key for entry in self._pending]
        self._block_of_key += [len(self._block_first_keys)] * len(keys)
        self._keys += keys
        self._block_first_keys.append(keys[0])
        self._block_last_keys.append(keys[-1])
        self._tombstones += [entry.kind for entry in self._pending].count(EntryKind.DELETE)
        self._pending = []
        self._pending_size = len(encode_varint(0))

    def _drain_writes(self) -> None:
        if self._write_buffer:
            self._device.append_blocks(self._file_id, self._write_buffer)
            self._write_buffer = []

    def _write_aux_blocks(self, search_index, point_filter, range_filter) -> int:
        """Persist index/filter payload sizes as trailing blocks.

        The in-memory structures are authoritative at read time; these writes
        exist so flush/compaction write-amplification includes the auxiliary
        data, as it does in real engines.
        """
        aux_bytes = sum(len(key) for key in self._block_first_keys)
        for structure in (search_index, point_filter, range_filter):
            if structure is not None:
                aux_bytes += structure.size_bytes
        blocks = 0
        remaining = aux_bytes
        while remaining > 0:
            chunk = min(remaining, self._block_size)
            self._device.append_block(self._file_id, b"\x00" * chunk)
            remaining -= chunk
            blocks += 1
        return blocks


def build_tables(
    entries: Iterator[Entry],
    new_builder: Callable[[], "SSTableBuilder"],
    file_limit: Optional[int],
) -> List[SSTable]:
    """Write sorted unique-key entries into one or more table files — the one
    build loop flushes, serial merges and every subcompaction range run.

    A new file starts whenever ``file_limit`` approximate bytes have been
    written (None keeps one file). On failure every output, finished or
    partial, is deleted before the error propagates — except for a simulated
    crash, which freezes the device as-is so recovery has real orphans.
    """
    tables: List[SSTable] = []
    builder: Optional[SSTableBuilder] = None
    written = 0
    try:
        for entry in entries:
            if builder is None:
                builder = new_builder()
                written = 0
            builder.add(entry)
            written += entry.approximate_size
            if file_limit is not None and written >= file_limit:
                tables.append(builder.finish())
                builder = None
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
