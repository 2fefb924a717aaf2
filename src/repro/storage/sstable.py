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

One block encoding lives here, :func:`encode_block_v2` / :func:`parse_block`,
and it serves every stored list of entries: table data blocks, and the WAL
frames and value-log records that :mod:`repro.storage.wal` wraps in a length
prefix. Nothing guesses an encoding from content.
"""

from __future__ import annotations

import bisect
import collections.abc
import struct
import sys
import zlib
from array import array
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from operator import add, le, lshift, or_, rshift, sub
from typing import Callable, Iterator, List, Optional, Sequence, Union

from repro.common.encoding import decode_varint, encode_varint
from repro.common.entry import DELETE, Entry, EntryKind
from repro.errors import CorruptionError, ReproError, SimulatedCrashError, StorageError
from repro.storage.block_device import BlockDevice
from repro.storage.compression import FRAME_MAGIC as _FRAME_MAGIC, Codec, codec_by_id, get_codec

# **Blocks, v2** (``encode_block_v2``; every table ``SSTableBuilder`` writes,
# its footer says so, and every WAL frame and value-log record, never
# compressed) keep their structure in columns so that opening a block is a
# constant number of C-level checks rather than a walk over its entries. A
# table's entries are sorted by key; a log's are in append order and may
# repeat a key, and are read by slot, never searched. A block the codec
# shrinks is stored as a compressed frame
# (SegmentDB-style: sizes + data + checksum; the compressed size is implicit
# in the payload length):
#
#   raw:    | body                                           | crc32 (4) |
#   framed: | magic | codec_id | varint len(body) | codec(body) | crc32 (4) |
#   body:   | head | offsets[n] | kk[n] | seqnos[n] | key0 value0 key1 ... |
#
# ``head`` (bit 7 clear, so never the frame magic) gives the column widths:
# bits 0-3 the seqno width (0-8 bytes), bit 4 four-byte offsets (else two),
# bits 5-6 the ``kk`` width (1, 2 or 4 bytes). ``offsets[i]`` is where entry
# ``i``'s key starts in the body; entry ``i`` ends where ``i + 1`` starts (the
# last one at the body's end), so value lengths are implied and the entry
# count is ``(offsets[0] - 1)`` over the sum of the column widths. ``kk[i]``
# is ``key length << 2 | kind``: a kind is two bits and can never be out of
# range. Every column is little-endian. The CRC covers every preceding byte
# (of a frame: the *compressed* bytes plus header, so bit rot is caught before
# the codec runs), and byte 0 alone says whether the block is raw or framed.
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


# Estimated resident cost of one decoded Entry beyond its key/value bytes:
# the Entry object (four __slots__) plus two bytes-object headers. Used for
# cache charge accounting, where the budget must bound *decoded* memory.
_ENTRY_RESIDENT_OVERHEAD = 72
_BLOCK_RESIDENT_OVERHEAD = 56  # the DataBlock itself + entries list header


class DataBlock(collections.abc.Sequence):
    """One verified block: an immutable ``Sequence[Entry]``, sorted by key
    for table blocks, with an optional hash index for point lookups.

    :func:`parse_block` opens a block **in place**: it keeps the verified
    payload and its offsets, and decodes an entry the first time it is asked
    for (``find``, indexing, slicing, iteration), memoising it in its slot.
    Filling the last empty slot, by whichever path, drops the payload and
    offsets; the block is then the plain list of entries
    ``DataBlock(entries)`` builds directly.

    An opened block comes with its columns, so ``find`` on a freshly opened
    one bisects raw key slices; the key list is built the second time the
    block is searched, i.e. once it is being found again from the cache.

    Slots are filled with idempotent stores of equal entries, so readers
    sharing a cached block need no lock.
    """

    __slots__ = (
        "_entries", "_keys", "_charge", "_buf", "_offsets", "_cols", "_probed",
        "_hashed", "_hash_index",
    )

    def __init__(self, entries: Sequence[Entry], build_hash_index: bool = False) -> None:
        self._entries: List[Optional[Entry]] = (
            entries if entries.__class__ is list else list(entries)
        )
        self._keys: Optional[List[bytes]] = None  # built on first binary search
        self._charge: Optional[int] = None  # decoded resident size, computed once
        self._buf: Optional[bytes] = None
        self._offsets = None
        self._cols = None
        self._probed = False
        self._hashed = build_hash_index
        self._hash_index: Optional[dict] = None  # built on first find()

    @classmethod
    def _in_place(cls, buf: bytes, offsets, charge: int, hashed: bool, cols, count: int):
        """A block over ``buf``: ``offsets[i]`` is where entry ``i`` starts and
        ``offsets[count]`` where the last one ends; ``cols`` is ``(klens,
        kinds, seqno column start, seqno width)``."""
        block = cls.__new__(cls)
        block._entries = [None] * count
        block._keys = None
        block._charge = charge
        block._buf = buf
        block._offsets = offsets
        block._cols = cols
        block._probed = False
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
            buf, offsets, cols = self._buf, self._offsets, self._cols
            if cols is None or buf is None or offsets is None:
                keys = [entry.key for entry in self._entries]
            else:  # in place: one slice per key
                keys = [buf[start : start + klen] for start, klen in zip(offsets, cols[0])]
            self._keys = keys
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
                return self._find_unlisted(key)
            slot = bisect.bisect_left(keys, key)
            if slot == len(keys) or keys[slot] != key:
                return None
        entry = self._entries[slot]
        if entry is None:
            entry = self._fill(slot, slot + 1)[slot]
        return entry

    def _find_unlisted(self, key: bytes) -> Optional[Entry]:
        """``find`` before the key list exists. The first search of a block
        in place bisects raw key slices of the payload, building nothing; any
        later one builds the key list once, so a block found again from the
        cache is bisected in C."""
        buf, offsets, cols = self._buf, self._offsets, self._cols
        if cols is None or buf is None or offsets is None or self._probed:
            keys = self.keys_list()
            slot = bisect.bisect_left(keys, key)
            if slot == len(keys) or keys[slot] != key:
                return None
        else:
            self._probed = True
            klens = cols[0]
            lo, hi = 0, len(klens)
            while lo < hi:
                mid = (lo + hi) >> 1
                start = offsets[mid]
                if buf[start : start + klens[mid]] < key:
                    lo = mid + 1
                else:
                    hi = mid
            if lo == len(klens):
                return None
            start = offsets[lo]
            if buf[start : start + klens[lo]] != key:
                return None
            slot = lo
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

        Opening already proved every field in bounds and every kind valid,
        so nothing here can raise on a block that opened.
        """
        entries = self._entries
        offsets, buf, cols = self._offsets, self._buf, self._cols
        if offsets is None or buf is None or cols is None:
            return entries  # a concurrent reader filled the last slot
        keys = self._keys
        kinds = _ENTRY_KINDS
        make = Entry
        klens, kind_col, seqnos, width = cols
        from_bytes = int.from_bytes
        for slot in range(lo, hi):
            if entries[slot] is None:
                start = offsets[slot]
                value_at = start + klens[slot]
                pos = seqnos + slot * width
                entries[slot] = make(
                    buf[start:value_at] if keys is None else keys[slot],
                    from_bytes(buf[pos : pos + width], "little"),
                    kinds[kind_col[slot]],
                    buf[value_at : offsets[slot + 1]],
                )
        if all(entries):
            # Fully decoded, by whichever path filled the last slot: the
            # payload, offsets and columns have nothing left to give.
            self._offsets = None
            self._buf = None
            self._cols = None
        return entries


# Fixed-width little-endian columns go through ``array`` in both directions;
# these typecodes have these item sizes on every platform CPython supports.
_ARRAY_CODE = {1: "B", 2: "H", 4: "I", 8: "Q"}
_BIG_ENDIAN = sys.byteorder == "big"
_KK_WIDTHS = (1, 2, 4)  # bits 5-6 of a v2 head byte index this
_KK_OF_KLEN = bytes((b << 2) & 0xFF for b in range(256))  # klen < 64 only


def _le_column(values, width: int) -> bytes:
    """``values`` as one ``width``-byte little-endian unsigned int each: one
    ``array`` pass at the next item size up, then the surplus top byte of
    every item deleted by a strided slice (zero, since the width fits)."""
    itemsize = 1 if width <= 1 else 2 if width == 2 else 4 if width <= 4 else 8
    column = array(_ARRAY_CODE[itemsize], values)
    if _BIG_ENDIAN:
        column.byteswap()
    if itemsize == width:
        return column.tobytes()
    raw = bytearray(column.tobytes())
    for size in range(itemsize - 1, width - 1, -1):
        del raw[size :: size + 1]
    return bytes(raw)


def block_layout(count: int, data: int, longest_key: int, seqno_width: int) -> "tuple[int, int, int]":
    """``(head byte, offset width, data start)`` of the v2 block of ``count``
    entries whose keys and values total ``data`` bytes: ``kk`` cells widen at
    64 B and 16 KiB keys, offsets when the body would pass 64 KiB."""
    kk_code = 0 if longest_key < 0x40 else 1 if longest_key < 0x4000 else 2
    data_start = 1 + count * (2 + _KK_WIDTHS[kk_code] + seqno_width)
    if data_start + data <= 0xFFFF:
        return seqno_width | kk_code << 5, 2, data_start
    return seqno_width | 0x10 | kk_code << 5, 4, data_start + 2 * count


def encode_block_v2(
    entries: Sequence[Entry], codec: Optional[Codec] = None
) -> "tuple[bytes, int, int]":
    """Serialize non-empty entries into a v2 payload (the layout at the top
    of this module), compressed and framed when a codec is given and the
    frame comes out smaller than the raw payload. A table's entries are
    sorted by key; a log's are in append order and may repeat a key.

    Every column is built by C-level passes over the whole block (``array``,
    ``map``, ``accumulate``, ``join``), not a loop per entry.

    Returns:
        ``(payload, uncompressed_size, stored_size)``: the raw payload's size
        and ``len(payload)`` — the compression-ratio counters' inputs.
    """
    count = len(entries)
    if count == 1:  # one record (a WAL that syncs every put): no column passes
        entry = entries[0]
        key, seqno = entry.key, entry.seqno
        seqno_width = (seqno.bit_length() + 7) // 8
        head, offset_width, data_start = block_layout(1, len(key) + len(entry.value), len(key), seqno_width)
        cell = (len(key) << 2 | entry.kind).to_bytes(_KK_WIDTHS[head >> 5 & 3], "little")
        columns = (data_start.to_bytes(offset_width, "little"), cell, seqno.to_bytes(seqno_width, "little"))
        body = b"".join((bytes((head,)), *columns, key, entry.value))
    else:
        keys = [entry.key for entry in entries]
        seqnos = [entry.seqno for entry in entries]
        kinds = bytes([entry.kind for entry in entries])
        klens = list(map(len, keys))
        data = [b""] * (2 * count)
        data[::2] = keys
        data[1::2] = [entry.value for entry in entries]
        joined = b"".join(data)
        seqno_width = (max(seqnos).bit_length() + 7) // 8
        head, offset_width, data_start = block_layout(count, len(joined), max(klens), seqno_width)
        kk_width = _KK_WIDTHS[head >> 5 & 3]
        if kk_width == 1:  # the common case: every kk cell is one byte
            cells = int.from_bytes(bytes(klens).translate(_KK_OF_KLEN), "little")
            kk = (cells | int.from_bytes(kinds, "little")).to_bytes(count, "little")
        else:
            kk = _le_column(map(or_, map(lshift, klens, repeat(2)), kinds), kk_width)
        # Entry starts: every other running total of the key and value lengths.
        offsets = list(accumulate(map(len, data), initial=data_start))[:-1:2]
        columns = (_le_column(offsets, offset_width), kk, _le_column(seqnos, seqno_width))
        body = b"".join((bytes((head,)), *columns, joined))
    uncompressed_size = len(body) + 4
    if codec is not None and codec.codec_id != 0:
        frame = bytearray((_FRAME_MAGIC, codec.codec_id))
        frame += encode_varint(len(body))
        frame += codec.compress(body)
        if len(frame) + 4 < uncompressed_size:
            frame += zlib.crc32(frame).to_bytes(4, "big")
            return bytes(frame), uncompressed_size, len(frame)
    return body + zlib.crc32(body).to_bytes(4, "big"), uncompressed_size, uncompressed_size


_ENTRY_KINDS = tuple(EntryKind(i) for i in range(4))


_KIND_OF_KK = bytes(b & 3 for b in range(256))  # bytes.translate tables over
_KLEN_OF_KK = bytes(b >> 2 for b in range(256))  # one-byte kk cells


def parse_block(payload, hash_index: bool = False) -> DataBlock:
    """Inverse of :func:`encode_block_v2`: open a block for search in place,
    and the one place a stored block is verified.

    The checksum comes first, then the structure — entry count, field
    bounds, entry kinds, tombstones without a value — each proved by a
    constant number of C-level operations, never a loop over the entries, so
    the returned block never raises later. The entries stay packed in the
    (decompressed) payload until ``find``, indexing, slicing or iteration asks
    for them (see :class:`DataBlock`). A raw block references the caller's
    ``bytes`` payload rather than copying it (anything else is copied once).
    ``find`` searches a table's sorted block; a log block is read by slot
    and by iteration only.

    Args:
        payload: the stored bytes of one block.
        hash_index: ``find`` uses a per-block hash map (built on its first
            call) instead of binary search.

    Raises:
        CorruptionError: on any damage, and on nothing else.
    """
    if payload.__class__ is not bytes:
        payload = bytes(payload)
    n = len(payload)
    if n < 6:
        raise CorruptionError(f"block of {n} bytes is too short")
    view = memoryview(payload)
    if zlib.crc32(view[: n - 4]) != int.from_bytes(view[n - 4 :], "big"):
        raise CorruptionError("block checksum mismatch")
    if payload[0] != _FRAME_MAGIC:
        return _open_columns(payload, n - 4, hash_index)
    codec = codec_by_id(payload[1])
    try:
        size, pos = decode_varint(view[: n - 4], 2)
        body = codec.decompress(view[pos : n - 4], size)
    except ValueError as exc:
        raise CorruptionError(f"invalid compressed frame: {exc}") from exc
    if body.__class__ is not bytes:
        body = bytes(body)  # a registered codec may hand back any buffer
    return _open_columns(body, len(body), hash_index)


def _open_columns(body: bytes, end: int, hash_index: bool) -> DataBlock:
    """Check and open the v2 body ``body[:end]``. Proves, without a walk over
    the entries: the entry count (the offset column's length), every field in
    bounds (one pass over the offsets), every kind valid (two bits of a
    ``kk`` cell, extracted by ``bytes.translate``), tombstones without a
    value (a ``find`` loop over the tombstones only) and the cache charge
    (the data region's length)."""
    head = body[0] if end else 0x80
    seqno_width = head & 0x0F
    offset_width = 4 if head & 0x10 else 2
    kk_code = head >> 5 & 3
    if head & 0x80 or seqno_width > 8 or kk_code == 3:
        raise CorruptionError(f"invalid block head {head:#04x}")
    if offset_width == 2 and end > 0xFFFF:
        raise CorruptionError("block head disagrees with the payload size")
    kk_width = _KK_WIDTHS[kk_code]
    data_start = int.from_bytes(body[1 : 1 + offset_width], "little")
    count, stray = divmod(data_start - 1, offset_width + kk_width + seqno_width)
    if stray or count < 1 or data_start > end:
        raise CorruptionError(f"offset column disagrees with the entry count ({data_start})")
    kk_at = 1 + count * offset_width
    seqnos_at = kk_at + count * kk_width
    offsets = array(_ARRAY_CODE[offset_width])
    offsets.frombytes(body[1:kk_at])
    kk = body[kk_at:seqnos_at]
    if kk_width == 1:
        kinds = kk.translate(_KIND_OF_KK)
        klens = kk.translate(_KLEN_OF_KK)
    else:
        kinds = kk[::kk_width].translate(_KIND_OF_KK)
        cells = array(_ARRAY_CODE[kk_width])
        cells.frombytes(kk)
        if _BIG_ENDIAN:
            cells.byteswap()
        klens = array(cells.typecode, map(rshift, cells, repeat(2)))
    if _BIG_ENDIAN:
        offsets.byteswap()
    offsets.append(end)
    # Entry i's key must end by where entry i + 1 starts: with offsets[0] the
    # data start and offsets[count] the body's end, this one pass puts every
    # key and value inside the data region. Keys of one length (the usual
    # block) need only the smallest gap between offsets.
    if klens.count(klens[0]) == count:
        fits = min(map(sub, offsets[1:], offsets)) >= klens[0]
    else:
        fits = all(map(le, map(add, offsets, klens), offsets[1:]))
    if not fits:
        raise CorruptionError("entry fields overrun their offsets")
    tombstone = kinds.find(1)
    while tombstone >= 0:
        if offsets[tombstone] + klens[tombstone] != offsets[tombstone + 1]:
            raise CorruptionError("tombstones carry no value")
        tombstone = kinds.find(1, tombstone + 1)
    charge = _BLOCK_RESIDENT_OVERHEAD + count * _ENTRY_RESIDENT_OVERHEAD + end - data_start
    return DataBlock._in_place(
        body, offsets, charge, hash_index, (klens, kinds, seqnos_at, seqno_width), count
    )


#: The bytes budgeted per entry beyond its key and value wherever entries are
#: packed into one block: ``SSTableBuilder``'s split rule, the value log's
#: packing (``ValueLog._fits``) and the write path's one-block check
#: (``write_path._check_fits``). In a block under 64 KiB, packed value-log
#: records with keys under 16 KiB (seqno 0: 2 bytes of offset and at most 2
#: of ``kk`` cell each) plus head, CRC and prefix (at most 8) take at most
#: 12 x n; elsewhere ``ValueLog`` also checks a frame's exact size.
ENTRY_OVERHEAD = 12
_BLOCK_HEAD_SIZE = 1  # the v2 head byte, which every block has once


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
        compressed frame worth keeping in the compressed tier (byte 0 says)."""
        block = self._open(payload)
        return block, block.charge_bytes, payload[0] == _FRAME_MAGIC

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
        if payload[0] == _FRAME_MAGIC:
            # The frame header declares the body's decoded size; +4 restores
            # the raw payload size the ratio counters compare against.
            uncompressed_bytes += 4 + decode_varint(payload, 2)[0]
        else:
            uncompressed_bytes += len(payload)
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
        self._pending: List[Entry] = []
        self._pending_size = _BLOCK_HEAD_SIZE
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

        size = len(key) + len(entry.value) + ENTRY_OVERHEAD
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
        payload, uncompressed, stored = encode_block_v2(self._pending, self._codec)
        if stored > self._block_size:
            # The split rule budgets ENTRY_OVERHEAD (12) bytes per
            # entry; v2's columns take 7 for a seqno below 2**32 and a key
            # below 64 bytes, which leaves room for the head and checksum.
            # Blocks are never re-split here: the rule alone places entries.
            raise ValueError(
                f"data block of {len(self._pending)} entries encodes to {stored} bytes, "
                f"over the {self._block_size}-byte block size"
            )
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
        self._tombstones += [entry.kind for entry in self._pending].count(DELETE)
        self._pending = []
        self._pending_size = _BLOCK_HEAD_SIZE

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
