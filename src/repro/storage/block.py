"""Blocks: the one encoding of every stored list of entries, and the one
size rule.

A sorted run is a sequence of fixed-size data blocks, and a block is the unit
that fence pointers index and that a read fetches (tutorial §II-A.1). One
encoding, :func:`encode_block_v2` / :func:`parse_block`, serves every stored
list of entries: table data blocks, and the WAL frames and value-log records
that :mod:`repro.storage.wal` wraps in a length prefix. Nothing guesses an
encoding from content.

This module alone decides whether entries fit a block:
:func:`block_bytes` is the exact raw size of a v2 block, :func:`entry_fits`
checks one entry against it (every write passes it before it is logged), and
:func:`budget` is the packing budget the table builder and the value log fill
blocks by. It alone knows what byte 0 of a stored block means
(:func:`framed`, :func:`raw_size`).
"""

from __future__ import annotations

import bisect
import collections.abc
import struct
import sys
import zlib
from array import array
from functools import lru_cache, partial
from itertools import accumulate, repeat
from operator import add, attrgetter, le, lshift, or_, rshift, sub
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.common.encoding import decode_varint, encode_varint
from repro.common.entry import KINDS, Entry
from repro.errors import CorruptionError
from repro.storage.compression import FRAME_MAGIC as _FRAME_MAGIC, Codec, codec_by_id

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
    Scans and merges read a block as :data:`Columns` (:meth:`columns`),
    cut from the payload without building an entry.

    Slots are filled with idempotent stores of equal entries, so readers
    sharing a cached block need no lock.
    """

    __slots__ = (
        "_entries", "_keys", "_charge", "_buf", "_offsets", "_cols", "_probed",
        "_hashed", "_hash_index", "_stride", "_scanned", "_values", "_seqnos", "_whole",
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
        self._stride = ()
        self._scanned = False  # read as columns before
        self._values = None  # the whole value and seqno columns, decoded
        self._seqnos = None  # when the block is read as columns again
        self._whole = None  # all four columns, once every entry is decoded

    @classmethod
    def _in_place(
        cls, buf: bytes, offsets, charge: int, hashed: bool, cols, count: int, stride
    ):
        """A block over ``buf``: ``offsets[i]`` is where entry ``i`` starts and
        ``offsets[count]`` where the last one ends; ``cols`` is ``(klens,
        kinds, seqno column start, seqno width)``; ``stride`` is ``(key
        length, value length)`` when every entry has both, else ``()``."""
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
        block._stride = stride
        block._scanned = False
        block._values = None
        block._seqnos = None
        block._whole = None
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
            else:
                stride = self._stride
                count = len(self._entries)
                if stride and count <= _UNPACK_MOST:  # one struct unpack
                    keys = list(_unpacker(*stride, count, False).unpack_from(buf, offsets[0]))
                else:  # one slice per key
                    keys = [buf[start : start + klen] for start, klen in zip(offsets, cols[0])]
            self._keys = keys
        return keys

    def columns(self, lo: int, hi: int) -> "Columns":
        """Slots ``[lo, hi)`` as :data:`Columns`, without building an entry:
        slices of the key list and of the kind column, the values cut from
        the payload (one struct unpack when every entry has the same key and
        value lengths) and the seqnos as a function that decodes them when a
        merge needs them. The first read decodes only its window; a block
        read again — found in the cache — decodes its value and seqno
        columns whole, once, and is only sliced from then on."""
        keys = (self._keys or self.keys_list())[lo:hi]
        buf, offsets, cols = self._buf, self._offsets, self._cols
        if cols is None or buf is None or offsets is None:  # decoded: its entries' columns
            whole = self._whole
            if whole is None:
                whole = self._whole = columns_of(self.keys_list(), self._entries)
            return keys, whole[1][lo:hi], whole[2][lo:hi], whole[3][lo:hi]
        klens, kinds, at, width = cols
        values = self._values
        if values is None:
            if not self._scanned:
                self._scanned = True
                return keys, kinds[lo:hi], self._value_slice(buf, offsets, klens, lo, hi), partial(
                    _seqno_column, buf, at + lo * width, width, hi - lo
                )
            values = self._values = self._value_slice(buf, offsets, klens, 0, len(klens))
        seqnos = self._seqnos
        if seqnos is None:
            return keys, kinds[lo:hi], values[lo:hi], partial(self._seqno_window, lo, hi)
        return keys, kinds[lo:hi], values[lo:hi], seqnos[lo:hi]

    def _value_slice(self, buf: bytes, offsets, klens, lo: int, hi: int) -> Sequence[bytes]:
        stride = self._stride
        if stride and hi - lo <= _UNPACK_MOST:
            return _unpacker(*stride, hi - lo, True).unpack_from(buf, offsets[lo])
        starts = map(add, offsets[lo:hi], klens[lo:hi])
        return [buf[start:stop] for start, stop in zip(starts, offsets[lo + 1 : hi + 1])]

    def _seqno_window(self, lo: int, hi: int) -> List[int]:
        """Slots ``[lo, hi)``'s seqnos, the whole column decoded once."""
        seqnos = self._seqnos
        if seqnos is None:
            buf, cols = self._buf, self._cols
            if buf is None or cols is None:  # decoded meanwhile
                return [entry.seqno for entry in self._entries[lo:hi]]
            _, _, at, width = cols
            seqnos = self._seqnos = _seqno_column(buf, at, width, len(self._entries))
        return seqnos[lo:hi]

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
        payload beside what has been decoded so far — entries, or the key,
        value and seqno columns scans read — which stays under twice this
        number and ends when the last slot fills (``_fill``).
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
        kinds = KINDS
        make = Entry
        if hi - lo > 1 and not any(entries[lo:hi]):  # a whole window: by columns
            keys, kind_col, values, seqnos = self.columns(lo, hi)
            if callable(seqnos):
                seqnos = seqnos()
            entries[lo:hi] = map(make, keys, seqnos, map(kinds.__getitem__, kind_col), values)
            lo = hi
        keys = self._keys
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
            self._values = None
            self._seqnos = None
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


#: A sorted window of entries as parallel columns, what scans and merges
#: read (:meth:`DataBlock.columns`, :func:`columns_of`): ``(keys, kinds,
#: values, seqnos)`` — the kinds as one byte each, the seqnos as a sequence
#: or as a function that decodes them.
Columns = Tuple[
    Sequence[bytes], bytes, Sequence[bytes],
    Union[Sequence[int], Callable[[], Sequence[int]]],
]

_kind_of = attrgetter("kind")
_value_of = attrgetter("value")
_seqno_of = attrgetter("seqno")


def columns_of(keys: Sequence[bytes], entries: Sequence[Entry]) -> Columns:
    """Entries (a decoded block's, an in-memory buffer's window) and their
    keys as :data:`Columns`."""
    return (
        keys, bytes(map(_kind_of, entries)), list(map(_value_of, entries)),
        list(map(_seqno_of, entries)),
    )


#: The most entries one cached struct unpacks (≈ 10 KB of struct each at
#: this count); a wider window of tiny entries is sliced entry by entry.
_UNPACK_MOST = 256


@lru_cache(maxsize=256)
def _unpacker(klen: int, vlen: int, count: int, values: bool) -> struct.Struct:
    """The struct that reads ``count`` entries of ``klen``-byte keys and
    ``vlen``-byte values laid end to end: their keys, or their values."""
    pair = f"{klen}x{vlen}s" if values else f"{klen}s{vlen}x"
    return struct.Struct(pair * count)


@lru_cache(maxsize=256)
def _progression(start: int, step: int, count: int, width: int) -> bytes:
    """The offset column of ``count`` entries of ``step`` bytes each from
    ``start``: what a block whose entries all have one size stores."""
    return _le_column(range(start, start + step * count, step), width)


def _seqno_column(buf: bytes, at: int, width: int, count: int) -> List[int]:
    """``count`` little-endian ``width``-byte seqnos from ``buf[at:]``: one
    ``array`` pass, over a copy widened to the next item size when the width
    has none (zero top bytes, by strided slice assignment)."""
    if not width:
        return [0] * count
    raw = buf[at : at + count * width]
    size = 1 if width == 1 else 2 if width == 2 else 4 if width <= 4 else 8
    if size != width:
        wide = bytearray(count * size)
        for byte in range(width):
            wide[byte::size] = raw[byte::width]
        raw = wide
    column = array(_ARRAY_CODE[size], raw)
    if _BIG_ENDIAN:
        column.byteswap()
    return column.tolist()


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
    # block) need only the smallest gap between offsets, and when every
    # entry also has one value length (an offset column equal, byte for
    # byte, to the progression it implies) ``DataBlock.columns`` unpacks
    # them with one struct.
    stride = ()
    klen = klens[0]
    if klens.count(klen) == count:
        step, uneven = divmod(end - data_start, count)
        if step and not uneven and body[1:kk_at] == _progression(
            data_start, step, count, offset_width
        ):
            fits = step >= klen
            stride = (klen, step - klen)
        else:
            fits = min(map(sub, offsets[1:], offsets)) >= klen
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
        body, offsets, charge, hash_index, (klens, kinds, seqnos_at, seqno_width), count, stride
    )



#: The bytes budgeted per entry beyond its key and value wherever entries are
#: packed into one block (:func:`budget`): the table builder's fill policy
#: and the value log's packing. In a block under 64 KiB, packed value-log
#: records with keys under 16 KiB (seqno 0: 2 bytes of offset and at most 2
#: of ``kk`` cell each) plus head, CRC and prefix (at most 8) take at most
#: 12 x n; elsewhere the value log also checks a frame's exact size.
ENTRY_OVERHEAD = 12
#: The most a one-entry block adds to its key and value: the head, a 4-byte
#: offset, a 4-byte ``kk`` cell, an 8-byte seqno and the CRC.
_WIDEST_ONE_ENTRY = 1 + 4 + 4 + 8 + 4
#: The largest seqno the seqno column holds (eight bytes wide).
WIDEST_SEQNO = (1 << 64) - 1


def budget(count: int, data: int) -> int:
    """The packing budget of ``count`` entries whose keys and values total
    ``data`` bytes. A packer fills a block by it; it is not a size
    (:func:`block_bytes` is), so a packer also checks what it writes."""
    return data + count * ENTRY_OVERHEAD


def block_bytes(count: int, data: int, longest_key: int, seqno: int) -> int:
    """The exact raw size of the v2 block of ``count`` entries whose keys and
    values total ``data`` bytes, whose longest key is ``longest_key`` bytes
    and whose largest seqno is ``seqno``. A compressed frame is stored only
    when it is smaller, so no stored block is larger."""
    seqno_width = (seqno.bit_length() + 7) // 8
    return block_layout(count, data, longest_key, seqno_width)[2] + data + 4


def entry_fits(key_size: int, value_size: int, seqno: int, block_size: int) -> bool:
    """Whether an entry of a ``key_size``-byte key, a ``value_size``-byte
    stored value and seqno ``seqno`` fits a ``block_size``-byte block alone:
    the one check every write passes before it is logged. Most entries
    are far below the widest one-entry overhead, and pay one comparison."""
    data = key_size + value_size
    return (
        data + _WIDEST_ONE_ENTRY <= block_size
        or block_bytes(1, data, key_size, seqno) <= block_size
    )


def framed(payload) -> bool:
    """Whether a stored block is a compressed frame, not a raw block."""
    return payload[0] == _FRAME_MAGIC


def raw_size(payload) -> int:
    """The raw payload size of a stored block: its own length when raw; for
    a compressed frame the body size its header declares, plus the CRC."""
    if payload[0] != _FRAME_MAGIC:
        return len(payload)
    return 4 + decode_varint(payload, 2)[0]
