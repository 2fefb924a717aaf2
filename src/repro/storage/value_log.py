"""WiscKey-style key-value separation: an append-only value log.

The tutorial (§II-A.2) notes that separating keys from values improves
ingestion and compaction at the expense of extra accesses for queries. The
LSM then stores small :class:`ValuePointer` records; each pointer dereference
costs one (typically random) block read, which is exactly the tradeoff E12
measures. Garbage collection copies the values the LSM still references out
of the sealed segments; the tree deletes a copied segment only after the
relocations are logged and a manifest no longer lists it.

Values are stored as the WAL's frames (:mod:`repro.storage.wal`): a packed
frame of records fills one block, a jumbo record is a frame of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.entry import Entry, EntryKind
from repro.errors import CorruptionError
from repro.storage.block import budget
from repro.storage.block_device import BlockDevice
from repro.storage.wal import frame_size, read_frame, walk_frames, write_frame


@dataclass(frozen=True)
class ValuePointer:
    """Locator of one value inside the log.

    ``(file, block, slot)`` addresses a record within a packed block;
    ``span > 1`` marks a jumbo value occupying ``span`` consecutive blocks
    by itself (values larger than one device block).
    """

    file_id: int
    block_no: int
    slot: int
    span: int = 1

    def encode(self) -> bytes:
        return b"%d:%d:%d:%d" % (self.file_id, self.block_no, self.slot, self.span)

    @staticmethod
    def decode(data: bytes) -> "ValuePointer":
        file_id, block_no, slot, span = (int(part) for part in data.split(b":"))
        return ValuePointer(file_id, block_no, slot, span)


class ValueLog:
    """Append-only log of values, packed into device blocks.

    Values are buffered and flushed one block at a time; a pointer becomes
    durable when its block is written. ``get`` costs one block read (served
    through the block cache when one is supplied).
    """

    def __init__(self, device: BlockDevice, segment_blocks: int = 256) -> None:
        if segment_blocks <= 0:
            raise ValueError("segment_blocks must be positive")
        self._device = device
        self._segment_blocks = segment_blocks
        self._file_id = device.create_file()
        self._pending: List[Entry] = []
        self._pending_data = self._pending_longest = 0  # key + value bytes, longest key
        self.garbage_bytes = 0
        self._live_bytes: Dict[int, int] = {self._file_id: 0}

    @property
    def current_file(self) -> int:
        return self._file_id

    def append(self, key: bytes, value: bytes) -> ValuePointer:
        """Append one value; returns its pointer. May trigger a block write.

        Values too large for one block take the jumbo path: they are written
        immediately across consecutive blocks and addressed by span.
        """
        record = Entry(key=key, seqno=0, kind=EntryKind.PUT, value=value)
        self._live_bytes[self._file_id] = self._live_bytes.get(self._file_id, 0) + len(value)
        if self._pending and not self._fits(key, value):
            self._flush_pending()
        if not self._fits(key, value):  # even a lone frame of it spans blocks
            first, span = write_frame(self._device, self._file_id, [record])
            return ValuePointer(self._file_id, first, 0, span)
        pointer = ValuePointer(self._file_id, self._device.num_blocks(self._file_id), len(self._pending))
        self._pending.append(record)
        self._pending_data += len(key) + len(value)
        self._pending_longest = max(self._pending_longest, len(key))
        return pointer

    def flush(self) -> None:
        """Force any buffered values to the device (called with memtable flush)."""
        if self._pending:
            self._flush_pending()
        if self._device.num_blocks(self._file_id) >= self._segment_blocks:
            self._roll_segment()

    def get(self, pointer: ValuePointer, cache=None) -> bytes:
        """Dereference a pointer, reading (or cache-hitting) its block span."""
        if pointer.file_id == self._file_id and pointer.span == 1:
            pending_block = self._device.num_blocks(self._file_id)
            if pointer.block_no == pending_block:
                return self._pending[pointer.slot].value

        def loader():
            return read_frame(self._device, pointer.file_id, pointer.block_no, pointer.span)

        if cache is not None:
            entries = cache.get_or_load(("vlog", pointer.file_id, pointer.block_no), loader)
        else:
            entries = loader()[0]
        return entries[pointer.slot].value  # decodes this one record

    def mark_dead(self, value_size: int, file_id: Optional[int] = None) -> None:
        """Record that a previously appended value is no longer referenced."""
        self.garbage_bytes += value_size
        if file_id is not None and file_id in self._live_bytes:
            self._live_bytes[file_id] = max(0, self._live_bytes[file_id] - value_size)

    def collect_garbage(
        self, is_live: Callable[[bytes, ValuePointer], bool]
    ) -> Tuple[Dict[ValuePointer, ValuePointer], List[int]]:
        """Copy the live values of every sealed segment to the log's head.

        The segments stay in :meth:`live_files` (so in every manifest) until
        the caller has made the relocations durable and calls :meth:`release`.

        Args:
            is_live: oracle (key, old_pointer) -> bool, typically a closure
                over the LSM that checks the key still points at ``old_pointer``.

        Returns:
            ``(relocations, segments)``: old pointer to relocated pointer,
            which the caller must re-install in the LSM, and the segments
            copied.
        """
        self.flush()
        relocations: Dict[ValuePointer, ValuePointer] = {}
        segments = sorted(fid for fid in self._live_bytes if fid != self._file_id)
        for file_id in segments:
            for record, old in self._scan_file(file_id):
                if is_live(record.key, old):
                    relocations[old] = self.append(record.key, record.value)
        self.garbage_bytes = 0
        self.flush()
        return relocations, segments

    def release(self, segments: List[int]) -> None:
        """Stop listing segments :meth:`collect_garbage` copied; the caller
        deletes them once no durable manifest lists them."""
        for file_id in segments:
            del self._live_bytes[file_id]

    def _scan_file(self, file_id: int):
        """Yield every (record, pointer) in a segment, jumbo-aware; the torn
        tail of an unsealed one (an append a crash cut short) ends it."""
        for first, span, records in walk_frames(self._device, file_id):
            if records is None:
                return
            for slot, record in enumerate(records):
                yield record, ValuePointer(file_id, first, slot, span)

    def key_of(self, pointer: ValuePointer) -> Optional[bytes]:
        """The key of the record a pointer addresses (None for a stale slot)."""
        if pointer.file_id == self._file_id and pointer.span == 1:
            if pointer.block_no == self._device.num_blocks(pointer.file_id) and (
                pointer.slot < len(self._pending)
            ):
                return self._pending[pointer.slot].key
        records = read_frame(self._device, pointer.file_id, pointer.block_no, pointer.span)[0]
        return records[pointer.slot].key if pointer.slot < len(records) else None

    def live_files(self) -> List[int]:
        """Every segment the log holds, in id order (for manifests)."""
        return sorted(self._live_bytes)

    def adopt(self, file_ids) -> None:
        """Track segments a recovered manifest lists (their garbage is unknown)."""
        for file_id in file_ids:
            if self._device.file_exists(file_id):
                self._live_bytes.setdefault(file_id, 0)

    # -- internals -----------------------------------------------------------

    def _fits(self, key: bytes, value: bytes) -> bool:
        """Whether the pending records and one more pack into one block, by
        the packing budget and at their frame's exact size."""
        count, data = len(self._pending) + 1, self._pending_data + len(key) + len(value)
        limit, longest = self._device.block_size, max(self._pending_longest, len(key))
        return budget(count, data) <= limit and frame_size(count, data, longest) <= limit

    def _flush_pending(self) -> None:
        write_frame(self._device, self._file_id, self._pending)
        self._pending = []
        self._pending_data = self._pending_longest = 0

    def _roll_segment(self) -> None:
        self._device.seal_file(self._file_id)
        self._file_id = self._device.create_file()
        self._live_bytes.setdefault(self._file_id, 0)


class ValueCodec:
    """How a tree with a value log stores values inside its entries: small
    ones inline behind a one-byte tag; those of at least ``threshold`` bytes
    in the log, the entry keeping a tagged :class:`ValuePointer`. (A tree
    without key-value separation has no codec and stores raw values.)"""

    INLINE = b"i"
    POINTER = b"p"
    #: The widest stored form of a log-bound value: the tag and a pointer
    #: whose four fields take 20 digits each, as any 64-bit count does.
    WIDEST_POINTER = len(POINTER) + len(b"%d:%d:%d:%d" % (((1 << 64) - 1,) * 4))

    def __init__(self, log: ValueLog, threshold: int, cache=None,
                 on_fetch: Optional[Callable[[], None]] = None) -> None:
        self.log = log
        self._threshold = threshold
        self._cache = cache
        self._on_fetch = on_fetch

    def encode(self, key: bytes, value: bytes) -> bytes:
        """The stored form of ``value``; large values are appended to the log."""
        if self.logs(value):
            return self.POINTER + self.log.append(key, value).encode()
        return self.INLINE + value

    def logs(self, value: bytes) -> bool:
        """Whether :meth:`encode` sends ``value`` to the log."""
        return len(value) >= self._threshold

    def decode(self, stored: bytes) -> bytes:
        """The user value behind a stored form (one log read for pointers)."""
        tag, payload = stored[:1], stored[1:]
        if tag == self.INLINE:
            return payload
        if tag == self.POINTER:
            if self._on_fetch is not None:
                self._on_fetch()
            return self.log.get(ValuePointer.decode(payload), cache=self._cache)
        raise CorruptionError(f"corrupt value tag {tag!r}")

    def pointer_of(self, stored: bytes) -> Optional[ValuePointer]:
        """The log pointer a stored form carries, or None for inline values."""
        if stored[:1] == self.POINTER:
            return ValuePointer.decode(stored[1:])
        return None
