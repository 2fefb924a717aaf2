"""Write-ahead log: durability for buffered (memtable) entries.

Every production LSM engine pairs its in-memory buffer with a WAL so that a
crash loses nothing the application was told is durable. Each group commit
writes one *frame* holding the pending records; frames start on block
boundaries and may span multiple blocks, so records of any size (including
jumbo values logged raw for the kv-separation path) are durable. A flush
seals the current log and starts a fresh one, so recovery only replays logs
newer than the last flush.

The frame is the one log format, shared with the value log: ``varint len |
v2 block`` (:func:`~repro.storage.block.encode_block_v2`, never
compressed), written by :func:`write_frame`, read back by its span with
:func:`read_frame`, and walked in file order by :func:`walk_frames`.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.common.encoding import decode_varint, encode_varint
from repro.common.entry import Entry
from repro.errors import CorruptionError
from repro.storage.block import DataBlock, block_bytes, encode_block_v2, parse_block
from repro.storage.block_device import BlockDevice


def write_frame(device: BlockDevice, file_id: int, entries: Sequence[Entry]) -> Tuple[int, int]:
    """Append ``entries`` (in order, non-empty) as one frame starting on a
    block boundary; returns its ``(first block, span)``."""
    block = encode_block_v2(entries)[0]
    return device.append_payload(file_id, encode_varint(len(block)) + block)


def frame_size(count: int, data: int, longest_key: int) -> int:
    """The bytes :func:`write_frame` stores for ``count`` entries of seqno 0
    whose keys and values total ``data`` bytes."""
    block = block_bytes(count, data, longest_key, 0)
    return len(encode_varint(block)) + block


def read_frame(device: BlockDevice, file_id: int, first: int, span: int) -> Tuple[DataBlock, int]:
    """The frame at ``(first, span)``: its opened block and its stored size
    (a block cache's charge for it).

    Raises:
        CorruptionError: on any damage to the frame.
    """
    payload = device.read_payload(file_id, first, span)
    return _open_frame(payload, file_id, first), len(payload)


def walk_frames(
    device: BlockDevice, file_id: int
) -> Iterator[Tuple[int, int, Optional[DataBlock]]]:
    """Yield ``(first block, span, block)`` for every frame of a log file, in
    file order, reading each block once.

    A frame whose span runs past the end of an *unsealed* file is a torn
    tail, the remains of an append a crash interrupted: it comes last, with
    ``block`` None. Past the end of a sealed file, which was complete when
    it was sealed, the same overrun is corruption.

    Raises:
        CorruptionError: on a damaged frame, or an overrun in a sealed file.
    """
    total = device.num_blocks(file_id)
    first = 0
    while first < total:
        head = device.read_block(file_id, first)
        length, offset = _frame_length(head, file_id, first)
        span = -(-(offset + length) // device.block_size)
        if first + span > total:
            if device.is_sealed(file_id):
                raise CorruptionError(
                    f"log {file_id}: frame at block {first} overruns the sealed file"
                )
            yield first, span, None
            return
        if span > 1:
            head += device.read_payload(file_id, first + 1, span - 1)
        yield first, span, _open_frame(head, file_id, first)
        first += span


def _frame_length(payload: bytes, file_id: int, first: int) -> Tuple[int, int]:
    """``(block length, where the block starts)`` from a frame's prefix."""
    try:
        return decode_varint(payload)
    except ValueError:
        raise CorruptionError(
            f"log {file_id}: unreadable frame length at block {first}"
        ) from None


def _open_frame(payload: bytes, file_id: int, first: int) -> DataBlock:
    """Open the frame that is all of ``payload`` (its whole span: a frame
    starts on a block boundary and nothing follows it in its last block)."""
    length, offset = _frame_length(payload, file_id, first)
    if offset + length != len(payload):
        raise CorruptionError(
            f"log {file_id}: frame at block {first} disagrees with its length prefix"
        )
    return parse_block(payload[offset:])


class WriteAheadLog:
    """An append-only frame log over device blocks.

    Args:
        device: the shared block device.
        sync_interval: records buffered before a group commit; 1 syncs every
            record (slow, zero loss window), larger intervals trade a bounded
            loss window for fewer I/Os — exactly the production knob.
    """

    def __init__(self, device: BlockDevice, sync_interval: int = 32) -> None:
        if sync_interval < 1:
            raise ValueError("sync_interval must be at least 1")
        if device.block_size < 8:
            raise ValueError("WAL frames need blocks of at least 8 bytes")
        self._device = device
        self._sync_interval = sync_interval
        self._file_id = device.create_file()
        self._pending: List[Entry] = []
        self.records_logged = 0
        self.frames_written = 0  # device appends: the group-commit I/O count
        self.torn_frames_dropped = 0  # incomplete tail frames skipped by replay
        self.records_replayed = 0

    @property
    def current_file(self) -> int:
        return self._file_id

    def append(self, entry: Entry) -> None:
        """Log one entry; may trigger a group-commit frame write."""
        self._pending.append(entry)
        self.records_logged += 1
        if len(self._pending) >= self._sync_interval:
            self.sync()

    def append_batch(self, entries: List[Entry]) -> None:
        """Log a group of entries as one pending unit (group commit).

        The whole batch lands in at most one frame when the caller syncs
        right after — the write batcher's amortization: N concurrent writers'
        records cost one device append instead of N.
        """
        self._pending.extend(entries)
        self.records_logged += len(entries)
        if len(self._pending) >= self._sync_interval:
            self.sync()

    def sync(self) -> None:
        """Force buffered records to the device (the durability point)."""
        if not self._pending:
            return
        write_frame(self._device, self._file_id, self._pending)
        self._device.crash_hook("wal_sync")
        self.frames_written += 1
        self._pending = []

    def roll(self) -> int:
        """Seal the current log and start a new one (called at flush).

        Returns:
            The sealed file's id, which the caller retires once the flush
            it covers is durable.
        """
        self.sync()
        sealed = self._file_id
        self._device.seal_file(sealed)
        self._file_id = self._device.create_file()
        self._device.crash_hook("wal_roll")
        return sealed

    def replay(self, file_id: int = None) -> Iterator[Entry]:
        """Yield logged entries in append order (crash recovery).

        A frame whose span runs past the end of an unsealed log is a *torn
        tail*: the crash interrupted its append, so its records were never
        fully durable and were never acknowledged — replay drops it (counted
        in ``torn_frames_dropped``) and stops. In a sealed log the same
        overrun is corruption (:func:`walk_frames`). A frame that is fully
        present but fails its checksum is real data loss of acknowledged
        writes and raises :class:`~repro.errors.CorruptionError` — never
        silently skipped.

        Args:
            file_id: which log file to replay; defaults to the current one.
        """
        target = self._file_id if file_id is None else file_id
        for _, _, block in walk_frames(self._device, target):
            if block is None:
                self.torn_frames_dropped += 1
                break
            for entry in block:
                self.records_replayed += 1
                yield entry
        if target == self._file_id:
            yield from list(self._pending)

    @property
    def unsynced_records(self) -> int:
        """Records that would be LOST by a crash right now."""
        return len(self._pending)
