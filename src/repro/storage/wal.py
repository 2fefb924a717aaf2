"""Write-ahead log: durability for buffered (memtable) entries.

Every production LSM engine pairs its in-memory buffer with a WAL so that a
crash loses nothing the application was told is durable. Each group commit
writes one length-prefixed *frame* holding the pending records; frames start
on block boundaries and may span multiple blocks, so records of any size
(including jumbo values logged raw for the kv-separation path) are durable.
A flush seals the current log and starts a fresh one, so recovery only
replays logs newer than the last flush.
"""

from __future__ import annotations

import math
from typing import Iterator, List

from repro.common.encoding import decode_varint, encode_varint
from repro.common.entry import Entry
from repro.errors import CorruptionError
from repro.storage.block_device import BlockDevice
from repro.storage.sstable import encode_log_block, parse_log_block


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
        payload = encode_log_block(self._pending)
        frame = encode_varint(len(payload)) + payload
        self._device.append_payload(self._file_id, frame)
        self._device.crash_hook("wal_sync")
        self.frames_written += 1
        self._pending = []

    def roll(self) -> int:
        """Seal the current log and start a new one (called at flush).

        Returns:
            The sealed file's id, which the caller deletes once the flush
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

        A frame whose span runs past end-of-file is a *torn tail*: the crash
        interrupted its append, so its records were never fully durable and
        were never acknowledged — replay drops it (counted in
        ``torn_frames_dropped``) and stops. A frame that is fully present but
        fails its checksum is real data loss of acknowledged writes and
        raises :class:`~repro.errors.CorruptionError` — never silently
        skipped.

        Args:
            file_id: which log file to replay; defaults to the current one.
        """
        target = self._file_id if file_id is None else file_id
        total = self._device.num_blocks(target)
        block_no = 0
        while block_no < total:
            head = self._device.read_block(target, block_no)
            if not head:
                block_no += 1
                continue
            try:
                length, offset = decode_varint(head)
            except Exception:
                raise CorruptionError(
                    f"WAL {target}: unreadable frame header at block {block_no}"
                ) from None
            frame_len = offset + length
            span = max(1, math.ceil(frame_len / self._device.block_size))
            if block_no + span > total:
                if self._device.is_sealed(target):
                    # A sealed log was fully synced before sealing; an
                    # overrunning frame there means a corrupted length, not
                    # an interrupted append.
                    raise CorruptionError(
                        f"WAL {target}: frame at block {block_no} overruns sealed log"
                    )
                self.torn_frames_dropped += 1
                break
            if span == 1:
                payload = head
            else:
                payload = self._device.read_payload(target, block_no, span)
            try:
                entries = parse_log_block(payload[offset : offset + length])
            except CorruptionError:
                raise
            except Exception:
                # A fully-present frame that cannot even be decoded (flipped
                # length prefix, truncated field) is corruption, typed as
                # such — structural decode errors must not leak raw.
                raise CorruptionError(
                    f"WAL {target}: malformed frame at block {block_no}"
                ) from None
            for entry in entries:
                self.records_replayed += 1
                yield entry
            block_no += span
        if target == self._file_id:
            yield from list(self._pending)

    @property
    def unsynced_records(self) -> int:
        """Records that would be LOST by a crash right now."""
        return len(self._pending)

    def delete(self, file_id: int) -> None:
        """Drop a sealed log once its data reached storage."""
        if self._device.file_exists(file_id):
            self._device.delete_file(file_id)
