"""Coalesced device I/O: a reader's multi-block frame source.

The device charges every random access one seek (4x a sequential read in the
default latency model), and a seek is exactly what an iterator pays whenever
another thread's read lands between two of its own. A reader that *knows*
which blocks it will want — a merge input or a range scan (``first..last``),
the sorted candidate blocks of a ``multi_get`` batch — buys those seeks back
with one :meth:`~repro.storage.block_device.BlockDevice.read_blocks` request
per stretch: admitted under a single device lock acquisition, charged one
seek plus sequential transfers however many other readers interleave.

:class:`FrameSource` is that and nothing more (RocksDB's
``FilePrefetchBuffer``): it stands where the per-block device read stands in
:meth:`SSTable._load_block <repro.storage.sstable.SSTable._load_block>`,
hands back raw frames and knows nothing of the block cache — tier order,
single-flight, admission and every hit / miss / probe count stay in
``BlockCache.get_or_load_block``, which asks it for a frame exactly when it
would have asked the device. Coalescing therefore changes device request
shapes (``seeks``, ``coalesced_*``, simulated time) and nothing else.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Dict, Optional, Sequence, Tuple

BlockKey = Tuple[int, int]  # (file_id, block_no)


class FrameSource:
    """One reader's readahead over one table file; call it as ``load_frame``.

    Args:
        read_frames: ``(key, count) -> frames`` — between 1 and ``count``
            consecutive frames starting at ``key`` (a guarded device answers
            one verified block at a time; see ``SSTable._read_frames``).
        wanted: the ascending block numbers the reader will ask for (a
            ``range`` or a sorted list); anything else is read on its own.
        span: most blocks per device request (>= 1).
        resident: ``key -> bool``, true for a block a load would serve from
            memory; such a block ends the stretch before it (never re-read
            just to keep a request contiguous).
    """

    __slots__ = ("_read_frames", "_wanted", "_span", "_resident", "_ahead")

    def __init__(
        self,
        read_frames: Callable[[BlockKey, int], Sequence[bytes]],
        wanted: Sequence[int],
        span: int,
        resident: Optional[Callable[[BlockKey], bool]] = None,
    ) -> None:
        if span < 1:
            raise ValueError("span must be >= 1")
        self._read_frames = read_frames
        self._wanted = wanted
        self._span = span
        self._resident = resident
        self._ahead: Dict[int, bytes] = {}  # read, not yet asked for

    def __call__(self, key: BlockKey) -> bytes:
        """The frame of ``key``: read ahead earlier, or fetched now together
        with the wanted blocks that follow it without a gap."""
        file_id, block_no = key
        wanted, resident, ahead = self._wanted, self._resident, self._ahead
        frame = ahead.pop(block_no, None)
        if frame is not None:
            return frame
        at = bisect_left(wanted, block_no) + 1
        count = 1
        while (
            count < self._span
            and at < len(wanted)
            and wanted[at] == block_no + count
            and not (resident is not None and resident((file_id, wanted[at])))
        ):
            count += 1
            at += 1
        frames = self._read_frames(key, count)
        for offset in range(1, len(frames)):
            ahead[block_no + offset] = frames[offset]
        return frames[0]
