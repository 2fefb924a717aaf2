"""Versions: consistent snapshots of the tree's file set for scans.

The tutorial (§II-A.1): "a scan operates over a version (or snapshot) of the
data — the collection of files that were active and live at the time the scan
began." A version holds one acquire of the level set's current
:class:`~repro.core.levels.LevelView`; a compaction that obsoletes a run only
deletes its files once every view listing it has been released, so an
in-flight scan keeps reading the files it pinned.
"""

from __future__ import annotations

import bisect
from typing import Callable, Iterator, List, Optional, Tuple

from repro.common.entry import Entry, GetResult
from repro.core.iterator import merge_sorted
from repro.core.read_path import lookup
from repro.core.levels import LevelView
from repro.errors import SnapshotError


class Version:
    """A pinned snapshot: in-memory buffers + every live run, newest first.

    ``buffers`` holds the in-memory buffers as ``(keys, entries)`` pairs,
    newest buffer first, each sorted by key with one entry per key: a copy
    of the active buffer (a scan copies only its range), then the sealed
    buffers themselves, which never change. ``levels`` keeps the runs
    grouped by storage level (shallowest first) for the point-read walk;
    ``runs`` is the same set flattened for scans; both are the acquired
    view's. Call :meth:`close` (or use as a context manager) to release the
    view.
    """

    def __init__(
        self,
        buffers: "List[Tuple[List[bytes], List[Entry]]]",
        view: LevelView,
        release: Callable[[LevelView], None],
    ) -> None:
        self.buffers = buffers
        self.levels = view.levels
        self.runs = view.runs
        self._view = view
        self._release = release
        self._closed = False

    @property
    def memtable_entries(self) -> List[Entry]:
        """Every buffered entry in ``(key, -seqno)`` order, merged on demand."""
        return list(merge_sorted(entries for _, entries in self.buffers))

    def close(self) -> None:
        """Release the view; idempotent."""
        if self._closed:
            return
        self._closed = True
        self._release(self._view)

    def __enter__(self) -> "Version":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def memory_chain(self, key: bytes) -> Iterator[Entry]:
        """The buffered versions of ``key`` as of this snapshot, newest first."""
        for keys, entries in self.buffers:
            idx = bisect.bisect_left(keys, key)
            while idx < len(keys) and keys[idx] == key:
                yield entries[idx]
                idx += 1

    def get(self, key: bytes, cache=None) -> Optional[Entry]:
        """Point lookup *as of this snapshot* (read-your-snapshot semantics).

        Returns the newest raw entry — possibly a tombstone or a merge
        operand — or None when the key was absent at snapshot time. Later
        writes to the tree are invisible.

        Raises:
            SnapshotError: if the version has been released.
        """
        self.ensure_open()
        return lookup(key, self.memory_chain(key), self.levels, cache, newest_only=True)[0]

    def ensure_open(self) -> None:
        if self._closed:
            raise SnapshotError("version has been released")

    @property
    def closed(self) -> bool:
        return self._closed


class Snapshot:
    """A consistent point-in-time read view of one tree.

    Wraps a pinned :class:`Version` with the tree's read path: merge chains
    fold, tombstones mask, and TTL expiry is judged against the simulated
    clock *as of snapshot creation* — a key that was live when the snapshot
    was taken stays visible through it even if its deadline passes later.

    The raw version surface (``runs``, ``memtable_entries``, ``closed``) is
    delegated for callers that walk the file set directly.
    """

    def __init__(self, tree, version: Version) -> None:
        self._tree = tree
        self._version = version
        #: The TTL clock, frozen at creation.
        self.created_at = tree.device.stats.simulated_time

    # -- reads -----------------------------------------------------------------

    def get(self, key: bytes) -> GetResult:
        """Point lookup as of the snapshot; returns a :class:`GetResult`."""
        version = self._version
        version.ensure_open()
        return self._tree.reads.get(
            key, version.memory_chain(key), version.levels, now=self.created_at
        )

    def multi_get(self, keys) -> "dict[bytes, GetResult]":
        """Batched point lookups as of the snapshot (sorted, deduplicated),
        one level-by-level walk of the pinned version."""
        version = self._version
        version.ensure_open()
        return self._tree.reads.multi_get(
            {key: version.memory_chain(key) for key in sorted(set(keys))},
            version.levels, now=self.created_at,
        )

    def scan(
        self, start: Optional[bytes] = None, end: Optional[bytes] = None
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Range scan as of the snapshot; the snapshot stays open after."""
        self._version.ensure_open()
        return self._tree.scan_version(self._version, start, end, now=self.created_at)

    # -- lifecycle and raw-version delegation ----------------------------------

    def close(self) -> None:
        """Release the pinned runs; idempotent."""
        self._version.close()

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def runs(self):
        return self._version.runs

    @property
    def memtable_entries(self):
        return self._version.memtable_entries

    @property
    def closed(self) -> bool:
        return self._version.closed
