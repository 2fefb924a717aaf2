"""The memtable contract shared by every buffer implementation."""

from __future__ import annotations

import abc
import bisect
from typing import Iterator, List, Optional

from repro.common.entry import Entry


class Memtable(abc.ABC):
    """A mutable in-memory buffer of the newest entries.

    The memtable holds at most one entry per key — a newer put/delete for a
    key replaces the older in place (the replaced entry is already superseded,
    so dropping it early is safe and is what production engines do).
    """

    @abc.abstractmethod
    def put(self, entry: Entry) -> None:
        """Insert or replace the entry for ``entry.key``."""

    @abc.abstractmethod
    def get(self, key: bytes) -> Optional[Entry]:
        """Return the buffered entry (possibly a tombstone) or None."""

    @abc.abstractmethod
    def scan(self, start: Optional[bytes] = None, end: Optional[bytes] = None) -> Iterator[Entry]:
        """Yield buffered entries with ``start <= key <= end`` in key order."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of distinct keys buffered."""

    @property
    @abc.abstractmethod
    def size_bytes(self) -> int:
        """Approximate heap footprint of the buffered entries."""

    @abc.abstractmethod
    def clear(self) -> None:
        """Drop all entries (after a flush has persisted them)."""

    def is_empty(self) -> bool:
        return len(self) == 0

    def sorted_entries(self) -> "list[Entry]":
        """All entries in key order; the flush path consumes this."""
        return list(self.scan())


class ImmutableMemtable:
    """A sealed memtable awaiting flush.

    Sealing swaps the active buffer out from under writers in O(n) (one
    sorted copy, no device I/O); the sealed entries stay on the read path —
    probed after the active memtable, newest seal first — until a flush job
    builds their run and installs it. ``sealed_wal`` is the WAL segment that
    covered these entries; it is deleted once the run is durable.
    """

    __slots__ = ("entries", "keys", "sealed_wal", "size_bytes", "claimed")

    def __init__(
        self, entries: List[Entry], sealed_wal: Optional[int], size_bytes: int
    ) -> None:
        self.entries = entries
        self.keys = [entry.key for entry in entries]
        self.sealed_wal = sealed_wal
        self.size_bytes = size_bytes
        self.claimed = False  # a flush worker is already building this run

    def get(self, key: bytes) -> Optional[Entry]:
        idx = bisect.bisect_left(self.keys, key)
        if idx < len(self.keys) and self.keys[idx] == key:
            return self.entries[idx]
        return None

    def __len__(self) -> int:
        return len(self.entries)
