"""A probabilistic skiplist, the classic LSM write buffer.

This is a from-scratch implementation of Pugh's skiplist with geometric tower
heights (p = 1/4, as in LevelDB). It is deterministic given its seed so tests
and experiments are reproducible.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional

from repro.common.entry import Entry
from repro.memtable.base import Memtable

_MAX_HEIGHT = 16
_BRANCHING = 4


class _Node:
    __slots__ = ("key", "entry", "next")

    def __init__(self, key: Optional[bytes], entry: Optional[Entry], height: int) -> None:
        self.key = key
        self.entry = entry
        self.next: List[Optional["_Node"]] = [None] * height


class SkipList:
    """Sorted map from key bytes to :class:`Entry` with O(log n) operations."""

    def __init__(self, seed: int = 0xC0FFEE) -> None:
        self._head = _Node(None, None, _MAX_HEIGHT)
        self._height = 1
        self._rng = random.Random(seed)
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def insert(self, entry: Entry) -> Optional[Entry]:
        """Insert/replace; returns the displaced entry for the key, if any."""
        update: List[_Node] = [self._head] * _MAX_HEIGHT
        node = self._head
        key = entry.key
        for level in range(self._height - 1, -1, -1):
            candidate = node.next[level]
            while candidate is not None and candidate.key < key:
                node = candidate
                candidate = node.next[level]
            update[level] = node

        if candidate is not None and candidate.key == key:
            displaced = candidate.entry
            candidate.entry = entry
            return displaced

        height = self._random_height()
        if height > self._height:
            self._height = height
        new_node = _Node(key, entry, height)
        for level in range(height):
            new_node.next[level] = update[level].next[level]
            update[level].next[level] = new_node
        self._count += 1
        return None

    def find(self, key: bytes) -> Optional[Entry]:
        """Exact-match lookup."""
        node = self._find_greater_or_equal(key)
        if node is not None and node.key == key:
            return node.entry
        return None

    def iter_from(self, start: Optional[bytes] = None) -> Iterator[Entry]:
        """Yield entries with key >= start (or all entries) in key order."""
        node = self._head.next[0] if start is None else self._find_greater_or_equal(start)
        while node is not None:
            assert node.entry is not None
            yield node.entry
            node = node.next[0]

    # -- internals -----------------------------------------------------------

    def _find_greater_or_equal(self, key: bytes) -> Optional[_Node]:
        node = self._head
        for level in range(self._height - 1, -1, -1):
            following = node.next[level]
            while following is not None and following.key < key:
                node = following
                following = node.next[level]
        return following  # level 0's successor: the search ends there

    def _random_height(self) -> int:
        height = 1
        while height < _MAX_HEIGHT and self._rng.randrange(_BRANCHING) == 0:
            height += 1
        return height


class SkipListMemtable(Memtable):
    """The standard buffer: a skiplist keyed by user key."""

    def __init__(self, seed: int = 0xC0FFEE) -> None:
        self._list = SkipList(seed=seed)
        self._size_bytes = 0

    def put(self, entry: Entry) -> None:
        displaced = self._list.insert(entry)
        self._size_bytes += entry.approximate_size
        if displaced is not None:
            self._size_bytes -= displaced.approximate_size

    def get(self, key: bytes) -> Optional[Entry]:
        return self._list.find(key)

    def scan(self, start: Optional[bytes] = None, end: Optional[bytes] = None) -> Iterator[Entry]:
        for entry in self._list.iter_from(start):
            if end is not None and entry.key > end:
                return
            yield entry

    def __len__(self) -> int:
        return len(self._list)

    @property
    def size_bytes(self) -> int:
        return self._size_bytes

    def clear(self) -> None:
        self._list = SkipList()
        self._size_bytes = 0
