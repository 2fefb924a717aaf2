"""K-way merging of sorted entry streams with newest-wins semantics.

Used by both the scan path (tombstones dropped, one live entry per key) and
the compaction path (tombstones kept unless compacting into the bottom of the
tree). Sequence numbers are globally unique, so precedence needs no run-order
tie-breaking. Either way the result is one list per key holding that key's
versions newest-first.

Scans and compactions both run the *horizon merge*
(:func:`merge_chunk_versions`): it merges a data block at a time — one
``bisect`` per stream and one C ``list.sort`` per round replace a heap step
and a key call per entry. It stays as lazy as an entry-by-entry heap merge
(:func:`merge_entry_versions`, over :func:`merge_sorted`'s
:func:`heapq.merge`): a stream's next block is pulled at the very consumer
step at which the heap merge would pull it, and in the same order. So a scan
that stops at its limit reads nothing further, the block cache and the device
see one sequence of loads whichever merge runs, and value-log reads a scan
makes while it resolves each group keep their place among the block reads.
The heap merge remains as :func:`merge_entries`' engine and as the reference
the horizon merge is tested against.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from itertools import groupby
from operator import attrgetter, methodcaller
from typing import Iterable, Iterator, List, Tuple

from repro.common.entry import Entry

_sort_key = methodcaller("sort_key")
_key = attrgetter("key")
_seqno = attrgetter("seqno")

#: What :meth:`SSTable.iter_chunks` yields: one data block's keys and entries.
Chunk = Tuple[List[bytes], List[Entry]]


def merge_sorted(streams: Iterable[Iterable[Entry]]) -> Iterator[Entry]:
    """Lazily merge streams sorted by ``(key, -seqno)`` into one such stream."""
    return heapq.merge(*streams, key=_sort_key)


def merge_entries(
    streams: Iterable[Iterator[Entry]],
    drop_tombstones: bool = False,
) -> Iterator[Entry]:
    """Merge sorted entry streams, yielding the newest entry per key.

    Args:
        streams: iterators each sorted by key with at most one entry per key.
        drop_tombstones: suppress tombstones from the output (scan semantics
            and bottom-level compaction semantics).

    Yields:
        One entry per distinct key, newest (highest seqno) version.
    """
    for group in merge_entry_versions(streams):
        if not (drop_tombstones and group[0].is_tombstone):
            yield group[0]


def merge_entry_versions(
    streams: Iterable[Iterator[Entry]],
) -> Iterator["list[Entry]"]:
    """Merge sorted entry streams, yielding ALL versions per key.

    The generalization :func:`merge_entries` is the newest-only special case
    of: each yielded list holds one key's versions newest-first, so a caller
    can fold merge-operand chains or apply TTL policy with the full history
    in hand. Each stream is sorted by ``(key, -seqno)``. The entry-by-entry
    reference for :func:`merge_chunk_versions`.
    """
    streams = list(streams)
    # Fused single pass; with one input the heap is skipped entirely (the
    # grouping stays — a lone stream may still carry version chains).
    merged = streams[0] if len(streams) == 1 else merge_sorted(streams)
    group: "list[Entry]" = []
    for entry in merged:
        if group and entry.key != group[0].key:
            yield group
            group = []
        group.append(entry)
    if group:
        yield group


class _Cursor:
    """A chunk stream's current chunk and how much of it earlier rounds took."""

    __slots__ = ("stream", "keys", "entries", "pos")

    def __init__(self, stream: Iterable[Chunk]) -> None:
        self.stream = iter(stream)

    def advance(self) -> bool:
        """Move to the stream's next non-empty chunk; False when it has none."""
        for self.keys, self.entries in self.stream:
            if self.keys:
                self.pos = 0
                return True
        return False


def merge_chunk_versions(streams: Iterable[Iterable[Chunk]]) -> Iterator["list[Entry]"]:
    """Merge chunked entry streams, yielding ALL versions per key — the groups
    :func:`merge_entry_versions` yields over the same streams flattened.

    Each stream yields ``(keys, entries)`` chunks (parallel lists) and is
    strictly increasing by key across its chunks, as a sorted run or an
    in-memory buffer's window is. A round takes every entry up to the
    *horizon* — the smallest last key among the streams' current chunks —
    which no later chunk can precede, sorts them by key and groups equal
    keys newest-first.

    Scans and compactions alike (see the module docstring). Groups before a
    round's last are yielded before any stream moves; a chunk that the round
    finishes is replaced before its last group is yielded, the stream with
    the newest last entry first. That is the point at which, and the order
    in which, the heap merge pulls the same blocks: a scan abandoned after
    any group has read exactly what it would have read entry by entry, and
    the device sees one sequence of reads and writes whichever merge runs.
    """
    live = [cursor for cursor in map(_Cursor, streams) if cursor.advance()]
    while live:
        if len(live) == 1:  # the tail of the longest input: nothing to merge with
            cursor = live[0]
            drained = [cursor]
            groups = [[entry] for entry in cursor.entries[cursor.pos :]]
        else:
            horizon = min([cursor.keys[-1] for cursor in live])
            batch: "list[Entry]" = []
            drained = []
            for cursor in live:
                cut = bisect_right(cursor.keys, horizon, cursor.pos)
                batch += cursor.entries[cursor.pos : cut]
                cursor.pos = cut
                if cut == len(cursor.keys):
                    drained.append(cursor)
            batch.sort(key=_key)  # timsort: a merge of the presorted slices
            groups = [list(versions) for _, versions in groupby(batch, _key)]
            if len(groups) != len(batch):
                for group in groups:
                    if len(group) > 1:
                        group.sort(key=_seqno, reverse=True)
            if len(drained) > 1:
                drained.sort(key=lambda cursor: cursor.entries[-1].seqno, reverse=True)
        last = groups.pop()
        yield from groups
        for cursor in drained:
            if not cursor.advance():
                live.remove(cursor)
        yield last
