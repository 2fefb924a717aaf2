"""K-way merging of sorted entry streams with newest-wins semantics.

Used by both the scan path (tombstones dropped, one live entry per key) and
the compaction path (tombstones kept unless compacting into the bottom of the
tree). Sequence numbers are globally unique, so precedence needs no run-order
tie-breaking.

The merge rides :func:`heapq.merge` — the C-implemented streaming k-way
merge — keyed by ``(key, -seqno)``: each input stream is sorted by key with
at most one entry per key, so it is equally sorted under that key, and the
merged stream presents every key's versions newest-first. One pass then
keeps the first (newest) version per key and applies tombstone policy.
"""

from __future__ import annotations

import heapq
from operator import methodcaller
from typing import Iterable, Iterator

from repro.common.entry import Entry

_sort_key = methodcaller("sort_key")


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
    in hand. Used by the scan read path and by compactions once merge
    entries exist (a plain newest-wins pass would discard operands).
    """
    streams = list(streams)
    # Fused single pass; with one input the heap is skipped entirely (the
    # grouping stays — a lone stream may still carry version chains).
    merged = streams[0] if len(streams) == 1 else heapq.merge(*streams, key=_sort_key)
    group: "list[Entry]" = []
    for entry in merged:
        if group and entry.key != group[0].key:
            yield group
            group = []
        group.append(entry)
    if group:
        yield group
