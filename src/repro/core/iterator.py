"""K-way merging of sorted streams with newest-wins semantics.

Used by both the scan path (tombstones dropped, one live value per key) and
the compaction path (tombstones kept unless compacting into the bottom of the
tree). Sequence numbers are globally unique, so precedence needs no run-order
tie-breaking.

Scans and compactions both run the *horizon merge*
(:func:`merge_columns`) over :data:`~repro.storage.block.Columns` — a data
block's or an in-memory buffer window's keys, kinds, values and seqnos as
parallel sequences. A round resolves every key up to a horizon with C-level
passes (a sort, a keep-newest dict, kind counts) and builds no entry except
for merge-operand chains. It stays as lazy as an entry-by-entry heap merge
(:func:`merge_entry_versions`, over :func:`merge_sorted`'s
:func:`heapq.merge`): a stream's next block is pulled at the very consumer
step at which the heap merge would pull it, and in the same order. So a scan
that stops at its limit reads nothing further, the block cache and the device
see one sequence of loads whichever merge runs, and value-log reads a scan
makes while it resolves each key keep their place among the block reads.
The heap merge remains as :func:`merge_entries`' engine and as the reference
the horizon merge is tested against.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from operator import attrgetter, methodcaller
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.common.entry import KINDS, MERGE, PUT, Entry
from repro.storage.block import Columns

_sort_key = methodcaller("sort_key")
_seqno = attrgetter("seqno")

#: What :func:`merge_columns` yields: the newest version of each key in a
#: stretch of the merge, as ``(keys, kinds, values, seqnos, chains)``. The
#: kinds are one byte each; ``seqnos`` is None unless decoded (see
#: :func:`merge_columns`); ``chains`` maps every key whose newest version is
#: a merge operand to all its versions as entries, newest first (None when
#: there is no such key).
Piece = Tuple[
    Sequence[bytes], bytes, Sequence[bytes], Optional[Sequence[int]],
    Optional[Dict[bytes, List[Entry]]],
]


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
    reference for :func:`merge_columns`.
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
    """A column stream's current chunk and how much of it earlier rounds took."""

    __slots__ = ("stream", "keys", "kinds", "values", "seqnos", "last", "pos", "bounds")

    def __init__(self, stream: Iterable[Columns]) -> None:
        self.stream = iter(stream)

    def advance(self) -> bool:
        """Move to the stream's next non-empty chunk; False when it has none."""
        for self.keys, self.kinds, self.values, self.seqnos in self.stream:
            if self.keys:
                self.last = self.keys[-1]
                self.pos = 0
                self.bounds = None
                return True
        return False


def _seqnos(cursor: _Cursor) -> Sequence[int]:
    """The chunk's seqnos, decoded the first time a round needs them."""
    seqnos = cursor.seqnos
    if callable(seqnos):
        seqnos = cursor.seqnos = seqnos()
    return seqnos


def _seqno_rows(parts) -> List[int]:
    """The seqnos of a round's rows, the oldest stream's first."""
    seq: List[int] = []
    for cursor, lo, hi in reversed(parts):
        seq += _seqnos(cursor)[lo:hi]
    return seq


_last_key = attrgetter("last")


def _last_seqno(cursor: _Cursor) -> int:
    return _seqnos(cursor)[-1]


def merge_columns(streams: Iterable[Iterable[Columns]], seqnos: bool = False) -> Iterator[Piece]:
    """Merge column streams into :data:`Piece` s holding the newest version
    of every key, in key order — what :func:`merge_entry_versions` yields
    over the same streams flattened, less the versions a newer one shadows
    (a merge-operand key keeps them all, in ``chains``).

    Each stream yields :data:`~repro.storage.block.Columns` and is strictly
    increasing by key across its chunks, as a sorted run or an in-memory
    buffer's window is. A round takes every version up to the *horizon* —
    the smallest last key among the streams' current chunks — which no later
    chunk can precede. A round one stream fills is that stream's slice. Any
    other is resolved by C-level passes over its rows, the oldest stream's
    first: a dict keeps each key's last row and says whether a key comes
    twice. If one does, that last row is the newest when the streams'
    seqnos ascend (an LSM's order, judged by each chunk's lowest and highest
    seqno); otherwise the rows are sorted by seqno and the dict rebuilt.
    The keys are then sorted, unless one stream's slice already holds every
    key of the round. Seqnos are decoded only for rounds holding a key twice
    or a merge operand (its chain's entries carry them), and for every round
    when ``seqnos`` is set (a compaction writes them, and only then does a
    piece carry them; otherwise its ``seqnos`` is None).

    Each round is yielded as two pieces, its keys but the last and then its
    last key, and between them the chunks the round finished are replaced,
    the stream with the newest last entry first. That is the point at which,
    and the order in which, the heap merge pulls the same blocks: a consumer
    that stops after any key has read exactly what it would have read entry
    by entry, and the device sees one sequence of reads and writes whichever
    merge runs.
    """
    live = [cursor for cursor in map(_Cursor, streams) if cursor.advance()]
    while live:
        horizon = min(map(_last_key, live))
        parts = []
        drained = []
        for cursor in live:
            if cursor.last <= horizon:  # the round takes the rest of its chunk
                parts.append((cursor, cursor.pos, len(cursor.keys)))
                drained.append(cursor)
            else:
                pos = cursor.pos
                cut = bisect_right(cursor.keys, horizon, pos)
                if cut > pos:
                    parts.append((cursor, pos, cut))
                    cursor.pos = cut
        if len(parts) == 1:
            cursor, lo, hi = parts[0]
            keys, kinds, values = cursor.keys, cursor.kinds, cursor.values
            if lo:
                keys, kinds, values = keys[lo:], kinds[lo:], values[lo:]
            seq = _seqnos(cursor)[lo:] if seqnos or MERGE in kinds else None
            ordered = True
        else:
            keys, kinds, values = [], bytearray(), []
            for cursor, lo, hi in reversed(parts):  # the oldest stream first
                keys += cursor.keys[lo:hi]
                kinds += cursor.kinds[lo:hi]
                values += cursor.values[lo:hi]
            count = len(keys)
            newest = dict(zip(keys, range(count)))  # each key's last row
            seq = _seqno_rows(parts) if seqnos or MERGE in kinds else None
            ordered = True
            if len(newest) != count:  # a key twice: do the streams' seqnos ascend?
                floor = -1
                for cursor, lo, hi in reversed(parts):  # the oldest stream first
                    bounds = cursor.bounds
                    if bounds is None:  # the chunk's lowest and highest seqno
                        column = _seqnos(cursor)
                        bounds = cursor.bounds = (min(column), max(column))
                    if bounds[0] <= floor:
                        ordered = False
                        break
                    floor = bounds[1]
            if not ordered:
                # A key twice, its rows not oldest first: order them so.
                if seq is None:
                    seq = _seqno_rows(parts)
                rows = sorted(range(count), key=seq.__getitem__)
                newest = dict(zip(map(keys.__getitem__, rows), rows))
            for cursor, lo, hi in parts:
                if hi - lo == len(newest):  # one stream holds every key
                    keys = cursor.keys[lo:hi]
                    break
            else:
                keys = sorted(newest)
            rows = list(map(newest.__getitem__, keys))
            if kinds.count(PUT) == count:
                kinds = bytes(len(rows))
            else:
                kinds = bytes(map(kinds.__getitem__, rows))
            values = list(map(values.__getitem__, rows))
            if seq is not None:
                seq = list(map(seq.__getitem__, rows))
        chains = None if MERGE not in kinds else _chains(keys, kinds, values, seq, parts)
        last = len(keys) - 1
        if last:
            yield keys[:last], kinds[:last], values[:last], seq[:last] if seqnos else None, chains
        if len(drained) > 1 and not ordered:
            # They share their last key: the newest version's stream first
            # (with ascending streams, the order they are listed in).
            drained.sort(key=_last_seqno, reverse=True)
        for cursor in drained:
            if not cursor.advance():
                live.remove(cursor)
        yield keys[last:], kinds[last:], values[last:], seq[last:] if seqnos else None, chains


def _chains(keys, kinds, values, seqnos, parts) -> Dict[bytes, List[Entry]]:
    """Every version, newest first, of each key whose newest is a merge
    operand — the one place a round builds entries. ``parts`` are the
    round's ``(cursor, lo, hi)`` slices; a key's older versions are found in
    them by bisection."""
    chains = {}
    slot = kinds.find(MERGE)
    while slot >= 0:
        key = keys[slot]
        if len(parts) == 1:
            chains[key] = [Entry(key, seqnos[slot], MERGE, values[slot])]
        else:
            versions = []
            for cursor, lo, hi in parts:
                row = bisect_left(cursor.keys, key, lo, hi)
                if row < hi and cursor.keys[row] == key:
                    versions.append(Entry(
                        key, _seqnos(cursor)[row], KINDS[cursor.kinds[row]], cursor.values[row]
                    ))
            versions.sort(key=_seqno, reverse=True)
            chains[key] = versions
        slot = kinds.find(MERGE, slot + 1)
    return chains
