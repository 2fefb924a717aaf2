"""Key-range subcompactions: one merge job, N disjoint ranges, N workers.

A compaction's inputs are sorted runs, so the merged key space can be cut at
any key into contiguous pieces that merge independently: worker *i* merges
the half-open range ``[boundary_i, boundary_i+1)`` of every input and writes
its own output files. Because the pieces partition the key space, the
concatenation of the per-range outputs (in range order) is exactly the run a
serial merge would have produced, entry for entry — only file/block packing
boundaries may differ at the seams. This is RocksDB's ``max_subcompactions``
mechanism.

Boundaries come from the inputs' fence pointers (:attr:`SSTable.fence_keys`):
every fence key marks one data block, so picking boundaries at equal
fence-count quantiles balances *blocks read* per worker — the unit the
device actually charges — not key counts.

The module is deliberately engine-agnostic: :func:`run_subcompactions` sees
input runs, a builder factory, and the fold. A serial merge is the
one-range case of the same call, so there is one merge loop and one build
loop (:func:`~repro.storage.sstable.build_tables`) whatever the
parallelism. The tree stays the only place that touches levels, pins,
stats, or filter registration.
"""

from __future__ import annotations

import concurrent.futures
from bisect import bisect_left
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.common.entry import KINDS, Entry
from repro.core.iterator import merge_columns
from repro.errors import SimulatedCrashError
from repro.storage.block import Columns, columns_of
from repro.storage.run import Run
from repro.storage.sstable import SSTable, SSTableBuilder, build_tables

#: A half-open key range ``[lo, hi)``; None means unbounded on that side.
KeyRange = Tuple[Optional[bytes], Optional[bytes]]
#: The per-key compaction policy: one key's versions, newest first, to the
#: entry the output keeps (None: drop the key).
KeyFold = Callable[[Sequence[Entry]], Optional[Entry]]
#: The compaction policy over a merge piece ``(keys, kinds, values, seqnos,
#: chains)`` (:data:`~repro.core.iterator.Piece`): the columns it keeps.
PieceFold = Callable[..., Columns]


def split_key_ranges(
    inputs: Sequence[Run],
    max_subcompactions: int,
    min_blocks: int,
) -> List[KeyRange]:
    """Cut the merged key space of ``inputs`` into balanced half-open ranges.

    Returns ``[(None, None)]`` (run serially) when splitting is off, the job
    is too small (< 2 * ``min_blocks`` data blocks), or every candidate
    boundary collapses onto the smallest key. Otherwise returns up to
    ``max_subcompactions`` ranges whose boundaries sit at equal quantiles of
    the combined fence-pointer list, so each range covers roughly the same
    number of data blocks.
    """
    serial = [(None, None)]
    if max_subcompactions <= 1:
        return serial
    fences: List[bytes] = []
    for run in inputs:
        for table in run.tables:
            fences.extend(table.fence_keys)
    fences.sort()
    total = len(fences)
    if total < 2 * min_blocks:
        return serial
    pieces = min(max_subcompactions, total // min_blocks)
    if pieces <= 1:
        return serial
    boundaries: List[bytes] = []
    for j in range(1, pieces):
        candidate = fences[(j * total) // pieces]
        if candidate > fences[0] and (not boundaries or candidate > boundaries[-1]):
            boundaries.append(candidate)
    if not boundaries:
        return serial
    ranges: List[KeyRange] = []
    lo: Optional[bytes] = None
    for boundary in boundaries:
        ranges.append((lo, boundary))
        lo = boundary
    ranges.append((lo, None))
    return ranges


class SubcompactionError(RuntimeError):
    """A subcompaction worker failed; all partial outputs were deleted."""


def merge_range(
    inputs: Sequence[Run],
    lo: Optional[bytes],
    hi: Optional[bytes],
    fold: PieceFold,
    readahead: int = 1,
) -> Iterator[Columns]:
    """Merge one half-open range ``[lo, hi)`` of every input run into the
    :data:`~repro.storage.block.Columns` pieces the output keeps.

    ``hi`` is passed to the input iterators as an *inclusive* cap (fence
    pruning needs an inclusive bound), and keys equal to ``hi`` are dropped
    here — they belong to the next range.

    Each piece of the merge (:func:`~repro.core.iterator.merge_columns`,
    which keeps only a key's newest version unless it is a merge operand)
    is handed to ``fold`` (the compaction policy, see :func:`per_key`),
    which returns the columns to keep. A piece is folded when the consumer
    asks for it, so builds and merge reads interleave as they would entry by
    entry. Keys never straddle a range boundary, so folding per range
    matches folding the whole key space.
    """
    streams = [
        run.iter_chunks(start=lo, end=hi, readahead=readahead) for run in inputs
    ]
    for piece in merge_columns(streams, seqnos=True):
        keys = piece[0]
        past = hi is not None and keys[-1] >= hi
        if past:
            cut = bisect_left(keys, hi)
            if not cut:
                return
            keys, kinds, values, seqnos, chains = piece
            piece = keys[:cut], kinds[:cut], values[:cut], seqnos[:cut], chains
        kept = fold(*piece)
        if kept[0]:
            yield kept
        if past:
            return


def per_key(fold: KeyFold, passes: bytes = b"") -> PieceFold:
    """A piece-level fold from a per-key one.

    ``fold`` takes one key's versions, newest first — the newest alone (a
    1-tuple) unless it is a merge operand, whose chain comes whole — and
    returns the entry to keep or None. A piece without a merge chain whose
    kinds are all in ``passes`` is kept as it is, building nothing; any
    other has one :class:`Entry` built per key and its survivors come back
    as columns.
    """

    def fold_piece(keys, kinds, values, seqnos, chains) -> Columns:
        if chains is None and not kinds.translate(None, passes):
            return keys, kinds, values, seqnos
        entries = map(Entry, keys, seqnos, map(KINDS.__getitem__, kinds), values)
        if chains is None:
            groups = zip(entries)  # one version per key
        else:
            groups = [chains.get(entry.key) or (entry,) for entry in entries]
        kept = list(filter(None, map(fold, groups)))
        return columns_of([entry.key for entry in kept], kept)

    return fold_piece


def run_subcompactions(
    inputs: Sequence[Run],
    ranges: Sequence[KeyRange],
    fold: PieceFold,
    builder_factory: Callable[[], SSTableBuilder],
    file_limit: Optional[int],
    readahead: int = 1,
    executor: Optional[concurrent.futures.Executor] = None,
) -> List[SSTable]:
    """Execute a compaction's merge, one :func:`build_tables` pass per range.

    A single range runs on the calling thread. Several are submitted to
    ``executor`` (or a private thread pool sized to the range count); the
    returned table list is the per-range outputs concatenated in range
    order — a valid sorted, non-overlapping run.

    On any worker failure every output file (finished or partial, from
    every range) is deleted and :class:`SubcompactionError` is raised —
    install never sees a torn output set.
    """

    def build(key_range: KeyRange) -> List[SSTable]:
        lo, hi = key_range
        return build_tables(
            merge_range(inputs, lo, hi, fold, readahead), builder_factory, file_limit
        )

    if len(ranges) == 1:
        return build(ranges[0])
    own_pool = executor is None
    pool = executor or concurrent.futures.ThreadPoolExecutor(
        max_workers=len(ranges), thread_name_prefix="subcompact"
    )
    futures = [pool.submit(build, key_range) for key_range in ranges]
    try:
        tables: List[SSTable] = []
        failure: Optional[BaseException] = None
        for future in futures:
            try:
                tables.extend(future.result())
            except BaseException as exc:  # keep draining: collect survivors
                if failure is None:
                    failure = exc
        if failure is None:
            return tables
        if isinstance(failure, SimulatedCrashError):
            # Crash semantics: the device is frozen mid-job. Completed
            # ranges' files remain as orphans for recovery to sweep;
            # re-raise the crash itself so harnesses see it unwrapped.
            raise failure
        for table in tables:
            table.delete()
        raise SubcompactionError(f"subcompaction worker failed: {failure!r}") from failure
    finally:
        if own_pool:
            pool.shutdown(wait=True)
