"""The read path: one newest-first walk, one chain resolution, one result.

Every point read — ``LSMTree.get``, ``DBService.get``, ``Snapshot.get`` (and
through it transactional reads), the raw lookups behind ``Version.get`` and
transaction validation — is :func:`lookup` over a key's in-memory versions
and a list of levels, then :meth:`ReadPath.resolve` and :func:`assemble`.
Every batch of them (``multi_get`` on every handle) is
:meth:`ReadPath.multi_get`, the same walk taken level by level over the
whole batch. Callers keep only what genuinely differs: *which* data
they walk, how it is kept alive (the single-caller contract, runs pinned by
the service, a snapshot's version) and the TTL clock. Nothing here refers
back to the tree.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from dataclasses import fields
from itertools import chain, compress
from operator import length_hint
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.common.entry import (
    DELETE, PUT, PUT_TTL, Entry, GetResult, decode_ttl_value, live_value, split_chain,
)
from repro.core.iterator import merge_columns
from repro.errors import MergeError
from repro.filters.hashing import hash64
from repro.storage.block import Columns, columns_of
from repro.storage.run import Run
from repro.storage.sstable import ProbeStats

Levels = Sequence[Sequence[Run]]


def chain_is_open(memory_chain: Sequence[Entry]) -> bool:
    """True when a key's in-memory versions do not decide it: none exist, or
    they are all merge operands still looking for a base on storage."""
    return not memory_chain or memory_chain[-1].is_merge


def lookup(
    key: bytes,
    memory_chain: Iterable[Entry],
    levels: Levels,
    cache=None,
    probe: Optional[ProbeStats] = None,
    hash_seed: Optional[int] = None,
    trace: "Optional[ReadTrace]" = None,
    newest_only: bool = False,
) -> "Tuple[Optional[Entry], List[Entry], Optional[int], int, int]":
    """Walk one key's versions newest-first until a base version ends the chain.

    ``memory_chain`` holds the key's in-memory versions newest first;
    ``levels`` the storage levels shallowest first, each newest run first.
    ``probe`` receives filter / fence / block accounting. With ``hash_seed``
    one filter digest is computed lazily and shared across every run's
    filter (shared hashing, tutorial §II-B.2). ``trace`` is the timed read's
    per-level bookkeeping. ``newest_only`` stops at the newest version of
    any kind (raw lookups).

    Returns ``(base, operands, source_level, runs_probed, digests)``: the
    version that ended the walk (None when it ran off the bottom), the merge
    operands above it newest-first, the storage level that served the base
    (None for memory or a miss), runs consulted, shared digests computed.
    """
    operands: List[Entry] = []
    for entry in memory_chain:
        if entry.is_merge and not newest_only:
            operands.append(entry)
        else:
            return entry, operands, None, 0, 0
    base: Optional[Entry] = None
    digest: Optional[int] = None
    digests = 0
    runs_probed = 0
    for level_no, runs in enumerate(levels, start=1):
        if trace is not None:
            trace.enter_level(probe)
        for run in runs:
            runs_probed += 1
            if hash_seed is not None and digest is None and run.min_key <= key <= run.max_key:
                digest = hash64(key, hash_seed)
                digests += 1
            entry = run.get(key, probe, cache, digest)
            if entry is None:
                continue
            if entry.is_merge and not newest_only:
                # An operand, not a value: collect it and keep descending
                # until a non-merge base terminates the chain.
                operands.append(entry)
                continue
            base = entry
            break
        if trace is not None:
            trace.leave_level(level_no, probe, base is not None)
        if base is not None:
            return base, operands, level_no, runs_probed, digests
    return None, operands, None, runs_probed, digests


def _window(buffer, start: Optional[bytes], end: Optional[bytes]) -> Columns:
    """The part of an in-memory buffer's ``(keys, entries)`` with
    ``start <= key <= end``, as columns."""
    keys, entries = buffer
    lo = 0 if start is None else bisect_left(keys, start)
    hi = len(keys) if end is None else bisect_right(keys, end, lo)
    if lo == 0 and hi == len(keys):
        return columns_of(keys, entries)
    return columns_of(keys[lo:hi], entries[lo:hi])


def assemble(
    base: Optional[Entry],
    operands: List[Entry],
    value: Optional[bytes],
    source_level: Optional[int] = None,
    runs_probed: int = 0,
    probe: Optional[ProbeStats] = None,
) -> GetResult:
    """Build the :class:`GetResult` for a finished walk and its resolved value."""
    newest = operands[0] if operands else base  # operands are newest-first
    seqno = newest.seqno if newest is not None else 0
    if probe is None:
        return GetResult(value, value is not None, runs_probed, 0, 0, 0, source_level, seqno)
    return GetResult(
        value, value is not None, runs_probed, probe.blocks_read,
        probe.filter_negatives, probe.false_positives, source_level, seqno,
    )


_PROBE_FIELDS = tuple(f.name for f in fields(ProbeStats))


class ReadTrace:
    """Observer and span bookkeeping for one timed point read.

    Built only when an observer is attached or the read is sampled; every
    hook site in the read path is ``if trace is not None``.
    """

    __slots__ = ("_observer", "_span", "_device_stats", "_wall0", "_sim0", "_mark",
                 "_before", "attrs")

    def __init__(self, observer, span, device_stats) -> None:
        self._observer = observer
        self._span = span
        self._device_stats = device_stats
        self._wall0 = self._mark = time.perf_counter()
        self._sim0 = device_stats.simulated_time

    def start_stage(self) -> None:
        self._mark = time.perf_counter()

    def end_stage(self, name: str) -> None:
        if self._span is not None:
            self._span.add_stage(name, time.perf_counter() - self._mark)

    def enter_level(self, probe: ProbeStats) -> None:
        self._before = [getattr(probe, name) for name in _PROBE_FIELDS]
        self.start_stage()

    def leave_level(self, level_no: int, probe: ProbeStats, served: bool) -> None:
        delta = ProbeStats(
            *(getattr(probe, name) - before for name, before in zip(_PROBE_FIELDS, self._before))
        )
        if self._observer is not None:
            self._observer.record_level_probe(level_no, delta, served)
        if self._span is not None:
            self.end_stage(f"level_{level_no}")
            self._span.event(
                "level_probe", level=level_no, served=served,
                filter_probes=delta.filter_probes, filter_negatives=delta.filter_negatives,
                false_positives=delta.false_positives, block_accesses=delta.blocks_read,
                cache_hits=delta.cache_hits, index_probes=delta.index_probes,
            )

    def finish(self, result: GetResult, probe: ProbeStats) -> None:
        """Feed the observer and keep the attributes the span closes with."""
        sim_time = self._device_stats.simulated_time - self._sim0
        if self._observer is not None:
            self._observer.record_get(
                time.perf_counter() - self._wall0, sim_time, result.found, probe.blocks_read
            )
        self.attrs = dict(
            op="get", found=result.found, source_level=result.source_level,
            blocks_read=probe.blocks_read, cache_hits=probe.cache_hits, sim_time=sim_time,
        )


class ReadPath:
    """One tree's read machinery: the shared walk plus the sinks it feeds —
    its block cache, value codec (None without key-value separation), merge
    operators and counters. Reads run outside the tree mutex in service
    mode, so counters update under the dedicated ``stats_lock``;
    ``device_stats`` is the live TTL clock.
    """

    def __init__(self, cache, values, operators, stats, stats_lock, device_stats, config) -> None:
        self.cache = cache
        self._values = values
        self._operators = operators
        self._stats = stats
        self._stats_lock = stats_lock
        self._device_stats = device_stats
        self._shared_hashing = config.shared_hashing
        self._hash_seed = (
            config.seed if config.shared_hashing and config.filter_kind != "none" else None
        )
        parallel = config.parallel
        self._scan_readahead = parallel.scan_readahead_blocks if parallel is not None else 1
        # Blocks a batch's cache miss may read in one device request.
        self._batch_span = 8 if parallel is not None else 1

    def resolve(self, base: Optional[Entry], operands: List[Entry], now: float) -> Optional[bytes]:
        """Fold a merge chain (operand entries newest-first) over ``base``;
        None when the key reads as absent (no versions, a tombstone, or an
        expired TTL with no operands)."""
        value = live_value(base, now, self._values)
        if not operands:
            return value
        op, parts = self._operators.operator_for(operands)
        return op.fold(value, reversed(parts))  # oldest first

    def get(
        self,
        key: bytes,
        memory_chain: Iterable[Entry],
        levels: Levels,
        now: Optional[float] = None,
        trace: Optional[ReadTrace] = None,
    ) -> GetResult:
        """One point read over the given data, feeding this tree's counters.
        ``now`` is the TTL clock; None reads the live simulated clock once
        the walk's device reads are done."""
        probe = ProbeStats()
        base, operands, source_level, runs_probed, digests = lookup(
            key, memory_chain, levels, self.cache, probe, self._hash_seed, trace
        )
        stats = self._stats
        with self._stats_lock:
            stats.gets += 1
            if runs_probed:  # a memtable hit probed nothing: nothing to fold
                # Without sharing, every filter probe computes its own digest.
                stats.get_hash_evaluations += (
                    digests if self._shared_hashing else probe.filter_probes
                )
                stats.probe.merge(probe)
        if trace is not None:
            trace.start_stage()
        value = None
        if base is not None or operands:
            if now is None:
                now = self._device_stats.simulated_time
            # resolve() without operands is live_value(): skip the frame.
            value = (
                self.resolve(base, operands, now) if operands
                else live_value(base, now, self._values)
            )
        result = assemble(base, operands, value, source_level, runs_probed, probe)
        if trace is not None:
            trace.end_stage("value_fetch")
            trace.finish(result, probe)
        return result

    def multi_get(
        self,
        memory_chains: "Dict[bytes, Iterable[Entry]]",
        levels: Levels,
        now: Optional[float] = None,
        observer=None,
    ) -> "Dict[bytes, GetResult]":
        """:meth:`get` for a batch, walked level by level: each run is asked
        once for every key still open at it, so a block several keys need
        is loaded once per batch (a ``ParallelConfig`` lets a cache miss
        read up to 8 adjacent candidate blocks). ``memory_chains`` maps each
        key to its in-memory versions, newest first.

        Per-key ``found`` / ``value`` / ``seqno`` / ``source_level`` /
        ``runs_probed`` match :meth:`get`, shared digests are computed as
        :func:`lookup` computes them, and the batch's I/O provenance goes
        into the tree's probe counters, not into per-key results.
        ``observer`` counts the found keys.
        """
        probe = ProbeStats()
        chains = {key: split_chain(chain) for key, chain in memory_chains.items()}
        served: Dict[bytes, int] = {}
        runs_probed = dict.fromkeys(chains, 0)
        hash_seed = self._hash_seed
        digests: Dict[bytes, int] = {}
        pending = [key for key, (base, _) in chains.items() if base is None]
        for level_no, runs in enumerate(levels, start=1):
            for run in runs:
                if not pending:
                    break
                for key in pending:
                    runs_probed[key] += 1
                    if (hash_seed is not None and key not in digests
                            and run.min_key <= key <= run.max_key):
                        digests[key] = hash64(key, hash_seed)
                found = run.get_many(pending, probe, self.cache, self._batch_span, digests)
                for key, entry in found.items():
                    if entry.is_merge:
                        chains[key][1].append(entry)  # keep descending for its base
                    else:
                        chains[key] = (entry, chains[key][1])
                        served[key] = level_no
                if found:
                    pending = [key for key in pending if key not in served]
        if now is None:
            now = self._device_stats.simulated_time
        results = {
            key: assemble(
                base, operands, self.resolve(base, operands, now),
                served.get(key), runs_probed[key],
            )
            for key, (base, operands) in chains.items()
        }
        stats = self._stats
        with self._stats_lock:
            stats.multi_gets += 1
            stats.multi_get_keys += len(results)
            stats.gets += len(results)
            # Without sharing, every filter probe computes its own digest.
            stats.get_hash_evaluations += (
                len(digests) if self._shared_hashing else probe.filter_probes
            )
            stats.probe.merge(probe)
        if observer is not None:
            observer.record_multi_get(sum(result.found for result in results.values()))
        return results

    def scan(
        self,
        buffers: "Sequence[Tuple[List[bytes], List[Entry]]]",
        runs: Sequence[Run],
        start: Optional[bytes],
        end: Optional[bytes],
        now: float,
        observer=None,
        on_close=None,
    ) -> "ScanIterator":
        """The scan engine: merge pinned streams, fold merge chains, mask
        tombstones and expired TTLs (``now`` is the TTL clock for the whole
        scan), and yield decoded user values in key order.

        ``buffers`` are the in-memory buffers' ``(keys, entries)`` (each
        sorted by key); each one's ``[start, end]`` window is one column
        chunk of the merge, the runs stream theirs a data block at a time,
        and one merge (:func:`merge_columns`) serves both. Runs whose range
        filter proves the interval empty are skipped without I/O (tutorial
        §II-B.3). Nothing is read before the first ``next()``; a block is
        read only when the merge reaches it. ``on_close`` runs when the
        iterator is exhausted, closed or dropped, even before its first
        ``next()`` (the caller releases its pins there)."""
        pieces = self._scan(buffers, runs, start, end, now, observer, on_close)
        next(pieces)  # into the try: closing an unstarted scan runs on_close
        scan = ScanIterator.from_iterable(pieces)
        scan._pieces = pieces
        return scan

    def _scan(self, buffers, runs, start, end, now, observer, on_close):
        """The scan's pieces, one ``zip`` of keys and values per piece of the
        merge: a piece of PUT versions is its own columns, any other loses its
        tombstones and expired TTLs in :meth:`_live` first. Values are decoded
        as the consumer takes them (a value-log read keeps its place among the
        block reads the merge makes)."""
        probe = ProbeStats()
        produced = 0
        taking = None  # the keys of the piece being consumed
        values = self._values
        wall0 = None  # set on the first next(): an unstarted scan records no latency
        try:
            yield ()
            if observer is not None:
                wall0 = time.perf_counter()
            streams = [(_window(buffer, start, end),) for buffer in buffers]
            for run in runs:
                if start is not None and end is not None:
                    if not run.overlaps(start, end):
                        continue
                    if not run.may_contain_range(start, end):
                        continue  # range filter saved the whole seek
                streams.append(
                    run.iter_chunks(
                        start=start, end=end, cache=self.cache, stats=probe,
                        readahead=self._scan_readahead,
                    )
                )
            for keys, kinds, stored, _, chains in merge_columns(streams):
                if kinds.count(PUT) != len(keys):
                    keys, stored = self._live(keys, kinds, stored, chains, now)
                if values is not None:
                    stored = map(values.decode if chains is None else self._finish(now), stored)
                taking = iter(keys)
                yield zip(taking, stored)
                produced += len(keys)
                taking = None
        finally:
            if taking is not None:  # closed or dropped inside a piece
                produced += len(keys) - length_hint(taking)
            with self._stats_lock:
                self._stats.scan_entries += produced
                self._stats.probe.merge(probe)
            if on_close is not None:
                on_close()
            if wall0 is not None:
                observer.record_scan(time.perf_counter() - wall0)

    def _live(self, keys, kinds, stored, chains, now) -> "Tuple[list, list]":
        """A piece's keys and stored values without the ones that read as
        absent at ``now`` — tombstones, expired TTLs — a TTL value's
        deadline stripped, and each merge chain folded (with key-value
        separation, left as its entries for :meth:`_finish`)."""
        stored = list(stored)
        keep = bytearray(b"\x01") * len(keys)
        for slot in compress(range(len(kinds)), kinds):  # every kind but PUT
            kind = kinds[slot]
            if kind == DELETE:
                keep[slot] = 0
            elif kind == PUT_TTL:
                deadline, payload = decode_ttl_value(stored[slot])
                if now >= deadline:
                    keep[slot] = 0
                else:
                    stored[slot] = payload
            elif self._values is None:
                value = self.resolve(*split_chain(chains[keys[slot]]), now)
                if value is None:
                    keep[slot] = 0
                else:
                    stored[slot] = value
            else:
                stored[slot] = chains[keys[slot]]
        return list(compress(keys, keep)), list(compress(stored, keep))

    def _finish(self, now):
        """The value decoder of a piece with merge chains under key-value
        separation: a chain folds where it is yielded, since its base value
        may sit in the value log. Its key is already handed out by then, so
        an operator that folds to nothing breaks its ``-> bytes`` contract
        with a :class:`MergeError` here rather than yielding None."""
        decode = self._values.decode

        def finish(stored):
            if stored.__class__ is not list:
                return decode(stored)
            value = self.resolve(*split_chain(stored), now)
            if value is None:
                raise MergeError(f"merge operator folded key {stored[0].key!r} to no value")
            return value

        return finish


class ScanIterator(chain):
    """A scan's key-value pairs: the pieces' ``zip`` s flattened by
    ``itertools.chain`` in C, so taking a key resumes no Python frame.
    ``close()`` (or dropping it, or running it to the end) ends the scan
    and releases what it pinned."""

    __slots__ = ("_pieces",)

    def close(self) -> None:
        self._pieces.close()
