"""The LSM-tree engine: every tutorial design decision, executed.

One :class:`LSMTree` instance owns a simulated block device, a memtable, a
block cache, and a hierarchy of storage levels holding sorted runs. All six
external/internal operations of the tutorial's Module I are implemented —
put, get, scan, delete, flush, compaction — and the read path exercises every
Module II optimization the configuration enables (filters, fence pointers or
learned indexes, block cache, Leaper prefetch, shared hashing, key-value
separation).

The class is a facade: it holds the structure mutex, the memtables and the
WAL, and delegates to :mod:`repro.core.read_path`, :mod:`repro.core.write_path`,
:mod:`repro.compaction` (policy, granularity, executor) and
:mod:`repro.core.levels` — one implementation of each path.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.cache.block_cache import BlockCache
from repro.cache.leaper import LeaperPrefetcher
from repro.common.entry import Entry, GetResult
from repro.compaction.executor import CompactionExecutor
from repro.compaction.granularity import CompactionPlan
from repro.compaction.policy import CompactionPolicy
from repro.core.config import LSMConfig
from repro.core.factories import AuxFactory
from repro.core.levels import LevelEdit, LevelSet
from repro.core.manifest import ManifestData, manifest_for_recovery, unlisted_files, write_manifest
from repro.core.read_path import ReadPath, ReadTrace, lookup
from repro.core.stats import CompactionEvent, LSMStats
from repro.core.version import Snapshot, Version
from repro.core.write_path import build, fold_operand, op_of, stage, validate
from repro.errors import ClosedError, ConflictError
from repro.filters.elastic import ElasticBloomFilter, ElasticFilterManager
from repro.memtable import ImmutableMemtable, make_memtable
from repro.storage.block import Columns, columns_of
from repro.storage.block_device import BlockDevice
from repro.storage.run import Run
from repro.storage.sstable import SSTable, build_tables, rebuild_sstable
from repro.storage.value_log import ValueCodec, ValueLog
from repro.storage.wal import WriteAheadLog
from repro.txn.merge import MergeOperator, MergeOperatorRegistry


class LSMTree:
    """A log-structured merge tree over a simulated block device.

    Args:
        config: the full design-space configuration.
        device: bring your own device (e.g. to share one across trees);
            defaults to a fresh device with the configured block size.
    """

    def __init__(
        self,
        config: LSMConfig,
        device: Optional[BlockDevice] = None,
        _defer_manifest: bool = False,
    ) -> None:
        config.validate()
        self.config = config
        self.device = device or BlockDevice(block_size=config.block_size)
        self.stats = LSMStats()
        # Observability hooks (repro.observe): an EngineObserver feeding a
        # metrics registry, and a TraceRecorder sampling read-path spans.
        # Both default to None so the unobserved hot paths pay one attribute
        # check; attach via repro.observe.observe_tree().
        self.observer = None
        self.tracer = None
        self.cache = BlockCache(
            config.cache_bytes,
            policy=config.cache_policy,
            compressed_capacity_bytes=config.compressed_cache_bytes,
        )
        # In-place corruption (corrupt_block / injected bit rot) must evict
        # any warm clean copy, or the damage would never be observed.
        self.cache.subscribe_to_device(self.device)
        self._memtable = make_memtable(config.memtable)
        self._immutables: List[ImmutableMemtable] = []
        # True while write_batch applies its records: defers the seal/flush
        # trigger to the end of the batch so one WAL frame never straddles a
        # memtable seal (the sealed segment is retired after its flush — any
        # batch records applied *after* a mid-batch seal would lose their
        # only durable copy). Guarded by the tree mutex.
        self._in_batch = False
        self._mutex = threading.RLock()
        # Counters touched by lock-free read paths (get/scan/multi_get run
        # outside the tree mutex in service mode) are guarded by this
        # dedicated lock so concurrent readers never lose increments; the
        # write path keeps mutating stats under the tree mutex as before.
        self._stats_lock = threading.Lock()
        self._install_cv = threading.Condition(self._mutex)
        self._maintenance_cb: Optional[Callable[[], None]] = None
        self._policy = CompactionPolicy(config)
        self._factory = AuxFactory(config)
        self._seqno = 0
        self._closed = False
        self._opened_monotonic = time.monotonic()
        self._merge_registry = MergeOperatorRegistry(config.merge_operators)
        self._value_log = (
            ValueLog(self.device, segment_blocks=config.vlog_segment_blocks)
            if config.kv_separation
            else None
        )
        self._values = (
            ValueCodec(
                self._value_log, config.value_threshold, self.cache, self._count_value_fetch
            )
            if self._value_log is not None
            else None
        )
        self._leaper = (
            LeaperPrefetcher(self.cache, **config.leaper_params)
            if config.leaper_prefetch
            else None
        )
        self._elastic = (
            ElasticFilterManager(config.elastic_budget_units)
            if config.elastic_budget_units is not None
            else None
        )
        self._wal = (
            WriteAheadLog(self.device, sync_interval=config.wal_sync_interval)
            if config.wal_enabled
            else None
        )
        # Files no version needs any more, waiting for _drain.
        self._retired: "deque[int]" = deque()
        #: The runs on storage; concurrent readers walk the views it publishes.
        self.level_set = LevelSet(self._retire_table)
        #: The read machinery; the service and snapshots read through it too.
        self.reads = ReadPath(
            self.cache, self._values, self._merge_registry,
            self.stats, self._stats_lock, self.device.stats, config,
        )
        self._executor = CompactionExecutor(
            self.device, config, self._factory, self._merge_registry,
            self._values, self.stats, self._stats_lock,
        )
        self._manifest_file: Optional[int] = None
        # During recovery: prior-generation WAL files not yet fully replayed;
        # any manifest written mid-recovery must keep referencing them.
        self._recovery_wals: List[int] = []
        if self._wal is not None and not _defer_manifest:
            # Publish the WAL's identity immediately: a crash before the
            # first flush must still find the log to replay. (recover()
            # defers this so a crash mid-recovery cannot leave a fresh empty
            # manifest shadowing the real one.)
            self._persist_structure()

    @property
    def _levels(self) -> List[List[Run]]:
        """Read-only view for tests and experiments (the level set owns it)."""
        return self.level_set.levels

    # ------------------------------------------------------------------ writes

    def put(self, key: bytes, value: bytes, ttl: Optional[float] = None) -> None:
        """Insert or update a key (out-of-place: a new versioned entry).

        Args:
            ttl: optional time-to-live in *simulated* seconds. The entry is
                stamped with the absolute deadline ``now + ttl`` on the
                device clock; at or past the deadline the key reads as
                deleted (shadowing older versions) and compaction reclaims
                it. A later plain put clears the TTL.

        Raises:
            ConfigError: the entry cannot fit one data block; nothing was
                logged or applied.
        """
        self._check_open()
        obs = self.observer
        if obs is not None:
            wall0 = time.perf_counter()
        if ttl is None:
            self._write("put", key, value, None)
        else:
            self._write("put_ttl", key, value, ttl)
        if obs is not None:
            obs.record_put(time.perf_counter() - wall0)

    def merge(self, key: bytes, operand: bytes, operator: str = "counter") -> None:
        """Write a merge operand (RocksDB's Merge): read-modify-write
        without the read.

        The operand is folded against the key's newest memtable-resident
        version immediately when one exists (keeping the one-entry-per-key
        memtable invariant); otherwise a typed MERGE entry is buffered and
        resolved lazily at read time and during compaction.

        Raises:
            MergeError: unknown ``operator``, or the key's existing operand
                chain uses a different operator.
        """
        self._check_open()
        self._write("merge", key, operand, operator)

    def register_merge_operator(self, operator: MergeOperator) -> None:
        """Register a user merge operator (also see config.merge_operators)."""
        self._merge_registry.register(operator)

    def merge_operator(self, name: str) -> MergeOperator:
        """Look up a registered merge operator by name."""
        return self._merge_registry.get(name)

    def delete(self, key: bytes) -> None:
        """Delete a key by buffering a tombstone."""
        self._check_open()
        self._write("delete", key, None, None)

    def _write(self, kind: str, key: bytes, value: Optional[bytes], meta) -> None:
        """One op: validate, stage, log under the sync interval, apply."""
        with self._mutex:
            self.validate_write(kind, key, value, meta)
            record, entry = self._stage(kind, key, value, meta)
            self.stats.count_write(kind, key, value)
            if self._wal is not None:
                self._wal.append(record)
            self._apply(entry)

    def _stage(self, kind: str, key: bytes, value, meta) -> "Tuple[Entry, Entry]":
        """Assign the next seqno and build one op :meth:`validate_write` has
        passed (under the tree mutex)."""
        self._seqno += 1
        return build(
            kind, key, value, meta, self._seqno, self.device.stats.simulated_time,
            self._values,
        )

    def validate_write(self, kind: str, key: bytes, value, meta=None, group: int = 1) -> None:
        """Raise what staging this write would raise, staging nothing
        (:func:`~repro.core.write_path.validate`): a group commit checks
        each member with it before the group becomes one frame. ``group``
        is how many ops the caller stages next under this mutex hold; the
        write is checked at the largest seqno any of them can take."""
        validate(
            kind, key, value, meta, self._merge_registry, self.config.block_size,
            self._seqno + group, self._values,
        )

    def write_batch(self, ops) -> int:
        """Apply a group of writes as one atomic group commit.

        Args:
            ops: iterable of ``(kind, key, value)`` triples or
                ``(kind, key, value, meta)`` quadruples where kind is
                ``'put'``, ``'delete'``, ``'merge'``, or ``'put_ttl'``.
                ``meta`` carries the operator name for merges and the
                relative TTL (simulated seconds) for ``put_ttl``; value is
                ignored for deletes. :class:`repro.txn.WriteBatch` yields
                exactly this shape.

        Every op is validated before any is staged, so one rejected op
        rejects the whole batch before the WAL or the value log sees any of
        it. The batch then becomes one
        WAL frame (one device append instead of one per record) followed by
        one memtable application pass — the leader's half of the
        leader/follower group-commit protocol that
        :class:`repro.service.WriteBatcher` drives. The single frame is
        also the transactional atomicity unit: a crash either keeps the
        whole frame or drops it whole.

        Returns:
            The number of records applied.
        """
        self._check_open()
        with self._mutex:
            ops = list(ops)
            for ahead, op in enumerate(ops, 1):
                self.validate_write(op[0], op[1], op[2], op[3] if len(op) > 3 else None, ahead)
            staged = [
                self._stage(op[0], op[1], op[2], op[3] if len(op) > 3 else None)
                for op in ops
            ]
            for op in ops:
                self.stats.count_write(op[0], op[1], op[2])
            if self._wal is not None and staged:
                self._wal.append_batch([record for record, _ in staged])
                self._wal.sync()  # the batch's durability point: one frame
            # Apply with maintenance deferred: a seal rolls the WAL and its
            # sealed segment is retired once flushed, so sealing mid-batch
            # would strand the rest of this frame's records with no durable
            # home. Seal/flush checks run once the whole frame is applied.
            # (Merges fold here, not at staging, so an earlier op of this
            # batch is visible as their base.)
            self._in_batch = True
            try:
                for _, entry in staged:
                    self._apply(entry)
            finally:
                self._in_batch = False
            self._after_apply()
            return len(staged)

    def write(self, batch) -> None:
        """Apply a :class:`repro.txn.WriteBatch` (or op-tuple iterable)
        atomically — the KVStore-surface spelling of :meth:`write_batch`."""
        self.write_batch(batch)

    def commit_transaction(self, read_set: Dict[bytes, int], ops) -> int:
        """Validate an optimistic transaction and apply it atomically.

        Args:
            read_set: key → the newest raw seqno the transaction observed
                (0 for keys that did not exist). Validation compares each
                against current state under the tree mutex.
            ops: the transaction's writes in :meth:`write_batch` shape.

        Returns:
            The number of records applied.

        Raises:
            ConflictError: some footprint key changed; nothing was applied.
        """
        self._check_open()
        with self._mutex:
            self.validate_read_set(read_set)
            count = self.write_batch(ops)
            self.stats.txn_commits += 1
            return count

    def validate_read_set(self, read_set: Dict[bytes, int]) -> None:
        """Raise ConflictError unless every fingerprinted key is unchanged.

        Must be called under the tree mutex. The check is seqno equality on
        the newest raw version: any intervening put/delete/merge bumps the
        key's newest seqno. (Compaction preserves newest seqnos, except that
        a bottom-level purge can erase a tombstone entirely — that reads as
        a spurious conflict, which is safe.)
        """
        for key, seqno in read_set.items():
            current = self._find_entry(key)
            current_seqno = current.seqno if current is not None else 0
            if current_seqno != seqno:
                self.stats.txn_conflicts += 1
                raise ConflictError(
                    f"key {key!r} moved from seqno {seqno} to {current_seqno} "
                    f"since the transaction's snapshot"
                )

    def seal_memtable(self) -> Optional[ImmutableMemtable]:
        """Seal the active memtable into the immutable queue (no run I/O).

        The sealed entries stay readable (gets/scans probe immutables after
        the active buffer) until a flush builds and installs their run. Rolls
        the WAL so the sealed segment exactly covers the sealed entries.

        Returns:
            The sealed memtable, or None when the buffer was empty.
        """
        self._check_open()
        with self._mutex:
            if self._memtable.is_empty():
                return None
            entries = self._memtable.sorted_entries()
            size = self._memtable.size_bytes
            if self._value_log is not None:
                self._value_log.flush()
            sealed_wal = self._wal.roll() if self._wal is not None else None
            self._memtable.clear()
            sealed = ImmutableMemtable(entries, sealed_wal, size)
            self._immutables.append(sealed)
            if self._wal is not None:
                # Publish both logs: the sealed segment (covering the sealed
                # entries) and the fresh current one. Without this, a crash
                # between seal and flush-install would recover from a
                # manifest that references only one of them and lose
                # acknowledged writes.
                self._persist_structure()
            return sealed

    def claim_flush(self) -> Optional[ImmutableMemtable]:
        """Claim the oldest unclaimed sealed memtable for building.

        Flush workers call this so two workers never build the same seal;
        the claim is released implicitly by :meth:`install_flush`.
        """
        with self._mutex:
            for imm in self._immutables:
                if not imm.claimed:
                    imm.claimed = True
                    return imm
            return None

    @property
    def mutex(self) -> "threading.RLock":
        """The tree's structure mutex (reentrant); the service layer's lock."""
        return self._mutex

    def build_flush(self, sealed: ImmutableMemtable) -> Optional[Run]:
        """Write a sealed memtable as a level-1 run (the I/O-heavy phase).

        Safe to call without the tree mutex: the sealed entries are
        immutable and the new file is invisible until installed.
        """
        obs = self.observer
        if obs is not None:
            wall0 = time.perf_counter()
        self.device.crash_hook("flush_build")
        run = self._build_run(columns_of(sealed.keys, sealed.entries), level=1)
        if obs is not None:
            obs.record_flush_build(time.perf_counter() - wall0)
        return run

    def install_flush(self, sealed: ImmutableMemtable, run: Optional[Run]) -> None:
        """Atomically publish a built flush and retire its WAL segment.

        Installs strictly in seal order (level-1 runs must stay newest-first
        even when parallel workers finish builds out of order): a worker
        holding a newer seal waits until every older seal has installed.
        """
        with self._install_cv:
            while self._immutables and self._immutables[0] is not sealed:
                if sealed not in self._immutables:
                    break  # already installed (defensive; double-install no-op)
                self._install_cv.wait()
            if sealed not in self._immutables:
                return
            self.device.crash_hook("flush_install")
            self.stats.flushes += 1
            if run is not None:
                self.level_set.apply(LevelEdit(1, add=run.tables))
                self._note_event(
                    CompactionEvent("flush", 0, 1, 0, run.size_bytes, self.stats.flushes)
                )
            self._immutables.remove(sealed)
            self._install_cv.notify_all()
            if not self.config.lazy_compaction and self._maintenance_cb is None:
                self._maybe_compact()
            if self._wal is not None:
                # The flushed entries are durable in the new run: the log
                # that covered them leaves once the new manifest is written.
                self._retire([sealed.sealed_wal])
                self._persist_structure()

    def flush(self) -> None:
        """Force all buffered entries to storage as new youngest level-1 runs.

        Seals the active memtable, then builds and installs a run for every
        pending sealed memtable (oldest first). Inline mode never has more
        than one; a service-managed tree may have a backlog.
        """
        self._check_open()
        self.seal_memtable()
        while True:
            sealed = self.claim_flush()
            if sealed is None:
                break
            self.install_flush(sealed, self.build_flush(sealed))

    def set_maintenance_callback(self, callback: Optional[Callable[[], None]]) -> None:
        """Hand flush/compaction scheduling to an external service.

        With a callback installed, a full memtable is *sealed* on the write
        path (cheap) and the callback is invoked — under the tree mutex — to
        request a background flush; inline compaction cascades are disabled
        (the scheduler decides when reorganization runs, the design dimension
        the compaction design-space paper isolates). Pass None to restore
        inline maintenance.
        """
        with self._mutex:
            self._maintenance_cb = callback

    # ------------------------------------------------------------------- reads

    def get(self, key: bytes) -> GetResult:
        """Point lookup, youngest to oldest, stopping at the first match.

        Walks the live levels — the single-caller contract; concurrent callers
        go through ``DBService``. When an observer is attached the lookup feeds
        latency histograms (wall + simulated) and per-level probe
        accounting; when the tracer samples this operation, a
        :class:`~repro.observe.Span` records the stage breakdown (memtable
        probe, each level's probe, value fetch). Unobserved lookups pay two
        attribute checks.
        """
        self._check_open()
        tracer = self.tracer
        if tracer is None and self.observer is None:
            return self.reads.get(key, self.memory_chain(key), self.level_set.levels)
        # maybe_start inherits the request's active trace context when one is
        # installed (server/service path) and only rolls the sampling dice
        # itself when this get *is* the outermost span — the decision is made
        # once per request, never per engine call.
        span = tracer.maybe_start("get") if tracer is not None else None
        trace = self.read_trace(span)
        chain = self.memory_chain(key)
        if trace is not None:
            trace.end_stage("memtable_probe")
        result = self.reads.get(key, chain, self.level_set.levels, trace=trace)
        if span is not None:
            tracer.finish(span, **trace.attrs)
        return result

    def read_trace(self, span) -> Optional[ReadTrace]:
        """Timing hooks for a point read about to start; None (every hook is
        skipped) unless an observer is attached or ``span`` sampled it."""
        if span is None and self.observer is None:
            return None
        return ReadTrace(self.observer, span, self.device.stats)

    def memory_chain(self, key: bytes) -> Sequence[Entry]:
        """The key's in-memory versions, newest first, down to its first
        non-merge version: active memtable, then sealed memtables newest
        seal first. No device I/O; raw entries (maybe tombstones)."""
        with self._mutex:
            entry = self._memtable.get(key)
            if entry is None:
                if not self._immutables:
                    return ()
                chain = []
            elif not entry.is_merge:
                return (entry,)
            else:
                chain = [entry]
            for imm in reversed(self._immutables):
                entry = imm.get(key)
                if entry is not None:
                    chain.append(entry)
                    if not entry.is_merge:
                        break
            return chain

    def scan(
        self, start: Optional[bytes] = None, end: Optional[bytes] = None
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Range scan over a pinned version; yields (key, value) in order.

        The scan sees the tree as of this call: it pins the active buffer's
        entries in ``[start, end]`` (a copy), the sealed buffers (by
        reference: they never change) and every live run, and writes made
        afterwards are invisible to it. Runs whose range filter proves the
        interval empty are skipped without I/O (tutorial §II-B.3). The runs
        are released when the iterator is exhausted or closed.
        """
        return self.scan_version(
            self._pin(start, end), start, end,
            now=self.device.stats.simulated_time, close=True,
        )

    def scan_version(
        self,
        version: Version,
        start: Optional[bytes],
        end: Optional[bytes],
        now: float,
        close: bool = False,
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Scan a pinned version (``now`` is the TTL clock for the whole scan);
        ``close`` releases it when the iterator finishes."""
        with self._stats_lock:
            self.stats.scans += 1
        return self.reads.scan(
            version.buffers, version.runs, start, end, now,
            observer=self.observer, on_close=version.close if close else None,
        )

    def multi_get(self, keys) -> "dict[bytes, GetResult]":
        """Batched point lookups (RocksDB's MultiGet) over the live levels.

        Keys are deduplicated and resolved in sorted order by one level-by-level
        walk (:meth:`ReadPath.multi_get`): a block several keys share is
        loaded once per batch. Per-key answers match :meth:`get` calls; the
        I/O provenance goes into ``stats.probe``. A sampled batch is one
        ``multi_get`` span.
        """
        self._check_open()
        tracer = self.tracer
        span = tracer.maybe_start("multi_get") if tracer is not None else None
        unique = sorted(set(keys))
        with self._mutex:
            chains = {key: self.memory_chain(key) for key in unique}
        results = self.reads.multi_get(chains, self.level_set.levels, observer=self.observer)
        if span is not None:
            tracer.finish(span, op="multi_get", keys=len(unique))
        return results

    def delete_range(self, start: bytes, end: bytes) -> int:
        """Delete every live key in the closed range [start, end].

        Implemented as a snapshot scan issuing point tombstones — the naive
        strategy, O(matching keys); real range tombstones (a single marker
        reconciled at read/merge time) are future work noted in DESIGN.md.

        Returns:
            The number of tombstones written.
        """
        self._check_open()
        if start > end:
            raise ValueError("empty range: start > end")
        victims = [key for key, _ in self.scan(start, end)]
        for key in victims:
            self.delete(key)
        return len(victims)

    def approximate_size(self, start: bytes, end: bytes) -> int:
        """Estimate on-device bytes holding keys in [start, end]
        (RocksDB's GetApproximateSizes) using fence metadata only — no I/O.
        """
        self._check_open()
        if start > end:
            raise ValueError("empty range: start > end")
        return sum(
            table.approximate_bytes(start, end)
            for runs in self.level_set.levels
            for run in runs
            for table in run.tables
        )

    def ingest_external(self, pairs) -> int:
        """Bulk-load sorted (key, value) pairs as pre-built run files
        (RocksDB's IngestExternalFile; the bulk-loading path of [94]).

        Bypasses the memtable and the compaction cascade: files are written
        once and placed at the deepest level where no existing data overlaps
        their key range, so write amplification for a bulk load is ~1.
        The memtable is flushed first so the newest-data-on-top invariant
        holds regardless of overlap.

        Args:
            pairs: (key, value) tuples in strictly increasing key order.

        Returns:
            The number of entries ingested.
        """
        self._check_open()
        pairs = list(pairs)
        if not pairs:
            return 0
        for (a, _), (b, _) in zip(pairs, pairs[1:]):
            if a >= b:
                raise ValueError("ingest requires strictly increasing keys")
        for ahead, (key, value) in enumerate(pairs, 1):
            self.validate_write("put", key, value, group=ahead)
        self.flush()

        entries = []
        for key, value in pairs:
            record, entry = self._stage("put", key, value, None)
            self.stats.count_write("put", key, value)
            if self._wal is not None:
                self._wal.append(record)
            entries.append(entry)
        lo, hi = entries[0].key, entries[-1].key

        # Deepest level t with no overlap at any level <= t (reads check
        # shallow levels first, so older overlapping data may only sit BELOW).
        target = 1
        for idx, runs in enumerate(self.level_set.levels):
            if any(run.overlaps(lo, hi) for run in runs):
                break
            target = idx + 2
        run = self._build_run(columns_of([entry.key for entry in entries], entries), target)
        if run is not None:
            self.level_set.apply(LevelEdit(target, add=run.tables))
            self.stats.bulk_ingested += len(entries)
            self._note_event(
                CompactionEvent("ingest", 0, target, 0, run.size_bytes, self.stats.flushes)
            )
        if not self.config.lazy_compaction:
            self._maybe_compact()
        if self._wal is not None:
            self._wal.sync()
            self._persist_structure()
        return len(entries)

    def scan_prefix(self, prefix: bytes) -> Iterator[Tuple[bytes, bytes]]:
        """All live entries whose key starts with ``prefix``, in key order.

        Sugar over :meth:`scan` with the tight covering range
        ``[prefix, prefix·0xFF...]`` — the access pattern RocksDB's prefix
        seek serves, and the one a configured prefix Bloom filter
        (``range_filter='prefix_bloom'``) can prune runs for.
        """
        if not prefix:
            raise ValueError("prefix must be non-empty")
        upper = _prefix_successor(prefix)
        for key, value in self.scan(prefix, upper):
            if upper is not None and key == upper:
                return  # the successor itself is outside the prefix
            if upper is None and not key.startswith(prefix):
                return  # all-0xFF prefix: no finite upper bound exists
            yield key, value

    def snapshot(self) -> Snapshot:
        """A consistent read-only view: get/multi_get/scan pinned in time.

        The returned :class:`Snapshot` answers reads as of this instant —
        later writes are invisible, and the TTL clock is frozen at the
        snapshot's creation time. Close it (or use it as a context manager)
        to release the pinned runs.
        """
        return Snapshot(self, self.pin_version())

    def pin_version(self, memory: bool = True) -> Version:
        """Pin the current file set (the tutorial's scan 'version').

        The raw, entry-level view: the buffers keep *every* in-memory
        version of a key (merge-operand chains must survive into the
        version so snapshot reads can fold them), a copy of the active
        buffer and the sealed ones by reference, and lookups return raw
        entries. Most callers want :meth:`snapshot` instead. With
        ``memory=False`` only the on-storage runs are pinned.
        """
        return self._pin(None, None, memory)

    def _pin(
        self, start: Optional[bytes], end: Optional[bytes], memory: bool = True
    ) -> Version:
        """Acquire the level set's current view and, with ``memory``, the
        buffers as ``(keys, entries)`` pairs, newest first: a copy of the
        active buffer's entries in ``[start, end]``, then the sealed buffers
        by reference (they never change)."""
        self._check_open()
        buffers = []
        with self._mutex:
            if memory:
                active = list(self._memtable.scan(start, end))
                buffers = [(imm.keys, imm.entries) for imm in reversed(self._immutables)]
            view = self.level_set.acquire()
        if memory:
            buffers.insert(0, ([entry.key for entry in active], active))
        return Version(buffers, view, self.level_set.release)

    # -------------------------------------------------------------- maintenance

    def compact_all(self) -> None:
        """Flush, then run compactions until no trigger fires (test helper)."""
        self.flush()
        self._maybe_compact()
        self._persist_structure()  # drains the retire queue

    def verify_integrity(self) -> dict:
        """Scrub every live run file: checksums, sort order, fence agreement.

        Returns a report dict with ``files_checked``, ``blocks_checked``,
        and ``errors`` (a list of human-readable findings; empty = healthy).
        Reads bypass the cache so the device contents are what is verified.
        """
        self._check_open()
        return self.level_set.scrub()

    def collect_value_garbage(self) -> int:
        """WiscKey-style value-log GC; returns the number of relocated values.

        Live values are detected by looking their keys up in the tree and
        comparing pointers; relocated pointers are re-installed via fresh puts
        of the new pointer (the standard WiscKey approach). The segments GC
        copied are retired only once every relocation is logged and synced.
        """
        self._check_open()
        values = self._values
        if values is None:
            return 0

        def is_live(key: bytes, pointer) -> bool:
            entry = self._find_entry(key)
            if entry is None or entry.is_tombstone:
                return False
            return values.pointer_of(entry.value) == pointer

        relocations, segments = values.log.collect_garbage(is_live)
        for new_pointer in relocations.values():
            key = values.log.key_of(new_pointer)
            if key is None:
                continue
            self._seqno += 1
            if self._wal is not None:
                # Log the raw value: replay re-appends it to a value log, so
                # the move survives a crash before the next flush.
                self._wal.append(
                    Entry(key=key, seqno=self._seqno, value=values.log.get(new_pointer))
                )
            self._apply(
                Entry(key=key, seqno=self._seqno, value=values.POINTER + new_pointer.encode())
            )
        if self._wal is not None:
            self._wal.sync()
        values.log.release(segments)
        self._retire(segments)
        self._persist_structure()
        return len(relocations)

    def close(self) -> None:
        """Flush buffered writes, seal the WAL, persist, and mark closed.

        A closed tree's device holds everything needed to reopen via
        :meth:`recover`; subsequent operations raise ClosedError. Idempotent.
        """
        if self._closed:
            return
        if self._wal is not None:
            with self._mutex:
                self.flush()
                self._wal.sync()
                self._persist_structure()
        self._closed = True
        self._executor.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "LSMTree":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------ durability

    @classmethod
    def recover(cls, config: LSMConfig, device: BlockDevice) -> "LSMTree":
        """Rebuild a tree from a device after a crash (requires wal_enabled).

        Reads the newest valid manifest owned by ``config.name``,
        reconstructs every run's in-memory auxiliary structures from its
        data blocks, replays every surviving WAL (oldest first) into the
        memtable (re-logging entries to a fresh WAL) and persists a fresh
        manifest. Only then does the sweep delete every file that no owner's
        newest valid manifest lists (old logs, a crash's leftovers), so a
        crash *during* recovery loses nothing and shards keep their files.

        Raises:
            CorruptionError: this owner has no valid manifest, yet the device
                holds data that none lists; nothing is deleted.
        """
        if not config.wal_enabled:
            raise ClosedError("recovery requires a config with wal_enabled=True")
        wall0 = time.perf_counter()
        sim0 = device.stats.simulated_time
        manifest = manifest_for_recovery(device, config.name)
        tree = cls(config, device=device, _defer_manifest=True)
        if manifest is not None:
            tree.stats.recoveries += 1
            tree._restore(*manifest)
        tree._persist_structure()
        tree._retire(unlisted_files(device))  # the sweep
        tree._drain()
        tree.stats.last_recovery_wall = time.perf_counter() - wall0
        tree.stats.last_recovery_sim = device.stats.simulated_time - sim0
        return tree

    def _restore(self, manifest_id: int, data: ManifestData) -> None:
        """Recovery proper: re-arrive the manifest's runs, replay its logs."""
        device, config = self.device, self.config
        self._manifest_file = manifest_id
        self._seqno = data.seqno
        range_factory = self._factory.range_filter_factory()
        index_factory = self._factory.index_factory()
        for level_no, runs in enumerate(data.levels, start=1):
            filter_factory = self._factory.filter_factory(level_no)
            for file_ids in reversed(runs):  # oldest first: each arrives youngest
                tables = [
                    rebuild_sstable(
                        device,
                        file_id,
                        index_factory=index_factory,
                        filter_factory=filter_factory,
                        range_filter_factory=range_factory,
                        hash_index=config.hash_index_blocks,
                    )
                    for file_id in file_ids
                ]
                self._register_tables(tables)
                self.level_set.apply(LevelEdit(level_no, add=tables))
        if self._value_log is not None:
            self._value_log.adopt(data.vlog_files)

        # Replay every live log, oldest first. The old files stay on the
        # device (and stay listed in any manifest written mid-replay, e.g.
        # by a replay-triggered flush) until the post-replay manifest is
        # durable: re-applying an already-flushed record is harmless (same
        # seqno, same content), but losing one is not.
        #
        # Logs CAN overlap: replay re-logs records into the fresh WAL, so a
        # crash after a mid-replay seal leaves both the original log and a
        # re-logged prefix of it in the manifest. Replaying that prefix
        # after the original would resurrect stale versions — track the max
        # seqno applied per key and skip anything not strictly newer.
        self._recovery_wals = list(data.wal_files)
        torn0 = self._wal.torn_frames_dropped
        replayed0 = self._wal.records_replayed
        applied: Dict[bytes, int] = {}
        for wal_file in self._recovery_wals:
            for record in self._wal.replay(wal_file):
                if record.seqno <= applied.get(record.key, 0):
                    continue
                applied[record.key] = record.seqno
                self._replay_entry(record)
        self._wal.sync()
        self.stats.wal_replayed_records += self._wal.records_replayed - replayed0
        self.stats.wal_torn_frames += self._wal.torn_frames_dropped - torn0
        self._recovery_wals = []

    def _replay_entry(self, record: Entry) -> None:
        """Re-apply one WAL record with its original seqno (and TTL deadline),
        re-encoding the value against this tree's value log. A merge
        record's operator must be registered (config.merge_operators)."""
        self._seqno = max(self._seqno, record.seqno)
        _, entry = stage(
            *op_of(record), record.seqno, 0.0,
            self._values, self._merge_registry, self.config.block_size,
        )
        self._wal.append(record)
        self._apply(entry)

    def manifest_data(self) -> ManifestData:
        """The structure as a manifest would record it right now."""
        # Every log recovery must replay, oldest first: prior-generation
        # logs (mid-recovery only), each pending seal's segment, then the
        # current log.
        wal_files: List[int] = []
        if self._wal is not None:
            wal_files = self._recovery_wals + [imm.sealed_wal for imm in self._immutables]
            wal_files.append(self._wal.current_file)
        return ManifestData(
            seqno=self._seqno,
            name=self.config.name,
            wal_files=wal_files,
            vlog_files=self._value_log.live_files() if self._value_log is not None else [],
            levels=self.level_set.file_ids(),
        )

    def _persist_structure(self) -> None:
        """Rewrite the manifest (retiring the one it replaces), then drain:
        a file leaves only once a durable manifest stopped listing it, so
        recovery never chases a deleted file. ``wal_retire`` is the crash
        point between the write and the deletions it allows."""
        if self._wal is None:
            return
        self.device.crash_hook("manifest_install")
        previous = self._manifest_file
        self._manifest_file = write_manifest(self.device, self.manifest_data())
        if previous is not None:
            self._retired.append(previous)
        self.device.crash_hook("wal_retire")
        self._drain()

    def _retire(self, file_ids) -> None:
        """Queue files no version needs. They leave at the next drain: after
        the next manifest write, or at once on a tree without a manifest."""
        self._retired.extend(file_ids)
        if self._wal is None:
            self._drain()

    def _drain(self) -> None:
        """Delete every queued file (the only place the tree deletes one)."""
        queue = self._retired
        while queue:
            file_id = queue.popleft()
            if self.device.file_exists(file_id):
                self.device.delete_file(file_id)

    # ------------------------------------------------------------- introspection

    @property
    def num_levels(self) -> int:
        """Allocated storage levels (level 0, the memtable, not counted)."""
        return len(self.level_set.levels)

    @property
    def total_runs(self) -> int:
        return sum(len(runs) for runs in self.level_set.levels)

    @property
    def uptime_seconds(self) -> float:
        """Wall-clock seconds since this engine instance was constructed
        (a recovered tree's uptime restarts — it is a new instance)."""
        return time.monotonic() - self._opened_monotonic

    def metrics_snapshot(self) -> dict:
        """The full engine-level metrics snapshot, flat and JSON-able.

        One call that surfaces everything dashboards need: the tree's
        counters (:meth:`LSMStats.as_dict`), the block cache's hit/miss/
        eviction accounting (``cache_*`` keys — callers no longer reach
        into ``tree.cache.stats``), the device's I/O totals (``device_*``),
        and the current structure shape.
        """
        snap = self.stats.as_dict()
        for name, value in self.cache.stats.as_dict().items():
            snap[f"cache_{name}"] = value
        for name, value in self.cache.compressed_stats.as_dict().items():
            snap[f"cache_compressed_{name}"] = value
        snap["cache_used_bytes"] = self.cache.used_bytes
        snap["cache_compressed_used_bytes"] = self.cache.compressed_used_bytes
        guard = getattr(self.device, "guard", None)
        if guard is not None:
            snap.update(guard.as_dict())
        for name in (
            "blocks_read", "blocks_written", "bytes_read", "bytes_written",
            "sequential_reads", "random_reads", "seeks", "coalesced_reads",
            "coalesced_blocks", "coalesced_writes", "coalesced_write_blocks",
            "simulated_time",
        ):
            snap[f"device_{name}"] = getattr(self.device.stats, name)
        snap.update(
            uptime_seconds=self.uptime_seconds,
            levels=self.num_levels,
            runs=self.total_runs,
            memtable_entries=self.memtable_entries,
            immutable_memtables=self.immutable_memtables,
            write_amplification=self.write_amplification,
        )
        return snap

    def level_summary(self) -> List[dict]:
        """Per-level shape: run/file counts, bytes, capacity (for examples)."""
        return [
            {
                "level": level,
                "runs": len(runs),
                "files": sum(len(run.tables) for run in runs),
                "bytes": sum(run.size_bytes for run in runs),
                "capacity": self.config.level_capacity(level),
                "entries": sum(run.entry_count for run in runs),
            }
            for level, runs in enumerate(self.level_set.levels, start=1)
        ]

    @property
    def write_amplification(self) -> float:
        """Device bytes written per user byte ingested."""
        return self.device.stats.bytes_written / max(1, self.stats.user_bytes)

    @property
    def space_amplification(self) -> float:
        """Device bytes used per logical live byte (scans the tree: O(n))."""
        logical = 0
        for key, value in self.scan():
            logical += len(key) + len(value)
        if logical == 0:
            return 0.0
        return self.device.used_bytes / logical

    @property
    def memory_footprint(self) -> int:
        """Bytes of in-memory structures: buffers + filters/indexes + cache."""
        aux = sum(run.memory_bytes for runs in self.level_set.levels for run in runs)
        sealed = sum(imm.size_bytes for imm in self._immutables)
        return self._memtable.size_bytes + sealed + aux + self.cache.used_bytes

    @property
    def memtable_entries(self) -> int:
        return len(self._memtable)

    @property
    def immutable_memtables(self) -> int:
        """Sealed memtables awaiting flush (service mode's flush backlog)."""
        return len(self._immutables)

    def flush_backlog(self) -> int:
        """Level-0-style write debt: sealed memtables + level-1 runs.

        The gauge backpressure watches — RocksDB's ``level0_file_num``
        analog for this engine's shape (level 1 holds flush output).
        """
        with self._mutex:
            levels = self.level_set.levels
            return (len(levels[0]) if levels else 0) + len(self._immutables)

    # ---------------------------------------------------------------- internals

    def _check_open(self) -> None:
        if self._closed:
            raise ClosedError("operation on a closed LSMTree")

    def _note_event(self, event: CompactionEvent) -> None:
        """Record a re-organization event in stats and, if attached, the observer."""
        self.stats.record_event(event)
        obs = self.observer
        if obs is not None:
            obs.record_event(event)

    def _count_value_fetch(self) -> None:
        with self._stats_lock:
            self.stats.value_log_fetches += 1

    def _find_entry(self, key: bytes) -> Optional[Entry]:
        """The newest raw version of ``key`` (no value resolution, no stats)."""
        return lookup(
            key, self.memory_chain(key), self.level_set.levels, self.cache, newest_only=True
        )[0]

    def _apply(self, entry: Entry) -> None:
        """Buffer one staged entry (under the tree mutex), then run the
        write path's maintenance unless a batch defers it to its end."""
        if entry.is_merge:
            entry = fold_operand(
                self._memtable.get(entry.key), entry, self.device.stats.simulated_time,
                self._values, self._merge_registry,
            )
        self._memtable.put(entry)
        if not self._in_batch:
            self._after_apply()

    def _after_apply(self) -> None:
        if self._memtable.size_bytes >= self.config.buffer_bytes:
            if self._maintenance_cb is not None:
                # Service mode: seal (cheap swap) and let the scheduler build
                # the run off the write path.
                self.seal_memtable()
                self._maintenance_cb()
            else:
                self.flush()
        if self.config.lazy_compaction and self._maintenance_cb is None:
            self._paced_compaction()

    def _paced_compaction(self) -> None:
        """Bounded compaction work per write, plus debt-based throttling."""
        for _ in range(self.config.compaction_steps_per_op):
            if not self._compaction_step():
                break
        threshold = self.config.slowdown_debt
        if threshold is not None and self.compaction_debt() > threshold:
            # Admission throttling: delay this write to let compactions
            # catch up (Luo & Carey; CruiseDB), modeled as a time charge.
            self.device.stats.simulated_time += self.config.stall_penalty
            self.stats.write_stalls += 1
            self.stats.stall_time += self.config.stall_penalty

    # -- run construction and retirement --

    def _build_run(self, columns: Columns, level: int) -> Optional[Run]:
        """Write sorted unique-key columns as one run of table files."""
        tables = build_tables(
            (columns,), self._factory.table_builder(self.device, level), self.config.file_bytes
        )
        self._register_tables(tables)
        return Run(tables) if tables else None

    def _register_tables(self, tables: List[SSTable]) -> None:
        for table in tables:
            table.born_at = self.stats.flushes  # staleness clock, in flush ticks
            with self._stats_lock:
                self.stats.blocks_written += table.num_data_blocks
                self.stats.block_bytes_uncompressed += table.uncompressed_data_bytes
                self.stats.block_bytes_stored += table.compressed_data_bytes
            if self._elastic is not None and isinstance(table.point_filter, ElasticBloomFilter):
                self._elastic.register(table.point_filter)

    def _retire_table(self, table: SSTable) -> None:
        """A table lost its last reference: evict it from memory, retire its file."""
        self.cache.invalidate_file(table.file_id)
        if self._elastic is not None and isinstance(table.point_filter, ElasticBloomFilter):
            self._elastic.unregister(table.point_filter)
        self._retire([table.file_id])

    # -- compaction: plan → execute → install, inline or scheduled --

    def _maybe_compact(self) -> None:
        """Run compaction steps until no trigger fires (eager mode)."""
        while self._compaction_step():
            pass

    def _compaction_step(self) -> bool:
        """Perform at most one compaction; True when work was done.

        This is the unit the lazy-compaction pacer schedules: one full-level
        merge, or one file move under partial granularity.
        """
        plan = self.plan_compaction()
        if plan is None:
            return False
        self.install_compaction(plan, self.execute_compaction(plan))
        return True

    def compaction_needed(self) -> bool:
        """True when any level's trigger currently fires (scheduler poll)."""
        with self._mutex:
            return self._policy.needed(self.level_set.levels, self.stats.flushes)

    def compaction_debt(self) -> float:
        """How far past its shape bounds the tree is (``CompactionPolicy.debt``)."""
        return self._policy.debt(self.level_set.levels, self.stats.flushes)

    def plan_compaction(self) -> Optional[CompactionPlan]:
        """Pick the next compaction under the mutex and pin its inputs.

        Returns None when no trigger fires. Every input table gains a pin
        that :meth:`install_compaction` (or :meth:`abandon_compaction`)
        releases.
        """
        with self._mutex:
            plan = self._policy.next_plan(self.level_set.levels, self.stats.flushes)
            if plan is not None:
                self.level_set.pin(plan.tables)
            return plan

    def execute_compaction(self, plan: CompactionPlan) -> Optional[Run]:
        """Merge a plan's inputs into a new run (the I/O-heavy phase).

        Runs without the tree mutex: the inputs are pinned, and only newer
        data can arrive above them while the merge reads. A trivial move
        does no work here.
        """
        if plan.trivial:
            return None
        obs = self.observer
        if obs is not None:
            obs.record_compaction_start(
                plan.level, plan.dest, plan.bytes_in, runs=len(plan.inputs)
            )
            wall0 = time.perf_counter()
        tables = self._executor.merge(plan)
        self._register_tables(tables)
        merged = Run(tables) if tables else None
        tombstones_in = sum(run.tombstone_count for run in plan.inputs)
        with self._stats_lock:
            if merged is not None:
                self.stats.compaction_bytes_out += merged.size_bytes
                tombstones_in -= merged.tombstone_count
            self.stats.tombstones_purged += max(0, tombstones_in)
        if obs is not None:
            obs.record_compaction(time.perf_counter() - wall0)
        return merged

    def install_compaction(self, plan: CompactionPlan, merged: Optional[Run]) -> None:
        """Atomically swap a finished compaction into the level structure.

        One edit removes exactly the planned input tables (data flushed
        mid-merge is untouched) and adds the output — for a trivial move, the
        inputs themselves — at the destination; then the plan's pins go.
        """
        with self._mutex:
            self.device.crash_hook("compaction_install")
            inputs = plan.tables
            if plan.trivial:
                outputs = inputs
                self.stats.trivial_moves += 1
                event = CompactionEvent(
                    "trivial_move", plan.level, plan.dest, 0, 0, self.stats.flushes
                )
            else:
                outputs = merged.tables if merged is not None else []
                self.stats.compactions += 1
                event = CompactionEvent(
                    plan.kind, plan.level, plan.dest, plan.bytes_in,
                    merged.size_bytes if merged is not None else 0,
                    self.stats.flushes,
                )
                if self._leaper is not None:
                    # Before the inputs are invalidated: Leaper reads the
                    # old blocks' heat.
                    self._leaper.on_compaction(inputs, outputs)
            self.level_set.apply(
                LevelEdit(plan.dest, add=outputs, remove=inputs, join=plan.join)
            )
            self._note_event(event)
            self.level_set.unpin(inputs)  # the plan's pins
            if not plan.trivial and self._elastic is not None:
                self._elastic.rebalance()
            self.level_set.trim()
            if self._wal is not None and self._maintenance_cb is not None:
                # Inline mode persists once per flush, after the whole
                # cascade; a scheduler-run compaction retires its inputs on
                # its own timeline, so it must rewrite the manifest itself
                # or recovery would chase files that no longer exist.
                self._persist_structure()

    def abandon_compaction(self, plan: CompactionPlan) -> None:
        """Release a plan's pins without installing (scheduler shutdown)."""
        with self._mutex:
            self.level_set.unpin(plan.tables)

    def set_subcompaction_executor(self, executor) -> None:
        """Borrow an externally owned worker pool for subcompactions.

        A service scheduler shares one pool across every tree it serves so
        N shards do not each spin up ``max_subcompactions`` threads. The
        owner shuts the pool down; :meth:`close` leaves it alone. Pass None
        to return to a private lazily created pool.
        """
        self._executor.borrow_pool(executor)


def _prefix_successor(prefix: bytes) -> Optional[bytes]:
    """Smallest byte string greater than every key starting with ``prefix``.

    Increments the rightmost non-0xFF byte and truncates; None when the
    prefix is all 0xFF (no finite successor exists).
    """
    for i in range(len(prefix) - 1, -1, -1):
        if prefix[i] != 0xFF:
            return prefix[:i] + bytes([prefix[i] + 1])
    return None
