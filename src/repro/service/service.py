"""DBService: the thread-safe, production-shaped front door to an LSMTree.

The seed engine runs every flush and compaction inline on the caller's
write path. This facade restores the shape production stores actually have:

* writes go through a :class:`WriteBatcher` (group commit — one WAL frame
  per batch, leader/follower acknowledgement);
* a full memtable is *sealed* on the write path and built/installed by a
  :class:`CompactionScheduler` worker in the background;
* a :class:`BackpressureController` delays or blocks writers when
  maintenance falls behind (RocksDB-style slowdown/stop);
* reads collect a key's in-memory versions under the tree mutex, then run
  the tree's one point-read walk (:mod:`repro.core.read_path`) over a pinned
  :class:`~repro.core.version.Version` outside it, so background installs
  never invalidate an in-flight lookup.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, Optional, Tuple

from repro.common.entry import GetResult
from repro.core.lsm_tree import LSMTree, Snapshot
from repro.core.read_path import chain_is_open
from repro.errors import ClosedError, ConflictError, ReproError
from repro.service.backpressure import BackpressureController
from repro.service.batcher import WriteBatcher, WriteOp
from repro.service.config import ServiceConfig
from repro.service.scheduler import CompactionScheduler, RateLimiter


def _member_ops(op: WriteOp):
    """The ``(kind, key, value[, meta])`` writes one queued op stands for."""
    if op.kind == "txn":
        return op.meta[1]
    if op.kind == "write":
        return op.meta
    return ((op.kind, op.key, op.value, op.meta),)


class DBService:
    """A concurrent database service over one :class:`LSMTree`.

    Args:
        tree: the tree to serve (``repro.open(config, service=True)``
            builds both).
        config: service knobs; defaults are reasonable for tests/demos.
        scheduler: an externally owned scheduler to share (the sharded
            deployment passes one scheduler for all shards); the service
            creates and owns a private one when omitted.

    The service is itself thread-safe: any number of client threads may
    call :meth:`put`, :meth:`delete`, :meth:`get`, and :meth:`scan`
    concurrently. :meth:`close` drains queues (every acknowledged write
    reaches storage or the WAL) and stops owned background workers.
    """

    def __init__(
        self,
        tree: LSMTree,
        config: Optional[ServiceConfig] = None,
        scheduler: Optional[CompactionScheduler] = None,
        close_tree: bool = False,
    ) -> None:
        self.tree = tree
        self.config = config or ServiceConfig()
        self._close_tree = close_tree
        self._owns_scheduler = scheduler is None
        if scheduler is None:
            limiter = None
            if self.config.compaction_rate_bytes is not None:
                limiter = RateLimiter(
                    self.config.compaction_rate_bytes,
                    self.config.compaction_burst_bytes,
                )
            scheduler = CompactionScheduler(
                num_workers=self.config.num_workers,
                rate_limiter=limiter,
                subcompaction_workers=self.config.subcompaction_workers,
            )
        self.scheduler = scheduler
        self.scheduler.register(tree)
        self.backpressure = BackpressureController(tree, self.config, scheduler)
        self._batcher = WriteBatcher(
            self._apply_batch,
            max_batch=self.config.max_batch,
            max_wait_s=self.config.max_batch_wait_s,
        )
        self._closed = False
        self._started_monotonic = time.monotonic()
        # Observability (repro.observe), wired by attach_observability().
        self.observer = None
        self.recorder = None
        self._write_wall = None
        self._get_wall = None
        self._batch_hist = None

    # -- observability ------------------------------------------------------

    def attach_observability(
        self,
        registry=None,
        sampling: float = 0.0,
        trace_capacity: int = 256,
    ):
        """Thread a metrics registry (and sampled tracing) through the stack.

        Instruments the tree (:func:`repro.observe.observe_tree`: engine
        latency histograms, per-level probe accounting, sampled read-path
        spans, and every :meth:`metrics_snapshot` key as a live series —
        queue depth, pending jobs and uptimes included), the service's
        client-observed wall-clock latencies (queueing + group commit
        included), the group-commit batch-size distribution and linger
        counts (leaders that waited for followers, and those that got
        none), the backpressure stall histogram and the flush backlog.

        Args:
            registry: report into this registry (a fresh one by default).
            sampling: read-path trace sampling fraction in [0, 1].
            trace_capacity: spans retained in the trace ring buffer.

        Returns:
            The attached :class:`~repro.observe.EngineObserver` (its
            ``registry`` and the service's ``recorder`` hold everything).
        """
        from repro.observe import observe_tree

        self.observer, self.recorder = observe_tree(
            self.tree, registry, sampling, trace_capacity, source=self
        )
        registry = self.observer.registry
        # One shared journal: engine flush/compaction events (via the
        # observer) interleave with backpressure stall/transition events.
        self.backpressure.journal = self.observer.journal
        self._write_wall = registry.histogram(
            "service_write_wall_seconds",
            "client-observed write latency (stall + queueing + group commit)",
            min_value=1e-6,
        )
        self._get_wall = registry.histogram(
            "service_get_wall_seconds",
            "client-observed point-lookup latency",
            min_value=1e-6,
        )
        self._batch_hist = registry.histogram(
            "service_batch_records",
            "records per group commit",
            growth=1.5,
            min_value=0.5,
        )
        self.backpressure.stall_histogram = registry.histogram(
            "service_stall_wall_seconds",
            "per-write stall delay (slowdown sleeps and hard stops)",
            min_value=1e-6,
        )
        # With service_batch_records (count = groups, sum = records) these
        # explain the average batch and what share of groups paid the wait.
        batcher_stats = self._batcher.stats
        registry.counter(
            "service_batch_lingers_total",
            "commit leaders that waited for followers (another writer was seen)",
        ).set_function(lambda: batcher_stats.lingers)
        registry.counter(
            "service_batch_lingers_empty_total",
            "lingers that ended with no follower (the wait bought nothing)",
        ).set_function(lambda: batcher_stats.lingers_empty)
        registry.gauge(
            "service_flush_backlog", "sealed memtables + level-1 runs"
        ).set_function(self.tree.flush_backlog)
        return self.observer

    # -- writes -------------------------------------------------------------

    def put(self, key: bytes, value: bytes, ttl: Optional[float] = None) -> None:
        """Durable insert/update; blocks until its group commit lands.

        ``ttl`` (simulated seconds) stamps the entry with an expiry
        deadline; see :meth:`LSMTree.put`.
        """
        if ttl is None:
            self._submit(WriteOp("put", key, value))
        else:
            self._submit(WriteOp("put_ttl", key, value, float(ttl)))

    def merge(self, key: bytes, operand: bytes, operator: str = "counter") -> None:
        """Durable merge-operand write (see :meth:`LSMTree.merge`)."""
        self.tree.merge_operator(operator)  # fail fast before queueing
        self._submit(WriteOp("merge", key, operand, operator))

    def delete(self, key: bytes) -> None:
        """Durable delete; blocks until its group commit lands."""
        self._submit(WriteOp("delete", key, None))

    def write(self, batch) -> None:
        """Apply a :class:`repro.txn.WriteBatch` (or op-tuple iterable)
        atomically: its records are contiguous within one group commit —
        one WAL frame holds them all, so a crash keeps or drops the batch
        whole."""
        ops = list(batch)
        if not ops:
            return
        self._submit(WriteOp("write", b"", None, ops))

    def commit_transaction(self, read_set: Dict[bytes, int], ops) -> int:
        """Validate and apply an optimistic transaction through group commit.

        Validation runs in the commit leader under the tree mutex — the
        transaction's read-set fingerprint is compared against current
        seqnos (and against keys written earlier in the same group), then
        its writes land in the group's single WAL frame.

        Raises:
            ConflictError: validation failed; nothing was applied.
        """
        ops = list(ops)
        self._submit(WriteOp("txn", b"", None, (dict(read_set), ops)))
        return len(ops)

    def register_merge_operator(self, operator) -> None:
        """Register a user merge operator on the underlying tree."""
        self.tree.register_merge_operator(operator)

    def merge_operator(self, name: str):
        """Look up a registered merge operator by name."""
        return self.tree.merge_operator(name)

    def _submit(self, op: WriteOp) -> None:
        self._check_open()
        histogram = self._write_wall
        recorder = self.recorder
        span = recorder.maybe_start("service:write") if recorder is not None else None
        if histogram is not None or span is not None:
            wall0 = time.perf_counter()
        self.backpressure.gate()
        if span is not None:
            gated = time.perf_counter()
            span.add_stage("backpressure_gate", gated - wall0)
        self._batcher.submit(op)
        if span is not None:
            span.add_stage("group_commit", time.perf_counter() - gated)
            recorder.finish(span, op=op.kind, key_bytes=len(op.key))
        if histogram is not None:
            histogram.record(time.perf_counter() - wall0)

    def _apply_batch(self, ops) -> Optional[List[Optional[BaseException]]]:
        """Commit one drained group: validate each member, apply the rest.

        Returns per-op errors: a member with an op staging would reject (an
        entry too big for a block, a NaN TTL, an unknown kind or operator)
        gets that error, and a transaction that loses validation a
        :class:`ConflictError`; everything else in the group still commits,
        in one frame. Expansion and validation happen together under the
        tree mutex so no write can slip between a transaction's validation
        and its apply.
        """
        tree = self.tree
        errors: List[Optional[BaseException]] = [None] * len(ops)
        with tree.mutex:
            flat: List[tuple] = []
            written: set = set()
            members = [_member_ops(op) for op in ops]
            group = sum(map(len, members))  # the seqnos the group can take
            for index, (op, member) in enumerate(zip(ops, members)):
                try:
                    for member_op in member:
                        tree.validate_write(*member_op, group=group)
                except (ReproError, ValueError, TypeError) as exc:  # what staging rejects
                    errors[index] = exc
                    continue
                if op.kind == "txn":
                    read_set = op.meta[0]
                    try:
                        # A key written earlier in this very group is as
                        # much a conflict as one already committed.
                        overlap = [k for k in read_set if k in written]
                        if overlap:
                            tree.stats.txn_conflicts += 1
                            raise ConflictError(
                                f"key {overlap[0]!r} written by an earlier "
                                f"commit in the same group"
                            )
                        tree.validate_read_set(read_set)
                    except ConflictError as exc:
                        errors[index] = exc
                        continue
                    tree.stats.txn_commits += 1
                flat.extend(member)
                written.update(member_op[1] for member_op in member)
            if flat:
                tree.write_batch(flat)
            # Under the mutex: the next group's leader may already be here.
            tree.stats.batches_committed += 1
            tree.stats.batched_records += len(ops)
        if self._batch_hist is not None:
            self._batch_hist.record(len(ops))
        return errors

    # -- reads --------------------------------------------------------------

    def get(self, key: bytes) -> GetResult:
        """Point lookup against pinned runs.

        The key's in-memory versions (active + sealed memtables) are
        collected under the tree mutex; when they do not decide the key the
        storage runs are pinned there too and walked outside it, so a
        concurrent compaction can retire — but never delete — the files
        this lookup is reading. The walk itself is the tree's
        (:meth:`ReadPath.get`): same counters, same per-level accounting.
        """
        self._check_open()
        histogram = self._get_wall
        recorder = self.recorder
        span = recorder.maybe_start("service:get") if recorder is not None else None
        if histogram is not None:
            wall0 = time.perf_counter()
        tree = self.tree
        trace = tree.read_trace(span)
        with tree.mutex:
            chain = tree.memory_chain(key)
            version = tree.pin_version(memory=False) if chain_is_open(chain) else None
        if trace is not None:
            trace.end_stage("memtable_probe")
        try:
            result = tree.reads.get(
                key, chain, version.levels if version is not None else (), trace=trace
            )
        finally:
            if version is not None:
                version.close()
        if span is not None:
            recorder.finish(span, from_memtable=version is None, **trace.attrs)
        if histogram is not None:
            histogram.record(time.perf_counter() - wall0)
        return result

    def scan(
        self, start: Optional[bytes] = None, end: Optional[bytes] = None
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Range scan over a pinned snapshot (see :meth:`LSMTree.scan`)."""
        self._check_open()
        return self.tree.scan(start, end)

    def multi_get(self, keys) -> "dict[bytes, GetResult]":
        """Batched point lookups over one view, in sorted key order.

        Every key's in-memory versions are collected and, when any of them
        leaves its key open, the storage runs pinned in one critical
        section; the batch is then walked outside the mutex
        (:meth:`ReadPath.multi_get`). A write that commits meanwhile is
        invisible to the whole batch. A sampled batch is one
        ``service:multi_get`` span.
        """
        self._check_open()
        recorder = self.recorder
        span = recorder.maybe_start("service:multi_get") if recorder is not None else None
        unique = sorted(set(keys))
        tree = self.tree
        with tree.mutex:
            chains = {key: tree.memory_chain(key) for key in unique}
            open_chain = any(chain_is_open(chain) for chain in chains.values())
            version = tree.pin_version(memory=False) if open_chain else None
        try:
            results = tree.reads.multi_get(
                chains, version.levels if version is not None else (),
                observer=tree.observer,
            )
        finally:
            if version is not None:
                version.close()
        if span is not None:
            recorder.finish(span, op="multi_get", keys=len(unique))
        return results

    def snapshot(self) -> Snapshot:
        """A consistent read view of the tree (see :meth:`LSMTree.snapshot`).

        Writes queued but not yet group-committed are invisible — the
        snapshot captures committed state only.
        """
        self._check_open()
        return self.tree.snapshot()

    # -- maintenance --------------------------------------------------------

    def flush(self, wait: bool = True) -> None:
        """Seal the memtable and schedule its flush; optionally wait."""
        self._check_open()
        if self.tree.seal_memtable() is not None:
            self.scheduler.request_flush(self.tree)
        if wait:
            self.scheduler.drain()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait for all queued background work to finish."""
        return self.scheduler.drain(timeout)

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Drain and stop: commit queued writes, flush, stop owned workers.

        By default the underlying tree stays open (inspectable, and still
        usable single-threaded with inline maintenance restored); a service
        constructed with ``close_tree=True`` (the ``repro.open()`` path)
        also closes the tree — flushing, sealing its WAL, and persisting.
        """
        if self._closed:
            return
        self._closed = True
        self._batcher.close()
        if self.tree.seal_memtable() is not None:
            self.scheduler.request_flush(self.tree)
        self.scheduler.drain()
        if self._owns_scheduler:
            self.scheduler.close()
        self.tree.set_maintenance_callback(None)
        if self._close_tree:
            self.tree.close()

    def __enter__(self) -> "DBService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- introspection ------------------------------------------------------

    @property
    def stats(self):
        return self.tree.stats

    @property
    def uptime_seconds(self) -> float:
        """Wall-clock seconds since this service instance was constructed."""
        return time.monotonic() - self._started_monotonic

    def ping(self) -> dict:
        """Cheap liveness probe: no I/O, safe to call from health checks.

        Reports whether the service is open, how long the service and the
        underlying engine have been up (a recovered tree restarts its
        clock — it is a new instance), and the background-job backlog.
        """
        return {
            "ok": not self._closed,
            "service_uptime_seconds": self.uptime_seconds,
            "engine_uptime_seconds": self.tree.uptime_seconds,
            "pending_jobs": self.scheduler.pending_jobs,
            "write_queue_depth": self._batcher.queue_depth,
        }

    def metrics_snapshot(self) -> dict:
        """The engine's metrics snapshot plus service-level uptime/backlog."""
        snapshot = self.tree.metrics_snapshot()
        snapshot["service_uptime_seconds"] = self.uptime_seconds
        snapshot["pending_jobs"] = self.scheduler.pending_jobs
        snapshot["write_queue_depth"] = self._batcher.queue_depth
        return snapshot

    def _check_open(self) -> None:
        if self._closed:
            raise ClosedError("operation on a closed DBService")
