"""Key-space partitioning: several LSM-trees behind one keyspace.

Tutorial §II-A.2: "for better load balancing, some LSM engines partition the
key space and store the partitions in separate trees" (LHAM, PebblesDB,
Nova-LSM). Each shard holds a contiguous key range, so every shard's tree is
shallower (fewer levels, fewer runs per lookup) and compactions touch less
data — at the cost of per-shard memory overheads and a routing step.
"""

from __future__ import annotations

import bisect
import heapq
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core.config import LSMConfig
from repro.core.lsm_tree import LSMTree
from repro.core.manifest import manifest_for_recovery
from repro.errors import ClosedError, ConfigError, SnapshotError
from repro.storage.block_device import BlockDevice


class ShardedStore:
    """A range-sharded collection of LSM-trees over one shared device.

    Args:
        config: per-shard configuration (each shard gets its own buffer and
            auxiliary memory; size the buffer accordingly).
        boundaries: sorted split keys; ``len(boundaries) + 1`` shards are
            created. Shard i holds keys in ``[boundaries[i-1], boundaries[i])``.
        device: optional shared device (a fresh one by default).
        scheduler: an externally owned
            :class:`~repro.service.scheduler.CompactionScheduler` shared by
            every shard — one background worker pool for the whole store
            instead of per-shard inline maintenance (or, worse, one pool per
            shard). When given, each shard seals its memtable on the write
            path and the shared workers build/install runs and compact; call
            ``scheduler.drain()`` (or :meth:`flush`) before tearing the
            store down. When None, shards flush and compact inline exactly
            as before.
    """

    def __init__(
        self,
        config: LSMConfig,
        boundaries: Sequence[bytes],
        device: Optional[BlockDevice] = None,
        scheduler=None,
    ) -> None:
        boundaries = list(boundaries)
        if boundaries != sorted(set(boundaries)):
            raise ConfigError("shard boundaries must be sorted and unique")
        self.device = device or BlockDevice(block_size=config.block_size)
        self._boundaries = boundaries
        self.scheduler = scheduler
        self.shards: List[LSMTree] = [
            LSMTree(_shard_config(config, i), device=self.device)
            for i in range(len(boundaries) + 1)
        ]
        if scheduler is not None:
            for shard in self.shards:
                scheduler.register(shard)
        self.observers: list = []  # per-shard EngineObservers (observability)
        self.recorders: list = []  # per-shard TraceRecorders

    @classmethod
    def recover(
        cls,
        config: LSMConfig,
        boundaries: Sequence[bytes],
        device: BlockDevice,
        scheduler=None,
    ) -> "ShardedStore":
        """Reopen a sharded store from its shared device after a crash.

        Every shard wrote manifests under its own name (``<name>-shard<i>``),
        so each recovers independently from the newest valid manifest bearing
        that name; its sweep deletes every file no shard's newest manifest
        lists. Every shard's manifest is checked before any shard sweeps, so
        a damaged one raises ``CorruptionError`` and deletes nothing.

        Args:
            config: the same per-shard configuration the store was built with
                (``wal_enabled=True`` required).
            boundaries: the same split keys (shard count must match).
            device: the shared device that survived the crash.
            scheduler: optional shared scheduler, as in the constructor.
        """
        boundaries = list(boundaries)
        if boundaries != sorted(set(boundaries)):
            raise ConfigError("shard boundaries must be sorted and unique")
        store = object.__new__(cls)
        store.device = device
        store._boundaries = boundaries
        store.scheduler = scheduler
        configs = [_shard_config(config, i) for i in range(len(boundaries) + 1)]
        for shard_config in configs:
            manifest_for_recovery(device, shard_config.name)
        store.shards = [LSMTree.recover(shard_config, device) for shard_config in configs]
        if scheduler is not None:
            for shard in store.shards:
                scheduler.register(shard)
        store.observers = []
        store.recorders = []
        return store

    # -- routing -------------------------------------------------------------

    def shard_for(self, key: bytes) -> LSMTree:
        """The shard whose range contains ``key``."""
        return self.shards[bisect.bisect_right(self._boundaries, key)]

    # -- operations -----------------------------------------------------------

    def put(self, key: bytes, value: bytes, ttl: Optional[float] = None) -> None:
        self.shard_for(key).put(key, value, ttl=ttl)

    def merge(self, key: bytes, operand: bytes, operator: str = "counter") -> None:
        """Route a merge-operand write to ``key``'s shard."""
        self.shard_for(key).merge(key, operand, operator=operator)

    def get(self, key: bytes):
        return self.shard_for(key).get(key)

    def multi_get(self, keys: Sequence[bytes]):
        """Batched lookup: one ``multi_get`` batch per shard
        (:func:`_multi_get`); a closed store refuses every batch."""
        if self.shards[0].closed:
            raise ClosedError("operation on a closed ShardedStore")
        return _multi_get(self._boundaries, self.shards, keys)

    def delete(self, key: bytes) -> None:
        self.shard_for(key).delete(key)

    def write(self, batch) -> None:
        """Apply a write batch, grouped per shard.

        Atomicity holds *within* each shard (one WAL frame per shard's
        sub-batch); a batch spanning shards is not a single atomic unit —
        a crash can land between shard applies. Use single-shard batches
        (or :meth:`commit_transaction`) when that matters.
        """
        ops = list(batch)
        grouped: dict = {}
        for op in ops:
            index = bisect.bisect_right(self._boundaries, op[1])
            grouped.setdefault(index, []).append(op)
        for index in sorted(grouped):
            self.shards[index].write_batch(grouped[index])

    def commit_transaction(self, read_set, ops) -> int:
        """Commit an optimistic transaction whose footprint fits one shard.

        Cross-shard transactions would need two-phase commit across WALs,
        which this store does not implement — every key in the read set and
        the write ops must route to the same shard.

        Raises:
            ConfigError: the footprint spans more than one shard.
            ConflictError: validation failed; nothing was applied.
        """
        ops = list(ops)
        indexes = {
            bisect.bisect_right(self._boundaries, key) for key in read_set
        } | {bisect.bisect_right(self._boundaries, op[1]) for op in ops}
        if len(indexes) > 1:
            raise ConfigError(
                "transaction footprint spans shards "
                f"{sorted(indexes)}; sharded transactions must be single-shard"
            )
        if not indexes:
            return 0
        return self.shards[indexes.pop()].commit_transaction(read_set, ops)

    def register_merge_operator(self, operator) -> None:
        """Register a user merge operator on every shard."""
        for shard in self.shards:
            shard.register_merge_operator(operator)

    def snapshot(self) -> "ShardedSnapshot":
        """A consistent-per-shard read view across all shards.

        Each shard's snapshot is taken in sequence; the composite is not a
        single atomic point across shards (a write can land on shard B
        between pinning A and B), matching the store's per-shard atomicity.
        """
        return ShardedSnapshot(self)

    def scan(
        self, start: Optional[bytes] = None, end: Optional[bytes] = None
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Ordered scan across shards (ranges are disjoint: concatenation).

        Every shard the range overlaps is pinned by this call, so writes
        made afterwards are invisible to the scan, as on one tree. The
        shards are pinned one after another, not at one atomic point (see
        :meth:`snapshot`). Closing or dropping the iterator releases them.
        """
        scan = _concat([
            self.shards[index].scan(start, end)
            for index in _overlapping(self._boundaries, start, end)
        ])
        next(scan)  # into the try: closing an unstarted scan closes every shard's
        return scan

    def flush(self) -> None:
        """Flush every shard; with a shared scheduler, waits for its workers."""
        for shard in self.shards:
            if self.scheduler is not None:
                if shard.seal_memtable() is not None:
                    self.scheduler.request_flush(shard)
            else:
                shard.flush()
        if self.scheduler is not None:
            self.scheduler.drain()

    def compact_all(self) -> None:
        for shard in self.shards:
            shard.compact_all()

    def close(self) -> None:
        """Flush and close every shard (drains a shared scheduler first)."""
        if self.scheduler is not None:
            self.scheduler.drain()
        for shard in self.shards:
            shard.set_maintenance_callback(None)
            shard.close()

    def __enter__(self) -> "ShardedStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- observability -----------------------------------------------------------

    def attach_observability(self, sampling: float = 0.0, trace_capacity: int = 128):
        """Give every shard its own observer and trace recorder.

        Each shard records into a private registry (no cross-shard lock
        contention on the hot paths) that also carries the shard's own
        ``metrics_snapshot()`` counts; :meth:`merged_registry` folds them
        into one store-wide view on demand. Returns the observer list.
        """
        from repro.observe import observe_tree

        self.observers = []
        self.recorders = []
        for shard in self.shards:
            observer, recorder = observe_tree(
                shard, sampling=sampling, trace_capacity=trace_capacity
            )
            self.observers.append(observer)
            self.recorders.append(recorder)
        return self.observers

    def merged_registry(self):
        """One registry summing every shard's: counters add, histograms
        merge bucket-wise (exact — shards share the bucket layout), gauges
        sum. The store-wide percentile view a dashboard scrapes.
        """
        from repro.observe import merge_registries

        return merge_registries([observer.registry for observer in self.observers])

    # -- introspection -----------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def max_depth(self) -> int:
        """Deepest shard (levels) — the load-balancing win to observe."""
        return max(shard.num_levels for shard in self.shards)

    @property
    def write_amplification(self) -> float:
        user = sum(shard.stats.user_bytes for shard in self.shards)
        return self.device.stats.bytes_written / max(1, user)

    def shard_summary(self) -> List[dict]:
        """Per-shard shape for load-balance inspection."""
        return [
            {
                "shard": index,
                "levels": shard.num_levels,
                "runs": shard.total_runs,
                "entries": sum(level["entries"] for level in shard.level_summary()),
            }
            for index, shard in enumerate(self.shards)
        ]


class ShardedSnapshot:
    """Per-shard snapshots composed behind the store's routing table.

    Provides the read half of the KVStore surface (get / multi_get / scan)
    against the state each shard held when :meth:`ShardedStore.snapshot`
    pinned it. Close releases every shard's pinned version.
    """

    def __init__(self, store: ShardedStore) -> None:
        self._boundaries = store._boundaries
        self._snapshots = [shard.snapshot() for shard in store.shards]

    def get(self, key: bytes):
        index = bisect.bisect_right(self._boundaries, key)
        return self._snapshots[index].get(key)

    def multi_get(self, keys: Sequence[bytes]):
        """Batched lookup: one batch per shard snapshot (:func:`_multi_get`);
        a released snapshot refuses every batch."""
        if self._snapshots[0].closed:
            raise SnapshotError("snapshot has been released")
        return _multi_get(self._boundaries, self._snapshots, keys)

    def scan(
        self, start: Optional[bytes] = None, end: Optional[bytes] = None
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Ordered scan across the pinned shard snapshots."""
        for index in _overlapping(self._boundaries, start, end):
            yield from self._snapshots[index].scan(start, end)

    def close(self) -> None:
        for snapshot in self._snapshots:
            snapshot.close()

    def __enter__(self) -> "ShardedSnapshot":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _multi_get(boundaries: Sequence[bytes], handles, keys: Sequence[bytes]) -> dict:
    """Route the distinct ``keys`` to the shard handles (trees or snapshots)
    and send each handle its keys as one ``multi_get`` batch. Returns
    ``{key: GetResult}`` in globally sorted key order: shards hold contiguous
    ranges, so their sorted batches, visited in shard order, concatenate to
    the sorted whole."""
    grouped: dict = {}
    for key in set(keys):
        grouped.setdefault(bisect.bisect_right(boundaries, key), []).append(key)
    results: dict = {}
    for index in sorted(grouped):
        results.update(handles[index].multi_get(grouped[index]))
    return results


def _overlapping(
    boundaries: Sequence[bytes], start: Optional[bytes], end: Optional[bytes]
) -> Iterator[int]:
    """Indexes of the shards whose key ranges meet ``[start, end]``, in order."""
    for index in range(len(boundaries) + 1):
        lo = boundaries[index - 1] if index > 0 else None
        if end is not None and lo is not None and lo > end:
            return
        hi = boundaries[index] if index < len(boundaries) else None
        if start is not None and hi is not None and hi <= start:
            continue
        yield index


def _concat(scans: "List[Iterator[Tuple[bytes, bytes]]]") -> Iterator[Tuple[bytes, bytes]]:
    """The shard scans one after another; closing releases every one. Its
    first ``next()`` only enters the ``try`` (the caller primes it)."""
    try:
        yield
        for scan in scans:
            yield from scan
    finally:
        for scan in scans:
            scan.close()


def _shard_config(config: LSMConfig, index: int) -> LSMConfig:
    """Per-shard config: distinct seed and a distinct manifest name."""
    return config.replace(
        seed=config.seed + index, name=f"{config.name}-shard{index}"
    )


def even_boundaries(keyspace: int, shards: int, width: int = 8) -> List[bytes]:
    """Uniform split keys for an integer keyspace of ``keyspace`` keys."""
    if shards < 1:
        raise ConfigError("need at least one shard")
    step = keyspace / shards
    return [
        int(step * i).to_bytes(width, "big") for i in range(1, shards)
    ]


def merge_shard_scans(
    scans: Sequence[Iterator[Tuple[bytes, bytes]]]
) -> Iterator[Tuple[bytes, bytes]]:
    """K-way merge of already-sorted (key, value) iterators.

    Only needed for *overlapping* shard layouts (the sharded store's ranges
    are disjoint); provided for hash-sharded variants built on top.
    """
    return heapq.merge(*scans, key=lambda kv: kv[0])
