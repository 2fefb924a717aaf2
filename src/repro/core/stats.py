"""Engine-level statistics: the quantities every experiment reports."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, fields
from typing import Deque

from repro.storage.sstable import ProbeStats

_HISTORY_CAP = 1024


@dataclass
class CompactionEvent:
    """One internal re-organization, for Compactionary-style introspection.

    Attributes:
        kind: 'flush', 'full', 'partial', or 'trivial_move'.
        level: source level (0 for flushes).
        dest: destination level.
        bytes_in: logical bytes read by the merge (0 for trivial moves).
        bytes_out: logical bytes written (0 for trivial moves).
        tick: the flush counter when the event happened.
    """

    kind: str
    level: int
    dest: int
    bytes_in: int
    bytes_out: int
    tick: int


@dataclass
class LSMStats:
    """Monotone counters maintained by :class:`~repro.core.lsm_tree.LSMTree`.

    Amplification factors are derived by the tree (they also need device and
    logical-size information): see ``LSMTree.write_amplification`` etc.
    """

    puts: int = 0
    deletes: int = 0
    gets: int = 0
    scans: int = 0
    scan_entries: int = 0
    user_bytes: int = 0  # key+value bytes the application ingested
    flushes: int = 0
    compactions: int = 0
    trivial_moves: int = 0
    compaction_bytes_in: int = 0  # logical bytes entering merges
    compaction_bytes_out: int = 0  # logical bytes written by merges
    tombstones_purged: int = 0
    value_log_fetches: int = 0
    write_stalls: int = 0  # throttled writes (admission control engaged)
    stall_time: float = 0.0  # simulated time spent stalled
    filtered_by_compaction: int = 0  # entries dropped by the compaction filter
    bulk_ingested: int = 0  # entries loaded via ingest_external
    multi_gets: int = 0  # multi_get batch calls
    multi_get_keys: int = 0  # distinct keys those batches resolved
    # -- parallel execution counters (repro.parallel) --
    parallel_compactions: int = 0  # merges executed as key-range subcompactions
    subcompactions: int = 0  # total subcompaction worker jobs run
    # -- block-compression counters (repro.storage.compression) --
    blocks_written: int = 0  # data blocks emitted by flushes and compactions
    block_bytes_uncompressed: int = 0  # what those blocks would occupy raw
    block_bytes_stored: int = 0  # what they actually occupy on the device
    probe: ProbeStats = field(default_factory=ProbeStats)
    get_hash_evaluations: int = 0  # digests computed on the get path
    # -- service-layer counters (repro.service) --
    batches_committed: int = 0  # group commits applied by the write batcher
    batched_records: int = 0  # records carried by those batches
    stall_slowdowns: int = 0  # writes delayed by soft backpressure
    stall_stops: int = 0  # writes blocked by hard backpressure
    stall_time_wall: float = 0.0  # wall-clock seconds writers spent gated
    flush_jobs: int = 0  # background flushes executed by the scheduler
    compaction_jobs: int = 0  # background compactions executed by the scheduler
    # -- transaction / merge / TTL counters (repro.txn) --
    merges: int = 0  # merge-operand writes ingested
    ttl_puts: int = 0  # puts carrying an expiry deadline
    ttl_expired_dropped: int = 0  # expired PUT_TTL entries reclaimed by compaction
    txn_commits: int = 0  # optimistic transactions committed
    txn_conflicts: int = 0  # commits rejected by read-set validation
    # -- crash-recovery counters (repro.faults) --
    recoveries: int = 0  # times LSMTree.recover rebuilt this tree from a manifest
    wal_replayed_records: int = 0  # entries re-applied from WALs at recovery
    wal_torn_frames: int = 0  # incomplete tail frames dropped at recovery
    last_recovery_wall: float = 0.0  # wall seconds of the last recovery
    last_recovery_sim: float = 0.0  # simulated time of the last recovery
    # The event log is capped by construction: a deque(maxlen=_HISTORY_CAP)
    # can never overrun, however the events are appended.
    history: Deque[CompactionEvent] = field(
        default_factory=lambda: deque(maxlen=_HISTORY_CAP)
    )

    def record_event(self, event: CompactionEvent) -> None:
        """Append to the bounded re-organization history."""
        self.history.append(event)

    def count_write(self, kind: str, key: bytes, value) -> None:
        """Count one accepted write op (``kind`` as ``write_batch`` names it)."""
        if kind == "delete":
            self.deletes += 1
            self.user_bytes += len(key)
            return
        self.user_bytes += len(key) + len(value)
        if kind == "merge":
            self.merges += 1
        else:
            self.puts += 1
            if kind == "put_ttl":
                self.ttl_puts += 1

    @property
    def filter_fpr_observed(self) -> float:
        """Observed false-positive rate: FP / (FP + TN) over all filter probes."""
        absent_probes = self.probe.false_positives + self.probe.filter_negatives
        if absent_probes <= 0:
            return 0.0
        return self.probe.false_positives / absent_probes

    @property
    def blocks_per_get(self) -> float:
        """Average data blocks touched per point lookup."""
        return self.probe.blocks_read / self.gets if self.gets else 0.0

    @property
    def entries_per_scan(self) -> float:
        """Average live entries produced per range scan."""
        return self.scan_entries / self.scans if self.scans else 0.0

    @property
    def compression_ratio(self) -> float:
        """Stored/raw byte ratio over all data blocks ever written (1.0 = no
        compression; 0.25 = blocks occupy a quarter of their raw size)."""
        if self.block_bytes_uncompressed <= 0:
            return 1.0
        return self.block_bytes_stored / self.block_bytes_uncompressed

    def as_dict(self) -> dict:
        """Flat metrics snapshot (for dashboards and experiment logs): every
        scalar counter by field name, the filter outcome counts, and the
        derived ratios."""
        snap = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("probe", "history")
        }
        snap.update(
            compression_ratio=self.compression_ratio,
            entries_per_scan=self.entries_per_scan,
            filter_probes=self.probe.filter_probes,
            filter_negatives=self.probe.filter_negatives,
            false_positives=self.probe.false_positives,
            filter_fpr_observed=self.filter_fpr_observed,
            blocks_per_get=self.blocks_per_get,
        )
        return snap
