"""The design-space knob set: one dataclass, every tutorial dimension.

``LSMConfig`` is deliberately exhaustive — the tuning package enumerates and
costs configurations by constructing these objects, so anything a tutorial
experiment varies must be a field here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Union

from repro.common.config_base import kwonly_dataclass
from repro.compaction.layout import LayoutPolicy
from repro.errors import ConfigError
from repro.parallel.config import ParallelConfig
from repro.storage.compression import available_codecs

_FILTER_KINDS = {
    "none", "bloom", "blocked_bloom", "partitioned", "elastic", "cuckoo", "xor", "quotient",
}
_RANGE_FILTER_KINDS = {"none", "prefix_bloom", "surf", "rosetta", "snarf"}
_INDEX_KINDS = {"none", "fence", "hash", "rmi", "pgm", "radix_spline"}
_MEMTABLE_KINDS = {"skiplist", "vector", "flodb"}
_CACHE_POLICIES = {"lru", "lfu", "clock"}
_PICKERS = {"round_robin", "least_overlap", "coldest", "most_tombstones", "oldest"}
_LAYOUTS = {"leveling", "tiering", "lazy_leveling", "bush"}
_COMPRESSION_KINDS = frozenset(available_codecs())


@kwonly_dataclass
@dataclass
class LSMConfig:
    """Every design decision of the engine, with production-like defaults.

    Keyword-only: field order is not a stable interface.

    Attributes:
        name: the tree's identity on its device; manifests carry it, so
            several trees (shards) can share one device and each recovers
            its own structure.
        buffer_bytes: memtable flush threshold (level 0 capacity).
        memtable: buffer implementation ('skiplist', 'vector', 'flodb').
        size_ratio: T — capacity ratio between adjacent levels.
        layout: data layout name or a :class:`LayoutPolicy` (hybrids).
        block_size: data-block payload size.
        file_bytes: partition runs into files of ~this size; None keeps one
            file per run. Required for partial compaction.
        index: block search index ('fence', 'hash', 'rmi', 'pgm',
            'radix_spline', 'none').
        index_params: extra constructor kwargs for the index.
        filter_kind: point filter per run ('bloom', 'blocked_bloom',
            'partitioned', 'elastic', 'cuckoo', 'xor', 'quotient', 'none').
        bits_per_key: scalar, or per-level sequence (Monkey allocation);
            levels beyond the sequence reuse its last value.
        filter_params: extra constructor kwargs for the point filter.
        range_filter: per-run range filter ('prefix_bloom', 'surf',
            'rosetta', 'snarf', 'none').
        range_filter_params: extra constructor kwargs for the range filter.
        cache_bytes: block-cache budget; 0 disables caching.
        cache_policy: eviction policy ('lru', 'lfu', 'clock').
        hash_index_blocks: attach per-data-block hash indexes (O(1) in-block
            search, RocksDB's data-block hash index).
        partial_compaction: compact one file at a time instead of whole
            levels (requires ``file_bytes`` and a leveled layout).
        picker: partial-compaction victim policy.
        kv_separation: store large values in a WiscKey-style value log.
        value_threshold: minimum value size that goes to the value log.
        vlog_segment_blocks: value-log segment length, in blocks.
        leaper_prefetch: re-warm the block cache after compactions.
        leaper_params: LeaperPrefetcher kwargs (hot_threshold, ...).
        shared_hashing: compute one filter digest per lookup, reused across
            all runs' Bloom filters.
        elastic_budget_units: global ElasticBF unit budget (only with
            filter_kind='elastic'); None disables rebalancing.
        saturation_threshold: level-fullness fraction that triggers
            compaction (1.0 = exactly at capacity).
        wal_enabled: write-ahead logging + manifest persistence, enabling
            ``LSMTree.recover`` after a crash (fail-stop between operations).
        wal_sync_interval: records per WAL group commit; the crash-loss
            window, traded against log write I/O.
        staleness_flushes: also trigger compaction when a level's oldest run
            outlives this many flushes (the timer option of the compaction
            trigger primitive; bounds delete-persistence latency). None
            disables.
        lazy_compaction: decouple compaction from flushes — at most
            ``compaction_steps_per_op`` compaction steps run per write,
            bounding per-operation work (SILK/DLC-style pacing) at the cost
            of temporarily exceeding run bounds. Off = eager (classic
            synchronous) compaction.
        compaction_steps_per_op: pacing budget per write when lazy.
        slowdown_debt: compaction-debt fraction above which writes are
            throttled by ``stall_penalty`` simulated time units each
            (Luo & Carey-style admission throttling); None disables.
        stall_penalty: simulated-time charge per throttled write.
        compaction_filter: optional ``f(key, stored_value) -> keep`` applied
            to live entries as compactions rewrite them (RocksDB's compaction
            filter; the standard TTL-expiry mechanism). Must be
            deterministic; dropped entries simply cease to exist. With
            kv_separation the stored value is the tagged pointer/inline form.
        parallel: optional :class:`~repro.parallel.config.ParallelConfig`
            enabling key-range subcompactions and coalesced multi-block
            device requests. Results-invariant: answers, file bytes, cache
            and probe counts are those of ``None``; only the device's
            request shapes (seeks, ``coalesced_*``), simulated and wall time
            change, plus blocks read ahead in vain by a scan abandoned early
            (see ``ParallelConfig``). None keeps the fully serial,
            one-block-at-a-time engine.
        merge_operators: extra :class:`~repro.txn.MergeOperator` instances to
            register on the tree (the built-in ``counter`` and
            ``append_set`` are always available).
        compression: per-block codec for SSTable data blocks ('none',
            'zlib', 'rle' — see :mod:`repro.storage.compression`). Trades
            flush/compaction/read CPU for device bytes; tables written under
            any setting stay readable under any other (byte 0 of a table
            block says whether it is a compressed frame). WAL frames and
            value-log records are never compressed.
        compressed_cache_bytes: budget for the block cache's compressed
            tier, which retains raw on-device frames so a miss in the
            (decoded) ``cache_bytes`` tier costs a decompression instead of
            a device read. 0 disables the tier.
        seed: base seed for hashes, skiplists, and any randomized choice.
    """

    buffer_bytes: int = 1 << 20
    memtable: str = "skiplist"
    size_ratio: int = 4
    layout: Union[str, LayoutPolicy] = "leveling"
    block_size: int = 4096
    file_bytes: Optional[int] = None
    index: str = "fence"
    index_params: Dict = field(default_factory=dict)
    filter_kind: str = "bloom"
    bits_per_key: Union[float, Sequence[float]] = 10.0
    filter_params: Dict = field(default_factory=dict)
    range_filter: str = "none"
    range_filter_params: Dict = field(default_factory=dict)
    cache_bytes: int = 0
    cache_policy: str = "lru"
    hash_index_blocks: bool = False
    partial_compaction: bool = False
    picker: str = "least_overlap"
    kv_separation: bool = False
    value_threshold: int = 128
    vlog_segment_blocks: int = 256
    leaper_prefetch: bool = False
    leaper_params: Dict = field(default_factory=dict)
    shared_hashing: bool = False
    elastic_budget_units: Optional[int] = None
    saturation_threshold: float = 1.0
    wal_enabled: bool = False
    wal_sync_interval: int = 32
    lazy_compaction: bool = False
    compaction_steps_per_op: int = 1
    staleness_flushes: Optional[int] = None
    slowdown_debt: Optional[float] = None
    stall_penalty: float = 50.0
    compaction_filter: Optional[Callable[[bytes, bytes], bool]] = None
    parallel: Optional[ParallelConfig] = None
    seed: int = 42
    merge_operators: Sequence = ()
    name: str = "db"
    compression: str = "none"
    compressed_cache_bytes: int = 0

    def __post_init__(self) -> None:
        self.validate()

    # -- validation ------------------------------------------------------------

    def validate(self) -> None:
        """Check value ranges and knob interactions; raises ConfigError."""
        if not self.name or any(c.isspace() for c in self.name):
            raise ConfigError("name must be non-empty and contain no whitespace")
        if self.buffer_bytes <= 0:
            raise ConfigError("buffer_bytes must be positive")
        if self.size_ratio < 2:
            raise ConfigError("size_ratio must be at least 2")
        if self.block_size <= 0:
            raise ConfigError("block_size must be positive")
        if self.memtable not in _MEMTABLE_KINDS:
            raise ConfigError(f"unknown memtable {self.memtable!r}")
        if self.index not in _INDEX_KINDS:
            raise ConfigError(f"unknown index {self.index!r}")
        if self.filter_kind not in _FILTER_KINDS:
            raise ConfigError(f"unknown filter_kind {self.filter_kind!r}")
        if self.range_filter not in _RANGE_FILTER_KINDS:
            raise ConfigError(f"unknown range_filter {self.range_filter!r}")
        if self.cache_policy not in _CACHE_POLICIES:
            raise ConfigError(f"unknown cache_policy {self.cache_policy!r}")
        if self.picker not in _PICKERS:
            raise ConfigError(f"unknown picker {self.picker!r}")
        if isinstance(self.layout, str) and self.layout not in _LAYOUTS:
            raise ConfigError(f"unknown layout {self.layout!r}")
        if self.cache_bytes < 0:
            raise ConfigError("cache_bytes must be non-negative")
        if self.compression not in _COMPRESSION_KINDS:
            raise ConfigError(f"unknown compression {self.compression!r}")
        if self.compressed_cache_bytes < 0:
            raise ConfigError("compressed_cache_bytes must be non-negative")
        if self.saturation_threshold <= 0:
            raise ConfigError("saturation_threshold must be positive")
        if self.file_bytes is not None and self.file_bytes < self.block_size:
            raise ConfigError("file_bytes must be at least one block")
        if self.partial_compaction:
            if self.file_bytes is None:
                raise ConfigError("partial_compaction requires file_bytes")
            if self.layout_policy().inner_runs != 1:
                raise ConfigError("partial_compaction requires a leveled layout")
        if self.kv_separation and self.value_threshold < 0:
            raise ConfigError("value_threshold must be non-negative")
        if self.leaper_prefetch and self.cache_bytes == 0:
            raise ConfigError("leaper_prefetch needs a block cache")
        if self.elastic_budget_units is not None and self.filter_kind != "elastic":
            raise ConfigError("elastic_budget_units requires filter_kind='elastic'")
        if self.wal_sync_interval < 1:
            raise ConfigError("wal_sync_interval must be at least 1")
        if self.compaction_steps_per_op < 0:
            raise ConfigError("compaction_steps_per_op must be non-negative")
        if self.staleness_flushes is not None and self.staleness_flushes < 1:
            raise ConfigError("staleness_flushes must be at least 1")
        if self.slowdown_debt is not None and self.slowdown_debt < 0:
            raise ConfigError("slowdown_debt must be non-negative")
        if self.stall_penalty < 0:
            raise ConfigError("stall_penalty must be non-negative")
        if self.parallel is not None:
            self.parallel.validate()
        if isinstance(self.bits_per_key, (int, float)):
            if self.bits_per_key < 0:
                raise ConfigError("bits_per_key must be non-negative")
        else:
            if not list(self.bits_per_key):
                raise ConfigError("per-level bits_per_key must be non-empty")
            if any(bits < 0 for bits in self.bits_per_key):
                raise ConfigError("bits_per_key entries must be non-negative")

    # -- derived values ----------------------------------------------------------

    def layout_policy(self) -> LayoutPolicy:
        """The resolved layout policy object."""
        if isinstance(self.layout, LayoutPolicy):
            return self.layout
        return LayoutPolicy.by_name(self.layout, self.size_ratio)

    def level_capacity(self, level: int) -> int:
        """Byte capacity of storage level ``level`` (1-based): buffer * T^level."""
        if level < 1:
            raise ValueError("storage levels are 1-based")
        return self.buffer_bytes * self.size_ratio ** level

    def bits_for_level(self, level: int) -> float:
        """Bloom bits/key at ``level``: scalar, or Monkey's per-level vector."""
        if isinstance(self.bits_per_key, (int, float)):
            return float(self.bits_per_key)
        levels = list(self.bits_per_key)
        idx = min(level - 1, len(levels) - 1)
        return float(levels[idx])

    def replace(self, **changes) -> "LSMConfig":
        """A copy with some fields changed (convenience for sweeps)."""
        import dataclasses

        return dataclasses.replace(self, **changes)
