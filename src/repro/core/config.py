"""The design-space knob set: one dataclass, every tutorial dimension.

``LSMConfig`` is deliberately exhaustive: anything an experiment varies — the
benchmarks sweep layouts, filters, indexes and budgets by constructing these
objects — must be a field here. Each field declares its type and bounds where
it is defined; the choices of each design dimension and the constructors
behind them are rows of :data:`~repro.core.design_space.DESIGN_SPACE`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Annotated, Callable, Dict, Optional, Sequence, Union

from repro.cache.leaper import LeaperPrefetcher
from repro.common.config_base import (
    NON_EMPTY, NON_NEGATIVE, POSITIVE, Rule, at_least, check_fields, kwonly_dataclass,
)
from repro.compaction.layout import LayoutPolicy
from repro.core.design_space import DESIGN_SPACE, check_params
from repro.errors import ConfigError
from repro.parallel.config import ParallelConfig

#: A tree's name is its identity on a shared device (manifests carry it).
_NAME = Rule(
    lambda name: bool(name) and not any(c.isspace() for c in name),
    "non-empty and contain no whitespace",
    on=str,
)


@kwonly_dataclass
@dataclass
class LSMConfig:
    """Every design decision of the engine, with production-like defaults.

    Keyword-only: field order is not a stable interface. The eight
    design-dimension fields (``memtable``, ``layout``, ``index``,
    ``filter_kind``, ``range_filter``, ``cache_policy``, ``picker``,
    ``compression``) each take a choice of their
    :data:`~repro.core.design_space.DESIGN_SPACE` row; docs/API.md lists them.

    Attributes:
        name: the tree's identity on its device; manifests carry it, so
            several trees (shards) can share one device and each recovers
            its own structure.
        buffer_bytes: memtable flush threshold (level 0 capacity).
        memtable: buffer implementation.
        size_ratio: T — capacity ratio between adjacent levels.
        layout: data layout name or a :class:`LayoutPolicy` (hybrids).
        block_size: data-block payload size.
        file_bytes: partition runs into files of ~this size; None keeps one
            file per run. Required for partial compaction.
        index: block search index.
        index_params: extra constructor kwargs for the index.
        filter_kind: point filter per run.
        bits_per_key: scalar, or per-level sequence (Monkey allocation);
            levels beyond the sequence reuse its last value.
        filter_params: extra constructor kwargs for the point filter.
        range_filter: per-run range filter.
        range_filter_params: extra constructor kwargs for the range filter.
        cache_bytes: block-cache budget; 0 disables caching.
        cache_policy: block-cache eviction policy.
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
        compression: per-block codec for SSTable data blocks (see
            :mod:`repro.storage.compression`). Trades
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

    buffer_bytes: Annotated[int, POSITIVE] = 1 << 20
    memtable: str = "skiplist"
    size_ratio: Annotated[int, at_least(2)] = 4
    layout: Union[str, LayoutPolicy] = "leveling"
    block_size: Annotated[int, POSITIVE] = 4096
    file_bytes: Optional[int] = None
    index: str = "fence"
    index_params: Dict = field(default_factory=dict)
    filter_kind: str = "bloom"
    bits_per_key: Annotated[Union[float, Sequence[float]], NON_NEGATIVE, NON_EMPTY] = 10.0
    filter_params: Dict = field(default_factory=dict)
    range_filter: str = "none"
    range_filter_params: Dict = field(default_factory=dict)
    cache_bytes: Annotated[int, NON_NEGATIVE] = 0
    cache_policy: str = "lru"
    hash_index_blocks: bool = False
    partial_compaction: bool = False
    picker: str = "least_overlap"
    kv_separation: bool = False
    value_threshold: Annotated[int, NON_NEGATIVE] = 128
    vlog_segment_blocks: Annotated[int, at_least(1)] = 256
    leaper_prefetch: bool = False
    leaper_params: Dict = field(default_factory=dict)
    shared_hashing: bool = False
    elastic_budget_units: Annotated[Optional[int], NON_NEGATIVE] = None
    saturation_threshold: Annotated[float, POSITIVE] = 1.0
    wal_enabled: bool = False
    wal_sync_interval: Annotated[int, at_least(1)] = 32
    lazy_compaction: bool = False
    compaction_steps_per_op: Annotated[int, NON_NEGATIVE] = 1
    staleness_flushes: Annotated[Optional[int], at_least(1)] = None
    slowdown_debt: Annotated[Optional[float], NON_NEGATIVE] = None
    stall_penalty: Annotated[float, NON_NEGATIVE] = 50.0
    compaction_filter: Optional[Callable[[bytes, bytes], bool]] = None
    parallel: Optional[ParallelConfig] = None
    seed: int = 42
    merge_operators: Sequence = ()
    name: Annotated[str, _NAME] = "db"
    compression: str = "none"
    compressed_cache_bytes: Annotated[int, NON_NEGATIVE] = 0

    def validate(self) -> None:
        """Check every field, every design choice, and the knob interactions
        no single field states; raises ConfigError."""
        check_fields(self)
        for dimension in DESIGN_SPACE.values():
            dimension.check(self)
        check_params("leaper_params", LeaperPrefetcher, self.leaper_params, positional=1)
        if self.file_bytes is not None and self.file_bytes < self.block_size:
            raise ConfigError("file_bytes must be at least one block")
        if self.partial_compaction:
            if self.file_bytes is None:
                raise ConfigError("partial_compaction requires file_bytes")
            if self.layout_policy().inner_runs != 1:
                raise ConfigError("partial_compaction requires a leveled layout")
        if self.leaper_prefetch and self.cache_bytes == 0:
            raise ConfigError("leaper_prefetch needs a block cache")
        if self.elastic_budget_units is not None and self.filter_kind != "elastic":
            raise ConfigError("elastic_budget_units requires filter_kind='elastic'")

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
