"""ParallelConfig: the execution-speed knobs of the design space.

The tutorial costs every design decision in I/O counts; this config governs
how fast those I/Os are *executed*: how many key-range subcompactions a
merge is split into and how many blocks merge iterators, scans and batched
point reads fetch per device request. None of these knobs changes an answer
the engine returns or a block it logically reads — only how the device
requests are shaped (see :class:`ParallelConfig`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

from repro.common.config_base import at_least, kwonly_dataclass


@kwonly_dataclass
@dataclass
class ParallelConfig:
    """Parallelism and I/O-coalescing knobs (all results-invariant).

    Results-invariant means: against ``LSMConfig.parallel = None`` the same
    operations return the same answers, build byte-identical files, and leave
    the same ``CacheStats`` (both tiers), ``access_counts``, eviction order
    and ``ProbeStats`` — every block still reaches its reader through the
    one cache load, in the same order. What may differ is how the device
    was asked: ``seeks`` / sequential vs random reads, ``coalesced_reads`` /
    ``coalesced_blocks``, simulated and wall time, and — only when a scan
    stops before its end — blocks read ahead and never used
    (``blocks_read`` / ``bytes_read``).

    Attributes:
        max_subcompactions: upper bound on the key-range partitions one
            compaction job is split into; each partition merges on its own
            worker thread (RocksDB's ``max_subcompactions``). 1 disables
            splitting (the serial merge path).
        min_subcompaction_blocks: an input key-range must span at least this
            many data blocks per subcompaction before a split is worth its
            coordination overhead; small merges stay serial.
        merge_readahead_blocks: blocks fetched per coalesced device request
            by compaction/flush merge iterators (1 disables readahead).
        scan_readahead_blocks: blocks fetched per coalesced device request
            by range-scan iterators (1 disables readahead).
        write_buffer_blocks: finished data blocks a merge's output builder
            holds back and appends as one coalesced span (1 disables
            buffering). Essential under parallel subcompactions: without
            it, workers interleaving appends to one shared device turn
            nearly every output block into a random write.
    """

    max_subcompactions: Annotated[int, at_least(1)] = 4
    min_subcompaction_blocks: Annotated[int, at_least(1)] = 8
    merge_readahead_blocks: Annotated[int, at_least(1)] = 8
    scan_readahead_blocks: Annotated[int, at_least(1)] = 8
    write_buffer_blocks: Annotated[int, at_least(1)] = 8
