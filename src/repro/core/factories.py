"""Builds the per-run auxiliary structures an LSMConfig asks for.

The SSTable builder takes plain callables (``filter_factory(keys)``,
``index_factory(keys, block_of_key)``); this module manufactures those
callables from the configuration, including per-level Bloom budgets (Monkey)
and per-file seeds (decorrelated false positives).
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional

from repro.core.config import LSMConfig
from repro.filters.blocked_bloom import BlockedBloomFilter
from repro.filters.bloom import BloomFilter
from repro.filters.cuckoo import CuckooFilter
from repro.filters.elastic import ElasticBloomFilter
from repro.filters.partitioned import PartitionedBloomFilter
from repro.filters.prefix_bloom import PrefixBloomFilter
from repro.filters.rosetta import Rosetta
from repro.filters.snarf import Snarf
from repro.filters.surf import SuRF
from repro.filters.quotient import QuotientFilter
from repro.filters.xor import XorFilter
from repro.indexes import make_index_factory
from repro.storage.compression import get_codec
from repro.storage.sstable import SSTableBuilder


class AuxFactory:
    """Stateful factory bound to one engine instance."""

    def __init__(self, config: LSMConfig) -> None:
        self._config = config
        self._seeds = itertools.count(config.seed)
        # The block codec flushes and compactions write with; None writes
        # raw blocks. Reads never consult it (byte 0 of a block says).
        self._codec = (
            get_codec(config.compression) if config.compression != "none" else None
        )

    def table_builder(self, device, level: int) -> Callable[[], SSTableBuilder]:
        """A maker of table builders for output landing at ``level``. Call once
        per flush or merge: the auxiliary-structure factories (and the seeds
        they draw) are fixed here and shared by every file of that output,
        across file rollovers and subcompaction workers."""
        config = self._config
        filter_factory = self.filter_factory(level)
        range_factory = self.range_filter_factory()
        index_factory = self.index_factory()
        write_buffer = config.parallel.write_buffer_blocks if config.parallel else 1

        def new_builder() -> SSTableBuilder:
            return SSTableBuilder(
                device,
                block_size=config.block_size,
                index_factory=index_factory,
                filter_factory=filter_factory,
                range_filter_factory=range_factory,
                hash_index=config.hash_index_blocks,
                write_buffer_blocks=write_buffer,
                codec=self._codec,
            )

        return new_builder

    def filter_factory(self, level: int) -> Optional[Callable]:
        """Point-filter factory for runs landing at ``level``; None = no filter."""
        kind = self._config.filter_kind
        if kind == "none":
            return None
        bits = self._config.bits_for_level(level)
        if bits == 0 and kind in {"bloom", "blocked_bloom", "partitioned", "elastic"}:
            return None  # Monkey may assign zero memory to deep levels
        params = dict(self._config.filter_params)
        seed = next(self._seeds)
        if self._config.shared_hashing:
            # One digest per lookup probes every run's filter, so every
            # filter must hash with the lookup's seed (at the price of
            # correlated false positives across runs).
            seed = self._config.seed

        if kind == "bloom":
            return lambda keys: BloomFilter(keys, bits_per_key=bits, seed=seed, **params)
        if kind == "blocked_bloom":
            return lambda keys: BlockedBloomFilter(keys, bits_per_key=bits, seed=seed, **params)
        if kind == "partitioned":
            return lambda keys: PartitionedBloomFilter(keys, bits_per_key=bits, seed=seed, **params)
        if kind == "elastic":
            return lambda keys: ElasticBloomFilter(keys, bits_per_key=bits, seed=seed, **params)
        if kind == "cuckoo":
            return lambda keys: CuckooFilter(keys, seed=seed, **params)
        if kind == "xor":
            return lambda keys: XorFilter(keys, seed=seed, **params)
        if kind == "quotient":
            return lambda keys: QuotientFilter(keys, seed=seed, **params)
        raise AssertionError(f"validated config held unknown filter {kind!r}")

    def range_filter_factory(self) -> Optional[Callable]:
        """Range-filter factory, shared across levels; None = no range filter."""
        kind = self._config.range_filter
        if kind == "none":
            return None
        params = dict(self._config.range_filter_params)
        seed = next(self._seeds)

        if kind == "prefix_bloom":
            return lambda keys: PrefixBloomFilter(keys, seed=seed, **params)
        if kind == "surf":
            return lambda keys: SuRF(keys, seed=seed, **params)
        if kind == "rosetta":
            return lambda keys: Rosetta(keys, seed=seed, **params)
        if kind == "snarf":
            return lambda keys: Snarf(keys, **params)
        raise AssertionError(f"validated config held unknown range filter {kind!r}")

    def index_factory(self) -> Optional[Callable]:
        """Search-index factory; None disables block indexing."""
        if self._config.index == "none":
            return None
        return make_index_factory(self._config.index, **self._config.index_params)
