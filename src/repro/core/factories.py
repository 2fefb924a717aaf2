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
from repro.core.design_space import DESIGN_SPACE, bind, takes
from repro.indexes import make_index_factory
from repro.storage.sstable import SSTableBuilder


class AuxFactory:
    """Stateful factory bound to one engine instance."""

    def __init__(self, config: LSMConfig) -> None:
        self._config = config
        self._seeds = itertools.count(config.seed)
        # The block codec flushes and compactions write with; None writes
        # raw blocks. Reads never consult it (byte 0 of a block says).
        self._codec = DESIGN_SPACE["compression"].resolve(config.compression)
        self._filter = DESIGN_SPACE["filter_kind"].resolve(config.filter_kind)
        self._range_filter = DESIGN_SPACE["range_filter"].resolve(config.range_filter)

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
        build = self._filter
        if build is None:
            return None
        bits = self._config.bits_for_level(level)
        if bits == 0 and takes(build, ("bits_per_key",)):
            return None  # Monkey may assign zero memory to deep levels
        seed = next(self._seeds)
        if self._config.shared_hashing:
            # One digest per lookup probes every run's filter, so every
            # filter must hash with the lookup's seed (at the price of
            # correlated false positives across runs).
            seed = self._config.seed
        return bind(build, self._config.filter_params, bits_per_key=bits, seed=seed)

    def range_filter_factory(self) -> Optional[Callable]:
        """Range-filter factory, shared across levels; None = no range filter."""
        build = self._range_filter
        if build is None:
            return None
        seed = next(self._seeds)
        return bind(build, self._config.range_filter_params, seed=seed)

    def index_factory(self) -> Optional[Callable]:
        """Search-index factory; None disables block indexing."""
        return make_index_factory(self._config.index, **self._config.index_params)
