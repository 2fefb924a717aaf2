"""The design space as one declared table.

Each row is one design dimension the tutorial surveys: the
:class:`~repro.core.config.LSMConfig` field that selects it, its choices, the
constructor behind each choice, the tutorial section, and — for the two
compaction dimensions — which of the four compaction primitives of Sarkar et
al. (VLDB 2021) it is. Config validation, the per-run factories
(:class:`~repro.core.factories.AuxFactory`) and every package's by-name
resolver (``make_memtable``, ``make_index_factory``, ``make_policy``,
``make_picker``, ``LayoutPolicy.by_name``) read this table, so an unknown
name raises the one :class:`~repro.errors.ConfigError` of :meth:`resolve`.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.cache.policies import ClockPolicy, LFUPolicy, LRUPolicy
from repro.compaction.layout import LayoutPolicy
from repro.compaction.picker import (
    ColdestPicker, LeastOverlapPicker, MostTombstonesPicker, OldestPicker, RoundRobinPicker,
)
from repro.errors import ConfigError
from repro.filters import (
    BlockedBloomFilter, BloomFilter, CuckooFilter, ElasticBloomFilter, PartitionedBloomFilter,
    PrefixBloomFilter, QuotientFilter, Rosetta, Snarf, SuRF, XorFilter,
)
from repro.indexes import FencePointers, HashIndex, PGMIndex, RadixSplineIndex, RMIIndex
from repro.memtable import FloDBMemtable, SkipListMemtable, VectorMemtable
from repro.storage.compression import available_codecs, get_codec


@dataclass(frozen=True)
class Dimension:
    """One row of the design space.

    Attributes:
        name: the dimension as the tutorial names it.
        field: the ``LSMConfig`` field that selects a choice.
        section: the tutorial section that surveys the dimension.
        choices: choice name -> constructor, in documented order; a None
            constructor builds nothing.
        primitive: the compaction primitive it is, for compaction rows.
        constraints: the cross-field rules that involve it, as documented.
        params: the ``LSMConfig`` field of extra constructor kwargs, if any;
            they are bound against the chosen constructor's signature when
            the config is made, without building anything.
        positional: positional arguments the engine passes each constructor.
        supplied: kwargs the engine passes to each constructor that takes them.
        custom: a type whose instances the field also accepts as they are.
    """

    name: str
    field: str
    section: str
    choices: Mapping[str, Any]
    primitive: str = ""
    constraints: str = ""
    params: str = ""
    positional: int = 0
    supplied: Tuple[str, ...] = ()
    custom: Optional[type] = None

    def resolve(self, choice) -> Any:
        """The constructor behind ``choice``; ConfigError for an unknown one."""
        if isinstance(choice, str) and choice in self.choices:
            return self.choices[choice]
        raise ConfigError(
            f"unknown {self.field} {choice!r}; expected one of {', '.join(sorted(self.choices))}"
        )

    def check(self, config) -> None:
        """Check the config's choice and its ``params`` without building either."""
        choice = getattr(config, self.field)
        if self.custom is not None and isinstance(choice, self.custom):
            return
        build = self.resolve(choice)
        if build is not None and self.params:
            check_params(
                self.params, build, getattr(config, self.params), self.positional, self.supplied
            )


def check_params(
    field: str, build: Callable, params: Mapping, positional: int, supplied: Tuple[str, ...] = ()
) -> None:
    """Bind ``params`` against ``build``'s signature, as the engine will call
    it, without calling it; ConfigError for a key it does not take."""
    try:
        for name in takes(build, supplied):
            if name in params:
                raise TypeError(f"the engine passes {name!r} itself")
        _signature(build).bind_partial(*[None] * positional, **params)
    except TypeError as exc:
        raise ConfigError(f"{field} do not fit {build.__name__}: {exc}") from None


def bind(build: Callable, params: Mapping, **supplied) -> Callable:
    """``build`` with the ``supplied`` kwargs it takes and ``params`` applied."""
    kwargs = {name: supplied[name] for name in takes(build, supplied)}
    return functools.partial(build, **kwargs, **params)


@functools.lru_cache(maxsize=None)
def _signature(build: Callable) -> inspect.Signature:
    return inspect.signature(build)


def takes(build: Callable, names) -> Tuple[str, ...]:
    """The ``names`` that ``build``'s signature accepts, in order."""
    accepted = _signature(build).parameters
    return tuple(name for name in names if name in accepted)


DESIGN_SPACE: Dict[str, Dimension] = {row.field: row for row in (
    Dimension("buffer", "memtable", "§II-A.1, §II-B.5", {
        "skiplist": SkipListMemtable, "vector": VectorMemtable, "flodb": FloDBMemtable,
    }),
    Dimension("data layout", "layout", "§II-A.2", {
        "leveling": lambda size_ratio: LayoutPolicy.leveling(), "tiering": LayoutPolicy.tiering,
        "lazy_leveling": LayoutPolicy.lazy_leveling, "bush": LayoutPolicy.bush,
    }, primitive="data layout", custom=LayoutPolicy,
        constraints="or any `LayoutPolicy`; `partial_compaction` needs one run per level"),
    Dimension("search index", "index", "§II-B.1, §II-B.4", {
        "none": None, "fence": FencePointers, "hash": HashIndex, "rmi": RMIIndex,
        "pgm": PGMIndex, "radix_spline": RadixSplineIndex,
    }, params="index_params", positional=2, constraints="kwargs in `index_params`"),
    Dimension("point filter", "filter_kind", "§II-B.2", {
        "none": None, "bloom": BloomFilter, "blocked_bloom": BlockedBloomFilter,
        "partitioned": PartitionedBloomFilter, "elastic": ElasticBloomFilter,
        "cuckoo": CuckooFilter, "xor": XorFilter, "quotient": QuotientFilter,
    }, params="filter_params", positional=1, supplied=("bits_per_key", "seed"),
        constraints="kwargs in `filter_params`; a kind sized by `bits_per_key` builds no "
        "filter at a level given 0 bits; `elastic_budget_units` needs `elastic`"),
    Dimension("range filter", "range_filter", "§II-B.3", {
        "none": None, "prefix_bloom": PrefixBloomFilter, "surf": SuRF, "rosetta": Rosetta,
        "snarf": Snarf,
    }, params="range_filter_params", positional=1, supplied=("seed",),
        constraints="kwargs in `range_filter_params`"),
    Dimension("cache eviction", "cache_policy", "§II-B.1", {
        "lru": LRUPolicy, "lfu": LFUPolicy, "clock": ClockPolicy,
    }, constraints="used when `cache_bytes` > 0; `leaper_prefetch` needs a cache"),
    Dimension("file picker", "picker", "§II-A.2", {picker.name: picker for picker in (
        RoundRobinPicker, LeastOverlapPicker, ColdestPicker, MostTombstonesPicker, OldestPicker,
    )}, primitive="data movement policy",
        constraints="used when `partial_compaction` (needs `file_bytes` >= `block_size`)"),
    # "none" writes raw blocks, with no codec frame at all.
    Dimension("block compression", "compression", "— (beyond the tutorial)", {
        name: None if name == "none" else get_codec(name) for name in available_codecs()
    }),
)}
