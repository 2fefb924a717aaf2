"""Point-query and range-query filters (tutorial Module II, §B.2-B.3).

Point filters answer "might this run contain key k?" and let a lookup skip a
run without I/O on a negative. Range filters answer "might this run contain
any key in [lo, hi]?". Every implementation here is built from scratch and
instrumented (hash evaluations, modeled cache-line touches, bit counts) so the
CPU-vs-space tradeoffs the tutorial discusses are measurable.

Point filters: standard Bloom, block-based (cache-local) Bloom, partitioned
Bloom, ElasticBF-style multi-unit, cuckoo, xor. Range filters: prefix Bloom,
SuRF, Rosetta, SNARF.
"""

from repro.filters.base import PointFilter, RangeFilter, FilterStats
from repro.filters.hashing import hash64, hash64_many, hash_pair, HashCounter
from repro.filters.bloom import BloomFilter
from repro.filters.blocked_bloom import BlockedBloomFilter
from repro.filters.partitioned import PartitionedBloomFilter
from repro.filters.elastic import ElasticBloomFilter, ElasticFilterManager
from repro.filters.cuckoo import CuckooFilter
from repro.filters.xor import XorFilter
from repro.filters.quotient import QuotientFilter
from repro.filters.shared_hash import SharedHashProber
from repro.filters.prefix_bloom import PrefixBloomFilter
from repro.filters.surf import SuRF
from repro.filters.rosetta import Rosetta
from repro.filters.snarf import Snarf

__all__ = [
    "PointFilter",
    "RangeFilter",
    "FilterStats",
    "hash64",
    "hash64_many",
    "hash_pair",
    "HashCounter",
    "BloomFilter",
    "BlockedBloomFilter",
    "PartitionedBloomFilter",
    "ElasticBloomFilter",
    "ElasticFilterManager",
    "CuckooFilter",
    "XorFilter",
    "QuotientFilter",
    "SharedHashProber",
    "PrefixBloomFilter",
    "SuRF",
    "Rosetta",
    "Snarf",
]
