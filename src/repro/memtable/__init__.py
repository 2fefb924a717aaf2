"""In-memory write buffers (Level 0 of the LSM).

The tutorial notes that varying the buffer implementation is itself a design
knob (§II-A.2, §II-B.5). Three implementations are provided behind one ABC:

* :class:`~repro.memtable.skiplist.SkipListMemtable` — the classic probabilistic
  skiplist used by LevelDB/RocksDB; O(log n) insert and lookup, sorted scans.
* :class:`~repro.memtable.vector.VectorMemtable` — an append vector sorted at
  flush time; O(1) insert, O(n) lookup; models write-optimized buffers.
* :class:`~repro.memtable.flodb.FloDBMemtable` — FloDB's two-level buffer: a
  small hash front level absorbing writes at O(1) with a sorted skiplist back
  level, giving fast inserts *and* fast point lookups.
"""

from repro.memtable.base import ImmutableMemtable, Memtable
from repro.memtable.skiplist import SkipList, SkipListMemtable
from repro.memtable.vector import VectorMemtable
from repro.memtable.flodb import FloDBMemtable

MEMTABLE_KINDS = {
    "skiplist": SkipListMemtable,
    "vector": VectorMemtable,
    "flodb": FloDBMemtable,
}


def make_memtable(kind: str) -> Memtable:
    """Instantiate a memtable by its registry name.

    Raises:
        KeyError: for unknown kinds (the valid names are the keys of
        ``MEMTABLE_KINDS``).
    """
    try:
        return MEMTABLE_KINDS[kind]()
    except KeyError:
        raise KeyError(
            f"unknown memtable kind {kind!r}; expected one of {sorted(MEMTABLE_KINDS)}"
        ) from None


__all__ = [
    "ImmutableMemtable",
    "Memtable",
    "SkipList",
    "SkipListMemtable",
    "VectorMemtable",
    "FloDBMemtable",
    "MEMTABLE_KINDS",
    "make_memtable",
]
