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


def make_memtable(kind: str) -> Memtable:
    """Instantiate a ``DESIGN_SPACE["memtable"]`` choice (ConfigError if unknown)."""
    from repro.core.design_space import DESIGN_SPACE  # the table imports this package

    return DESIGN_SPACE["memtable"].resolve(kind)()


__all__ = [
    "ImmutableMemtable",
    "Memtable",
    "SkipList",
    "SkipListMemtable",
    "VectorMemtable",
    "FloDBMemtable",
    "make_memtable",
]
