"""Block search indexes (tutorial §II-B.1 and §II-B.4).

A search index maps a lookup key to the data block(s) of a run file that may
contain it. Classic fence pointers answer exactly; learned indexes answer
within an error bound at a fraction of the memory; a hash index answers in
O(1) CPU. All implement :class:`~repro.indexes.base.SearchIndex` and plug into
:class:`~repro.storage.sstable.SSTableBuilder` via ``index_factory``.
"""

from repro.indexes.base import SearchIndex
from repro.indexes.fence import FencePointers
from repro.indexes.hash_index import HashIndex
from repro.indexes.learned.rmi import RMIIndex
from repro.indexes.learned.pgm import PGMIndex
from repro.indexes.learned.radix_spline import RadixSplineIndex
from repro.indexes.remix import RemixView


def make_index_factory(kind: str, **kwargs):
    """Return an ``index_factory`` callable for :class:`SSTableBuilder` that
    builds the ``DESIGN_SPACE["index"]`` choice ``kind`` with ``kwargs``; None
    for ``"none"`` (no block index). ConfigError for an unknown kind."""
    from repro.core.design_space import DESIGN_SPACE, bind  # the table imports this package

    build = DESIGN_SPACE["index"].resolve(kind)
    return None if build is None else bind(build, kwargs)


__all__ = [
    "SearchIndex",
    "RemixView",
    "FencePointers",
    "HashIndex",
    "RMIIndex",
    "PGMIndex",
    "RadixSplineIndex",
    "make_index_factory",
]
