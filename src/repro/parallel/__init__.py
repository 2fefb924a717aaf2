"""repro.parallel: subcompactions, coalesced device I/O, and hot-path speed.

The rest of the repo asks *how many* I/Os a design pays (the tutorial's
currency); this package makes the engine *execute* those I/Os as fast as the
simulated hardware allows:

* :class:`~repro.parallel.config.ParallelConfig` — the knobs, attached to
  ``LSMConfig.parallel``;
* :mod:`~repro.parallel.subcompaction` — key-range parallel compaction
  (plan/execute machinery; install stays in the tree, under its mutex);
* :mod:`~repro.parallel.coalesce` — the multi-block frame source merge
  iterators, range scans and batched point lookups read their blocks from.

Everything here is results-invariant: any tree produced or read through
these paths returns byte-identical answers to the serial engine, from the
same cache and probe counts (see :class:`ParallelConfig`).
"""

from repro.parallel.config import ParallelConfig
from repro.parallel.coalesce import FrameSource
from repro.parallel.subcompaction import (
    SubcompactionError,
    merge_range,
    per_key,
    run_subcompactions,
    split_key_ranges,
)

__all__ = [
    "ParallelConfig",
    "FrameSource",
    "SubcompactionError",
    "merge_range",
    "per_key",
    "run_subcompactions",
    "split_key_ranges",
]
