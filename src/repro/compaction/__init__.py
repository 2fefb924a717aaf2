"""The compaction design space, decomposed into first-order primitives.

Following Sarkar et al. (VLDB 2021) — cited by the tutorial as the compaction
design space — a compaction policy is the combination of four independent
primitives:

1. **data layout** (:mod:`~repro.compaction.layout`): how many sorted runs a
   level may hold — leveling, tiering, lazy leveling, or any hybrid (K, Z);
2. **trigger** (:mod:`~repro.compaction.trigger`): when to compact — run
   count, level saturation, or both;
3. **granularity** (:mod:`~repro.compaction.granularity`): which tables one
   compaction consumes — every run of the level, or one file and the
   destination files it overlaps;
4. **data movement policy** (:mod:`~repro.compaction.picker`): which file a
   partial compaction picks.

:class:`~repro.compaction.policy.CompactionPolicy` composes the four from a
configuration and emits :class:`~repro.compaction.granularity.CompactionPlan`
objects; :mod:`~repro.compaction.executor` holds the one merge every plan
runs through (import it directly — it sits above the storage and parallel
packages this package's light modules must stay importable without).
"""

from repro.compaction.layout import LayoutPolicy
from repro.compaction.trigger import (
    CompactionTrigger,
    CompositeTrigger,
    RunCountTrigger,
    SaturationTrigger,
)
from repro.compaction.picker import make_picker
from repro.compaction.granularity import CompactionPlan, FullLevel, PartialFile
from repro.compaction.policy import CompactionPolicy

__all__ = [
    "LayoutPolicy",
    "CompactionTrigger",
    "RunCountTrigger",
    "SaturationTrigger",
    "CompositeTrigger",
    "make_picker",
    "CompactionPlan",
    "CompactionPolicy",
    "FullLevel",
    "PartialFile",
]
