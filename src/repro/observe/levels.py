"""RocksDB-style per-level statistics, derived live from a tree.

``level_stats(tree)`` joins two sources: the tree's current *shape*
(runs/files/bytes/capacity per level, always available) and the attached
:class:`~repro.observe.engine.EngineObserver`'s per-level I/O accounting
(reads, filter FPR, cache hit rate, compaction bytes — zeros when no
observer is attached). The result renders as the classic ``compaction
stats`` dump and exports as labeled gauges.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List, Optional

from repro.bench.report import format_table
from repro.observe.metrics import MetricsRegistry
from repro.storage.sstable import ProbeStats

#: Column order of the rendered table (a subset of the per-level dict keys).
LEVEL_COLUMNS = [
    "level", "runs", "files", "bytes", "capacity", "entries",
    "gets_probed", "gets_served", "filter_fpr", "cache_hit_rate",
    "block_accesses", "bytes_written", "bytes_compacted_in",
]


@dataclass
class LevelIO(ProbeStats):
    """One level's traffic: the probe counts of the point lookups that
    reached it (merged in per lookup), plus what only a level has."""

    gets_probed: int = 0  # point lookups that reached this level
    gets_served: int = 0  # point lookups answered by this level
    bytes_written: int = 0  # flush/compaction output landing here
    bytes_compacted_in: int = 0  # bytes read out of this level by merges

    @property
    def filter_fpr(self) -> float:
        absent = self.false_positives + self.filter_negatives
        return self.false_positives / absent if absent else 0.0

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.blocks_read if self.blocks_read else 0.0

    def as_dict(self) -> dict:
        row = asdict(self)
        row["block_accesses"] = row.pop("blocks_read")  # cache hits included
        row.update(filter_fpr=self.filter_fpr, cache_hit_rate=self.cache_hit_rate)
        return row


def level_stats(tree) -> List[dict]:
    """One dict per storage level, combining shape and I/O accounting."""
    observer = getattr(tree, "observer", None)
    history = observer.levels if observer is not None else {}
    shapes = {summary["level"]: summary for summary in tree.level_summary()}
    rows: List[dict] = []
    # Levels that held data earlier but are empty now still have history.
    for level_no in sorted(shapes.keys() | history.keys()):
        shape = shapes.get(level_no) or {
            "level": level_no, "runs": 0, "files": 0, "bytes": 0,
            "capacity": tree.config.level_capacity(level_no), "entries": 0,
        }
        rows.append({**shape, **history.get(level_no, LevelIO()).as_dict()})
    return rows


def format_level_table(tree) -> str:
    """The per-level stats table as aligned ASCII (RocksDB's dump shape)."""
    rows = level_stats(tree)
    return format_table(
        LEVEL_COLUMNS,
        [[row[column] for column in LEVEL_COLUMNS] for row in rows],
    )


def export_level_gauges(tree, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Publish the per-level rows into ``registry`` as labeled gauges.

    Each row key becomes ``level_<key>{level="N"}``; calling again
    refreshes the same series. Uses the tree observer's registry when none
    is given (and a fresh one when the tree is unobserved). An observed
    tree's registry re-derives them on every scrape
    (:class:`~repro.observe.engine.EngineView`), so this is only needed
    for a one-off export of an unobserved tree.
    """
    if registry is None:
        observer = getattr(tree, "observer", None)
        registry = observer.registry if observer is not None else MetricsRegistry()
    for row in level_stats(tree):
        labels = {"level": str(row["level"])}
        for key, value in row.items():
            if key != "level":
                registry.gauge(f"level_{key}", f"per-level {key}", labels=labels).set(float(value))
    return registry
