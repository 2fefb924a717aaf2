"""File-picking policies for partial compaction: the data-movement primitive.

When compaction granularity is one file at a time (RocksDB, LevelDB,
X-Engine), *which* file gets compacted shapes write amplification, space
reclamation, and tail latency (tutorial §II-A.2; Sarkar et al. VLDB 2021).
Each picker maps (victim level's files, next level's files) to one victim.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence

from repro.storage.sstable import SSTable


class FilePicker(abc.ABC):
    """Chooses the file a partial compaction will move down."""

    name = "abstract"

    @abc.abstractmethod
    def pick(
        self, level_tables: Sequence[SSTable], next_level_tables: Sequence[SSTable]
    ) -> SSTable:
        """Return the victim file; ``level_tables`` is never empty."""


class RoundRobinPicker(FilePicker):
    """Cycle through the key space (LevelDB's policy): predictable, fair."""

    name = "round_robin"

    def __init__(self) -> None:
        self._cursor: Optional[bytes] = None

    def pick(self, level_tables, next_level_tables) -> SSTable:
        ordered = sorted(level_tables, key=lambda table: table.min_key)
        if self._cursor is not None:
            for table in ordered:
                if table.min_key > self._cursor:
                    self._cursor = table.min_key
                    return table
        self._cursor = ordered[0].min_key
        return ordered[0]


class LeastOverlapPicker(FilePicker):
    """Minimize rewritten bytes: pick the file overlapping the least data below.

    This is the write-amplification-optimal greedy choice and the policy
    RocksDB's ``kMinOverlappingRatio`` approximates.
    """

    name = "least_overlap"

    def pick(self, level_tables, next_level_tables) -> SSTable:
        def overlap_bytes(table: SSTable) -> int:
            return sum(
                other.size_bytes
                for other in next_level_tables
                if other.overlaps(table.min_key, table.max_key)
            )

        return min(level_tables, key=lambda table: (overlap_bytes(table), table.min_key))


class ColdestPicker(FilePicker):
    """Pick the least-accessed file, keeping hot files (and their cached
    blocks and filter heat) in place — a tail-latency-friendly choice."""

    name = "coldest"

    def pick(self, level_tables, next_level_tables) -> SSTable:
        return min(level_tables, key=lambda table: (table.hotness, table.min_key))


class MostTombstonesPicker(FilePicker):
    """Pick the file with the highest tombstone density (Lethe-style),
    accelerating space reclamation and delete persistence."""

    name = "most_tombstones"

    def pick(self, level_tables, next_level_tables) -> SSTable:
        def density(table: SSTable) -> float:
            return table.tombstone_count / max(1, table.entry_count)

        return max(level_tables, key=lambda table: (density(table), table.min_key))


class OldestPicker(FilePicker):
    """Pick the file that has sat in the level longest (smallest file id),
    bounding how stale any entry can get."""

    name = "oldest"

    def pick(self, level_tables, next_level_tables) -> SSTable:
        return min(level_tables, key=lambda table: table.file_id)


def make_picker(name: str) -> FilePicker:
    """Instantiate a ``DESIGN_SPACE["picker"]`` choice (ConfigError if unknown)."""
    from repro.core.design_space import DESIGN_SPACE  # the table imports this module

    return DESIGN_SPACE["picker"].resolve(name)()
