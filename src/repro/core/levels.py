"""The level set: the tree's on-storage structure and who may delete it.

``levels[i]`` holds level ``i + 1``'s sorted runs, newest first. Every
change — a flush's new run, a compaction's swap, a trivial move, a run
re-arriving during recovery — is one :class:`LevelEdit` applied by
:meth:`LevelSet.apply`; nothing else mutates the lists.

Tables are reference-counted (``SSTable.refs``): one reference per run
holding the table, per open :class:`~repro.core.version.Version` and per
in-flight compaction plan. At zero a table is handed to ``on_retire``; the
tree evicts it from the caches and queues its file in its retire queue,
which it drains only once a durable manifest no longer lists the file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Sequence

from repro.storage.run import Run
from repro.storage.sstable import SSTable


@dataclass
class LevelEdit:
    """One atomic change: ``remove`` tables wherever they sit, ``add`` tables
    at ``level`` — as one new run (where the runs removed from that level
    sat, else as its youngest) or, with ``join``, spliced into the level's
    single partitioned run."""

    level: int
    add: Sequence[SSTable] = ()
    remove: Sequence[SSTable] = ()
    join: bool = False


class LevelSet:
    """Levels of runs plus the pin accounting that keeps their files alive.

    ``on_retire(table)`` runs when a table's last reference drops; the file
    itself is the caller's to retire.
    """

    def __init__(self, on_retire: Callable[[SSTable], None]) -> None:
        self.levels: List[List[Run]] = []
        self._on_retire = on_retire

    # -- pins ----------------------------------------------------------------

    def pin(self, tables: Iterable[SSTable]) -> None:
        for table in tables:
            table.refs += 1

    def unpin(self, tables: Iterable[SSTable]) -> None:
        for table in tables:
            table.refs -= 1
            if table.refs <= 0:
                self._on_retire(table)

    def pin_all(self) -> List[List[Run]]:
        """A pinned copy of the structure (:meth:`unpin` each run's tables)."""
        pinned = [list(runs) for runs in self.levels]
        for runs in pinned:
            for run in runs:
                self.pin(run.tables)
        return pinned

    # -- structure -----------------------------------------------------------

    def apply(self, edit: LevelEdit) -> None:
        """Apply one edit. New runs are pinned before the runs they replace
        are released, so a surviving table never dips to zero mid-surgery."""
        while len(self.levels) < edit.level:
            self.levels.append([])
        doomed = {id(table) for table in edit.remove}
        replaced: List[Run] = []
        slot = None  # where the first run removed from edit.level sat
        for idx, runs in enumerate(self.levels if doomed else ()):
            rebuilt: List[Run] = []
            for run in runs:
                kept = [table for table in run.tables if id(table) not in doomed]
                if len(kept) == len(run.tables):
                    rebuilt.append(run)
                    continue
                if slot is None and idx + 1 == edit.level:
                    slot = len(rebuilt)
                replaced.append(run)
                if kept:
                    rebuilt.append(Run(kept))
                    self.pin(kept)
            runs[:] = rebuilt
        if edit.add:
            runs = self.levels[edit.level - 1]
            if edit.join and runs:
                replaced.append(runs[0])
                runs[0] = runs[0].replace_tables([], edit.add)
                self.pin(runs[0].tables)
            else:
                arrived = Run(sorted(edit.add, key=lambda table: table.min_key))
                self.pin(arrived.tables)
                runs.insert(slot or 0, arrived)
        for run in replaced:
            self.unpin(run.tables)

    def trim(self) -> None:
        """Drop empty levels from the bottom."""
        while self.levels and not self.levels[-1]:
            self.levels.pop()

    def scrub(self) -> dict:
        """Re-read every live table from the device (``SSTable.scrub``);
        returns ``files_checked``, ``blocks_checked`` and ``errors``."""
        report = {"files_checked": 0, "blocks_checked": 0, "errors": []}
        for level_no, runs in enumerate(self.levels, start=1):
            for run in runs:
                previous_max = None
                for table in run.tables:
                    where = f"L{level_no} file {table.file_id}"
                    report["files_checked"] += 1
                    if previous_max is not None and table.min_key <= previous_max:
                        report["errors"].append(f"{where}: overlaps previous file")
                    previous_max = table.max_key
                    blocks, findings = table.scrub()
                    report["blocks_checked"] += blocks
                    report["errors"].extend(f"{where} {finding}" for finding in findings)
        return report

    def file_ids(self) -> List[List[List[int]]]:
        """The structure as manifest data: level → run → table file ids."""
        return [
            [[table.file_id for table in run.tables] for run in runs]
            for runs in self.levels
        ]
