"""The level set: the tree's on-storage structure and who may delete it.

``levels[i]`` holds level ``i + 1``'s sorted runs, newest first. Every
change — a flush's new run, a compaction's swap, a trivial move, a run
re-arriving during recovery — is one :class:`LevelEdit` applied by
:meth:`LevelSet.apply`; nothing else mutates the lists.

Readers never walk the live lists. They acquire a :class:`LevelView`: one
immutable copy of the structure, built at the first acquire after an edit
and shared by every reader until the next edit supersedes it (LevelDB's
reference-counted ``Version``, RocksDB's ``SuperVersion``). Acquiring and
releasing a view is O(1) locked work: a reader count, no per-table pins.

Tables are reference-counted (``SSTable.refs``): one reference per run
holding the table, per in-flight compaction plan, and per superseded view
still being read. The current view needs no pins of its own, because every
table it lists is also in the live structure; the edit that supersedes a
view with readers pins its tables once, and the view's last release unpins
them once. At zero a table is handed to ``on_retire``; the tree evicts it
from the caches and queues its file in its retire queue, which it drains
only once a durable manifest no longer lists the file.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

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


class LevelView:
    """The runs of one state of the structure, shallowest level first, each
    level newest run first; ``runs`` is the same set flattened. Immutable:
    an edit publishes a new view rather than changing this one.
    ``readers`` counts the acquires not yet released."""

    __slots__ = ("levels", "runs", "readers")

    def __init__(self, levels: Sequence[Sequence[Run]]) -> None:
        self.levels: Tuple[Tuple[Run, ...], ...] = tuple(tuple(runs) for runs in levels)
        self.runs: Tuple[Run, ...] = tuple(run for runs in self.levels for run in runs)
        self.readers = 0


class LevelSet:
    """Levels of runs, the views readers acquire of them, and the pin
    accounting that keeps their files alive.

    ``on_retire(table)`` runs when a table's last reference drops, outside
    the level set's lock; the file itself is the caller's to retire.
    """

    def __init__(self, on_retire: Callable[[SSTable], None]) -> None:
        self.levels: List[List[Run]] = []
        self._on_retire = on_retire
        self._view: Optional[LevelView] = None  # None: rebuilt at the next acquire
        # Guards every reference count. Re-entrant: a scan iterator closed
        # by the garbage collector may release its view on a thread that is
        # inside an edit.
        self._lock = threading.RLock()

    # -- views ---------------------------------------------------------------

    def acquire(self) -> LevelView:
        """The current view, counted as read until :meth:`release`."""
        with self._lock:
            view = self._view
            if view is None:
                view = self._view = LevelView(self.levels)
            view.readers += 1
            return view

    def release(self, view: LevelView) -> None:
        """Give back one :meth:`acquire`. The last release of a superseded
        view unpins its tables."""
        with self._lock:
            view.readers -= 1
            if view.readers or view is self._view:
                return
            dead = self._unpin_locked(table for run in view.runs for table in run.tables)
        self._retire(dead)

    def _supersede(self) -> List[SSTable]:
        """The structure is about to change: retire the current view, pinning
        its tables for the readers still walking it. Caller holds the lock
        and retires the returned tables once it has let go of it.

        The pins are taken under a reader of the edit's own, while the view
        is still current: a release re-entered meanwhile (a scan iterator
        finalized by the garbage collector on this thread) is then never the
        one that unpins, and the last release comes only after every pin."""
        view = self._view
        if view is None or not view.readers:
            self._view = None
            return []
        view.readers += 1
        for run in view.runs:
            for table in run.tables:
                table.refs += 1
        self._view = None
        view.readers -= 1
        if view.readers:
            return []
        return self._unpin_locked(table for run in view.runs for table in run.tables)

    # -- pins ----------------------------------------------------------------

    def pin(self, tables: Iterable[SSTable]) -> None:
        with self._lock:
            for table in tables:
                table.refs += 1

    def unpin(self, tables: Iterable[SSTable]) -> None:
        with self._lock:
            dead = self._unpin_locked(tables)
        self._retire(dead)

    @staticmethod
    def _unpin_locked(tables: Iterable[SSTable]) -> List[SSTable]:
        dead = []
        for table in tables:
            table.refs -= 1
            if table.refs <= 0:
                dead.append(table)
        return dead

    def _retire(self, dead: List[SSTable]) -> None:
        for table in dead:
            self._on_retire(table)

    # -- structure -----------------------------------------------------------

    def apply(self, edit: LevelEdit) -> None:
        """Apply one edit. New runs are pinned before the runs they replace
        are released, so a surviving table never dips to zero mid-surgery."""
        with self._lock:
            dead = self._supersede()
            dead += self._apply_locked(edit)
        self._retire(dead)

    def _apply_locked(self, edit: LevelEdit) -> List[SSTable]:
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
                    for table in kept:
                        table.refs += 1
            runs[:] = rebuilt
        if edit.add:
            runs = self.levels[edit.level - 1]
            if edit.join and runs:
                replaced.append(runs[0])
                runs[0] = runs[0].replace_tables([], edit.add)
                arrived = runs[0]
            else:
                arrived = Run(sorted(edit.add, key=lambda table: table.min_key))
                runs.insert(slot or 0, arrived)
            for table in arrived.tables:
                table.refs += 1
        return self._unpin_locked(table for run in replaced for table in run.tables)

    def trim(self) -> None:
        """Drop empty levels from the bottom."""
        dead: List[SSTable] = []
        with self._lock:
            if self.levels and not self.levels[-1]:
                dead = self._supersede()
            while self.levels and not self.levels[-1]:
                self.levels.pop()
        self._retire(dead)

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
