"""The level set's views: what a reader acquires instead of pinning tables.

A view is shared by every reader between two edits, costs O(1) to acquire
and release, and keeps the files it lists alive until its last release,
however the structure moves underneath it.
"""

import itertools
import sys
import threading

import pytest

from repro import DBService, ServiceConfig
from repro.common.encoding import encode_uint_key
from repro.core.levels import LevelEdit, LevelSet
from repro.core.lsm_tree import LSMTree

from tests.conftest import make_config, make_tree

VALUE = b"v" * 24


def key(i: int) -> bytes:
    return encode_uint_key(i)


def table_refs_at_rest(tree: LSMTree, views=None) -> None:
    """No reader is left: each live table holds only its level membership
    (no plan is in flight), no view has a reader, and every table only a
    superseded view listed is unpinned and its file gone."""
    level_set = tree.level_set
    view = level_set._view
    assert view is None or view.readers == 0
    live = set()
    for runs in level_set.levels:
        for run in runs:
            assert [table.refs for table in run.tables] == [1] * len(run.tables)
            live.update(id(table) for table in run.tables)
    for view in (views or {}).values():
        assert view.readers == 0
        for run in view.runs:
            for table in run.tables:
                if id(table) not in live:
                    assert table.refs == 0
                    assert not tree.device.file_exists(table.file_id)


@pytest.fixture
def watched(monkeypatch):
    """Every distinct view acquired, so a retirement can be checked against
    the views still being read."""
    views = {}
    acquire = LevelSet.acquire

    def watching(self):
        view = acquire(self)
        views.setdefault(id(view), view)
        return view

    monkeypatch.setattr(LevelSet, "acquire", watching)
    return views


def guard_retirements(tree: LSMTree, views) -> list:
    """Fail any cache eviction or file delete of a file a read view lists."""
    retired = []

    def read_files():
        return {
            table.file_id
            for view in list(views.values()) if view.readers > 0
            for run in view.runs for table in run.tables
        }

    invalidate, delete = tree.cache.invalidate_file, tree.device.delete_file

    def guarded_invalidate(file_id):
        assert file_id not in read_files(), f"file {file_id} evicted while read"
        retired.append(file_id)
        return invalidate(file_id)

    def guarded_delete(file_id):
        assert file_id not in read_files(), f"file {file_id} deleted while read"
        return delete(file_id)

    tree.cache.invalidate_file = guarded_invalidate
    tree.device.delete_file = guarded_delete
    return retired


def test_concurrent_readers_return_every_pin(watched):
    """Four readers interleave service gets, multi_gets, scans and snapshots
    while writes drive background flushes and compactions; once they stop,
    every table's refs are back at level membership."""
    tree = LSMTree(make_config(buffer_bytes=2 << 10))
    service = DBService(tree, ServiceConfig(num_workers=2))
    retired = guard_retirements(tree, watched)
    for i in range(300):
        service.put(key(i), VALUE)
    service.flush(wait=True)
    stop = threading.Event()
    errors = []

    def reader(seed: int) -> None:
        try:
            for step in itertools.count(seed):
                if stop.is_set():
                    return
                i = (step * 37) % 300
                kind = step % 4
                if kind == 0:
                    assert service.get(key(i)).found
                elif kind == 1:
                    results = service.multi_get([key(i), key((i + 11) % 300)])
                    assert all(result.found for result in results.values())
                elif kind == 2:
                    scan = service.scan(key(i), key(i + 20))
                    if step % 8 == 2:
                        next(scan)
                        scan.close()  # abandoned part way
                    else:
                        assert len(list(scan)) == min(21, 300 - i)
                else:
                    with service.snapshot() as snapshot:
                        assert snapshot.get(key(i)).found
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(n,)) for n in range(4)]
        for thread in threads:
            thread.start()
        for round_no in range(4):
            for i in range(300):
                service.put(key(i), VALUE + b"%d" % round_no)
        service.flush(wait=True)
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    assert not any(thread.is_alive() for thread in threads)
    assert tree.stats.compactions > 0 and retired  # the structure did move
    table_refs_at_rest(tree, watched)
    service.close()


def test_no_file_leaves_while_a_view_lists_it(watched):
    tree = make_tree()
    retired = guard_retirements(tree, watched)
    for i in range(400):
        tree.put(key(i), VALUE)
    tree.flush()
    snapshot = tree.snapshot()
    listed = {table.file_id for run in snapshot.runs for table in run.tables}
    for i in range(400):
        tree.put(key(i), VALUE + b"!")
    tree.compact_all()
    live = {
        table.file_id for runs in tree._levels for run in runs for table in run.tables
    }
    assert listed - live, "the compactions replaced none of the snapshot's files"
    assert not listed & set(retired)
    assert all(tree.device.file_exists(file_id) for file_id in listed)
    assert snapshot.get(key(7)).value == VALUE  # still readable
    snapshot.close()
    assert listed - live <= set(retired)
    assert not any(tree.device.file_exists(file_id) for file_id in listed - live)
    table_refs_at_rest(tree, watched)


def test_a_view_acquired_after_an_edit_sees_the_new_runs():
    tree = make_tree()
    for i in range(200):
        tree.put(key(i), VALUE)
    tree.flush()
    level_set = tree.level_set
    before = level_set.acquire()
    assert level_set.acquire() is before  # shared until the next edit
    level_set.release(before)
    for i in range(200, 400):
        tree.put(key(i), VALUE)
    tree.flush()
    after = level_set.acquire()
    assert after is not before
    assert after.levels == tuple(tuple(runs) for runs in level_set.levels)
    tables = {id(table) for run in after.runs for table in run.tables}
    assert all(
        id(table) in tables
        for runs in level_set.levels for run in runs for table in run.tables
    )
    level_set.release(after)
    level_set.release(before)
    table_refs_at_rest(tree)


def test_closing_a_version_twice_is_harmless():
    tree = make_tree()
    for i in range(200):
        tree.put(key(i), VALUE)
    tree.flush()
    version = tree.pin_version()
    other = tree.pin_version()
    view = tree.level_set._view
    assert view.readers == 2
    version.close()
    version.close()
    assert view.readers == 1
    with other:
        assert other.get(key(3)).value == VALUE
    other.close()
    assert view.readers == 0
    table_refs_at_rest(tree)


class _ReleasingTables(list):
    """A run's table list whose first walk releases ``view`` before it
    yields anything, as a scan iterator finalized by the garbage collector
    in the middle of an edit would."""

    def __init__(self, tables, level_set, view):
        super().__init__(tables)
        self.pending = (level_set, view)

    def __iter__(self):
        if self.pending is not None:
            level_set, view = self.pending
            self.pending = None
            level_set.release(view)
        return super().__iter__()


def test_a_release_reentering_an_edit_retires_no_live_table(watched):
    """The last reader lets go of the view while the edit superseding it is
    pinning its tables: nothing live is unpinned, evicted or deleted, and
    the view's tables end back at level membership."""
    tree = make_tree()
    for i in range(400):
        tree.put(key(i), VALUE)
    tree.flush()
    retired = guard_retirements(tree, watched)
    level_set = tree.level_set
    view = level_set.acquire()
    run = view.runs[0]
    run.tables = _ReleasingTables(run.tables, level_set, view)
    level_set.apply(LevelEdit(level=1))  # supersedes the view, changes nothing
    assert run.tables.pending is None  # the release did re-enter
    assert view.readers == 0
    assert retired == []
    live = [table for runs in level_set.levels for r in runs for table in r.tables]
    assert all(tree.device.file_exists(table.file_id) for table in live)
    table_refs_at_rest(tree, watched)
    assert tree.get(key(7)).value == VALUE
