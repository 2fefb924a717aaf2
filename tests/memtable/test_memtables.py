"""Memtable contract tests, parametrized over all three implementations,
plus implementation-specific behaviours."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.entry import Entry, EntryKind
from repro.core.design_space import DESIGN_SPACE
from repro.errors import ConfigError
from repro.memtable import make_memtable
from repro.memtable.flodb import FloDBMemtable
from repro.memtable.skiplist import SkipList

ALL_KINDS = sorted(DESIGN_SPACE["memtable"].choices)


def put(table, key, value, seqno):
    table.put(Entry(key=key, seqno=seqno, value=value))


@pytest.mark.parametrize("kind", ALL_KINDS)
class TestContract:
    def test_empty(self, kind):
        table = make_memtable(kind)
        assert table.is_empty()
        assert len(table) == 0
        assert table.get(b"missing") is None
        assert list(table.scan()) == []

    def test_put_get(self, kind):
        table = make_memtable(kind)
        put(table, b"k", b"v", 1)
        assert table.get(b"k").value == b"v"

    def test_newer_put_replaces(self, kind):
        table = make_memtable(kind)
        put(table, b"k", b"old", 1)
        put(table, b"k", b"new", 2)
        assert table.get(b"k").value == b"new"
        assert len(table) == 1

    def test_tombstone_visible(self, kind):
        table = make_memtable(kind)
        put(table, b"k", b"v", 1)
        table.put(Entry(key=b"k", seqno=2, kind=EntryKind.DELETE))
        assert table.get(b"k").is_tombstone

    def test_scan_sorted(self, kind):
        table = make_memtable(kind)
        for i, key in enumerate([b"c", b"a", b"b", b"e", b"d"]):
            put(table, key, b"v", i + 1)
        assert [e.key for e in table.scan()] == [b"a", b"b", b"c", b"d", b"e"]

    def test_scan_bounds(self, kind):
        table = make_memtable(kind)
        for i in range(10):
            put(table, b"k%02d" % i, b"v", i + 1)
        got = [e.key for e in table.scan(b"k03", b"k06")]
        assert got == [b"k03", b"k04", b"k05", b"k06"]

    def test_size_bytes_tracks_replacement(self, kind):
        table = make_memtable(kind)
        put(table, b"k", b"x" * 100, 1)
        size_before = table.size_bytes
        put(table, b"k", b"x" * 100, 2)
        assert table.size_bytes == size_before

    def test_clear(self, kind):
        table = make_memtable(kind)
        put(table, b"k", b"v", 1)
        table.clear()
        assert table.is_empty()
        assert table.size_bytes == 0

    @settings(max_examples=20, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.binary(min_size=1, max_size=8), st.binary(max_size=16)),
            max_size=100,
        )
    )
    def test_matches_dict_model(self, kind, ops):
        table = make_memtable(kind)
        model = {}
        for seqno, (key, value) in enumerate(ops, start=1):
            put(table, key, value, seqno)
            model[key] = value
        assert len(table) == len(model)
        for key, value in model.items():
            assert table.get(key).value == value
        assert [e.key for e in table.scan()] == sorted(model)


def test_unknown_kind_raises():
    with pytest.raises(ConfigError):
        make_memtable("btree")


class TestSkipListInternals:
    def test_deterministic_given_seed(self):
        a, b = SkipList(seed=7), SkipList(seed=7)
        for i in range(100):
            entry = Entry(key=b"k%03d" % i, seqno=i + 1)
            a.insert(entry)
            b.insert(entry)
        assert [e.key for e in a.iter_from()] == [e.key for e in b.iter_from()]

    def test_insert_returns_displaced(self):
        sl = SkipList()
        assert sl.insert(Entry(key=b"k", seqno=1, value=b"a")) is None
        displaced = sl.insert(Entry(key=b"k", seqno=2, value=b"b"))
        assert displaced.value == b"a"

    def test_iter_from_midpoint(self):
        sl = SkipList()
        for i in range(20):
            sl.insert(Entry(key=b"k%02d" % i, seqno=i + 1))
        got = [e.key for e in sl.iter_from(b"k10")]
        assert got[0] == b"k10" and len(got) == 10

    def test_iter_from_between_keys(self):
        sl = SkipList()
        sl.insert(Entry(key=b"a", seqno=1))
        sl.insert(Entry(key=b"c", seqno=2))
        assert [e.key for e in sl.iter_from(b"b")] == [b"c"]


class TestFloDB:
    def test_drains_when_front_fills(self):
        table = FloDBMemtable(front_capacity=10)
        for i in range(25):
            put(table, b"k%02d" % i, b"v", i + 1)
        assert table.drains == 2

    def test_get_checks_front_before_back(self):
        table = FloDBMemtable(front_capacity=4)
        put(table, b"k", b"old", 1)
        for i in range(4):  # force a drain: "old" now in the back level
            put(table, b"f%d" % i, b"v", 10 + i)
        put(table, b"k", b"new", 99)
        assert table.get(b"k").value == b"new"

    def test_scan_forces_drain(self):
        table = FloDBMemtable(front_capacity=100)
        put(table, b"b", b"v", 1)
        put(table, b"a", b"v", 2)
        assert [e.key for e in table.scan()] == [b"a", b"b"]
        assert table.drains == 1

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            FloDBMemtable(front_capacity=0)
