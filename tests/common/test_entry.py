"""Entry semantics: tombstones, shadowing, ordering."""

import pytest

from repro.common.entry import Entry, EntryKind, GetResult


class TestEntry:
    def test_put_basics(self):
        entry = Entry(key=b"k", seqno=3, value=b"v")
        assert not entry.is_tombstone
        assert entry.kind is EntryKind.PUT

    def test_tombstone_has_no_value(self):
        entry = Entry(key=b"k", seqno=1, kind=EntryKind.DELETE)
        assert entry.is_tombstone
        with pytest.raises(ValueError):
            Entry(key=b"k", seqno=1, kind=EntryKind.DELETE, value=b"x")

    def test_negative_seqno_rejected(self):
        with pytest.raises(ValueError):
            Entry(key=b"k", seqno=-1)

    def test_shadowing_same_key(self):
        old = Entry(key=b"k", seqno=1, value=b"a")
        new = Entry(key=b"k", seqno=2, value=b"b")
        assert new.shadows(old)
        assert not old.shadows(new)

    def test_shadowing_different_key(self):
        a = Entry(key=b"a", seqno=2)
        b = Entry(key=b"b", seqno=1)
        assert not a.shadows(b)

    def test_sort_key_orders_newest_first_within_key(self):
        old = Entry(key=b"k", seqno=1)
        new = Entry(key=b"k", seqno=9)
        assert new.sort_key() < old.sort_key()

    def test_sort_key_orders_by_key_first(self):
        assert Entry(key=b"a", seqno=1).sort_key() < Entry(key=b"b", seqno=99).sort_key()

    def test_approximate_size_counts_payload(self):
        small = Entry(key=b"k", seqno=1, value=b"")
        big = Entry(key=b"k", seqno=1, value=b"x" * 100)
        assert big.approximate_size == small.approximate_size + 100

    def test_frozen(self):
        entry = Entry(key=b"k", seqno=1)
        with pytest.raises(AttributeError):
            entry.value = b"other"


def test_get_results_that_compare_unequal_print_differently():
    # __eq__ compares every slot, seqno included: a failing equality assert
    # must not show two identical reprs.
    older, newer = GetResult(b"v", True, seqno=3), GetResult(b"v", True, seqno=4)
    assert older != newer
    assert repr(older) != repr(newer)
    assert eval(repr(newer)) == newer
