"""Entry semantics: tombstones, shadowing, ordering, immutability, identity."""

import pytest

from repro.common import entry as entry_module
from repro.common.entry import Entry, EntryKind, GetResult, encode_merge_value, encode_ttl_value
from repro.storage.block_device import BlockDevice
from repro.storage.sstable import SSTableBuilder
from repro.storage.wal import WriteAheadLog


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

    def test_slots_cannot_be_deleted(self):
        entry = Entry(key=b"k", seqno=1, value=b"v")
        for name in Entry.__slots__:
            with pytest.raises(AttributeError):
                delattr(entry, name)
        assert (entry.key, entry.seqno, entry.kind, entry.value) == (b"k", 1, EntryKind.PUT, b"v")

    def test_no_new_attributes(self):
        with pytest.raises(AttributeError):
            Entry(key=b"k", seqno=1).extra = 1

    def test_kind_constants_are_the_members(self):
        assert entry_module.PUT is EntryKind.PUT
        assert entry_module.DELETE is EntryKind.DELETE
        assert entry_module.MERGE is EntryKind.MERGE
        assert entry_module.PUT_TTL is EntryKind.PUT_TTL
        assert Entry(key=b"k", seqno=1).kind is EntryKind.PUT  # the default


def fieldwise(entry):
    """The field tuple ``__eq__`` / ``__hash__`` were first defined over."""
    return (entry.key, entry.seqno, entry.kind, entry.value)


SAMPLES = [
    Entry(b"k", 1),
    Entry(b"k", 1, EntryKind.PUT, b"v"),
    Entry(b"k", 2, EntryKind.PUT, b"v"),
    Entry(b"j", 1, EntryKind.PUT, b"v"),
    Entry(b"k", 1, EntryKind.DELETE),
    Entry(b"k", 1, EntryKind.MERGE, encode_merge_value("counter", b"1")),
    Entry(b"k", 1, EntryKind.PUT_TTL, encode_ttl_value(5.0, b"v")),
    Entry(b"k", 1, EntryKind.PUT_TTL, encode_ttl_value(6.0, b"v")),
]


def test_equality_and_hash_are_fieldwise():
    for a in SAMPLES:
        twin = Entry(a.key, a.seqno, a.kind, a.value)
        assert a == twin and hash(a) == hash(twin) == hash(fieldwise(a))
        for b in SAMPLES:
            assert (a == b) == (fieldwise(a) == fieldwise(b))
            assert (a != b) == (fieldwise(a) != fieldwise(b))
    assert Entry(b"k", 1) != (b"k", 1, EntryKind.PUT, b"")
    assert len(set(SAMPLES)) == len(SAMPLES)


def test_decoded_kinds_are_the_members_themselves():
    """Blocks and WAL frames hand back the enum members (``is``, not ``==``):
    every kind test on the hot paths is an identity check."""
    device = BlockDevice(block_size=512)
    written = sorted(
        (Entry(b"k%d" % i, 10 - i, entry.kind, entry.value) for i, entry in enumerate(SAMPLES)),
        key=Entry.sort_key,
    )
    builder = SSTableBuilder(device)
    builder.add_all(written)
    table = builder.finish()
    wal = WriteAheadLog(device, sync_interval=1)
    for entry in written:
        wal.append(entry)
    wal.sync()
    for decoded in (list(table.iter_entries()), list(wal.replay())):
        assert decoded == written
        for got, want in zip(decoded, written):
            assert got.kind is want.kind
            assert type(got.kind) is EntryKind


def test_get_results_that_compare_unequal_print_differently():
    # __eq__ compares every slot, seqno included: a failing equality assert
    # must not show two identical reprs.
    older, newer = GetResult(b"v", True, seqno=3), GetResult(b"v", True, seqno=4)
    assert older != newer
    assert repr(older) != repr(newer)
    assert eval(repr(newer)) == newer
