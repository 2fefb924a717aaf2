"""SSTables: block format round-trips, builder contracts, read paths."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.block_cache import BlockCache
from repro.common.entry import Entry, EntryKind
from repro.faults.guard import ReadGuard
from repro.indexes.fence import FencePointers
from repro.filters.bloom import BloomFilter
from repro.storage.block_device import BlockDevice
from repro.storage.sstable import (
    ProbeStats,
    SSTableBuilder,
    encode_block_v2,
    parse_block,
)
from repro.storage.wal import read_frame, write_frame


def entries_for(keys, value=b"v"):
    return [Entry(key=k, seqno=i + 1, value=value) for i, k in enumerate(keys)]


def build_table(device, keys, **builder_kwargs):
    builder = SSTableBuilder(device, **builder_kwargs)
    for entry in entries_for(keys):
        builder.add(entry)
    return builder.finish()


class TestBlockFormat:
    @given(
        st.lists(
            st.tuples(st.binary(min_size=1, max_size=32), st.binary(max_size=64)),
            min_size=0,
            max_size=20,
            unique_by=lambda kv: kv[0],
        )
    )
    def test_serialize_parse_roundtrip(self, pairs):
        pairs.sort()
        entries = [
            Entry(key=k, seqno=i + 1, value=v) for i, (k, v) in enumerate(pairs)
        ]
        if entries:  # a block holds at least one entry
            assert parse_block(encode_block_v2(entries)[0]) == entries

    def test_tombstones_roundtrip(self):
        entries = [Entry(key=b"a", seqno=1, kind=EntryKind.DELETE)]
        assert parse_block(encode_block_v2(entries)[0])[0].is_tombstone

    def test_a_log_frame_keeps_append_order_and_repeated_keys(self, device):
        """A log frame is the same block in a length prefix: its entries stay
        in the order they were logged, repeats included, read by slot."""
        entries = [
            Entry(b"b", 7, EntryKind.PUT, b"x" * 300),
            Entry(b"a", 2**40, EntryKind.DELETE),
            Entry(b"b", 0, EntryKind.MERGE, b"m"),
            Entry(b"k" * 200, 3, EntryKind.PUT_TTL, b"\x00" * 8 + b"t"),
        ]
        fid = device.create_file()
        first, span = write_frame(device, fid, entries)
        assert (first, span) == (0, 2)  # 300 + 200 bytes of data over 512B blocks
        block, stored = read_frame(device, fid, first, span)
        assert list(block) == entries and [block[i] for i in range(4)] == entries
        assert stored == device.file_size(fid)


class TestBuilder:
    def test_rejects_out_of_order_keys(self, device):
        builder = SSTableBuilder(device)
        builder.add(Entry(key=b"b", seqno=1))
        with pytest.raises(ValueError):
            builder.add(Entry(key=b"a", seqno=2))

    def test_rejects_duplicate_keys(self, device):
        builder = SSTableBuilder(device)
        builder.add(Entry(key=b"a", seqno=1))
        with pytest.raises(ValueError):
            builder.add(Entry(key=b"a", seqno=2))

    def test_empty_build_raises_and_cleans_up(self, device):
        builder = SSTableBuilder(device)
        with pytest.raises(ValueError):
            builder.finish()
        assert device.live_files == []

    def test_double_finish_raises(self, device):
        builder = SSTableBuilder(device)
        builder.add(Entry(key=b"a", seqno=1))
        builder.finish()
        with pytest.raises(RuntimeError):
            builder.finish()

    def test_abandon_removes_file(self, device):
        builder = SSTableBuilder(device)
        builder.add(Entry(key=b"a", seqno=1))
        builder.abandon()
        assert device.live_files == []

    def test_block_size_cannot_exceed_device(self, device):
        with pytest.raises(ValueError):
            SSTableBuilder(device, block_size=device.block_size * 2)

    def test_splits_into_multiple_blocks(self, device):
        keys = [b"k%04d" % i for i in range(200)]
        table = build_table(device, keys)
        assert table.num_data_blocks > 1
        assert table.entry_count == 200

    def test_metadata(self, device):
        table = build_table(device, [b"a", b"m", b"z"])
        assert table.min_key == b"a"
        assert table.max_key == b"z"
        assert table.tombstone_count == 0


class TestReads:
    def test_get_every_key(self, device):
        keys = [b"k%04d" % i for i in range(300)]
        table = build_table(device, keys, index_factory=FencePointers)
        for key in keys:
            entry = table.get(key)
            assert entry is not None and entry.key == key

    def test_get_absent_keys(self, device):
        keys = [b"k%04d" % i for i in range(0, 300, 2)]
        table = build_table(device, keys, index_factory=FencePointers)
        assert table.get(b"k0001") is None
        assert table.get(b"a") is None  # below range: no I/O path
        assert table.get(b"z") is None  # above range

    def test_fence_pointers_bound_io_to_one_block(self, device):
        keys = [b"k%04d" % i for i in range(500)]
        table = build_table(device, keys, index_factory=FencePointers)
        stats = ProbeStats()
        table.get(b"k0250", stats=stats)
        assert stats.blocks_read == 1

    def test_filter_skips_io_for_absent_keys(self, device):
        keys = [b"k%04d" % i for i in range(100)]
        table = build_table(
            device,
            keys,
            index_factory=FencePointers,
            filter_factory=lambda ks: BloomFilter(ks, bits_per_key=16),
        )
        stats = ProbeStats()
        before = device.stats.blocks_read
        # probe many absent keys within range: nearly all should be filtered
        for i in range(100):
            table.get(b"k%04dx" % i, stats=stats)
        assert stats.filter_negatives > 90
        assert device.stats.blocks_read - before < 10

    def test_iter_entries_full(self, device):
        keys = [b"k%04d" % i for i in range(250)]
        table = build_table(device, keys)
        assert [e.key for e in table.iter_entries()] == keys

    def test_iter_entries_bounded(self, device):
        keys = [b"k%04d" % i for i in range(100)]
        table = build_table(device, keys)
        got = [e.key for e in table.iter_entries(start=b"k0010", end=b"k0019")]
        assert got == keys[10:20]

    def test_iter_lazy_early_stop_reads_fewer_blocks(self, device):
        keys = [b"k%04d" % i for i in range(1000)]
        table = build_table(device, keys)
        before = device.stats.blocks_read
        iterator = table.iter_entries()
        next(iterator)
        reads_for_one = device.stats.blocks_read - before
        assert reads_for_one <= 1

    def test_hash_index_block_lookup(self, device):
        keys = [b"k%04d" % i for i in range(100)]
        table = build_table(device, keys, index_factory=FencePointers, hash_index=True)
        entry = table.get(b"k0042")
        assert entry is not None

    def test_hotness_untouched_by_table_get(self, device):
        table = build_table(device, [b"a"])
        table.get(b"a")
        assert table.hotness == 0  # run-level concern


class TestCacheHitAccounting:
    """``ProbeStats.cache_hits`` is credited by the cache call that served the
    block — on the two-tier path and on the guarded per-block path alike."""

    @pytest.mark.parametrize("guarded", [False, True])
    def test_hits_are_counted_where_they_are_served(self, device, guarded):
        if guarded:
            device.guard = ReadGuard()
        keys = [b"k%04d" % i for i in range(300)]
        table = build_table(device, keys, index_factory=FencePointers)
        cache, stats = BlockCache(1 << 20), ProbeStats()
        assert table.get(keys[0], stats=stats, cache=cache) is not None
        assert (stats.blocks_read, stats.cache_hits, cache.stats.misses) == (1, 0, 1)
        assert table.get(keys[1], stats=stats, cache=cache) is not None
        assert (stats.blocks_read, stats.cache_hits, cache.stats.hits) == (2, 1, 1)

    @pytest.mark.parametrize("guarded", [False, True])
    def test_no_second_lookup_decides_the_hit(self, device, guarded):
        # A block dropped between a separate contains() and the load used to
        # be counted as a hit the cache never served.
        if guarded:
            device.guard = ReadGuard()
        keys = [b"k%04d" % i for i in range(300)]
        table = build_table(device, keys, index_factory=FencePointers)
        cache, stats = BlockCache(1 << 20), ProbeStats()
        table.get(keys[0], stats=stats, cache=cache)

        def contains_then_evicted(key):
            present = key in cache._entries
            cache.invalidate_file(table.file_id)  # a compaction wins the race
            return present

        cache.contains = contains_then_evicted
        table.get(keys[1], stats=stats, cache=cache)
        assert stats.cache_hits == cache.stats.hits

    def test_guarded_miss_still_retries_through_the_guard(self, device):
        device.guard = guard = ReadGuard()
        keys = [b"k%04d" % i for i in range(300)]
        table = build_table(device, keys, index_factory=FencePointers)
        reads = []
        real = guard.read_parsed
        guard.read_parsed = lambda *args: reads.append(args[1:3]) or real(*args)
        cache = BlockCache(1 << 20)
        table.get(keys[0], cache=cache)
        table.get(keys[0], cache=cache)
        assert reads == [(table.file_id, 0)]  # the miss went through the guard, the hit nowhere


class TestAuxAccounting:
    def test_aux_blocks_written_for_filters(self, device):
        keys = [b"k%04d" % i for i in range(100)]
        plain = build_table(device, keys)
        filtered = build_table(
            device, keys, filter_factory=lambda ks: BloomFilter(ks, bits_per_key=64)
        )
        assert filtered.aux_blocks > plain.aux_blocks

    def test_memory_bytes_counts_aux_structures(self, device):
        keys = [b"k%04d" % i for i in range(100)]
        table = build_table(
            device,
            keys,
            index_factory=FencePointers,
            filter_factory=lambda ks: BloomFilter(ks, bits_per_key=10),
        )
        assert table.memory_bytes >= table.point_filter.size_bytes

    def test_delete_removes_file(self, device):
        table = build_table(device, [b"a"])
        table.delete()
        assert device.live_files == []
        table.delete()  # idempotent


@settings(max_examples=25, deadline=None)
@given(
    keys=st.lists(st.binary(min_size=1, max_size=24), min_size=1, max_size=150, unique=True)
)
def test_property_roundtrip_any_keyset(keys):
    device = BlockDevice(block_size=256)
    keys = sorted(keys)
    table = build_table(device, keys, index_factory=FencePointers)
    for key in keys:
        entry = table.get(key)
        assert entry is not None and entry.key == key
    assert [e.key for e in table.iter_entries()] == keys
