"""Engine operations: multi_get, delete_range, approximate_size,
bulk ingestion, and compaction filters (TTL)."""

import pytest

from repro import LSMConfig, LSMTree, encode_uint_key
from tests.conftest import make_config, make_tree


class TestMultiGet:
    def test_batch_matches_single_gets(self):
        tree = make_tree()
        for i in range(300):
            tree.put(encode_uint_key(i), b"v%d" % i)
        tree.flush()
        keys = [encode_uint_key(i) for i in (5, 250, 100, 5, 999)]
        results = tree.multi_get(keys)
        assert len(results) == 4  # deduplicated
        assert results[encode_uint_key(100)].value == b"v100"
        assert not results[encode_uint_key(999)].found

    def test_sorted_probing_improves_cache_locality(self):
        """A batch looks each block it needs up once: one cache lookup per
        distinct candidate block, where key-by-key gets look a block up once
        for every key that needs it."""
        import random

        def build():
            tree = make_tree(cache_bytes=4 << 10)
            for i in range(2000):
                tree.put(encode_uint_key(i), b"x" * 30)
            tree.flush()
            return tree

        keys = [encode_uint_key(k) for k in random.Random(1).sample(range(2000), 400)]
        batched, serial = build(), build()
        counts = [dict(tree.cache.access_counts) for tree in (batched, serial)]
        lookups = [tree.cache.stats.lookups for tree in (batched, serial)]
        batched.multi_get(keys)
        for key in sorted(keys):
            serial.get(key)
        loads = [
            {block: n - before.get(block, 0) for block, n in tree.cache.access_counts.items()}
            for tree, before in zip((batched, serial), counts)
        ]
        candidates = {block for block, n in loads[1].items() if n}
        assert {block for block, n in loads[0].items() if n} == candidates
        assert set(loads[0].values()) <= {0, 1}
        assert batched.cache.stats.lookups - lookups[0] == len(candidates)
        assert serial.cache.stats.lookups - lookups[1] > len(candidates)  # sorted keys share blocks


class TestDeleteRange:
    def test_removes_exactly_the_range(self):
        tree = make_tree()
        for i in range(200):
            tree.put(encode_uint_key(i), b"v")
        removed = tree.delete_range(encode_uint_key(50), encode_uint_key(99))
        assert removed == 50
        assert not tree.get(encode_uint_key(75)).found
        assert tree.get(encode_uint_key(49)).found
        assert tree.get(encode_uint_key(100)).found
        assert len(list(tree.scan())) == 150

    def test_empty_range_zero(self):
        tree = make_tree()
        tree.put(encode_uint_key(1), b"v")
        assert tree.delete_range(encode_uint_key(5), encode_uint_key(9)) == 0
        with pytest.raises(ValueError):
            tree.delete_range(encode_uint_key(9), encode_uint_key(5))

    def test_range_delete_then_compaction_purges(self):
        tree = make_tree()
        for i in range(300):
            tree.put(encode_uint_key(i), b"v" * 30)
        tree.delete_range(encode_uint_key(0), encode_uint_key(299))
        tree.compact_all()
        assert list(tree.scan()) == []
        assert tree.stats.tombstones_purged > 0


class TestApproximateSize:
    def test_scales_with_range_width(self):
        tree = make_tree()
        for i in range(4000):
            tree.put(encode_uint_key(i), b"x" * 30)
        tree.compact_all()
        narrow = tree.approximate_size(encode_uint_key(0), encode_uint_key(99))
        wide = tree.approximate_size(encode_uint_key(0), encode_uint_key(1999))
        full = tree.approximate_size(encode_uint_key(0), encode_uint_key(3999))
        assert 0 < narrow < wide < full
        assert full == pytest.approx(tree.device.used_bytes, rel=0.5)

    def test_no_io(self):
        tree = make_tree()
        for i in range(1000):
            tree.put(encode_uint_key(i), b"x" * 30)
        tree.flush()
        before = tree.device.stats.blocks_read
        tree.approximate_size(encode_uint_key(0), encode_uint_key(500))
        assert tree.device.stats.blocks_read == before

    def test_disjoint_range_zero(self):
        tree = make_tree()
        for i in range(100):
            tree.put(encode_uint_key(i), b"v")
        tree.flush()
        assert tree.approximate_size(encode_uint_key(5000), encode_uint_key(6000)) == 0


class TestBulkIngest:
    def test_ingest_and_read_back(self):
        tree = make_tree()
        pairs = [(encode_uint_key(i), b"bulk%d" % i) for i in range(500)]
        assert tree.ingest_external(pairs) == 500
        for i in range(0, 500, 23):
            assert tree.get(encode_uint_key(i)).value == b"bulk%d" % i

    def test_write_amp_near_one_for_disjoint_load(self):
        tree = make_tree()
        pairs = [(encode_uint_key(i), b"x" * 40) for i in range(3000)]
        tree.ingest_external(pairs)
        assert tree.write_amplification < 1.6  # one write + aux blocks

    def test_cheaper_than_puts(self):
        def load(bulk):
            tree = make_tree()
            pairs = [(encode_uint_key(i), b"x" * 40) for i in range(3000)]
            if bulk:
                tree.ingest_external(pairs)
            else:
                for key, value in pairs:
                    tree.put(key, value)
                tree.flush()
            return tree.device.stats.bytes_written

        assert load(bulk=True) < load(bulk=False) / 2

    def test_newer_ingest_shadows_existing_data(self):
        tree = make_tree()
        for i in range(100):
            tree.put(encode_uint_key(i), b"old")
        tree.compact_all()
        tree.ingest_external([(encode_uint_key(i), b"new") for i in range(50)])
        assert tree.get(encode_uint_key(25)).value == b"new"
        assert tree.get(encode_uint_key(75)).value == b"old"
        assert dict(tree.scan())[encode_uint_key(0)] == b"new"

    def test_disjoint_ingest_goes_deep(self):
        tree = make_tree()
        for i in range(2000):
            tree.put(encode_uint_key(i), b"x" * 30)
        tree.compact_all()
        depth_before = tree.num_levels
        tree.ingest_external(
            [(encode_uint_key(1_000_000 + i), b"y" * 30) for i in range(500)]
        )
        ingest_events = [e for e in tree.stats.history if e.kind == "ingest"]
        assert ingest_events and ingest_events[-1].dest >= depth_before

    def test_requires_sorted_unique(self):
        tree = make_tree()
        with pytest.raises(ValueError):
            tree.ingest_external([(b"b", b"1"), (b"a", b"2")])
        with pytest.raises(ValueError):
            tree.ingest_external([(b"a", b"1"), (b"a", b"2")])
        assert tree.ingest_external([]) == 0

    def test_ingest_durable_under_wal(self):
        config = make_config(wal_enabled=True, wal_sync_interval=1)
        tree = LSMTree(config)
        tree.ingest_external([(encode_uint_key(i), b"v%d" % i) for i in range(200)])
        recovered = LSMTree.recover(config, tree.device)
        assert recovered.get(encode_uint_key(100)).value == b"v100"


def drop_expired(key, value):
    return not value.startswith(b"expired")


class TestCompactionFilter:

    def test_filter_drops_entries_during_compaction(self):
        tree = make_tree(compaction_filter=drop_expired)
        for i in range(400):
            value = b"expired-%d" % i if i % 2 == 0 else b"live-%d" % i
            tree.put(encode_uint_key(i), value)
        tree.compact_all()
        survivors = dict(tree.scan())
        assert all(v.startswith(b"live") for v in survivors.values())
        assert tree.stats.filtered_by_compaction > 0

    def test_flush_does_not_filter(self):
        # The filter runs on compaction rewrites only, like RocksDB's.
        tree = make_tree(
            compaction_filter=drop_expired, buffer_bytes=1 << 20
        )
        tree.put(b"k", b"expired-now")
        tree.flush()  # single run, no merge yet
        assert tree.get(b"k").found

    def test_ttl_scenario(self):
        import struct

        def ttl_filter(key, value):
            expiry = struct.unpack(">I", value[:4])[0]
            return expiry >= 100  # "now" is tick 100

        tree = make_tree(compaction_filter=ttl_filter)
        for i in range(300):
            expiry = 50 if i % 3 == 0 else 200
            tree.put(encode_uint_key(i), struct.pack(">I", expiry) + b"payload")
        tree.compact_all()
        remaining = len(list(tree.scan()))
        assert remaining == 200  # the expired third is gone
