"""LSMTree end-to-end behaviour: dict equivalence, shape invariants,
snapshots, and the read-path optimizations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import LSMTree, encode_uint_key
from repro.errors import ClosedError
from tests.conftest import legal_configs, make_config, make_tree


class TestDictEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["put", "delete"]),
                st.integers(0, 60),
                st.binary(min_size=1, max_size=30),
            ),
            max_size=300,
        ),
        config=legal_configs(buffer_bytes=1 << 10),
    )
    def test_random_churn_matches_dict(self, ops, config):
        tree = LSMTree(config)
        model = {}
        for kind, raw_key, value in ops:
            key = encode_uint_key(raw_key)
            if kind == "put":
                tree.put(key, value)
                model[key] = value
            else:
                tree.delete(key)
                model.pop(key, None)
        for raw_key in range(61):
            key = encode_uint_key(raw_key)
            result = tree.get(key)
            if key in model:
                assert result.found and result.value == model[key]
            else:
                assert not result.found
        assert dict(tree.scan()) == model

    def test_update_overwrites_across_flushes(self, small_tree):
        key = encode_uint_key(7)
        for round_no in range(5):
            small_tree.put(key, b"round-%d" % round_no)
            small_tree.flush()
        assert small_tree.get(key).value == b"round-4"

    def test_delete_then_reinsert(self, small_tree):
        key = encode_uint_key(1)
        small_tree.put(key, b"first")
        small_tree.delete(key)
        small_tree.compact_all()
        small_tree.put(key, b"second")
        assert small_tree.get(key).value == b"second"


class TestShapeInvariants:
    def load(self, tree, n=4000):
        for i in range(n):
            tree.put(encode_uint_key(i % 1500), b"x" * 30)
        tree.flush()

    def test_leveling_one_run_per_level(self):
        tree = make_tree(layout="leveling")
        self.load(tree)
        for level in tree.level_summary():
            assert level["runs"] <= 1

    def test_tiering_run_bound(self):
        tree = make_tree(layout="tiering", size_ratio=3)
        self.load(tree)
        for level in tree.level_summary():
            assert level["runs"] <= 3  # T-1 steady state; transient +1 merged away

    def test_lazy_leveling_last_level_single_run(self):
        tree = make_tree(layout="lazy_leveling", size_ratio=3)
        self.load(tree)
        summary = tree.level_summary()
        assert summary[-1]["runs"] <= 1

    def test_levels_grow_geometrically(self):
        tree = make_tree(layout="leveling", size_ratio=3)
        self.load(tree, n=8000)
        summary = tree.level_summary()
        assert len(summary) >= 2
        for level in summary[:-1]:
            assert level["bytes"] <= level["capacity"] * 1.05

    def test_tiering_writes_less_than_leveling(self):
        def written(layout):
            tree = make_tree(layout=layout, size_ratio=4, buffer_bytes=2 << 10)
            for i in range(6000):
                tree.put(encode_uint_key(i % 2000), b"x" * 30)
            tree.flush()
            return tree.device.stats.bytes_written

        assert written("tiering") < written("leveling")

    def test_write_amplification_reported(self):
        tree = make_tree()
        self.load(tree)
        assert tree.write_amplification > 1.0

    def test_space_amplification_reasonable_after_full_compaction(self):
        tree = make_tree(layout="leveling")
        for i in range(3000):
            tree.put(encode_uint_key(i % 500), b"x" * 30)
        tree.compact_all()
        assert 1.0 <= tree.space_amplification < 4.0


class TestSnapshots:
    def test_scan_isolated_from_later_writes(self, small_tree):
        for i in range(100):
            small_tree.put(encode_uint_key(i), b"old")
        iterator = small_tree.scan()
        first_key, first_value = next(iterator)
        for i in range(100):
            small_tree.put(encode_uint_key(i), b"new")
        small_tree.compact_all()
        rest = list(iterator)
        assert first_value == b"old"
        assert all(value == b"old" for _, value in rest)
        assert len(rest) == 99

    def test_snapshot_pins_files_across_compaction(self):
        tree = make_tree(buffer_bytes=1 << 10)
        for i in range(500):
            tree.put(encode_uint_key(i), b"v0-%d" % i)
        tree.flush()
        snapshot = tree.snapshot()
        try:
            for i in range(500):
                tree.put(encode_uint_key(i), b"v1-%d" % i)
            tree.compact_all()
            # The pinned runs must still be readable.
            for run in snapshot.runs:
                assert run.entry_count > 0
                list(run.iter_entries())
        finally:
            snapshot.close()

    def test_closing_snapshot_releases_files(self):
        tree = make_tree(buffer_bytes=1 << 10)
        for i in range(1000):
            tree.put(encode_uint_key(i), b"x" * 40)
        tree.flush()
        files_live = len(tree.device.live_files)
        snapshot = tree.snapshot()
        for i in range(1000):
            tree.put(encode_uint_key(i), b"y" * 40)
        tree.compact_all()
        held = len(tree.device.live_files)
        snapshot.close()
        tree.compact_all()
        assert len(tree.device.live_files) < held
        del files_live

    def test_context_manager(self, small_tree):
        small_tree.put(b"k", b"v")
        with small_tree.snapshot() as snapshot:
            assert snapshot.memtable_entries[0].key == b"k"
        assert snapshot.closed


class TestReadPath:
    def test_filters_bound_zero_result_io(self):
        tree = make_tree(layout="tiering", bits_per_key=12.0)
        for i in range(4000):
            tree.put(encode_uint_key(i), b"x" * 30)
        tree.flush()
        before = tree.device.stats.blocks_read
        for i in range(500):
            assert not tree.get(encode_uint_key(10_000 + i)).found
        blocks = tree.device.stats.blocks_read - before
        assert blocks < 25  # ~0.05 I/O per zero-result lookup with 12 bits

    def test_no_filter_zero_result_costs_io(self):
        tree = make_tree(layout="tiering", filter_kind="none")
        for i in range(4000):
            tree.put(encode_uint_key(i), b"x" * 30)
        tree.flush()
        before = tree.device.stats.blocks_read
        for i in range(100):
            tree.get(encode_uint_key(10_000 + i))
        assert tree.device.stats.blocks_read - before == 0  # fences: key above max
        before = tree.device.stats.blocks_read
        for i in range(100):
            tree.get(encode_uint_key(2 * i + 1))  # absent? no: 0..3999 present
        # present keys: each get costs >= 1 block
        assert tree.device.stats.blocks_read - before >= 100

    def test_get_result_provenance(self):
        tree = make_tree()
        tree.put(b"hot", b"v")
        result = tree.get(b"hot")
        assert result.found and result.source_level is None  # memtable hit
        tree.flush()
        result = tree.get(b"hot")
        assert result.source_level == 1

    def test_cache_reduces_repeat_io(self):
        tree = make_tree(cache_bytes=1 << 20)
        for i in range(2000):
            tree.put(encode_uint_key(i), b"x" * 30)
        tree.flush()
        key = encode_uint_key(700)
        tree.get(key)
        before = tree.device.stats.blocks_read
        for _ in range(50):
            tree.get(key)
        assert tree.device.stats.blocks_read == before
        assert tree.cache.stats.hits >= 50

    def test_shared_hashing_counts_one_digest_per_get(self):
        def tree_and_evals(shared):
            tree = make_tree(layout="tiering", shared_hashing=shared)
            for i in range(3000):  # shuffled even keys: runs overlap in range
                tree.put(encode_uint_key(((i * 1237) % 3000) * 2), b"x" * 30)
            tree.flush()
            for i in range(200):
                tree.get(encode_uint_key(2 * i + 1))  # absent, inside key range
            return tree

        shared = tree_and_evals(True)
        plain = tree_and_evals(False)
        assert shared.total_runs > 1  # the saving needs multiple runs
        assert shared.stats.get_hash_evaluations == 200  # one digest per get
        assert plain.stats.get_hash_evaluations > 200  # one per (get, run)

    def test_scan_merges_across_levels(self):
        tree = make_tree(buffer_bytes=1 << 10)
        for i in range(0, 200, 2):
            tree.put(encode_uint_key(i), b"even")
        tree.flush()
        for i in range(1, 200, 2):
            tree.put(encode_uint_key(i), b"odd")
        got = [k for k, _ in tree.scan(encode_uint_key(0), encode_uint_key(199))]
        assert got == [encode_uint_key(i) for i in range(200)]


class TestLifecycle:
    def test_closed_tree_raises(self, small_tree):
        small_tree.close()
        with pytest.raises(ClosedError):
            small_tree.put(b"k", b"v")
        with pytest.raises(ClosedError):
            small_tree.get(b"k")

    def test_stats_counters(self, small_tree):
        small_tree.put(b"a", b"1")
        small_tree.delete(b"b")
        small_tree.get(b"a")
        list(small_tree.scan())
        assert small_tree.stats.puts == 1
        assert small_tree.stats.deletes == 1
        assert small_tree.stats.gets == 1
        assert small_tree.stats.scans == 1

    def test_memory_footprint_positive(self, small_tree):
        for i in range(2000):
            small_tree.put(encode_uint_key(i), b"x" * 30)
        small_tree.flush()
        assert small_tree.memory_footprint > 0

    def test_explicit_flush_empties_memtable(self, small_tree):
        small_tree.put(b"k", b"v")
        assert small_tree.memtable_entries == 1
        small_tree.flush()
        assert small_tree.memtable_entries == 0
        assert small_tree.num_levels >= 1

    def test_flush_empty_is_noop(self, small_tree):
        small_tree.flush()
        assert small_tree.num_levels == 0
