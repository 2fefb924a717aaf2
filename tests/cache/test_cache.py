"""Block cache: policies, byte budgets, invalidation, and Leaper prefetch."""

import pytest

from repro.cache.block_cache import BlockCache
from repro.cache.leaper import LeaperPrefetcher
from repro.cache.policies import ClockPolicy, LFUPolicy, LRUPolicy, make_policy
from repro.common.entry import Entry
from repro.errors import ConfigError
from repro.storage.block_device import BlockDevice
from repro.storage.sstable import SSTableBuilder

from tests.conftest import make_tree


class TestPolicies:
    def test_lru_evicts_oldest_touch(self):
        policy = LRUPolicy()
        for key in ("a", "b", "c"):
            policy.on_insert(key)
        policy.on_access("a")
        assert policy.victim() == "b"

    def test_lru_remove(self):
        policy = LRUPolicy()
        policy.on_insert("a")
        policy.on_remove("a")
        assert policy.victim() is None

    def test_lfu_evicts_least_frequent(self):
        policy = LFUPolicy()
        for key in ("a", "b"):
            policy.on_insert(key)
        for _ in range(3):
            policy.on_access("a")
        assert policy.victim() == "b"

    def test_lfu_ties_break_fifo(self):
        policy = LFUPolicy()
        policy.on_insert("first")
        policy.on_insert("second")
        assert policy.victim() == "first"

    def test_clock_second_chance(self):
        policy = ClockPolicy()
        for key in ("a", "b", "c"):
            policy.on_insert(key)
        policy.on_access("a")  # referenced: survives one pass
        assert policy.victim() == "b"

    def test_clock_all_referenced_degrades_to_fifo(self):
        policy = ClockPolicy()
        for key in ("a", "b"):
            policy.on_insert(key)
            policy.on_access(key)
        victim = policy.victim()
        assert victim in ("a", "b")

    def test_registry(self):
        assert isinstance(make_policy("lru"), LRUPolicy)
        with pytest.raises(ConfigError):
            make_policy("arc")


class TestBlockCache:
    def test_hit_after_load(self):
        cache = BlockCache(1024)
        calls = []

        def loader():
            calls.append(1)
            return "block", 100

        assert cache.get_or_load((1, 0), loader) == "block"
        assert cache.get_or_load((1, 0), loader) == "block"
        assert len(calls) == 1
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_byte_budget_evicts(self):
        cache = BlockCache(250)
        for i in range(5):
            cache.get_or_load((1, i), lambda: ("x", 100))
        assert cache.used_bytes <= 250
        assert cache.stats.evictions >= 3

    def test_zero_capacity_disables(self):
        cache = BlockCache(0)
        cache.get_or_load((1, 0), lambda: ("x", 10))
        cache.get_or_load((1, 0), lambda: ("x", 10))
        assert len(cache) == 0
        assert cache.stats.misses == 2 and cache.stats.hits == 0

    def test_oversized_object_not_cached(self):
        cache = BlockCache(50)
        cache.get_or_load((1, 0), lambda: ("big", 100))
        assert len(cache) == 0

    def test_invalidate_file_drops_only_that_file(self):
        cache = BlockCache(10_000)
        cache.get_or_load((1, 0), lambda: ("a", 10))
        cache.get_or_load((2, 0), lambda: ("b", 10))
        dropped = cache.invalidate_file(1)
        assert dropped == [(1, 0)]
        assert not cache.contains((1, 0))
        assert cache.contains((2, 0))

    def test_invalidate_handles_vlog_keys(self):
        cache = BlockCache(10_000)
        cache.get_or_load(("vlog", 3, 0), lambda: ("v", 10))
        assert cache.invalidate_file(3) == [("vlog", 3, 0)]

    def test_invalidate_file_drops_that_files_access_counts(self):
        cache = BlockCache(15)  # room for one block: the others are counted, not held
        for key in ((1, 0), (1, 1), ("vlog", 1, 0), (2, 0), ("vlog", 2, 0)):
            cache.get_or_load(key, lambda: ("x", 10))
        with pytest.raises(KeyError):  # a load that failed still counted its lookup
            cache.get_or_load_block((1, 7), {}.__getitem__, None)
        cache.invalidate_file(1)
        assert set(cache.access_counts) == {(2, 0), ("vlog", 2, 0)}

    def test_hot_keys_threshold(self):
        cache = BlockCache(10_000)
        for _ in range(5):
            cache.get_or_load((1, 0), lambda: ("a", 10))
        cache.get_or_load((1, 1), lambda: ("b", 10))
        assert cache.hot_keys(min_accesses=3) == [(1, 0)]

    def test_put_prefetch_path(self):
        cache = BlockCache(1000)
        cache.put((9, 0), "prefetched", 10)
        assert cache.contains((9, 0))
        cache.put((9, 0), "again", 10)  # idempotent
        assert cache.used_bytes == 10

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            BlockCache(-1)

    def test_policy_by_name(self):
        cache = BlockCache(100, policy="clock")
        cache.get_or_load((1, 0), lambda: ("x", 10))
        assert cache.contains((1, 0))


def build_table(device, values):
    builder = SSTableBuilder(device)
    for i, v in enumerate(values):
        builder.add(Entry(key=b"k%06d" % v, seqno=i + 1, value=b"v" * 40))
    return builder.finish()


class TestLeaper:
    def make_setup(self):
        device = BlockDevice(block_size=256)
        cache = BlockCache(1 << 20)
        old = build_table(device, range(0, 200))
        new = build_table(device, range(0, 200, 2))
        return device, cache, old, new

    def test_prefetches_new_blocks_covering_hot_old_blocks(self):
        device, cache, old, new = self.make_setup()
        # Heat up one old block through the cache.
        for _ in range(5):
            old.get(b"k%06d" % 50, cache=cache)
        leaper = LeaperPrefetcher(cache, hot_threshold=2, max_prefetch_blocks=16)
        fetched = leaper.on_compaction([old], [new])
        assert fetched > 0
        # The covering new block is now a cache hit with zero demand I/O.
        before = device.stats.blocks_read
        new.get(b"k%06d" % 50, cache=cache)
        assert device.stats.blocks_read == before

    def test_no_hot_blocks_no_prefetch(self):
        _, cache, old, new = self.make_setup()
        leaper = LeaperPrefetcher(cache, hot_threshold=2)
        assert leaper.on_compaction([old], [new]) == 0

    def test_budget_caps_prefetch(self):
        _, cache, old, new = self.make_setup()
        for key in range(0, 200, 10):
            for _ in range(3):
                old.get(b"k%06d" % key, cache=cache)
        leaper = LeaperPrefetcher(cache, hot_threshold=2, max_prefetch_blocks=2)
        assert leaper.on_compaction([old], [new]) <= 2

    def test_prefetched_block_is_charged_like_a_demand_load(self):
        # The budget bounds decoded memory whichever path filled it: same
        # block type, same charge.
        _, cache, old, new = self.make_setup()
        for _ in range(3):
            old.get(b"k%06d" % 50, cache=cache)
        used = cache.used_bytes
        leaper = LeaperPrefetcher(cache, hot_threshold=2, max_prefetch_blocks=1)
        assert leaper.on_compaction([old], [new]) == 1
        (block_no,) = [b for b in range(new.num_data_blocks) if cache.contains((new.file_id, b))]
        prefetched = cache.get_or_load((new.file_id, block_no), None)  # a hit: no loader runs
        demand_cache = BlockCache(1 << 20)
        demanded = new._load_block(block_no, demand_cache, None)
        assert cache.used_bytes - used == demand_cache.used_bytes == demanded.charge_bytes
        assert prefetched._buf is not None and demanded._buf is not None  # both in place
        assert type(prefetched) is type(demanded) and prefetched == demanded

    def test_validation(self):
        cache = BlockCache(100)
        with pytest.raises(ValueError):
            LeaperPrefetcher(cache, hot_threshold=0)
        with pytest.raises(ValueError):
            LeaperPrefetcher(cache, max_prefetch_blocks=-1)


class TestAccessCountsStayBounded:
    """One count per block of a *live* file: compacted-away files take theirs
    with them (file ids are never reused, so nothing could read them again)."""

    @staticmethod
    def churn(tree, rounds=12, keys=400):
        for round_no in range(rounds):
            for i in range(keys):
                tree.put(b"k%05d" % i, b"v%d" % round_no * 8)
            tree.flush()
            for i in range(0, keys, 3):
                tree.get(b"k%05d" % i)
            list(tree.scan(b"k%05d" % 10, b"k%05d" % 60))

    @staticmethod
    def live_blocks(tree):
        return {
            (table.file_id, block_no)
            for runs in tree._levels for run in runs for table in run.tables
            for block_no in range(table.num_data_blocks)
        }

    def test_counts_cover_only_live_files_after_flush_and_compaction_cycles(self):
        tree = make_tree(cache_bytes=64 << 10)
        self.churn(tree)
        assert tree.stats.compactions > 5
        live = self.live_blocks(tree)
        assert set(tree.cache.access_counts) <= live
        assert 0 < len(tree.cache.access_counts) <= len(live)

    def test_leaper_reads_heat_before_the_inputs_counts_are_dropped(self):
        # install_compaction runs Leaper's on_compaction first and retires
        # (invalidates) the inputs after: the other order would hand Leaper
        # an empty heat map and it would never prefetch.
        tree = make_tree(
            cache_bytes=256 << 10, leaper_prefetch=True,
            leaper_params=dict(hot_threshold=1),
        )
        self.churn(tree)
        assert tree.stats.compactions > 5
        assert tree._leaper.prefetched_blocks > 0
        assert set(tree.cache.access_counts) <= self.live_blocks(tree)
