"""Coalesced device I/O: fewer seeks, same bytes, same answers."""

import pytest

from repro.cache.block_cache import BlockCache
from repro.common.encoding import encode_uint_key
from repro.common.entry import Entry
from repro.errors import ReproError
from repro.faults.guard import ReadGuard
from repro.filters.bloom import BloomFilter
from repro.indexes.fence import FencePointers
from repro.parallel import FrameSource, ParallelConfig
from repro.storage.block_device import BlockDevice
from repro.storage.sstable import ProbeStats, SSTableBuilder

from tests.conftest import make_tree


def build_table(device, n=400):
    builder = SSTableBuilder(device)
    for i in range(n):
        builder.add(Entry(encode_uint_key(i), i + 1, value=b"v%05d" % i))
    return builder.finish()


def fill(tree, n=4000, keyspace=800):
    for i in range(n):
        tree.put(encode_uint_key((i * 31) % keyspace), b"v%07d" % i)
    tree.flush()
    tree.compact_all()


def blocks_of(table, readahead, cache=None, stats=None):
    """The table's blocks as a scan or merge reads them: ``iter_chunks``."""
    return table.iter_chunks(cache=cache, stats=stats, readahead=readahead)


class TestCoalescingReader:
    """The frame source as its readers drive it: ``iter_chunks(readahead=)``
    for scans and merges, ``get_many(span=)`` for batches."""

    def test_iter_blocks_charges_one_seek_per_span(self, device):
        table = build_table(device)
        nblocks = len(table.fence_keys)
        assert nblocks >= 8
        before = device.stats.snapshot()
        blocks = list(blocks_of(table, readahead=8))
        delta = device.stats.delta(before)
        assert len(blocks) == nblocks
        assert delta.coalesced_reads > 0
        assert delta.coalesced_blocks == nblocks
        # At most one random access per 8-block span (vs one per block).
        assert delta.random_reads <= -(-nblocks // 8)

    def test_interleaved_readers_fewer_seeks_same_bytes(self, device):
        # Two readers alternating over two files: per-block reads bounce the
        # head on every access; span reads pay one seek per 8-block stretch.
        table_a, table_b = build_table(device), build_table(device)
        nblocks = min(len(table_a.fence_keys), len(table_b.fence_keys))

        def interleave(span):
            readers = [blocks_of(t, readahead=span) for t in (table_a, table_b)]
            before = device.stats.snapshot()
            for _ in range(nblocks):
                for reader in readers:
                    next(reader)
            return device.stats.delta(before)

        serial = interleave(span=1)
        coalesced = interleave(span=8)
        assert coalesced.bytes_read == serial.bytes_read
        assert coalesced.seeks * 3 <= serial.seeks

    def test_iter_blocks_serves_cached_blocks_without_io(self, device):
        table = build_table(device)
        cache = BlockCache(1 << 20)
        list(blocks_of(table, readahead=8, cache=cache))
        before = device.stats.snapshot()
        list(blocks_of(table, readahead=8, cache=cache))
        assert device.stats.delta(before).blocks_read == 0

    def test_spans_split_around_cached_blocks(self, device):
        table = build_table(device)
        nblocks = len(table.fence_keys)
        assert nblocks >= 12
        cache = BlockCache(1 << 20)
        for block_no in (3, 4, 9):
            table._load_block(block_no, cache, None)
        before = device.stats.snapshot()
        stats = ProbeStats()
        assert len(list(blocks_of(table, 8, cache, stats))) == nblocks
        delta = device.stats.delta(before)
        # A cached block is never re-read to keep a request contiguous:
        # 0-2, 5-8, then 10.. in spans of eight.
        assert delta.blocks_read == nblocks - 3
        assert delta.coalesced_reads == 2 + -(-(nblocks - 10) // 8)
        assert (stats.blocks_read, stats.cache_hits) == (nblocks, 3)
        assert cache.stats.lookups == nblocks + 3

    def test_load_many_groups_adjacent_blocks(self, device):
        table = build_table(device)
        fences = table.fence_keys
        keys = [fences[block_no] for block_no in (0, 1, 2, 3, 10, 11, 20)]
        before = device.stats.snapshot()
        found = table.get_many(keys, span=8)
        delta = device.stats.delta(before)
        assert sorted(found) == keys
        # Three adjacency groups -> three requests, two of them coalesced.
        assert delta.random_reads <= 3
        assert delta.blocks_read == 7
        assert (delta.coalesced_reads, delta.coalesced_blocks) == (2, 6)

    def test_a_batch_loads_each_block_once(self, device):
        # Two keys of one block are one load — at any span, cache or none.
        table = build_table(device)
        fences = table.fence_keys
        keys = sorted([fences[0], fences[0][:-1] + b"\x01", fences[1], fences[2]])
        single = ProbeStats()
        expected = {k: e for k in keys if (e := table.get(k, single)) is not None}
        for span in (1, 8):
            before = device.stats.snapshot()
            batched = ProbeStats()
            assert table.get_many(keys, stats=batched, span=span) == expected
            assert batched.blocks_read == 3 < single.blocks_read
            assert device.stats.delta(before).blocks_read == 3

    def test_span_validation(self, device):
        table = build_table(device)
        with pytest.raises(ValueError):
            next(blocks_of(table, readahead=0))
        with pytest.raises(ValueError):
            table.get_many([table.min_key], span=0)
        with pytest.raises(ValueError):
            FrameSource(table._read_frames, range(4), span=0)


class TestScanReadahead:
    def test_long_scan_seeks_reduced_3x_same_bytes(self):
        serial = make_tree(bits_per_key=0.0)
        parallel = make_tree(
            bits_per_key=0.0,
            parallel=ParallelConfig(max_subcompactions=1, scan_readahead_blocks=8),
        )
        fill(serial)
        fill(parallel)
        before_s = serial.device.stats.snapshot()
        out_serial = list(serial.scan())
        delta_s = serial.device.stats.delta(before_s)
        before_p = parallel.device.stats.snapshot()
        out_parallel = list(parallel.scan())
        delta_p = parallel.device.stats.delta(before_p)
        assert out_parallel == out_serial
        assert delta_p.bytes_read == delta_s.bytes_read
        assert delta_p.seeks * 3 <= delta_s.seeks


class TestMultiGetCoalescing:
    def test_multi_get_matches_individual_gets(self):
        tree = make_tree(parallel=ParallelConfig(max_subcompactions=1))
        fill(tree)
        keys = [encode_uint_key(i) for i in range(0, 800, 7)]
        keys.append(encode_uint_key(10_000))  # absent key
        batched = tree.multi_get(keys)
        for key in keys:
            got = tree.get(key)
            assert batched[key].found == got.found
            assert batched[key].value == got.value
            assert batched[key].source_level == got.source_level

    def test_multi_get_coalesces_adjacent_candidates(self):
        tree = make_tree(
            bits_per_key=0.0,  # no filters: every run probes its blocks
            parallel=ParallelConfig(max_subcompactions=1),
        )
        fill(tree)
        dense = [encode_uint_key(i) for i in range(100, 200)]
        before = tree.device.stats.snapshot()
        tree.multi_get(dense)
        batched = tree.device.stats.delta(before)
        assert batched.coalesced_reads > 0
        assert tree.stats.multi_gets == 1
        assert tree.stats.multi_get_keys == len(dense)
        # The batch needs far fewer seeks than one-at-a-time lookups.
        before = tree.device.stats.snapshot()
        for key in dense:
            tree.get(key)
        single = tree.device.stats.delta(before)
        assert batched.seeks * 2 <= max(1, single.seeks)

    def test_shared_hashing_batch_counts_every_digest_it_computed(self):
        """Under shared hashing a batch computes one digest per key, at the
        first run whose range covers it, and hands it to every filter it
        probes: no filter hashes a key itself, and the batch counts exactly
        the digests per-key gets count."""
        tree = make_tree(
            shared_hashing=True,
            parallel=ParallelConfig(max_subcompactions=1),
        )
        for i in range(2000):
            tree.put(encode_uint_key((i * 31) % 800), b"v%07d" % i)
        tree.flush()  # several runs: a key's filter is probed more than once
        hashed = []
        for runs in tree._levels:
            for table in (table for run in runs for table in run.tables):
                table.point_filter.may_contain = _counting(
                    table.point_filter.may_contain, hashed
                )
        keys = [encode_uint_key(i) for i in range(0, 800, 16)]
        before = (tree.stats.get_hash_evaluations, tree.stats.probe.filter_probes)
        batched = tree.multi_get(keys)
        digests = tree.stats.get_hash_evaluations - before[0]
        assert hashed == []
        assert digests == len(keys)  # every key lies inside some run's range
        assert tree.stats.probe.filter_probes - before[1] > len(keys)
        for key in keys:
            got = tree.get(key)
            assert got.found
            assert (batched[key].found, batched[key].value) == (got.found, got.value)
        assert hashed == []
        assert tree.stats.get_hash_evaluations - before[0] == 2 * digests


def _broken(*args):
    raise ReproError("simulated broken auxiliary structure")


class TestGetManyAdmission:
    """``get_many`` admits each key with the step ``get`` runs — healthy,
    broken-filter and broken-index tables alike."""

    @staticmethod
    def table(device, broken):
        builder = SSTableBuilder(
            device, index_factory=FencePointers,
            filter_factory=lambda keys: BloomFilter(keys, bits_per_key=10),
        )
        for i in range(0, 800, 2):
            builder.add(Entry(encode_uint_key(i), i + 1, value=b"v%05d" % i))
        table = builder.finish()
        if broken == "filter":
            table.point_filter.may_contain = _broken
        elif broken == "index":
            table.search_index.locate = _broken
        return table

    @pytest.mark.parametrize("broken", [None, "filter", "index"])
    def test_per_key_accounting_matches_get(self, device, broken):
        table = self.table(device, broken)
        keys = [encode_uint_key(i) for i in range(0, 900, 3)]  # present, absent, past the range
        single = ProbeStats()
        expected = {}
        for key in keys:
            entry = table.get(key, stats=single)
            if entry is not None:
                expected[key] = entry
        batched = ProbeStats()
        assert table.get_many(keys, stats=batched) == expected
        assert len(expected) == len(range(0, 800, 6))  # a broken structure loses no key
        for name in ("filter_probes", "filter_negatives", "false_positives", "index_probes"):
            assert getattr(batched, name) == getattr(single, name), name
        if broken == "filter":
            assert batched.filter_negatives == 0  # its negatives are not trusted
        if broken == "index":
            # Every admitted key searches all blocks its fences still allow.
            assert batched.index_probes == batched.filter_probes - batched.filter_negatives

    @pytest.mark.parametrize("broken", ["filter", "index"])
    def test_guarded_batch_notes_each_degraded_read(self, device, broken):
        device.guard = guard = ReadGuard()
        table = self.table(device, broken)
        keys = [encode_uint_key(i) for i in range(0, 800, 40)]
        found = table.get_many(keys)  # a guard keeps reads per key, per block
        assert sorted(found) == keys
        assert guard.degraded_reads == len(keys)


def _counting(fn, calls):
    def wrapped(key):
        calls.append(key)
        return fn(key)

    return wrapped
