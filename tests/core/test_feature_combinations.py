"""Cross-feature integration: knob combinations that interact non-trivially.

Each test switches ON several design dimensions at once and checks the
engine still honors its core contracts (dict equivalence, durability,
shape bounds) — the combinations a navigator-driven deployment would
actually run with.
"""

import pytest

from repro import LSMConfig, LSMTree, encode_uint_key
from repro.sharding import ShardedStore, even_boundaries
from tests.conftest import make_config, make_tree


def churn(tree, n=2000, keyspace=600, delete_every=9):
    model = {}
    for i in range(n):
        key = encode_uint_key((i * 733) % keyspace)
        if i % delete_every == delete_every - 1:
            tree.delete(key)
            model.pop(key, None)
        else:
            value = b"v%06d" % i
            tree.put(key, value)
            model[key] = value
    return model


class TestKitchenSink:
    def test_everything_on_at_once(self):
        """The maximal read-optimized configuration stays correct."""
        tree = make_tree(
            layout="lazy_leveling",
            filter_kind="blocked_bloom",
            bits_per_key=[14.0, 10.0, 6.0],     # Monkey-ish vector
            range_filter="snarf",
            index="pgm",
            index_params={"epsilon": 8},
            hash_index_blocks=True,
            cache_bytes=64 << 10,
            cache_policy="clock",
            shared_hashing=False,                # blocked bloom: no digest API
            leaper_prefetch=True,
            leaper_params={"hot_threshold": 2},
            staleness_flushes=8,
        )
        model = churn(tree)
        tree.compact_all()
        assert dict(tree.scan()) == model
        for key, value in list(model.items())[::13]:
            assert tree.get(key).value == value

    def test_write_optimized_stack(self):
        """Tiering + vector buffer + kv-sep + lazy pacing + throttle."""
        tree = make_tree(
            layout="tiering",
            memtable="vector",
            kv_separation=True,
            value_threshold=24,
            lazy_compaction=True,
            compaction_steps_per_op=2,
            slowdown_debt=1.0,
        )
        model = churn(tree)
        tree.compact_all()
        assert dict(tree.scan()) == model

    def test_durable_partial_compaction_with_staleness(self):
        config = make_config(
            wal_enabled=True,
            wal_sync_interval=1,
            partial_compaction=True,
            file_bytes=1 << 10,
            picker="most_tombstones",
            staleness_flushes=5,
            buffer_bytes=2 << 10,
        )
        tree = LSMTree(config)
        model = churn(tree, n=1500)
        recovered = LSMTree.recover(config, tree.device)
        assert dict(recovered.scan()) == model
        assert recovered.verify_integrity()["errors"] == []

    def test_durable_kv_sep_with_compaction_filter(self):
        def keep(key, stored):
            # kv-sep stores tagged values; drop nothing so equivalence holds,
            # but exercise the filter + pointer interaction path.
            return True

        config = make_config(
            wal_enabled=True, wal_sync_interval=4,
            kv_separation=True, value_threshold=32,
            compaction_filter=keep,
        )
        tree = LSMTree(config)
        model = churn(tree, n=1200)
        tree.compact_all()
        tree._wal.sync()
        recovered = LSMTree.recover(config, tree.device)
        assert dict(recovered.scan()) == model

    def test_sharded_kv_separation(self):
        store = ShardedStore(
            make_config(kv_separation=True, value_threshold=32, buffer_bytes=2 << 10),
            even_boundaries(1200, 3),
        )
        model = {}
        for i in range(2400):
            key = encode_uint_key((i * 733) % 1200)
            value = b"B" * (16 + (i % 5) * 40)  # mix of inline and separated
            store.put(key, value)
            model[key] = value
        store.compact_all()
        assert dict(store.scan()) == model

    def test_ingest_then_churn_then_recover(self):
        config = make_config(wal_enabled=True, wal_sync_interval=1)
        tree = LSMTree(config)
        tree.ingest_external(
            [(encode_uint_key(i), b"bulk") for i in range(0, 2000, 2)]
        )
        model = {encode_uint_key(i): b"bulk" for i in range(0, 2000, 2)}
        for i in range(800):
            key = encode_uint_key((i * 733) % 2000)
            if i % 9 == 8:
                tree.delete(key)
                model.pop(key, None)  # may remove an ingested key too
            else:
                tree.put(key, b"v%06d" % i)
                model[key] = b"v%06d" % i
        recovered = LSMTree.recover(config, tree.device)
        assert dict(recovered.scan()) == model

    def test_bush_layout_with_elastic_filters(self):
        from repro.compaction.layout import LayoutPolicy

        tree = make_tree(
            layout=LayoutPolicy.bush(size_ratio=3, depth=2),
            filter_kind="elastic",
            filter_params={"units": 4},
            elastic_budget_units=12,
        )
        model = churn(tree, n=2500, keyspace=800)
        for key, value in list(model.items())[::17]:
            assert tree.get(key).value == value

    def test_quotient_filters_with_monkey_vector_and_cache(self):
        tree = make_tree(
            filter_kind="quotient",
            filter_params={"remainder_bits": 8},
            cache_bytes=32 << 10,
            layout="tiering",
        )
        model = churn(tree, n=2000)
        assert dict(tree.scan()) == model
        # Zero-result lookups stay cheap behind quotient filters.
        before = tree.device.stats.blocks_read
        for i in range(300):
            tree.get(encode_uint_key(i) + b"\x00")
        assert tree.device.stats.blocks_read - before < 25


class TestScanPrefixAcrossFeatures:
    def test_prefix_scan_over_kv_separated_store(self):
        tree = make_tree(kv_separation=True, value_threshold=24)
        for user in range(20):
            for item in range(10):
                tree.put(b"u%03d:i%02d" % (user, item), b"P" * 100)
        tree.flush()
        got = list(tree.scan_prefix(b"u007:"))
        assert len(got) == 10
        assert all(v == b"P" * 100 for _, v in got)


class TestApproximateSizeDrivesSharding:
    def test_size_estimates_identify_hot_shard_boundaries(self):
        tree = make_tree()
        # Skewed population: 80% of data in the first tenth of the keyspace.
        for i in range(4000):
            key = (i % 400) if i % 5 else (400 + i % 3600)
            tree.put(encode_uint_key(key), b"x" * 30)
        tree.compact_all()
        hot = tree.approximate_size(encode_uint_key(0), encode_uint_key(399))
        cold = tree.approximate_size(encode_uint_key(400), encode_uint_key(3999))
        assert hot > 0 and cold > 0
        # Distinct-key mass: 400 hot keys vs ~3600/... estimate reflects data.
        total = tree.approximate_size(encode_uint_key(0), encode_uint_key(3999))
        assert abs((hot + cold) - total) <= total * 0.2


class TestOneReadPath:
    """Every point-read entry point is the same walk: same answer, same
    provenance, and — for the live handles — the same counter deltas."""

    FIELDS = ("found", "value", "seqno", "source_level", "runs_probed")

    @staticmethod
    def build(layout, **overrides):
        """Plain, deleted, TTL-expired, merge-chain and absent keys spread
        over the memtable and several levels; returns (tree, probe keys)."""
        tree = make_tree(layout=layout, buffer_bytes=2 << 10, **overrides)
        for i in range(300):
            tree.put(encode_uint_key(i), b"base%04d" % i)
        tree.put(b"doomed", b"soon gone")
        tree.put(b"ephemeral", b"expires", ttl=1.0)
        tree.put(b"chain-run", b"10")
        tree.put(b"chain-straddle", b"100")
        tree.flush()
        tree.delete(b"doomed")
        tree.merge(b"chain-run", b"5")
        for i in range(300, 500):
            tree.put(encode_uint_key(i), b"more%04d" % i)
        tree.flush()
        tree.merge(b"chain-run", b"7")
        tree.flush()  # operands now sit in runs above their base
        tree.merge(b"chain-straddle", b"1")
        tree.merge(b"chain-memory", b"3")
        tree.merge(b"chain-memory", b"4")
        tree.put(b"fresh", b"in the memtable")
        assert tree.num_levels >= 2 and tree.memtable_entries > 0
        keys = [encode_uint_key(i) for i in (0, 150, 299, 300, 499)] + [
            b"doomed", b"ephemeral", b"chain-run", b"chain-straddle",
            b"chain-memory", b"fresh", b"absent", encode_uint_key(10_000),
        ]
        return tree, keys

    @staticmethod
    def counters(tree):
        probe = tree.stats.probe
        return (
            probe.filter_probes, probe.filter_negatives, probe.false_positives,
            probe.blocks_read, tree.stats.get_hash_evaluations,
        )

    def answers(self, tree, read):
        before = self.counters(tree)
        results = read()
        delta = tuple(b - a for a, b in zip(before, self.counters(tree)))
        return {key: tuple(getattr(r, f) for f in self.FIELDS) for key, r in results.items()}, delta

    @pytest.mark.parametrize("layout", ["leveling", "tiering", "lazy_leveling"])
    @pytest.mark.parametrize("shared_hashing", [False, True])
    def test_one_answer_from_every_entry_point(self, layout, shared_hashing):
        from repro import DBService
        from repro.parallel import ParallelConfig
        from repro.txn import Transaction

        tree, keys = self.build(layout, shared_hashing=shared_hashing)
        reference, cost = self.answers(tree, lambda: {k: tree.get(k) for k in keys})
        expected = dict(zip(keys, [
            b"base0000", b"base0150", b"base0299", b"more0300", b"more0499",
            None, None, b"22", b"101", b"7", b"in the memtable", None, None,
        ]))
        assert {key: answer[1] for key, answer in reference.items()} == expected
        assert cost[0] > 0 and cost[3] > 0 and cost[4] > 0

        service = DBService(tree)
        live = {
            "service.get": lambda: {k: service.get(k) for k in keys},
        }
        for name, read in live.items():
            assert self.answers(tree, read) == (reference, cost), name
        with tree.snapshot() as snapshot, Transaction(tree) as txn:
            pinned = {
                "snapshot.get": lambda: {k: snapshot.get(k) for k in keys},
                "transaction.get": lambda: {k: txn.get(k) for k in keys},
            }
            for name, read in pinned.items():
                assert self.answers(tree, read) == (reference, cost), name

        # A batch is one level-by-level walk on every handle and under every
        # ParallelConfig: the same answers and the same filter and hash work
        # as key-by-key gets, and no more block loads (a block several keys
        # share is loaded once per batch).
        coalescing, _ = self.build(
            layout, shared_hashing=shared_hashing,
            parallel=ParallelConfig(
                max_subcompactions=1, merge_readahead_blocks=1,
                scan_readahead_blocks=1, write_buffer_blocks=1,
            ),
        )
        with tree.snapshot() as snapshot:
            batches = {
                "multi_get": (tree, lambda: tree.multi_get(keys)),
                "service.multi_get": (tree, lambda: service.multi_get(keys)),
                "snapshot.multi_get": (tree, lambda: snapshot.multi_get(keys)),
                "parallel multi_get": (coalescing, lambda: coalescing.multi_get(keys)),
            }
            for name, (owner, read) in batches.items():
                batches_before = owner.stats.multi_gets
                batched, batch_cost = self.answers(owner, read)
                assert owner.stats.multi_gets == batches_before + 1, name
                assert batched == reference, name
                assert batch_cost[:3] == cost[:3] and batch_cost[4] == cost[4], name
                assert batch_cost[3] <= cost[3], name
        service.close()
