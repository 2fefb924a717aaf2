"""The stats spine as a contract: one count per event, one view of the counts.

The engine's plain ints (``LSMStats``, ``ProbeStats``, ``CacheStats``,
``DeviceStats``, ``ReadGuard``) are the only write side;
``metrics_snapshot()`` flattens them; the registry publishes every numeric
key of that snapshot as a callback series; every reader (exporters, the
``stats`` frame, the sampler, the per-level table) renders the registry.
"""

import pytest

import repro
from repro import DBService, FaultConfig, LSMConfig, ServiceConfig, encode_uint_key
from repro.__main__ import main
from repro.errors import CorruptionError
from repro.observe import (
    MetricsRegistry,
    TimeSeriesSampler,
    observe_tree,
    parse_prometheus,
    series_name,
)
from repro.parallel import ParallelConfig
from repro.server import LSMClient
from repro.sharding import ShardedStore, even_boundaries
from tests.conftest import make_config, make_tree

# -- (i) the surface is frozen ---------------------------------------------------

STATS_KEYS = frozenset("""
    batched_records batches_committed block_bytes_stored block_bytes_uncompressed
    blocks_per_get blocks_written bulk_ingested compaction_bytes_in
    compaction_bytes_out compaction_jobs compactions compression_ratio deletes
    entries_per_scan false_positives filter_fpr_observed filter_negatives
    filter_probes filtered_by_compaction flush_jobs flushes get_hash_evaluations
    gets last_recovery_sim last_recovery_wall merges multi_get_keys multi_gets
    parallel_compactions puts recoveries scan_entries scans stall_slowdowns
    stall_stops stall_time stall_time_wall subcompactions tombstones_purged
    trivial_moves ttl_expired_dropped ttl_puts txn_commits txn_conflicts
    user_bytes value_log_fetches wal_replayed_records wal_torn_frames write_stalls
""".split())

TREE_KEYS = STATS_KEYS | frozenset("""
    cache_compressed_evictions cache_compressed_hit_rate cache_compressed_hits
    cache_compressed_insertions cache_compressed_invalidations
    cache_compressed_lookups cache_compressed_misses
    cache_compressed_single_flight_waits cache_compressed_used_bytes
    cache_evictions cache_hit_rate cache_hits cache_insertions
    cache_invalidations cache_lookups cache_misses cache_single_flight_waits
    cache_used_bytes device_blocks_read device_blocks_written device_bytes_read
    device_bytes_written device_coalesced_blocks device_coalesced_reads
    device_coalesced_write_blocks device_coalesced_writes device_random_reads
    device_seeks device_sequential_reads device_simulated_time
    immutable_memtables levels memtable_entries runs uptime_seconds
    write_amplification
""".split())

GUARD_KEYS = frozenset("""
    fault_transient_errors fault_corruptions_detected fault_degraded_reads
    retry_attempts retry_successes retry_exhausted quarantine_files
    quarantine_blocked_reads
""".split())

SERVICE_KEYS = TREE_KEYS | {"pending_jobs", "service_uptime_seconds", "write_queue_depth"}

#: Every series name ``python -m repro stats --demo --format prometheus``
#: exported before the spine; the export may grow, never lose one of these.
DEMO_SERIES = frozenset(
    [f"repro_{name}_total" for name in (
        "fault_corruption", "fault_degraded", "fault_retry", "fault_transient",
        "gets_found", "gets", "parallel_compactions", "quarantine_files",
        "recoveries", "subcompactions",
    )]
    + [f"repro_{name}{suffix}" for name in (
        "compaction_merge_wall_seconds", "flush_build_wall_seconds",
        "get_blocks_touched", "get_latency_sim", "get_latency_wall_seconds",
        "put_latency_wall_seconds", "recovery_wall_seconds",
        "scan_latency_wall_seconds",
    ) for suffix in ("_bucket", "_count", "_sum")]
    + [f"repro_level_{column}" for column in (
        "block_accesses", "bytes", "bytes_compacted_in", "bytes_written",
        "cache_hit_rate", "capacity", "entries", "files", "filter_fpr",
        "gets_probed", "gets_served", "runs",
    )]
)


class TestFrozenSurface:
    def test_stats_and_snapshot_key_sets(self):
        tree = make_tree()
        assert set(tree.stats.as_dict()) == STATS_KEYS
        assert set(tree.metrics_snapshot()) == TREE_KEYS
        service = DBService(tree, ServiceConfig(num_workers=1))
        try:
            assert set(service.metrics_snapshot()) == SERVICE_KEYS
        finally:
            service.close()

    def test_guarded_device_adds_exactly_the_guard_keys(self):
        with repro.open(faults=repro.FaultConfig(seed=1), arm_faults=False) as db:
            assert set(db.metrics_snapshot()) == TREE_KEYS | GUARD_KEYS

    def test_demo_prometheus_export_keeps_every_series_name(self, capsys):
        assert main(["stats", "--demo", "--format", "prometheus",
                     "--ops", "300", "--keys", "300"]) == 0
        exported = {
            series.partition("{")[0]
            for series in parse_prometheus(capsys.readouterr().out)
        }
        assert DEMO_SERIES <= exported


# -- (ii)-(iv) the registry is a view of the engine's counts ------------------------


def _assert_registry_mirrors(snapshot: dict, metrics: dict) -> None:
    """Every numeric ``metrics_snapshot()`` key reads the same in the registry."""
    assert not set(metrics["counters"]) & set(metrics["gauges"])
    published = {**metrics["counters"], **metrics["gauges"]}
    for key, value in snapshot.items():
        assert published[series_name(key)] == value, key


def _busy_recovered_engine(**open_kwargs):
    """An observed handle that has been through everything the engine counts:
    a crash recovery, flushes, a parallel compaction, value-log fetches,
    transient read errors with retries, a corruption and a quarantine."""
    config = LSMConfig(
        buffer_bytes=4 << 10, block_size=512, size_ratio=3, seed=5,
        wal_enabled=True, wal_sync_interval=1,
        kv_separation=True, value_threshold=48,
        parallel=ParallelConfig(max_subcompactions=3, min_subcompaction_blocks=2),
    )
    faults = FaultConfig(seed=8, read_error_prob=0.05, max_read_retries=64)
    crashed = repro.open(config=config, faults=faults, arm_faults=False)
    for i in range(200):
        crashed.put(encode_uint_key(i), b"w" * 24)
    db = repro.open(config=config, device=crashed.device, faults=faults,
                    observe=True, **open_kwargs)
    tree = getattr(db, "tree", db)
    for i in range(1500):  # even keys carry values big enough for the value log
        key = (i * 37) % 700
        db.put(encode_uint_key(key), b"v" * (24 if key % 2 else 96))
    db.flush()
    tree.compact_all()
    for i in range(0, 700, 6):
        assert db.get(encode_uint_key(i)).found
    list(db.scan(encode_uint_key(100), encode_uint_key(160)))
    tree.device.arm()  # value-log reads are not behind the read guard: inline keys only
    for i in range(1, 700, 2):
        assert db.get(encode_uint_key(i)).found
    tree.device.disarm()
    for runs in tree._levels:  # whichever table holds the smallest key, it is in block 0
        for table in (table for run in runs for table in run.tables):
            tree.device.corrupt_block(table.file_id, 0)
    with pytest.raises(CorruptionError):
        db.get(encode_uint_key(0))
    return db, tree


class TestRegistryIsAViewOfTheEngine:
    @pytest.mark.parametrize("open_kwargs", [{}, {"service": True}], ids=["tree", "service"])
    def test_every_snapshot_key_equals_its_series(self, open_kwargs):
        db, tree = _busy_recovered_engine(**open_kwargs)
        try:
            snapshot = db.metrics_snapshot()
            for key in ("recoveries", "flushes", "parallel_compactions", "subcompactions",
                        "value_log_fetches", "fault_transient_errors", "retry_attempts",
                        "fault_corruptions_detected", "quarantine_files", "scans"):
                assert snapshot[key] > 0, key
            # Everything but the clocks is still between the two reads.
            moving = {"uptime_seconds", "service_uptime_seconds"}
            metrics = db.observer.registry.snapshot()
            _assert_registry_mirrors(
                {k: v for k, v in snapshot.items() if k not in moving}, metrics
            )
            assert metrics["gauges"]["engine_uptime_seconds"] >= snapshot["uptime_seconds"]
            # A series read on its own is live, not the last scrape's value.
            gets = db.observer.registry.counter("gets_total")
            before = gets.value
            db.get(encode_uint_key(699))
            assert gets.value == before + 1 == tree.stats.gets
        finally:
            db.close()

    @pytest.mark.parametrize("parallel", [None, ParallelConfig(max_subcompactions=1)],
                             ids=["serial", "parallel"])
    def test_every_multi_get_batch_is_counted_once_on_every_fork(self, parallel):
        tree = make_tree(parallel=parallel)
        registry = MetricsRegistry()
        observe_tree(tree, registry)
        for i in range(600):
            tree.put(encode_uint_key(i), b"v" * 24)
        tree.flush()
        keys = [encode_uint_key(i) for i in (5, 250, 100, 5, 999)]
        assert len(tree.multi_get(keys)) == 4
        tree.multi_get([])
        service = DBService(tree, ServiceConfig(num_workers=1))
        try:
            assert len(service.multi_get(keys)) == 4
        finally:
            service.close()
        assert (tree.stats.multi_gets, tree.stats.multi_get_keys, tree.stats.gets) == (3, 8, 8)
        counters = registry.snapshot()["counters"]
        assert counters[series_name("multi_gets")] == 3
        assert counters[series_name("multi_get_keys")] == 8

    def test_merged_registry_sums_the_shards_snapshots(self):
        store = ShardedStore(make_config(), even_boundaries(1000, 3))
        store.attach_observability()
        for i in range(600):
            store.put(encode_uint_key(i * 7 % 1000), b"v" * 24)
        store.flush()
        for i in range(300):
            store.get(encode_uint_key(i * 11 % 1000))
        merged = store.merged_registry().snapshot()["counters"]
        snapshots = [shard.metrics_snapshot() for shard in store.shards]
        for key in ("gets", "puts", "flushes", "compactions", "filter_probes",
                    "cache_lookups", "user_bytes", "compaction_bytes_in"):
            assert merged[series_name(key)] == sum(snap[key] for snap in snapshots), key
        assert merged["gets_total"] == 300

    def test_one_scrape_costs_one_metrics_snapshot(self):
        tree = make_tree()
        registry = MetricsRegistry()
        observe_tree(tree, registry)
        for i in range(200):
            tree.put(encode_uint_key(i), b"v" * 32)
        calls = []
        real = tree.metrics_snapshot

        def counting():
            calls.append(1)
            return real()

        tree.metrics_snapshot = counting
        snap = registry.snapshot()
        assert len(calls) == 1
        assert len(snap["counters"]) + len(snap["gauges"]) > len(TREE_KEYS)
        TimeSeriesSampler(registry).scrape()
        assert len(calls) == 2


# -- (v) the history series dashboards read ---------------------------------------

PINNED_HISTORY = ("engine_gets", "cache_hit_ratio", "read_fraction", "stall_fraction")


def _assert_pinned_history(series: dict) -> None:
    for name in PINNED_HISTORY:
        assert name in series, name
    assert series["engine_gets"]["kind"] == "cumulative"
    for name in ("cache_hit_ratio", "read_fraction", "stall_fraction"):
        assert series[name]["kind"] == "level"
        assert all(0.0 <= v <= 1.0 for v in series[name]["v"])


class TestPinnedHistorySeries:
    def test_local_sampler_serves_them(self):
        tree = make_tree(buffer_bytes=2 << 10)
        registry = MetricsRegistry()
        observe_tree(tree, registry)
        sampler = TimeSeriesSampler(registry)
        for i in range(300):
            tree.put(encode_uint_key(i), b"v" * 64)
        sampler.scrape()
        for i in range(300):
            tree.get(encode_uint_key(i))
            tree.get(encode_uint_key(10_000 + i))
        sampler.scrape()
        series = sampler.as_dict()["series"]
        _assert_pinned_history(series)
        assert series["engine_gets"]["v"][-1] == 600
        assert series["read_fraction"]["v"][-1] == 1.0
        fprs = [n for n in series if n.startswith("level") and n.endswith("_fpr")]
        probed = [n for n in series if n.startswith("level") and n.endswith("_gets_probed")]
        assert fprs and probed
        assert all(series[n]["kind"] == "level" for n in fprs)
        assert all(series[n]["kind"] == "cumulative" for n in probed)
        assert sum(series[n]["v"][-1] for n in probed) >= 600

    def test_socket_history_frame_serves_them(self):
        server = repro.open(
            config=LSMConfig(buffer_bytes=4 << 10, block_size=512),
            server=True, observe=True,
        )
        try:
            host, port = server.address
            with LSMClient(host, port, tenant="t") as db:
                for i in range(60):
                    db.put(b"k%03d" % i, b"v" * 32)
                    db.get(b"k%03d" % (i // 2))
                series = db.stats_history()["series"]
        finally:
            server.shutdown()
        _assert_pinned_history(series)
        assert series["server_requests_total"]["kind"] == "cumulative"
        assert series["server_requests_total"]["v"][-1] >= 120
        assert series["engine_gets"]["v"][-1] == 60

