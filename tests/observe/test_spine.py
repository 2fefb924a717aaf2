"""The stats spine as a contract: one count per event, one view of the counts.

The engine's plain ints (``LSMStats``, ``ProbeStats``, ``CacheStats``,
``DeviceStats``, ``ReadGuard``) are the only write side;
``metrics_snapshot()`` flattens them; the registry publishes every numeric
key of that snapshot as a callback series; every reader (exporters, the
``stats`` frame, the sampler, the per-level table) renders the registry.
"""

import json

import repro
from repro import DBService, LSMConfig, ServiceConfig, encode_uint_key
from repro.__main__ import main
from repro.observe import MetricsRegistry, TimeSeriesSampler, observe_tree, parse_prometheus
from repro.server import LSMClient
from tests.conftest import make_tree

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
        sampler = _engine_sampler(registry, tree)
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


def _engine_sampler(registry, tree) -> TimeSeriesSampler:
    """A sampler over an observed tree's registry (the one wiring step)."""
    sampler = TimeSeriesSampler(registry)
    try:  # before the spine the engine's view needed its own source
        from repro.observe import attach_engine_source
    except ImportError:
        return sampler
    attach_engine_source(sampler, tree)
    return sampler
