"""The six config classes: every rejected value names its field and bound.

One case per rule each class enforces, with the exact message a caller
sees, so a rewording shows up here as a diff rather than in a user's log.
The second test holds the invalid inputs that must fail at construction
with a typed :class:`~repro.errors.ConfigError`, never a ``TypeError`` or
``ValueError`` from deep inside the engine, and never silently.
"""

import pytest

from repro.chaos.config import NetworkFaultConfig
from repro.core.config import LSMConfig
from repro.errors import ConfigError
from repro.faults.config import FaultConfig
from repro.parallel.config import ParallelConfig
from repro.server.config import ServerConfig
from repro.service.config import ServiceConfig

NAN = float("nan")

MESSAGES = [
    # LSMConfig
    (LSMConfig, dict(name=""), "name must be non-empty and contain no whitespace"),
    (LSMConfig, dict(buffer_bytes=0), "buffer_bytes must be positive"),
    (LSMConfig, dict(size_ratio=1), "size_ratio must be at least 2"),
    (LSMConfig, dict(block_size=0), "block_size must be positive"),
    (LSMConfig, dict(memtable="btree"), "unknown memtable 'btree'; expected one of flodb, skiplist, vector"),
    (
        LSMConfig,
        dict(index="bogus"),
        "unknown index 'bogus'; expected one of fence, hash, none, pgm, radix_spline, rmi",
    ),
    (
        LSMConfig,
        dict(filter_kind="bogus"),
        "unknown filter_kind 'bogus'; expected one of blocked_bloom, bloom, cuckoo, "
        "elastic, none, partitioned, quotient, xor",
    ),
    (
        LSMConfig,
        dict(range_filter="bogus"),
        "unknown range_filter 'bogus'; expected one of none, prefix_bloom, rosetta, snarf, surf",
    ),
    (LSMConfig, dict(cache_policy="arc"), "unknown cache_policy 'arc'; expected one of clock, lfu, lru"),
    (
        LSMConfig,
        dict(picker="bogus"),
        "unknown picker 'bogus'; expected one of coldest, least_overlap, "
        "most_tombstones, oldest, round_robin",
    ),
    (
        LSMConfig,
        dict(layout="bogus"),
        "unknown layout 'bogus'; expected one of bush, lazy_leveling, leveling, tiering",
    ),
    (LSMConfig, dict(cache_bytes=-1), "cache_bytes must be non-negative"),
    (LSMConfig, dict(compression="snappy"), "unknown compression 'snappy'; expected one of none, rle, zlib"),
    (LSMConfig, dict(compressed_cache_bytes=-1), "compressed_cache_bytes must be non-negative"),
    (LSMConfig, dict(saturation_threshold=0), "saturation_threshold must be positive"),
    (LSMConfig, dict(block_size=4096, file_bytes=1024), "file_bytes must be at least one block"),
    (LSMConfig, dict(partial_compaction=True), "partial_compaction requires file_bytes"),
    (
        LSMConfig,
        dict(partial_compaction=True, file_bytes=8192, layout="tiering"),
        "partial_compaction requires a leveled layout",
    ),
    (LSMConfig, dict(kv_separation=True, value_threshold=-1), "value_threshold must be non-negative"),
    (LSMConfig, dict(leaper_prefetch=True), "leaper_prefetch needs a block cache"),
    (LSMConfig, dict(elastic_budget_units=8), "elastic_budget_units requires filter_kind='elastic'"),
    (LSMConfig, dict(wal_sync_interval=0), "wal_sync_interval must be at least 1"),
    (LSMConfig, dict(compaction_steps_per_op=-1), "compaction_steps_per_op must be non-negative"),
    (LSMConfig, dict(staleness_flushes=0), "staleness_flushes must be at least 1"),
    (LSMConfig, dict(slowdown_debt=-1), "slowdown_debt must be non-negative"),
    (LSMConfig, dict(stall_penalty=-1), "stall_penalty must be non-negative"),
    (LSMConfig, dict(bits_per_key=-1), "bits_per_key must be non-negative"),
    (LSMConfig, dict(bits_per_key=[]), "bits_per_key must be non-empty"),
    (LSMConfig, dict(bits_per_key=[10, -1]), "bits_per_key[1] must be non-negative"),
    # ServiceConfig
    (ServiceConfig, dict(max_batch=0), "max_batch must be at least 1"),
    (ServiceConfig, dict(max_batch_wait_s=-1), "max_batch_wait_s must be non-negative"),
    (ServiceConfig, dict(num_workers=0), "num_workers must be at least 1"),
    (ServiceConfig, dict(compaction_rate_bytes=0), "compaction_rate_bytes must be positive"),
    (ServiceConfig, dict(l0_slowdown_runs=0), "l0_slowdown_runs must be at least 1"),
    (ServiceConfig, dict(l0_slowdown_runs=8, l0_stop_runs=4), "l0_stop_runs must be >= l0_slowdown_runs"),
    (ServiceConfig, dict(debt_slowdown=-1), "debt_slowdown must be non-negative"),
    (ServiceConfig, dict(debt_stop=-1), "debt_stop must be non-negative"),
    (ServiceConfig, dict(debt_slowdown=5.0, debt_stop=1.0), "debt_stop must be >= debt_slowdown"),
    (ServiceConfig, dict(slowdown_delay_s=-1), "slowdown_delay_s must be non-negative"),
    (ServiceConfig, dict(stop_timeout_s=0), "stop_timeout_s must be positive"),
    (ServiceConfig, dict(subcompaction_workers=0), "subcompaction_workers must be at least 1"),
    # ServerConfig
    (ServerConfig, dict(port=-1), "port must be in [0, 65535]"),
    (ServerConfig, dict(max_connections=0), "max_connections must be at least 1"),
    (ServerConfig, dict(max_payload_bytes=1000), "max_payload_bytes must be at least 1024"),
    (ServerConfig, dict(recv_bytes=0), "recv_bytes must be positive"),
    (ServerConfig, dict(idle_poll_s=0), "idle_poll_s must be positive"),
    (ServerConfig, dict(drain_timeout_s=0), "drain_timeout_s must be positive"),
    (ServerConfig, dict(default_tenant=""), "default_tenant must be non-empty"),
    (ServerConfig, dict(tenant_ops_per_second=0), "tenant_ops_per_second must be positive"),
    (ServerConfig, dict(tenant_burst_ops=0), "tenant_burst_ops must be positive"),
    (ServerConfig, dict(tenant_weights={"a": 0.0}), "tenant_weights['a'] must be positive"),
    (ServerConfig, dict(scan_limit_max=0), "scan_limit_max must be at least 1"),
    (ServerConfig, dict(trace_sampling=2.0), "trace_sampling must be in [0, 1]"),
    (ServerConfig, dict(trace_capacity=0), "trace_capacity must be at least 1"),
    (ServerConfig, dict(slow_op_threshold_s=-1), "slow_op_threshold_s must be non-negative"),
    (ServerConfig, dict(slow_op_capacity=0), "slow_op_capacity must be at least 1"),
    (ServerConfig, dict(stats_interval_s=-1), "stats_interval_s must be non-negative"),
    (ServerConfig, dict(history_capacity=0), "history_capacity must be at least 1"),
    (ServerConfig, dict(dedup_capacity=-1), "dedup_capacity must be non-negative"),
    (ServerConfig, dict(overload_in_flight=0), "overload_in_flight must be at least 1"),
    (ServerConfig, dict(brownout_in_flight=0), "brownout_in_flight must be at least 1"),
    (
        ServerConfig,
        dict(overload_in_flight=2, brownout_in_flight=5),
        "brownout_in_flight must not exceed overload_in_flight",
    ),
    (ServerConfig, dict(brownout_scan_limit=0), "brownout_scan_limit must be at least 1"),
    # FaultConfig
    (FaultConfig, dict(read_error_prob=2), "read_error_prob must be in [0, 1]"),
    (FaultConfig, dict(bit_rot_prob=-0.5), "bit_rot_prob must be in [0, 1]"),
    (FaultConfig, dict(torn_write_prob=1.5), "torn_write_prob must be in [0, 1]"),
    (
        FaultConfig,
        dict(crash_points={"nope": 1}),
        "unknown crash point 'nope'; valid: wal_sync, wal_roll, flush_build, "
        "flush_install, wal_retire, compaction_install, manifest_install, device_append",
    ),
    (FaultConfig, dict(crash_points={"wal_sync": 0}), "crash_points['wal_sync'] must be at least 1"),
    (FaultConfig, dict(max_read_retries=-1), "max_read_retries must be non-negative"),
    (FaultConfig, dict(backoff_base=-1), "backoff_base must be non-negative"),
    (FaultConfig, dict(backoff_base=4.0, backoff_cap=2.0), "backoff_cap must be >= backoff_base"),
    (FaultConfig, dict(quarantine_after=0), "quarantine_after must be at least 1"),
    # NetworkFaultConfig
    (NetworkFaultConfig, dict(connect_fail_prob=2), "connect_fail_prob must be in [0, 1]"),
    (NetworkFaultConfig, dict(reset_prob=-1), "reset_prob must be in [0, 1]"),
    (NetworkFaultConfig, dict(send_truncate_prob=2), "send_truncate_prob must be in [0, 1]"),
    (NetworkFaultConfig, dict(drop_reply_prob=2), "drop_reply_prob must be in [0, 1]"),
    (NetworkFaultConfig, dict(duplicate_prob=2), "duplicate_prob must be in [0, 1]"),
    (NetworkFaultConfig, dict(recv_truncate_prob=2), "recv_truncate_prob must be in [0, 1]"),
    (NetworkFaultConfig, dict(delay_prob=2), "delay_prob must be in [0, 1]"),
    (NetworkFaultConfig, dict(delay_s=-1), "delay_s must be non-negative"),
    (
        NetworkFaultConfig,
        dict(crash_points={"nope": 1}),
        "unknown network crash point 'nope'; valid: connect, before_send, mid_send, "
        "after_send_before_reply, duplicate_send, mid_reply",
    ),
    (
        NetworkFaultConfig,
        dict(crash_points={"connect": 0}),
        "crash_points['connect'] must be at least 1",
    ),
    # ParallelConfig
    (ParallelConfig, dict(max_subcompactions=0), "max_subcompactions must be at least 1"),
    (ParallelConfig, dict(min_subcompaction_blocks=0), "min_subcompaction_blocks must be at least 1"),
    (ParallelConfig, dict(merge_readahead_blocks=0), "merge_readahead_blocks must be at least 1"),
    (ParallelConfig, dict(scan_readahead_blocks=0), "scan_readahead_blocks must be at least 1"),
    (ParallelConfig, dict(write_buffer_blocks=0), "write_buffer_blocks must be at least 1"),
]


def _id(case):
    cls, kwargs, _ = case
    return f"{cls.__name__}-" + "-".join(f"{k}={v!r}" for k, v in kwargs.items())


@pytest.mark.parametrize("cls,kwargs,message", MESSAGES, ids=[_id(c) for c in MESSAGES])
def test_each_rule_says_which_field_and_bound(cls, kwargs, message):
    with pytest.raises(ConfigError) as excinfo:
        cls(**kwargs)
    assert str(excinfo.value) == message


REJECTED_AT_CONSTRUCTION = [
    (LSMConfig, dict(bits_per_key="abc")),
    (LSMConfig, dict(memtable=["x"])),
    (ServiceConfig, dict(max_batch="x")),
    (ServerConfig, dict(port=None)),
    (LSMConfig, dict(kv_separation=True, vlog_segment_blocks=0)),
    (LSMConfig, dict(filter_kind="elastic", elastic_budget_units=-5)),
    (LSMConfig, dict(bits_per_key=NAN)),
    (LSMConfig, dict(filter_params={"no_such_knob": 1})),
    (LSMConfig, dict(index_params={"no_such_knob": 1})),
    (LSMConfig, dict(range_filter="surf", range_filter_params={"no_such_knob": 1})),
    (
        LSMConfig,
        dict(leaper_prefetch=True, cache_bytes=1 << 20, leaper_params={"no_such_knob": 1}),
    ),
    (LSMConfig, dict(layout=3)),
    (LSMConfig, dict(saturation_threshold=NAN)),
]


@pytest.mark.parametrize(
    "cls,kwargs", REJECTED_AT_CONSTRUCTION, ids=[_id((*c, None)) for c in REJECTED_AT_CONSTRUCTION]
)
def test_bad_input_is_a_config_error_at_construction(cls, kwargs):
    with pytest.raises(ConfigError):
        cls(**kwargs)
