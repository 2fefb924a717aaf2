"""E19 — The service layer under concurrency: group commit and backpressure.

Two claims about the production-shaped front end (``repro.service``):

* **Group commit** amortizes WAL syncs. With 8 writer threads funneled
  through the :class:`WriteBatcher`, one WAL frame covers a whole leader
  batch, so records-per-frame should be >= 4x the inline path's 1. A
  leader waits for followers only when the previous write came from
  another thread or one is still in flight; the 2- and 4-writer rows show
  that evidence is enough to keep coalescing (deleting the wait outright
  measured 1.00 records/frame: under the GIL no queue forms behind a
  ~30 us commit).
* **Backpressure bounds the L0 backlog.** Under a sustained burst with
  compaction I/O rate-limited, the stall controller (slowdown at 6,
  stop at 10) keeps the flush backlog (sealed memtables + level-1 runs)
  near its stop threshold, while the same burst through an inline tree
  with maintenance disabled grows the backlog without bound.
"""

from conftest import once, record

from repro import DBService, LSMConfig, LSMTree, ServiceConfig, encode_uint_key
from repro.bench.harness import run_concurrent_workload
from repro.service import CompactionScheduler, RateLimiter

VALUE = 40
N_WRITERS = 8
WRITER_SWEEP = (2, 4, N_WRITERS)
OPS_PER_WRITER = 300


def _base_config(**overrides):
    defaults = dict(
        buffer_bytes=4 << 10,
        block_size=512,
        size_ratio=4,
        layout="leveling",
        bits_per_key=8.0,
        wal_enabled=True,
        wal_sync_interval=1,
        seed=19,
    )
    defaults.update(overrides)
    return LSMConfig(**defaults)


# -- part (a): group commit --------------------------------------------------


def _inline_commit_row():
    """One thread, one WAL sync per put: the 1-record-per-frame baseline."""
    tree = LSMTree(_base_config())
    n = N_WRITERS * OPS_PER_WRITER
    for i in range(n):
        tree.put(encode_uint_key(i % 10_000), b"x" * VALUE)
    records = tree._wal.records_logged
    frames = tree._wal.frames_written
    return ["inline", 1, n, records, frames, round(records / max(1, frames), 2)]


def _service_commit_row(n_writers):
    """Concurrent writers through the batcher: one frame per write group."""
    service = DBService(
        LSMTree(_base_config()),
        ServiceConfig(max_batch=32, max_batch_wait_s=0.002),
    )
    metrics = run_concurrent_workload(
        service, n_writers=n_writers, ops_per_writer=OPS_PER_WRITER, value_size=VALUE
    )
    service.close()
    assert not metrics.errors, metrics.errors
    stats = service.stats
    frames = service.tree._wal.frames_written
    service.tree.verify_integrity()
    return [
        "service",
        n_writers,
        metrics.puts,
        stats.batched_records,
        frames,
        round(stats.batched_records / max(1, frames), 2),
    ]


def test_e19_group_commit(benchmark):
    rows = once(
        benchmark,
        lambda: [_inline_commit_row()] + [_service_commit_row(n) for n in WRITER_SWEEP],
    )
    record(
        "e19_group_commit",
        "E19a: WAL frames per record — inline vs "
        f"{'/'.join(map(str, WRITER_SWEEP))}-writer group commit",
        ["mode", "threads", "puts", "wal_records", "wal_frames", "records/frame"],
        rows,
    )
    inline, service = rows[0], rows[-1]
    assert inline[5] <= 1.05  # one frame per record when syncing every put
    assert service[3] == N_WRITERS * OPS_PER_WRITER  # every put logged
    # The headline claim: group commit cuts WAL appends >= 4x at 8 writers.
    assert service[5] >= 4 * inline[5]


# -- part (b): backpressure under a burst ------------------------------------

BURST_PUTS = N_WRITERS * OPS_PER_WRITER
STOP_RUNS = 10


def _inline_burst_row():
    """Maintenance disabled: every flush parks a run at level 1 forever."""
    tree = LSMTree(_base_config(lazy_compaction=True, compaction_steps_per_op=0))
    max_backlog = 0
    for i in range(BURST_PUTS):
        tree.put(encode_uint_key((i * 7919) % 10_000), b"x" * VALUE)
        max_backlog = max(max_backlog, tree.flush_backlog())
    stats = tree.stats
    return [
        "inline (no maintenance)",
        BURST_PUTS,
        max_backlog,
        stats.stall_slowdowns,
        stats.stall_stops,
        round(stats.stall_time_wall, 3),
    ]


def _service_burst_row():
    """Rate-limited compaction forces the stall controller to do its job."""
    limiter = RateLimiter(bytes_per_second=512 << 10, burst_bytes=64 << 10)
    scheduler = CompactionScheduler(num_workers=1, rate_limiter=limiter)
    service = DBService(
        LSMTree(_base_config()),
        ServiceConfig(
            max_batch=32,
            max_batch_wait_s=0.001,
            l0_slowdown_runs=6,
            l0_stop_runs=STOP_RUNS,
            slowdown_delay_s=0.001,
            stop_timeout_s=30.0,
        ),
        scheduler=scheduler,
    )
    metrics = run_concurrent_workload(
        service, n_writers=N_WRITERS, ops_per_writer=OPS_PER_WRITER, value_size=VALUE
    )
    service.close()
    scheduler.close()
    assert not metrics.errors, metrics.errors
    stats = service.stats
    service.tree.verify_integrity()
    return [
        "service (stalls on)",
        metrics.puts,
        metrics.max_flush_backlog,
        stats.stall_slowdowns,
        stats.stall_stops,
        round(stats.stall_time_wall, 3),
    ]


def test_e19_backpressure(benchmark):
    rows = once(benchmark, lambda: [_inline_burst_row(), _service_burst_row()])
    record(
        "e19_service_concurrency",
        f"E19b: burst of {BURST_PUTS} puts — L0 backlog with and without stalls",
        ["mode", "puts", "max_backlog", "slowdowns", "stops", "stall_wall_s"],
        rows,
    )
    inline, service = rows
    # Without maintenance the backlog grows with the burst...
    assert inline[2] >= 2 * STOP_RUNS
    assert inline[3] == inline[4] == 0  # and nothing ever stalls.
    # ...while backpressure pins it near the stop threshold.
    assert service[2] <= STOP_RUNS + 2
    assert service[3] + service[4] > 0  # the controller actually engaged


def test_e19_concurrent_reads_during_burst(benchmark):
    """Readers running against the burst see a consistent, pinned view."""

    def run():
        service = DBService(
            LSMTree(_base_config()),
            ServiceConfig(max_batch=16, max_batch_wait_s=0.001),
        )
        metrics = run_concurrent_workload(
            service,
            n_writers=4,
            ops_per_writer=200,
            n_readers=4,
            ops_per_reader=200,
            keyspace=2_000,
            value_size=VALUE,
        )
        service.close()
        assert not metrics.errors, metrics.errors
        service.tree.verify_integrity()
        return metrics

    metrics = once(benchmark, run)
    assert metrics.puts == 800
    assert metrics.gets == 800
