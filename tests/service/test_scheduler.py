"""CompactionScheduler: priorities, dedupe, and background maintenance."""

import threading
import time

from repro import DBService, LSMConfig, LSMTree, ServiceConfig, encode_uint_key
from repro.service import CompactionScheduler, RateLimiter
from repro.storage.block_device import BlockDevice


class StubStats:
    def __init__(self):
        self.flush_jobs = 0
        self.compaction_jobs = 0


class StubTree:
    """Records which jobs ran, in order; optionally blocks its first flush."""

    def __init__(self, log, name, block_event=None):
        self.log = log
        self.name = name
        self.block_event = block_event
        self.stats = StubStats()
        self.maintenance_cb = None

    def set_maintenance_callback(self, cb):
        self.maintenance_cb = cb

    # -- flush surface -------------------------------------------------------

    def claim_flush(self):
        if self.block_event is not None:
            event, self.block_event = self.block_event, None
            event.wait()
        self.log.append(("flush", self.name))
        return None  # nothing sealed: the job is a no-op probe

    def compaction_needed(self):
        return False

    # -- compaction surface --------------------------------------------------

    def plan_compaction(self):
        self.log.append(("compact", self.name))
        return None


def small_tree(**overrides):
    base = dict(
        buffer_bytes=2 << 10, block_size=512, size_ratio=3, bits_per_key=8.0, seed=5
    )
    base.update(overrides)
    return LSMTree(LSMConfig(**base))


def test_flush_outranks_earlier_compaction():
    """A flush submitted *after* a compaction still runs first."""
    log = []
    gate = threading.Event()
    blocker = StubTree(log, "blocker", block_event=gate)
    tree_b = StubTree(log, "B")
    tree_c = StubTree(log, "C")
    scheduler = CompactionScheduler(num_workers=1)
    try:
        scheduler.request_flush(blocker)  # occupies the only worker
        deadline = time.monotonic() + 2.0
        while scheduler.pending_jobs == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        scheduler.request_compaction(tree_b)  # enqueued first...
        scheduler.request_flush(tree_c)  # ...but lower priority than this
        gate.set()
        assert scheduler.drain(timeout=5.0)
    finally:
        gate.set()
        scheduler.close(drain=False)
    assert log == [("flush", "blocker"), ("flush", "C"), ("compact", "B")]


def test_duplicate_requests_are_deduped():
    log = []
    gate = threading.Event()
    blocker = StubTree(log, "blocker", block_event=gate)
    tree = StubTree(log, "T")
    scheduler = CompactionScheduler(num_workers=1)
    try:
        scheduler.request_flush(blocker)
        deadline = time.monotonic() + 2.0
        while scheduler.pending_jobs == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        for _ in range(5):
            scheduler.request_flush(tree)
            scheduler.request_compaction(tree)
        gate.set()
        assert scheduler.drain(timeout=5.0)
    finally:
        gate.set()
        scheduler.close(drain=False)
    assert log.count(("flush", "T")) == 1
    assert log.count(("compact", "T")) == 1


def test_register_takes_over_maintenance():
    """A registered tree seals on buffer-full and flushes in the background."""
    scheduler = CompactionScheduler(num_workers=2)
    tree = small_tree()
    try:
        scheduler.register(tree)
        for i in range(2000):
            tree.put(encode_uint_key(i % 500), b"x" * 30)
        assert scheduler.drain(timeout=10.0)
    finally:
        scheduler.close(drain=False)
    assert tree.stats.flush_jobs > 0
    assert tree.immutable_memtables == 0  # every seal was built and installed
    tree.verify_integrity()
    assert tree.get(encode_uint_key(499)).found
    # Background jobs feed the same history satellite tooling reads.
    assert any(e.kind == "flush" for e in tree.stats.history)


def test_background_compaction_keeps_shape_and_charges_limiter():
    limiter = RateLimiter(64 << 20)  # generous: accounting, not throttling
    scheduler = CompactionScheduler(num_workers=2, rate_limiter=limiter)
    tree = small_tree()
    try:
        scheduler.register(tree)
        for i in range(4000):
            tree.put(encode_uint_key((i * 733) % 800), b"x" * 30)
        assert scheduler.drain(timeout=15.0)
    finally:
        scheduler.close(drain=False)
    assert tree.stats.compaction_jobs > 0
    assert limiter.bytes_admitted > 0
    tree.verify_integrity()
    for probe in (0, 399, 799):
        assert tree.get(encode_uint_key(probe)).found


def test_one_scheduler_serves_many_trees():
    scheduler = CompactionScheduler(num_workers=2)
    trees = [small_tree(seed=i) for i in range(3)]
    try:
        for tree in trees:
            scheduler.register(tree)
        for i in range(1500):
            for tree in trees:
                tree.put(encode_uint_key(i % 400), b"y" * 25)
        assert scheduler.drain(timeout=15.0)
    finally:
        scheduler.close(drain=False)
    for tree in trees:
        assert tree.stats.flush_jobs > 0
        tree.verify_integrity()
        assert tree.get(encode_uint_key(1)).found


def test_failed_flush_releases_its_seal():
    """A flush that dies mid-build must not strand its sealed memtable: the
    next job retries it, and newer seals (which install in seal order) never
    wait on a claim nobody holds."""
    scheduler = CompactionScheduler(num_workers=2)
    tree = small_tree()
    build, failed = tree.build_flush, threading.Event()

    def build_failing_once(sealed):
        if not failed.is_set():
            failed.set()
            raise OSError("injected: device error during flush build")
        return build(sealed)

    tree.build_flush = build_failing_once
    try:
        scheduler.register(tree)
        for i in range(2000):
            tree.put(encode_uint_key(i % 500), b"x" * 30)
        # The "next job": when every put lands before the first job has even
        # started, no later seal is left to request one after it fails.
        assert failed.wait(timeout=10.0)
        scheduler.request_flush(tree)
        assert scheduler.drain(timeout=10.0)
    finally:
        scheduler.close(drain=False)
    assert failed.is_set() and scheduler.job_failures == 1
    assert tree.immutable_memtables == 0  # the failed seal was flushed by a retry
    tree.verify_integrity()
    assert all(tree.get(encode_uint_key(k)).found for k in range(500))


def test_close_is_idempotent_and_stops_workers():
    scheduler = CompactionScheduler(num_workers=1)
    scheduler.close()
    scheduler.close()
    assert scheduler.pending_jobs == 0


class HookedDevice(BlockDevice):
    """Runs ``hook()`` before every single-block read (a mid-merge probe point)."""

    hook = None

    def read_block(self, file_id, block_no):
        if self.hook is not None:
            self.hook()
        return super().read_block(file_id, block_no)


def partial_config(**overrides):
    return LSMConfig(
        buffer_bytes=2 << 10, block_size=512, size_ratio=3, seed=5,
        partial_compaction=True, file_bytes=1024, **overrides,
    )


def test_partial_merge_runs_off_the_mutex_and_is_rate_limited():
    """A partial plan is a first-class plan: real ``bytes_in`` charged to the
    limiter, and its merge runs in the execute phase without the tree mutex
    (it used to run inside install, stalling every writer)."""
    device = HookedDevice(block_size=512)
    tree = LSMTree(partial_config(), device=device)
    limiter = RateLimiter(64 << 20)
    plans, mutex_was_free = [], []
    merging = threading.local()

    plan_compaction, execute_compaction = tree.plan_compaction, tree.execute_compaction

    def recording_plan():
        plan = plan_compaction()
        if plan is not None:
            plans.append((plan.kind, plan.trivial, plan.bytes_in))
        return plan

    def flagged_execute(plan):
        merging.partial = plan.kind == "partial"
        try:
            return execute_compaction(plan)
        finally:
            merging.partial = False

    def probe_mutex():
        if not getattr(merging, "partial", False) or len(mutex_was_free) >= 5:
            return
        outcome = []

        def other_thread():
            acquired = tree.mutex.acquire(timeout=2.0)
            outcome.append(acquired)
            if acquired:
                tree.mutex.release()

        thread = threading.Thread(target=other_thread)
        thread.start()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        mutex_was_free.extend(outcome)

    tree.plan_compaction, tree.execute_compaction = recording_plan, flagged_execute
    device.hook = probe_mutex
    with DBService(tree, ServiceConfig(num_workers=2)) as service:
        service.scheduler.rate_limiter = limiter
        for i in range(3000):
            service.put(encode_uint_key((i * 733) % 900), b"x" * 30)
        service.flush(wait=True)
    device.hook = None
    partial_merges = [bytes_in for kind, trivial, bytes_in in plans
                      if kind == "partial" and not trivial]
    assert partial_merges and all(bytes_in > 0 for bytes_in in partial_merges)
    assert limiter.bytes_admitted >= sum(bytes_in for _, _, bytes_in in plans)
    assert mutex_was_free and all(mutex_was_free)
    assert tree.verify_integrity()["errors"] == []


def test_abandoning_a_partial_plan_releases_every_pin():
    tree = LSMTree(partial_config(lazy_compaction=True, compaction_steps_per_op=0))
    for i in range(1500):
        tree.put(encode_uint_key((i * 733) % 900), b"x" * 30)
    while True:  # step until the next plan is a file-granularity one
        plan = tree.plan_compaction()
        assert plan is not None, "workload never reached partial granularity"
        if plan.kind == "partial":
            break
        tree.install_compaction(plan, tree.execute_compaction(plan))
    tables = plan.tables
    pinned = [table.refs for table in tables]
    assert plan.bytes_in == sum(table.size_bytes for table in tables) > 0
    tree.abandon_compaction(plan)
    assert [table.refs for table in tables] == [refs - 1 for refs in pinned]
    assert all(table.refs == 1 for table in tables)  # level membership only
