"""WriteBatcher: leader/follower group commit semantics."""

import threading
import time

import pytest

from repro.errors import ClosedError
from repro.service import WriteBatcher, WriteOp


def collect_batches():
    batches = []
    lock = threading.Lock()

    def apply(ops):
        with lock:
            batches.append(list(ops))

    return batches, apply


def test_first_write_on_fresh_batcher_lingers():
    """With no history a follower may yet come: the leader waits out the timeout."""
    batches, apply = collect_batches()
    batcher = WriteBatcher(apply, max_batch=100, max_wait_s=0.01)
    began = time.monotonic()
    batcher.submit(WriteOp("put", b"k", b"v"))
    elapsed = time.monotonic() - began
    assert batches == [[WriteOp("put", b"k", b"v")]]
    assert elapsed >= 0.01  # the leader lingered for followers that never came
    assert batcher.stats.batches == 1
    assert batcher.stats.records == 1
    assert batcher.stats.lingers == batcher.stats.lingers_empty == 1


def test_lone_writer_lingers_only_once():
    """The thread that wrote last has nobody to wait for: it commits at once."""
    batches, apply = collect_batches()
    batcher = WriteBatcher(apply, max_batch=100, max_wait_s=1.0)
    batcher.submit(WriteOp("put", b"k", b"v"))  # no history yet: pays the wait
    began = time.monotonic()
    for i in range(49):
        batcher.submit(WriteOp("put", b"k%d" % i, b"v"))
    # One more linger would cost a whole second; 49 commits cost microseconds.
    assert time.monotonic() - began < 0.5
    assert len(batches) == 50
    assert batcher.stats.lingers == batcher.stats.lingers_empty == 1


def test_linger_follows_a_foreign_write_once():
    """A, B, A, A: a write after another thread's lingers, the next does not."""
    _, apply = collect_batches()
    batcher = WriteBatcher(apply, max_batch=100, max_wait_s=0.3)
    stats = batcher.stats

    def submit():
        began = time.monotonic()
        batcher.submit(WriteOp("put", b"k", b"v"))
        return time.monotonic() - began

    assert submit() >= 0.3  # A: fresh batcher
    other = threading.Thread(target=submit)  # B: the last write was A's
    other.start()
    other.join(timeout=10)
    assert not other.is_alive()
    assert stats.lingers == 2
    assert submit() >= 0.3  # A again: the last write was B's
    assert stats.lingers == 3
    assert submit() < 0.15  # A again: nobody else has written since
    assert stats.lingers == stats.lingers_empty == 3
    assert stats.batches == 4


def test_writer_still_inside_submit_counts_as_active():
    """A leader that never waits never yields the interpreter, so writers it
    starves are only visible as threads that have not left submit() yet."""
    entered, release = threading.Event(), threading.Event()

    def apply(ops):
        if ops[0].key == b"slow":
            entered.set()
            release.wait(timeout=10)

    batcher = WriteBatcher(apply, max_batch=100, max_wait_s=0.05)
    stats = batcher.stats
    slow = threading.Thread(
        target=batcher.submit, args=(WriteOp("put", b"slow", b"v"),)
    )
    slow.start()
    assert entered.wait(timeout=10)  # the other writer is now stuck mid-commit
    batcher.submit(WriteOp("put", b"k1", b"v"))  # the last write was the other thread's
    assert stats.lingers == 2
    batcher.submit(WriteOp("put", b"k2", b"v"))  # it was mine, but they are still in flight
    assert stats.lingers == 3
    release.set()
    slow.join(timeout=10)
    assert not slow.is_alive()
    batcher.submit(WriteOp("put", b"k3", b"v"))  # mine again, and now I am alone
    assert stats.lingers == stats.lingers_empty == 3


def test_alternating_writers_still_coalesce():
    """Two threads in a tight loop keep seeing each other, so leaders keep
    waiting and followers keep joining (a full batch ends the wait early)."""
    _, apply = collect_batches()
    batcher = WriteBatcher(apply, max_batch=2, max_wait_s=0.2)
    rounds = 200
    barrier = threading.Barrier(2)

    def writer(tid):
        barrier.wait()
        for i in range(rounds):
            batcher.submit(WriteOp("put", b"k%d-%d" % (tid, i), b"v"))

    threads = [threading.Thread(target=writer, args=(t,)) for t in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    stats = batcher.stats
    assert stats.records == 2 * rounds
    assert stats.max_batch == 2
    assert stats.batches < 2 * rounds
    assert stats.lingers_empty <= stats.lingers <= stats.batches


def test_concurrent_writers_coalesce():
    """Writers arriving within the linger window share one commit."""
    batches, apply = collect_batches()
    batcher = WriteBatcher(apply, max_batch=64, max_wait_s=0.25)
    n = 8
    barrier = threading.Barrier(n)

    def writer(i):
        barrier.wait()
        batcher.submit(WriteOp("put", b"k%d" % i, b"v"))

    threads = [threading.Thread(target=writer, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert batcher.stats.records == n
    assert batcher.stats.batches < n  # amortization happened
    assert sum(len(b) for b in batches) == n
    assert batcher.stats.max_batch >= 2


def test_full_batch_wakes_leader_early():
    """Hitting max_batch commits immediately instead of waiting out the linger."""
    batches, apply = collect_batches()
    batcher = WriteBatcher(apply, max_batch=4, max_wait_s=5.0)
    n = 4
    barrier = threading.Barrier(n)

    def writer(i):
        barrier.wait()
        batcher.submit(WriteOp("put", b"k%d" % i, b"v"))

    threads = [threading.Thread(target=writer, args=(i,)) for i in range(n)]
    began = time.monotonic()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # With a 5s linger, finishing fast proves the full-batch wakeup fired.
    assert time.monotonic() - began < 2.0
    assert batcher.stats.records == n


def test_apply_errors_propagate_to_every_member():
    boom = RuntimeError("disk on fire")

    def apply(ops):
        raise boom

    batcher = WriteBatcher(apply, max_batch=8, max_wait_s=0.05)
    errors = []
    barrier = threading.Barrier(3)

    def writer(i):
        barrier.wait()
        try:
            batcher.submit(WriteOp("put", b"k%d" % i, b"v"))
        except RuntimeError as exc:
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(i,)) for i in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(errors) == 3
    assert all(exc is boom for exc in errors)
    assert batcher.stats.batches == 0  # a failed batch is not counted


def test_submit_after_close_raises():
    batcher = WriteBatcher(lambda ops: None, max_batch=4, max_wait_s=0.001)
    batcher.submit(WriteOp("put", b"k", b"v"))
    batcher.close()
    with pytest.raises(ClosedError):
        batcher.submit(WriteOp("put", b"k2", b"v"))


def test_delete_ops_flow_through():
    batches, apply = collect_batches()
    batcher = WriteBatcher(apply, max_batch=4, max_wait_s=0.001)
    batcher.submit(WriteOp("delete", b"k", None))
    assert batches == [[WriteOp("delete", b"k", None)]]
