"""Group commit: coalescing concurrent writes into one WAL append.

The leader/follower protocol every production engine uses (RocksDB's write
group, LevelDB's writer queue): the first writer to find the queue empty
becomes the *leader*, applies the whole batch — one WAL frame, one memtable
pass — and wakes everyone. Each caller blocks until its own write is
durable, so acknowledgement semantics are unchanged; only the I/O is
amortized.

Before draining, a leader *lingers* for followers to pile on — but only on
evidence that one can come. ``submit`` blocks its caller, so a thread has at
most one write outstanding: "another writer is active" means "a different
thread submitted". The batcher remembers which thread submitted last; a
leader whose own thread made the previous submit commits at once, and only a
leader that follows a foreign (or no) submit waits, up to ``max_wait_s``. A
lone writer therefore pays the wait once, and a wasted linger can happen at
most once per foreign write.

One more piece of evidence keeps that rule honest under the interpreter
lock: a count of threads still inside ``submit``. A leader that never waits
never gives the lock up, so the followers it has just woken cannot run,
cannot submit, and so cannot be seen — it would commit alone for a whole
switch interval (measured: 8 writers fell from 7.9 to as low as 3.6 records
per WAL frame). While another thread has not yet returned from ``submit``
its writer is plainly active, and the leader waits for it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional

from repro.errors import ClosedError


class WriteOp(NamedTuple):
    """One queued write.

    ``kind`` is 'put', 'put_ttl', 'delete', 'merge', 'write' (an atomic
    multi-op batch), or 'txn' (an optimistic-transaction commit). ``meta``
    carries the kind-specific extra: the TTL in simulated seconds
    (put_ttl), the operator name (merge), the op list (write), or the
    ``(read_set, ops)`` pair (txn). Value is unused for deletes and
    composite kinds.
    """

    kind: str
    key: bytes
    value: Optional[bytes]
    meta: Optional[object] = None


class _Request:
    __slots__ = ("op", "done", "error")

    def __init__(self, op: WriteOp) -> None:
        self.op = op
        self.done = threading.Event()
        self.error: Optional[BaseException] = None


@dataclass
class BatcherStats:
    """Group-commit accounting (read after a workload for batch shapes)."""

    batches: int = 0
    records: int = 0
    max_batch: int = 0
    lingers: int = 0  # leaders that waited for followers
    lingers_empty: int = 0  # ... and drained only their own write

    @property
    def avg_batch(self) -> float:
        return self.records / self.batches if self.batches else 0.0


class WriteBatcher:
    """A group-commit queue in front of a single apply function.

    Args:
        apply_fn: called on the leader's thread with the drained batch
            (a list of :class:`WriteOp`); must be thread-safe — two leaders
            can exist back-to-back (a follower that arrives after a drain
            becomes the next leader while the previous batch still commits).
            May return a list of per-op exceptions (None = that op
            succeeded), parallel to the batch: an op-level failure — e.g. a
            transaction losing validation — is delivered to *its* submitter
            only, while the rest of the group commits normally. Returning
            None means the whole batch succeeded; raising fails the whole
            batch.
        max_batch: drain at most this many requests per commit.
        max_wait_s: upper bound on a leader's linger for followers; spent
            only when the previous submit came from another thread (or
            there was none yet) or another thread is still inside
            :meth:`submit`.
    """

    def __init__(
        self,
        apply_fn: Callable[[List[WriteOp]], None],
        max_batch: int = 64,
        max_wait_s: float = 0.002,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        self._apply = apply_fn
        self._max_batch = max_batch
        self._max_wait = max_wait_s
        self._queue: List[_Request] = []
        self._cond = threading.Condition()
        self._closed = False
        self._last_submitter: Optional[int] = None  # thread ident
        self._in_flight = 0  # threads inside submit()
        self.stats = BatcherStats()

    @property
    def queue_depth(self) -> int:
        """Writes currently parked in the commit queue (a gauge, racy read)."""
        return len(self._queue)

    def submit(self, op: WriteOp) -> None:
        """Enqueue one write and block until it is committed.

        The calling thread either becomes the batch leader (applies the
        whole group) or a follower (sleeps until its leader signals).
        Exceptions raised by ``apply_fn`` propagate to every member of the
        failed batch.
        """
        request = _Request(op)
        me = threading.get_ident()
        with self._cond:
            if self._closed:
                raise ClosedError("submit on a closed WriteBatcher")
            self._queue.append(request)
            leader = len(self._queue) == 1
            if not leader and len(self._queue) >= self._max_batch:
                self._cond.notify_all()  # wake the leader early: batch is full
            # This thread's previous write has returned, so if it also made
            # the last submit and nobody else is mid-submit (a woken follower
            # that has not run yet counts), nobody else is writing: commit
            # without waiting for them.
            linger = self._last_submitter != me or self._in_flight > 0
            self._last_submitter = me
            self._in_flight += 1
        try:
            if leader:
                self._lead(linger)
            else:
                request.done.wait()
        finally:
            with self._cond:
                self._in_flight -= 1
        if request.error is not None:
            raise request.error

    def _lead(self, linger: bool) -> None:
        """Optionally linger for followers, drain the queue, commit the batch."""
        stats = self.stats
        with self._cond:
            if linger:
                deadline = time.monotonic() + self._max_wait
                while len(self._queue) < self._max_batch and not self._closed:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._cond.wait(remaining)
                stats.lingers += 1
                if len(self._queue) == 1:
                    stats.lingers_empty += 1
            batch, self._queue = self._queue, []
        try:
            errors = self._apply([request.op for request in batch])
            with self._cond:  # the next leader may be committing concurrently
                stats.batches += 1
                stats.records += len(batch)
                stats.max_batch = max(stats.max_batch, len(batch))
        except BaseException as exc:  # propagate to every follower, then re-raise
            for request in batch:
                request.error = exc
                request.done.set()
            raise
        if errors is not None:
            for request, error in zip(batch, errors):
                request.error = error
        for request in batch:
            request.done.set()

    def close(self) -> None:
        """Reject new submissions; in-flight batches complete normally."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
