"""Background maintenance: a worker pool over a prioritized job queue.

Production LSM engines never reorganize on the caller's thread: flushes and
compactions are jobs a background pool executes, prioritized so durability
debt drains first (flushes), then write-amplification debt at the top of the
tree (level-1 run pileups block every lookup), then deep saturation. A
token bucket on compaction input bytes keeps background merges from
saturating the device under foreground reads.
"""

from __future__ import annotations

import concurrent.futures
import heapq
import itertools
import threading
import time
from typing import Callable, List, Optional

from repro.core.lsm_tree import LSMTree

_PRIORITY_FLUSH = 0
_PRIORITY_COMPACT = 1


class RateLimiter:
    """A token bucket metering background compaction I/O bytes.

    Deficit-style (RocksDB's GenericRateLimiter spirit): a request is
    admitted whenever the bucket is positive and may drive it negative, so
    arbitrarily large merges pass eventually while the *average* rate holds.

    Args:
        bytes_per_second: steady-state refill rate.
        burst_bytes: bucket capacity (defaults to one second of refill).
        clock, sleep: injectable for deterministic tests.
    """

    def __init__(
        self,
        bytes_per_second: float,
        burst_bytes: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if bytes_per_second <= 0:
            raise ValueError("bytes_per_second must be positive")
        self._rate = float(bytes_per_second)
        self._burst = float(burst_bytes if burst_bytes is not None else bytes_per_second)
        if self._burst <= 0:
            raise ValueError("burst_bytes must be positive")
        self._clock = clock
        self._sleep = sleep
        self._tokens = self._burst  # start full: the first merge is never delayed
        self._stamp = clock()
        self._lock = threading.Lock()
        self.waits = 0
        self.total_wait_s = 0.0
        self.bytes_admitted = 0

    def _refill(self, now: float) -> None:
        self._tokens = min(self._burst, self._tokens + (now - self._stamp) * self._rate)
        self._stamp = now

    @property
    def tokens(self) -> float:
        """Current bucket level (may be negative after a large admit)."""
        with self._lock:
            self._refill(self._clock())
            return self._tokens

    def request(self, nbytes: int) -> float:
        """Block until the bucket is positive, then charge ``nbytes``.

        Returns:
            Seconds spent waiting (0.0 when admitted immediately).
        """
        waited = 0.0
        while True:
            with self._lock:
                now = self._clock()
                self._refill(now)
                if self._tokens > 0:
                    self._tokens -= nbytes
                    self.bytes_admitted += nbytes
                    if waited > 0:
                        self.waits += 1
                        self.total_wait_s += waited
                    return waited
                # Sleep exactly long enough for the bucket to turn positive.
                pause = (-self._tokens) / self._rate + 1e-6
            self._sleep(pause)
            waited += pause


class CompactionScheduler:
    """A shared worker pool draining flush and compaction jobs.

    One scheduler may serve many trees (the sharded deployment): each
    registered tree's maintenance callback enqueues jobs here instead of
    flushing inline. Per tree, at most one flush job and one compaction job
    run at a time (flush installs must follow seal order; compaction plans
    must not race for the same input runs) — parallelism comes from the
    number of trees and from flush/compaction overlap.

    Args:
        num_workers: worker thread count.
        rate_limiter: optional shared token bucket charged with each
            compaction's input bytes before the merge runs.
        subcompaction_workers: when set, one shared worker pool of this
            size serves every registered tree's key-range subcompactions
            (instead of each tree lazily creating its own); the scheduler
            owns and shuts down the pool. Only meaningful for trees with
            ``config.parallel`` set.
    """

    def __init__(
        self,
        num_workers: int = 2,
        rate_limiter: Optional[RateLimiter] = None,
        subcompaction_workers: Optional[int] = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        if subcompaction_workers is not None and subcompaction_workers < 1:
            raise ValueError("subcompaction_workers must be at least 1")
        self.rate_limiter = rate_limiter
        self.subcompaction_pool = (
            concurrent.futures.ThreadPoolExecutor(
                max_workers=subcompaction_workers, thread_name_prefix="subcompact"
            )
            if subcompaction_workers is not None
            else None
        )
        self._cv = threading.Condition()
        self._queue: List[tuple] = []  # heap of (priority, seq, kind, tree)
        self._seq = itertools.count()
        self._queued = set()  # (kind, id(tree)) pairs present in the heap
        self._inflight = set()  # (kind, id(tree)) pairs being executed
        self._listeners: List[Callable[[], None]] = []
        self._running = True
        self.job_failures = 0  # jobs that raised; workers survive them
        self.last_job_error: Optional[BaseException] = None
        self._workers = [
            threading.Thread(target=self._worker, name=f"lsm-maint-{i}", daemon=True)
            for i in range(num_workers)
        ]
        for worker in self._workers:
            worker.start()

    # -- registration -------------------------------------------------------

    def register(self, tree: LSMTree) -> None:
        """Take over a tree's maintenance: seals trigger background flushes."""
        tree.set_maintenance_callback(lambda: self.request_flush(tree))
        if self.subcompaction_pool is not None:
            tree.set_subcompaction_executor(self.subcompaction_pool)

    def add_listener(self, callback: Callable[[], None]) -> None:
        """Invoke ``callback`` after every completed job (backpressure hook)."""
        self._listeners.append(callback)

    # -- job submission -----------------------------------------------------

    def request_flush(self, tree: LSMTree) -> None:
        self._enqueue(_PRIORITY_FLUSH, "flush", tree)

    def request_compaction(self, tree: LSMTree) -> None:
        self._enqueue(_PRIORITY_COMPACT, "compact", tree)

    def _enqueue(self, priority: int, kind: str, tree: LSMTree) -> None:
        with self._cv:
            if not self._running:
                return
            token = (kind, id(tree))
            if token in self._queued:
                return  # already pending; the job re-checks state when it runs
            self._queued.add(token)
            heapq.heappush(self._queue, (priority, next(self._seq), kind, tree))
            self._cv.notify()

    # -- worker loop --------------------------------------------------------

    def _worker(self) -> None:
        while True:
            with self._cv:
                job = None
                while job is None:
                    if not self._running:
                        return
                    job = self._pop_runnable()
                    if job is None:
                        self._cv.wait()
                _, _, kind, tree = job
                token = (kind, id(tree))
                self._queued.discard(token)
                self._inflight.add(token)
            try:
                if kind == "flush":
                    self._run_flush(tree)
                else:
                    self._run_compaction(tree)
            except Exception as exc:
                # A failing job (injected crash, corrupt input, planner bug)
                # must not kill the worker: the pool would silently shrink
                # and maintenance would stall forever. Record and move on.
                self.job_failures += 1
                self.last_job_error = exc
            finally:
                with self._cv:
                    self._inflight.discard(token)
                    self._cv.notify_all()
                for listener in self._listeners:
                    listener()

    def _pop_runnable(self) -> Optional[tuple]:
        """Pop the best job whose (kind, tree) is not already in flight."""
        deferred = []
        job = None
        while self._queue:
            candidate = heapq.heappop(self._queue)
            token = (candidate[2], id(candidate[3]))
            if token in self._inflight:
                deferred.append(candidate)
                continue
            job = candidate
            break
        for item in deferred:
            heapq.heappush(self._queue, item)
        return job

    def _run_flush(self, tree: LSMTree) -> None:
        sealed = tree.claim_flush()
        while sealed is not None:
            try:
                run = tree.build_flush(sealed)
                tree.install_flush(sealed, run)
            except BaseException:
                # Hand the seal back (as abandon_compaction does a plan):
                # left claimed it is never flushed, and installs are in seal
                # order, so every newer seal's worker would wait on it forever.
                sealed.claimed = False
                raise
            tree.stats.flush_jobs += 1
            sealed = tree.claim_flush()
        if tree.compaction_needed():
            self.request_compaction(tree)

    def _run_compaction(self, tree: LSMTree) -> None:
        plan = tree.plan_compaction()
        if plan is None:
            return
        try:
            if self.rate_limiter is not None:
                self.rate_limiter.request(max(1, plan.bytes_in))
            merged = tree.execute_compaction(plan)
        except BaseException:
            tree.abandon_compaction(plan)
            raise
        tree.install_compaction(plan, merged)
        tree.stats.compaction_jobs += 1
        if tree.compaction_needed():
            self.request_compaction(tree)

    # -- lifecycle ----------------------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until the queue is empty and every worker is idle.

        Returns:
            True when fully drained, False on timeout.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cv:
            while self._queue or self._inflight:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._cv.wait(remaining)
            return True

    def close(self, drain: bool = True) -> None:
        """Stop the workers; optionally drain pending jobs first."""
        if drain:
            self.drain()
        with self._cv:
            self._running = False
            self._cv.notify_all()
        for worker in self._workers:
            worker.join(timeout=5.0)
        if self.subcompaction_pool is not None:
            self.subcompaction_pool.shutdown(wait=True)

    @property
    def pending_jobs(self) -> int:
        with self._cv:
            return len(self._queue) + len(self._inflight)
