"""Request tracing: spans with exact stage partitions, joined across processes.

A :class:`Span` records how one operation's time divides across named stages
(wire decode, admission wait, memtable probe, per-level storage probes, reply
encode, ...) plus structured events. The :class:`TraceRecorder` keeps the most
recent spans in a bounded ring buffer and owns the sampling decision, so the
instrumented hot path costs a single attribute check and one comparison when
sampling is off — no span is ever allocated for an unsampled operation.

Cross-process propagation works through :class:`TraceContext` — an immutable
(trace_id, span_id, sampled) triple. The outermost span (the client call, or
the server request when the client did not trace) makes the sampling decision
exactly once; everything downstream *inherits* it, either explicitly
(``recorder.start(name, parent=ctx)``) or through the recorder's thread-local
active context (``recorder.activate(ctx)`` around the engine call, then
``recorder.maybe_start(name)`` at each instrumented site). That is what makes
a multi-stage request either fully traced or not traced at all, never
half-traced, and what lets a client span, the server span it spawned, and the
engine spans below them share one ``trace_id`` with resolvable parent links.

The :class:`SlowOpLog` is the always-on sibling: the server measures its stage
breakdown cheaply for every request and records the full breakdown here for
any request over a threshold, regardless of the sampling decision.
"""

from __future__ import annotations

import os
import random
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Mapping, Optional, Tuple


def new_trace_id() -> str:
    """A fresh 64-bit hex trace id (urandom, collision-safe across processes)."""
    return os.urandom(8).hex()


def new_span_id() -> str:
    """A fresh 32-bit hex span id (unique within a trace)."""
    return os.urandom(4).hex()


@dataclass(frozen=True)
class TraceContext:
    """The wire-propagated triple: which trace, which parent, and whether to record.

    ``sampled=False`` contexts still propagate — they carry the outermost
    span's *negative* decision downstream so no inner site re-rolls the dice.
    """

    trace_id: str
    span_id: str = ""
    sampled: bool = True

    def as_dict(self) -> dict:
        return {"trace_id": self.trace_id, "span_id": self.span_id, "sampled": self.sampled}


class Span:
    """One traced operation: named stages, events, attributes, and identity.

    ``total`` is defined as the sum of the recorded stage durations; when
    :meth:`finish` observes wall time beyond the explicit stages it appends
    a final ``"other"`` stage for the remainder, so the stage breakdown
    always partitions the span's total exactly.
    """

    __slots__ = ("name", "started_at", "stages", "events", "attrs", "total", "_wall0",
                 "trace_id", "span_id", "parent_id")

    def __init__(self, name: str, clock: float, trace_id: str = "",
                 span_id: str = "", parent_id: str = "") -> None:
        self.name = name
        self.started_at = clock
        self._wall0 = clock
        self.stages: List[Tuple[str, float]] = []
        self.events: List[Dict[str, object]] = []
        self.attrs: Dict[str, object] = {}
        self.total = 0.0
        self.trace_id = trace_id or new_trace_id()
        self.span_id = span_id or new_span_id()
        self.parent_id = parent_id  # "" marks a root span

    def context(self) -> TraceContext:
        """The context a child (possibly in another process) should inherit."""
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id, sampled=True)

    def add_stage(self, name: str, duration: float) -> None:
        """Record one stage's duration (seconds)."""
        self.stages.append((name, duration))

    def event(self, kind: str, **fields) -> None:
        """Record a structured event (e.g. one storage level's probe)."""
        record: Dict[str, object] = {"kind": kind}
        record.update(fields)
        self.events.append(record)

    def finish(self, clock: float, **attrs) -> None:
        """Close the span: absorb unattributed time, fix ``total``, tag attrs."""
        self.attrs.update(attrs)
        elapsed = clock - self._wall0
        explicit = sum(duration for _, duration in self.stages)
        if elapsed > explicit:
            self.stages.append(("other", elapsed - explicit))
        # Definitionally: total is the stage sum, so the breakdown always
        # adds up to exactly what the span reports.
        self.total = sum(duration for _, duration in self.stages)

    def stage_dict(self) -> Dict[str, float]:
        """Stage durations keyed by name (repeated names accumulate)."""
        out: Dict[str, float] = {}
        for name, duration in self.stages:
            out[name] = out.get(name, 0.0) + duration
        return out

    def as_dict(self) -> dict:
        """A JSON-able rendering (the trace schema the docs describe)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "total": self.total,
            "stages": [[name, duration] for name, duration in self.stages],
            "events": list(self.events),
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging sugar
        return f"Span({self.name!r}, total={self.total:.6f}, stages={len(self.stages)})"


class TraceRecorder:
    """A bounded ring buffer of sampled spans plus the per-request decision.

    Args:
        capacity: how many finished spans to retain (oldest evicted first).
        sampling: fraction of operations to trace in [0, 1]. 0 disables
            tracing entirely — :meth:`should_sample` returns False before
            any allocation happens; 1 traces everything.
        seed: seeds the sampling RNG so traced runs are reproducible.
            (Span/trace *ids* come from urandom, never from this seed, so two
            seeded recorders on either end of a socket cannot collide.)
    """

    def __init__(self, capacity: int = 256, sampling: float = 0.0, seed: int = 0) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        if not 0.0 <= sampling <= 1.0:
            raise ValueError("sampling must be within [0, 1]")
        self.capacity = capacity
        self.sampling = sampling
        self._rng = random.Random(seed)
        self._spans: Deque[Span] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._local = threading.local()
        self.sampled = 0  # spans recorded since construction
        self.dropped = 0  # spans evicted by the ring bound
        self.clock = time.perf_counter

    # -- the hot-path contract ------------------------------------------------

    def should_sample(self) -> bool:
        """The root sampling decision; made once at the outermost span only."""
        sampling = self.sampling
        if sampling <= 0.0:
            return False
        if sampling >= 1.0:
            return True
        return self._rng.random() < sampling

    def start(self, name: str, parent: Optional[TraceContext] = None) -> Span:
        """Allocate a span; callers must have consulted :meth:`should_sample`
        (or be inheriting a sampled :class:`TraceContext` via ``parent``)."""
        if parent is not None:
            return Span(name, self.clock(), trace_id=parent.trace_id,
                        parent_id=parent.span_id)
        return Span(name, self.clock())

    def maybe_start(self, name: str) -> Optional[Span]:
        """Start a span honouring the active context, or make the root decision.

        Inside an activated context this *inherits* the outer decision (span
        when sampled, ``None`` when not — no dice re-rolled). With no active
        context this site *is* the outermost span and decides for the whole
        request.
        """
        ctx = self.active()
        if ctx is not None:
            if not ctx.sampled:
                return None
            return self.start(name, parent=ctx)
        if not self.should_sample():
            return None
        return self.start(name)

    def finish(self, span: Span, **attrs) -> None:
        """Close ``span`` and append it to the ring buffer (thread-safe)."""
        span.finish(self.clock(), **attrs)
        with self._lock:
            if len(self._spans) == self.capacity:
                self.dropped += 1
            self._spans.append(span)
            self.sampled += 1

    # -- thread-local context propagation --------------------------------------

    def activate(self, ctx: Optional[TraceContext]) -> Optional[TraceContext]:
        """Install ``ctx`` as this thread's active context; returns the previous
        one, which the caller must hand back to :meth:`deactivate`."""
        previous = getattr(self._local, "ctx", None)
        self._local.ctx = ctx
        return previous

    def deactivate(self, previous: Optional[TraceContext] = None) -> None:
        """Restore the previously active context (``None`` clears it)."""
        self._local.ctx = previous

    def active(self) -> Optional[TraceContext]:
        """This thread's active context, or None outside any request scope."""
        return getattr(self._local, "ctx", None)

    # -- reading ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._spans)

    def spans(self, n: Optional[int] = None) -> List[Span]:
        """The most recent ``n`` spans (all retained spans when None), oldest first."""
        with self._lock:
            items = list(self._spans)
        if n is not None:
            items = items[-n:] if n > 0 else []
        return items

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def snapshot(self) -> dict:
        """JSON-able: sampling settings plus every retained span."""
        with self._lock:
            spans = [span.as_dict() for span in self._spans]
        return {
            "sampling": self.sampling,
            "capacity": self.capacity,
            "sampled": self.sampled,
            "dropped": self.dropped,
            "spans": spans,
        }


class SlowOpLog:
    """Bounded log of requests whose total exceeded a threshold.

    Unlike the sampled :class:`TraceRecorder`, this catches *every* slow
    request: the server measures its stage breakdown cheaply for all requests
    and only pays the record cost here when ``total_s >= threshold_s``. Each
    record carries the full stage dict and, when the request happened to be
    sampled, the ``trace_id`` that joins it to the span tree.
    """

    def __init__(self, threshold_s: float = 0.25, capacity: int = 128,
                 clock=time.time) -> None:
        if threshold_s < 0.0:
            raise ValueError("threshold_s must be >= 0")
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.threshold_s = threshold_s
        self.capacity = capacity
        self.clock = clock
        self._records: Deque[dict] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.observed = 0  # requests offered
        self.recorded = 0  # requests over threshold

    def observe(self, op: str, total_s: float,
                stages: Optional[Mapping[str, float]] = None, **attrs) -> bool:
        """Offer one finished request; record it iff it was slow. Returns
        whether it was recorded."""
        self.observed += 1
        if total_s < self.threshold_s:
            return False
        record = {
            "ts": self.clock(),
            "op": op,
            "total_s": total_s,
            "stages": dict(stages or {}),
        }
        record.update(attrs)
        with self._lock:
            self._records.append(record)
            self.recorded += 1
        return True

    def __len__(self) -> int:
        return len(self._records)

    def records(self, n: Optional[int] = None) -> List[dict]:
        """The most recent ``n`` slow records (all when None), oldest first."""
        with self._lock:
            items = list(self._records)
        if n is not None:
            items = items[-n:] if n > 0 else []
        return items

    def snapshot(self) -> dict:
        return {
            "threshold_s": self.threshold_s,
            "capacity": self.capacity,
            "observed": self.observed,
            "recorded": self.recorded,
            "records": self.records(),
        }
