"""Structured event journal: a bounded, thread-safe log of typed engine events.

This replaces the ad-hoc ``recent_events(n)`` strings as the primary record of
*what the engine did and when*: flushes, compaction start/finish with bytes
and levels, write-stall enter/exit, backpressure state transitions, file
quarantines, tenant throttling. Each event is a :class:`JournalEvent` — a
monotonic sequence number, a timestamp, a ``kind`` from :data:`EVENT_KINDS`,
and a flat field dict — and the whole journal exports as JSONL so offline
tooling (and an online tuning daemon) can replay the history.

The journal is bounded (ring semantics, oldest evicted) and every ``emit`` is
lock-protected, so flush threads, compaction workers, and server connection
handlers can all write to one journal without coordination.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional

#: The typed vocabulary. ``emit`` rejects unknown kinds so producers cannot
#: silently fork the schema; extend this set when adding a producer.
EVENT_KINDS = frozenset({
    "flush",                 # memtable sealed + sorted run installed in L0
    "compaction_start",      # merge picked and about to execute
    "compaction_finish",     # outputs installed (kind: full/partial/trivial_move)
    "ingest",                # bulk ingest installed below the last level
    "stall_enter",           # backpressure began delaying/blocking writes
    "stall_exit",            # writes resumed
    "backpressure",          # controller state transition (ok/slowdown/stop)
    "quarantine",            # a file failed reads persistently and was fenced
    "tenant_throttle",       # fair-share admission delayed a tenant's op
    "recovery",              # crash recovery replayed the WAL
    "client_retry",          # server saw a retried idempotency token
    "request_shed",          # overload guard refused a request (overloaded)
    "dedup_hit",             # dedup table replayed a cached reply
    "note",                  # free-form (tests, tooling)
})


class JournalEvent:
    """One journal entry; immutable once emitted."""

    __slots__ = ("seq", "ts", "kind", "fields")

    def __init__(self, seq: int, ts: float, kind: str, fields: Dict[str, object]) -> None:
        self.seq = seq
        self.ts = ts
        self.kind = kind
        self.fields = fields

    def as_dict(self) -> dict:
        out: Dict[str, object] = {"seq": self.seq, "ts": self.ts, "kind": self.kind}
        out.update(self.fields)
        return out

    def as_json_line(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, default=str)

    def __repr__(self) -> str:  # pragma: no cover - debugging sugar
        return f"JournalEvent(#{self.seq} {self.kind} {self.fields!r})"


class EventJournal:
    """Bounded, thread-safe ring of :class:`JournalEvent`.

    Args:
        capacity: events retained (oldest evicted; ``emitted``/``evicted``
            counters keep the totals honest after wraparound).
        clock: timestamp source — wall clock by default, inject the engine's
            simulated clock for deterministic tests.
    """

    def __init__(self, capacity: int = 4096,
                 clock: Callable[[], float] = time.time) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self.clock = clock
        self._events: Deque[JournalEvent] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seq = 0
        self.evicted = 0

    # -- writing ---------------------------------------------------------------

    def emit(self, kind: str, **fields) -> JournalEvent:
        """Append one typed event; returns it (mostly for tests)."""
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown journal event kind: {kind!r}")
        with self._lock:
            self._seq += 1
            event = JournalEvent(self._seq, self.clock(), kind, dict(fields))
            if len(self._events) == self.capacity:
                self.evicted += 1
            self._events.append(event)
        return event

    # -- reading ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    @property
    def emitted(self) -> int:
        """Total events ever emitted (monotonic, survives eviction)."""
        return self._seq

    def events(self, n: Optional[int] = None, kind: Optional[str] = None,
               since_seq: int = 0) -> List[JournalEvent]:
        """Retained events oldest-first, optionally filtered by ``kind`` and/or
        ``seq > since_seq``, truncated to the most recent ``n``."""
        with self._lock:
            items = list(self._events)
        if kind is not None:
            items = [e for e in items if e.kind == kind]
        if since_seq:
            items = [e for e in items if e.seq > since_seq]
        if n is not None:
            items = items[-n:] if n > 0 else []
        return items

    def counts_by_kind(self) -> Dict[str, int]:
        """How many *retained* events of each kind (cheap health summary)."""
        out: Dict[str, int] = {}
        for event in self.events():
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    def to_jsonl(self, n: Optional[int] = None, kind: Optional[str] = None) -> str:
        """The retained events as JSON Lines (one event per line)."""
        return "\n".join(e.as_json_line() for e in self.events(n=n, kind=kind))

    def write_jsonl(self, path: str, n: Optional[int] = None) -> int:
        """Dump retained events to ``path`` as JSONL; returns events written."""
        events = self.events(n=n)
        with open(path, "w", encoding="utf-8") as fh:
            for event in events:
                fh.write(event.as_json_line())
                fh.write("\n")
        return len(events)

    def snapshot(self) -> dict:
        """JSON-able summary + the full retained window."""
        return {
            "capacity": self.capacity,
            "emitted": self.emitted,
            "evicted": self.evicted,
            "counts": self.counts_by_kind(),
            "events": [e.as_dict() for e in self.events()],
        }
