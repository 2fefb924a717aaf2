"""Outside-in span tracing: wrap one public entry point per layer, for one run.

Nothing under ``src/`` is edited. ``install()`` replaces public methods and
functions of the ``repro`` packages with timing wrappers and ``uninstall()``
puts the originals back, so the spans exist for the traced phase of one run
and nowhere else.

A span is ``(name, start, end, parent, op id)``. Spans nest through a
per-thread stack: a span's *self time* is its duration minus the time its
child spans cover. Every span feeds running totals keyed by
``(side, op kind, parent name, name)``; the full records of the first
``keep_ops`` operations are also kept in memory and written out at exit.

The wrapper itself costs time. ``calibrate()`` measures, on an empty
function, the part of that cost that lands inside the span's own interval
(``inner``) and the part that lands in the parent's (``outer``); totals are
reported with ``calls * inner + child_calls * outer`` subtracted.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

_now = time.perf_counter_ns

# Root span name -> the operation kind its whole subtree is accounted to.
# Any other root (a background flush worker, the server's frame codec) is "bg".
ROOT_KINDS = {
    "core.get": "get",
    "core.put": "put",
    "core.scan": "scan",
    "server.client_get": "get",
    "server.client_put": "put",
    "service.get": "get",
    "service.put": "put",
}

AggKey = Tuple[str, str, str, str]  # side, kind, parent name, name


class _ThreadState:
    __slots__ = ("side", "names", "child_ns", "child_calls", "ids", "kind", "agg", "spans")

    def __init__(self, side: str) -> None:
        self.side = side
        self.names: List[str] = []
        self.child_ns: List[int] = []
        self.child_calls: List[int] = []
        self.ids: List[int] = []
        self.kind = "bg"
        # key -> [calls, duration ns, self ns (raw), child calls, units]
        self.agg: Dict[AggKey, List[int]] = {}
        self.spans: List[tuple] = []


class Tracer:
    """Per-thread span stacks, running totals, and a bounded span log."""

    def __init__(self, keep_ops: int = 400) -> None:
        self.keep_ops = keep_ops
        self.op_id = 0  # advanced by the driver loop before each traced operation
        self.inner_ns = 0.0
        self.outer_ns = 0.0
        self._tls = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._next_id = 0
        self._patches: List[Tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------------

    def _state(self) -> _ThreadState:
        side = "client" if threading.get_ident() == self._main else "server"
        state = _ThreadState(side)
        with self._lock:
            self._states.append(state)
        self._tls.state = state
        return state

    def wrap(self, fn: Callable, name: str, units: Optional[Callable] = None) -> Callable:
        """Return ``fn`` timed as a span called ``name``.

        ``units``, when given, maps the call's result to a count (bytes of an
        encoded frame) that is summed next to the timings.
        """
        tls = self._tls
        new_state = self._state
        tracer = self

        def traced(*args, **kwargs):
            try:
                st = tls.state
            except AttributeError:
                st = new_state()
            names = st.names
            if names:
                parent = names[-1]
            else:
                parent = ""
                st.kind = ROOT_KINDS.get(name, "bg")
            names.append(name)
            st.child_ns.append(0)
            st.child_calls.append(0)
            keep = 0 < tracer.op_id <= tracer.keep_ops  # 0 = calibrating, nothing to keep
            if keep:
                tracer._next_id += 1
                span_id = tracer._next_id
                st.ids.append(span_id)
            result = None
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = _now()
                dur = t1 - t0
                names.pop()
                kids_ns = st.child_ns.pop()
                kids = st.child_calls.pop()
                key = (st.side, st.kind, parent, name)
                row = st.agg.get(key)
                if row is None:
                    row = st.agg[key] = [0, 0, 0, 0, 0]
                row[0] += 1
                row[1] += dur
                row[2] += dur - kids_ns
                row[3] += kids
                if units is not None and result is not None:
                    row[4] += units(result)
                if names:
                    st.child_ns[-1] += dur
                    st.child_calls[-1] += 1
                if keep:
                    st.ids.pop()
                    st.spans.append(
                        (name, t0, t1, span_id, st.ids[-1] if st.ids else 0, tracer.op_id, st.side)
                    )

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def patch(self, owner: object, attr: str, name: str, units: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (a class method or module function) with a span."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, units))

    def uninstall(self) -> None:
        """Put every patched attribute back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- calibration ----------------------------------------------------------

    def calibrate(self, rounds: int = 20000) -> None:
        """Measure the wrapper's own cost on an empty function."""

        def noop():
            return None

        def parent_plain():
            for _ in range(rounds):
                noop()

        child = self.wrap(noop, "bench.noop")

        def parent_traced():
            for _ in range(rounds):
                child()

        best_inner = best_outer = None
        for _ in range(5):
            self.reset()
            self.wrap(parent_plain, "bench.calib_plain")()
            self.wrap(parent_traced, "bench.calib_traced")()
            totals = self.totals()
            plain = totals[("client", "bg", "", "bench.calib_plain")][2]
            traced_parent = totals[("client", "bg", "", "bench.calib_traced")][2]
            inner = totals[("client", "bg", "bench.calib_traced", "bench.noop")][1] / rounds
            outer = (traced_parent - plain) / rounds
            best_inner = inner if best_inner is None else min(best_inner, inner)
            best_outer = outer if best_outer is None else min(best_outer, outer)
        self.inner_ns = max(0.0, best_inner)
        self.outer_ns = max(0.0, best_outer)
        self.reset()

    def reset(self) -> None:
        """Drop every total and span recorded so far (stacks must be empty)."""
        with self._lock:
            for state in self._states:
                state.agg.clear()
                state.spans.clear()
        self.op_id = 0
        self._next_id = 0

    # -- results --------------------------------------------------------------

    def totals(self) -> Dict[AggKey, List[int]]:
        """Raw totals merged over threads: key -> [calls, dur, self, child calls, units]."""
        merged: Dict[AggKey, List[int]] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, row in list(state.agg.items()):
                into = merged.setdefault(key, [0, 0, 0, 0, 0])
                for i, value in enumerate(row):
                    into[i] += value
        return merged

    def spans(self) -> List[dict]:
        """The retained span records, oldest first."""
        with self._lock:
            states = list(self._states)
        rows = sorted((span for state in states for span in state.spans), key=lambda s: s[1])
        return [
            {
                "name": name, "start_ns": t0, "end_ns": t1, "id": span_id,
                "parent": parent, "op": op_id, "side": side,
            }
            for name, t0, t1, span_id, parent, op_id, side in rows
        ]


class TraceSummary:
    """Corrected per-span totals with the lookups the metric code needs."""

    def __init__(self, tracer: Tracer) -> None:
        self.inner_ns = tracer.inner_ns
        self.outer_ns = tracer.outer_ns
        self.rows = tracer.totals()

    def _select(self, names, kinds=None, side=None, parent=None):
        for (row_side, kind, row_parent, name), row in self.rows.items():
            if name not in names:
                continue
            if kinds is not None and kind not in kinds:
                continue
            if side is not None and row_side != side:
                continue
            if parent is not None and row_parent not in parent:
                continue
            yield row

    def self_ns(self, *names, kinds=None, side=None, parent=None) -> float:
        """Self time with the wrapper's calibrated cost taken out."""
        total = 0.0
        for calls, _dur, self_raw, kids, _units in self._select(names, kinds, side, parent):
            total += max(0.0, self_raw - calls * self.inner_ns - kids * self.outer_ns)
        return total

    def dur_ns(self, *names, kinds=None, side=None, parent=None) -> float:
        """Inclusive time (children and their wrappers included)."""
        return float(sum(row[1] for row in self._select(names, kinds, side, parent)))

    def calls(self, *names) -> int:
        return sum(row[0] for row in self._select(names))

    def units(self, *names) -> int:
        return sum(row[4] for row in self._select(names))

    def table(self) -> List[dict]:
        """Every total as a JSON-able row, largest self time first."""
        out = []
        for (side, kind, parent, name), (calls, dur, self_raw, kids, units) in self.rows.items():
            corrected = max(0.0, self_raw - calls * self.inner_ns - kids * self.outer_ns)
            out.append(
                {
                    "side": side, "kind": kind, "parent": parent, "name": name,
                    "calls": calls, "dur_us": dur / 1e3, "self_raw_us": self_raw / 1e3,
                    "self_us": corrected / 1e3, "child_calls": kids, "units": units,
                }
            )
        out.sort(key=lambda row: -row["self_us"])
        return out


def install(tracer: Tracer) -> None:
    """Wrap one public entry point per layer (the list in README.md)."""
    from repro import BlockDevice, DBService, LSMTree
    from repro.cache import BlockCache
    from repro.filters.bloom import BloomFilter
    from repro.indexes.fence import FencePointers
    from repro.memtable.skiplist import SkipListMemtable
    from repro.server import client as client_mod
    from repro.server import protocol, server as server_mod
    from repro.server.client import LSMClient
    from repro.service.batcher import WriteBatcher
    from repro.storage import sstable
    from repro.storage.sstable import SSTableBuilder
    from repro.storage.wal import WriteAheadLog

    p = tracer.patch
    # core: the tree's operations and its flush / compaction phases.
    p(LSMTree, "get", "core.get")
    p(LSMTree, "put", "core.put")
    p(LSMTree, "write_batch", "core.write_batch")
    p(LSMTree, "build_flush", "compaction.build_flush")
    p(LSMTree, "install_flush", "compaction.install_flush")
    p(LSMTree, "plan_compaction", "compaction.plan")
    p(LSMTree, "execute_compaction", "compaction.execute")
    p(LSMTree, "install_compaction", "compaction.install")
    # memtable, filters, indexes, cache.
    p(SkipListMemtable, "get", "memtable.get")
    p(SkipListMemtable, "put", "memtable.put")
    p(BloomFilter, "may_contain", "filters.may_contain")
    p(BloomFilter, "__init__", "filters.build")
    p(FencePointers, "locate", "indexes.locate")
    p(BlockCache, "get_or_load_block", "cache.get_or_load_block")
    # storage: device, block codec, table builder, WAL.
    p(BlockDevice, "read_block", "storage.device_read")
    p(BlockDevice, "read_blocks", "storage.device_read")
    p(BlockDevice, "append_block", "storage.device_write")
    p(BlockDevice, "append_blocks", "storage.device_write")
    p(BlockDevice, "append_payload", "storage.device_write")
    p(sstable, "parse_block", "storage.parse_block")
    p(SSTableBuilder, "add", "storage.builder_add")
    p(SSTableBuilder, "finish", "storage.builder_finish")
    p(WriteAheadLog, "append", "storage.wal_append")
    p(WriteAheadLog, "append_batch", "storage.wal_append")
    # service and server.
    p(DBService, "get", "service.get")
    p(DBService, "put", "service.put")
    p(WriteBatcher, "submit", "service.batch_submit")
    p(LSMClient, "get", "server.client_get")
    p(LSMClient, "put", "server.client_put")
    p(protocol.FrameDecoder, "feed", "server.decode")
    # encode_frame is imported by name: patch it where each caller looks it up.
    for module in (protocol, server_mod, client_mod):
        if "encode_frame" in module.__dict__:
            p(module, "encode_frame", "server.encode", units=len)
