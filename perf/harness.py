"""Run one workload: set up, measure in segments, check every answer, tear down.

Method (README.md has the reasons): one process, one driver thread, closed
loop. A run is set-up (build the handle, preload through it, flush and drain
until no compaction is pending) -> one unmeasured warm-up segment -> measured
segments of equal, frozen op count -> teardown (``verify_integrity``, space
scan, close). A timing metric is the mean over the fastest quarter of the
segments of the per-segment statistic (``_steady`` says why); a count metric
is read from the engine's public counters.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro import DBService, LSMConfig, LSMTree, ServiceConfig
from repro.server import LSMClient, LSMServer, ServerConfig

from tracing import TraceSummary, Tracer, install
from workloads import (
    BASE_CONFIG,
    GET,
    PUT,
    SEGMENTS,
    Segment,
    Stream,
    Workload,
    segment_ops,
)

SETUP_REPEATS = 3  # timed set-ups per untraced run; setup_s is their median
TRACE_UNTRACED_SEGMENTS = 8  # --trace 1: plain segments (counts, tails, the ops/s base)
TRACE_TRACED_SEGMENTS = 5  # --trace 1: segments run under the span wrappers
STALL_NS = 1_000_000  # a put slower than 1 ms counts as a stall
P99_MIN_SAMPLES = 1000
PRELOAD_BATCH = 512  # puts per wire batch during preload

_now = time.perf_counter_ns


class Handle:
    """The store a workload drives plus the engine objects its counters live on."""

    def __init__(self, workload: Workload) -> None:
        config = LSMConfig(**BASE_CONFIG, **workload.config)
        self.tree = LSMTree(config)
        self.service: Optional[DBService] = None
        self.server: Optional[LSMServer] = None
        self.client: Optional[LSMClient] = None
        if workload.handle == "wire":
            self.service = DBService(self.tree, ServiceConfig(), close_tree=True)
            self.server = LSMServer(self.service, ServerConfig(), close_service=True)
            host, port = self.server.start()
            self.client = LSMClient(host, port)
            self.store = self.client
        else:
            self.store = self.tree

    def preload(self, pairs: List[Tuple[bytes, bytes]]) -> None:
        """Load through the measured handle, then settle all background work."""
        if self.client is not None:
            # The server namespaces keys by tenant, so the load has to go
            # through the client; batches keep it from paying one group-commit
            # linger per key.
            # Draining after each batch makes every background flush and merge
            # finish before the next write arrives, so the tree the load leaves
            # behind - and with it the amplification counts - does not depend
            # on how the worker threads happened to interleave.
            for i in range(0, len(pairs), PRELOAD_BATCH):
                self.client.batch(
                    [("put", key, value) for key, value in pairs[i : i + PRELOAD_BATCH]]
                )
                self.service.drain()
            # The scheduler chains every merge a flush makes necessary, so once
            # this returns no compaction is pending.
            self.service.flush(wait=True)
        else:
            put = self.tree.put
            for key, value in pairs:
                put(key, value)
            self.tree.flush()

    def settle(self) -> None:
        """Wait for queued background jobs (wire handle only; inline is synchronous)."""
        if self.service is not None:
            self.service.drain()

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.server is not None:
            self.server.shutdown()  # closes the service, which closes the tree
        else:
            self.tree.close()


@dataclass
class Counters:
    """One snapshot of every public counter the metrics are deltas of."""

    device: object
    cache: object
    stats: Dict[str, float]
    server: Dict[str, float]

    @classmethod
    def take(cls, handle: Handle) -> "Counters":
        tree = handle.tree
        server: Dict[str, float] = {}
        if handle.server is not None:
            snap = handle.server.registry.snapshot()
            server["errors"] = (
                snap["counters"].get("server_request_errors_total", 0)
                + snap["counters"].get("server_protocol_errors_total", 0)
            )
            server["retries"] = snap["counters"].get("server_retries_total", 0)
            server["handle_s"] = sum(
                hist["sum"]
                for name, hist in snap["histograms"].items()
                if name.startswith("server_request_wall_seconds")
            )
        return cls(tree.device.stats.snapshot(), tree.cache.stats.snapshot(),
                   tree.stats.as_dict(), server)


@dataclass
class SegmentStats:
    """What one timed segment leaves behind once its raw samples are reduced."""

    ops: int
    wall_ns: int
    cpu_ns: int
    read_p50_us: float
    read_mean_us: float
    read_p99_us: Optional[float]
    put_p50_us: float
    put_mean_us: float
    put_p99_us: Optional[float]
    stall_ns: int
    longest_put_ns: int
    write_amp: float  # device bytes written / user bytes within this segment


@dataclass
class Phase:
    """A run of consecutive segments with the answers checked."""

    segments: List[SegmentStats] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    reads: int = 0
    puts: int = 0
    gets_found: int = 0
    runs_probed: int = 0
    memtable_hits: int = 0
    read_ns: array = field(default_factory=lambda: array("q"))
    put_ns: array = field(default_factory=lambda: array("q"))
    gen_seconds: float = 0.0
    first_failure: str = ""


def _percentile(sorted_values, q: float) -> float:
    return float(sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))])


def _reduce(samples: List[int]) -> Tuple[float, float, Optional[float]]:
    """(p50, mean, p99 or None) of one segment's latencies, in microseconds."""
    if not samples:
        return 0.0, 0.0, None
    ordered = sorted(samples)
    p99 = _percentile(ordered, 0.99) / 1e3 if len(ordered) >= P99_MIN_SAMPLES else None
    return statistics.median(ordered) / 1e3, sum(ordered) / len(ordered) / 1e3, p99


def calibration_spin() -> float:
    """Microseconds a fixed pure-Python loop takes (best of 5): the machine's pulse."""
    best = None
    for _ in range(5):
        t0 = _now()
        total = 0
        for i in range(100_000):
            total += i & 7
        elapsed = (_now() - t0) / 1e3
        best = elapsed if best is None else min(best, elapsed)
    return best


class Runner:
    """Drives one handle through segments; traced or plain."""

    def __init__(self, handle: Handle) -> None:
        self.handle = handle
        self.tracer: Optional[Tracer] = None
        self.corrupt_expected = False  # test hook: falsify each segment's first read
        self._bind()

    def _bind(self) -> None:
        store = self.handle.store
        self._get = store.get
        self._put = store.put
        scan = store.scan
        self._scan: Callable = lambda start, end: list(scan(start, end))
        if self.tracer is not None:
            # The scan's work happens while its iterator is drained, so the
            # span has to sit around the draining call, not around scan().
            self._scan = self.tracer.wrap(self._scan, "core.scan")

    def start_tracing(self, tracer: Tracer) -> None:
        self.tracer = tracer
        install(tracer)
        self._bind()  # rebind: bound methods captured before install() are unwrapped

    def stop_tracing(self) -> None:
        if self.tracer is not None:
            self.tracer.uninstall()
            self.tracer = None
            self._bind()

    def run_segment(self, segment: Segment, phase: Phase) -> None:
        """Time one segment, check its answers, and append its statistics to ``phase``."""
        ops = segment.ops
        results: List[object] = [None] * len(ops)
        read_ns: List[int] = []
        put_ns: List[int] = []
        get, put, scan = self._get, self._put, self._scan
        tracer = self.tracer
        device_stats = self.handle.tree.device.stats
        engine_stats = self.handle.tree.stats
        bytes0, user0 = device_stats.bytes_written, engine_stats.user_bytes
        gc.collect()
        gc.disable()
        try:
            cpu0 = time.process_time_ns()
            wall0 = _now()
            if tracer is None:
                for i, (kind, key, arg) in enumerate(ops):
                    try:
                        if kind == GET:
                            t0 = _now()
                            results[i] = get(key)
                            read_ns.append(_now() - t0)
                        elif kind == PUT:
                            t0 = _now()
                            put(key, arg)
                            put_ns.append(_now() - t0)
                        else:
                            t0 = _now()
                            results[i] = scan(key, arg)
                            read_ns.append(_now() - t0)
                    except Exception as exc:  # noqa: BLE001 - a failed op is a counted result
                        results[i] = exc
            else:
                for i, (kind, key, arg) in enumerate(ops):
                    tracer.op_id += 1
                    try:
                        if kind == GET:
                            results[i] = get(key)
                        elif kind == PUT:
                            put(key, arg)
                        else:
                            results[i] = scan(key, arg)
                    except Exception as exc:  # noqa: BLE001
                        results[i] = exc
            wall_ns = _now() - wall0
            cpu_ns = time.process_time_ns() - cpu0
        finally:
            gc.enable()
        self._check(segment, results, phase)
        read_p50, read_mean, read_p99 = _reduce(read_ns)
        put_p50, put_mean, put_p99 = _reduce(put_ns)
        user = engine_stats.user_bytes - user0
        phase.segments.append(
            SegmentStats(
                ops=len(ops), wall_ns=wall_ns, cpu_ns=cpu_ns,
                read_p50_us=read_p50, read_mean_us=read_mean, read_p99_us=read_p99,
                put_p50_us=put_p50, put_mean_us=put_mean, put_p99_us=put_p99,
                stall_ns=sum(ns for ns in put_ns if ns > STALL_NS),
                longest_put_ns=max(put_ns, default=0),
                write_amp=(device_stats.bytes_written - bytes0) / user if user else 0.0,
            )
        )
        phase.read_ns.extend(read_ns)
        phase.put_ns.extend(put_ns)
        phase.gen_seconds += segment.gen_seconds

    def _check(self, segment: Segment, results: List[object], phase: Phase) -> None:
        """Compare every answer with the shadow's, outside the timed window."""
        expected = segment.expected
        if self.corrupt_expected:
            expected = list(expected)
            first_read = next(i for i, op in enumerate(segment.ops) if op[0] != PUT)
            expected[first_read] = b"not the stored value"
        for i, (kind, _key, _arg) in enumerate(segment.ops):
            result, want = results[i], expected[i]
            phase.attempted += 1
            if isinstance(result, Exception):
                ok = False
            elif kind == GET:
                phase.reads += 1
                ok = (result.value if result.found else None) == want
                phase.gets_found += result.found
                phase.runs_probed += result.runs_probed
                phase.memtable_hits += result.found and result.runs_probed == 0
            elif kind == PUT:
                phase.puts += 1
                ok = True
            else:
                phase.reads += 1
                ok = result == want
            if not ok:
                phase.failed += 1
                if not phase.first_failure:
                    phase.first_failure = (
                        f"op {phase.attempted - 1} kind {kind}: got {result!r:.120}, "
                        f"want {want!r:.120}"
                    )


def _steady(values, better: str = "lower") -> float:
    """Mean of the best quarter of a per-segment series.

    The host is shared: for stretches of a second to several minutes
    everything runs 10-50 % slower, and the slowdowns only ever add time. The
    segments that met none of them agree from run to run far better than the
    median segment does. In ``results/noisy-day.json`` (2 x 10 runs per
    workload, the second half of them on a busy host) the worst quartile
    spread of a timing over ten seeds is 22 % on point-hot, 20 % on
    point-cold, 14 % on ingest-scan and 22 % on wire-hot with the median over
    segments, and 12 %, 13 %, 11 % and 17 % with this estimator on the same
    runs; in ``results/aa.json`` 37 %, 25 %, 16 % and 13 % against 21 %, 13 %,
    10 % and 13 %. A slowdown of the code moves every segment, the best quarter
    included. Work that lands in few segments only (ingest-scan's merges into
    the last level, one segment in five or six) is left out by this estimator
    as it is by the median: ``write_amp``, ``core.put_mean_all_us`` and
    ``compaction.*`` carry it.
    """
    values = sorted((v for v in values if v is not None), reverse=better == "higher")
    if not values:
        return 0.0
    best = values[: max(1, len(values) // 4)]
    return float(sum(best) / len(best))


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return float(statistics.median(values)) if values else 0.0


def _spread(values) -> Dict[str, object]:
    """A per-segment series in run order plus its min / quartiles / max."""
    series = [v for v in values if v is not None]
    if not series:
        return {"n": 0}
    ordered = sorted(series)
    q1, q2, q3 = statistics.quantiles(ordered, n=4) if len(ordered) > 1 else (ordered[0],) * 3
    return {"n": len(ordered), "min": ordered[0], "q1": q1, "median": q2, "q3": q3,
            "max": ordered[-1], "values": series}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _tail(per_segment, pooled: array) -> float:
    """p99 in us: median of per-segment p99s when every segment has enough
    samples, else the p99 of the pooled samples; 0 with too few of either."""
    if per_segment and all(v is not None for v in per_segment):
        return _median(per_segment)
    if len(pooled) >= P99_MIN_SAMPLES:
        return _percentile(sorted(pooled), 0.99) / 1e3
    return 0.0


def _ops_per_s(segments: List[SegmentStats]) -> float:
    return _steady((s.ops / (s.wall_ns / 1e9) for s in segments), better="higher")


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {k: after[k] - before.get(k, 0) for k in after if isinstance(after[k], (int, float))}


@dataclass
class Measurement:
    """Everything one run observed, before it is turned into metrics."""

    workload: Workload
    setup_times: List[float]
    preload_ops: int
    gen_seconds: float  # generator time, preload pairs included
    warm: Phase
    plain: Phase
    before: Counters  # at the start of the plain phase
    after: Counters  # at its end
    space_amp: float = 0.0
    shape: Dict[str, float] = field(default_factory=dict)
    integrity_errors: List[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0  # when the measured store closes: one store's life
    traced: Optional[Phase] = None
    traced_before: Optional[Counters] = None
    traced_after: Optional[Counters] = None
    summary: Optional[TraceSummary] = None
    spans: List[dict] = field(default_factory=list)

    @property
    def phases(self) -> List[Phase]:
        return [self.warm, self.plain] + ([self.traced] if self.traced else [])


def _timed_setup(workload: Workload, pairs: List[Tuple[bytes, bytes]]) -> Tuple[Handle, float]:
    """Build a fresh handle and load it; returns it with the seconds that took."""
    gc.collect()
    t0 = time.perf_counter()
    handle = Handle(workload)
    try:
        handle.preload(pairs)
    except BaseException:
        handle.close()
        raise
    return handle, time.perf_counter() - t0


def measure(workload: Workload, seed: int, seconds: float, trace: bool, scale: float,
            corrupt_expected: bool) -> Measurement:
    """Set up, warm up, run the plain (and traced) segments, tear down."""
    stream = Stream(workload, seed, scale)
    t0 = time.perf_counter()
    pairs = stream.preload()
    gen_seconds = time.perf_counter() - t0
    per_segment = segment_ops(workload, seconds, scale)

    handle, setup_seconds = _timed_setup(workload, pairs)
    try:
        runner = Runner(handle)
        runner.corrupt_expected = corrupt_expected
        warm = Phase()  # checked like any other segment; none of its timings are used
        runner.run_segment(stream.segment(per_segment), warm)
        handle.settle()

        before = Counters.take(handle)
        plain = Phase()
        for _ in range(TRACE_UNTRACED_SEGMENTS if trace else SEGMENTS):
            runner.run_segment(stream.segment(per_segment), plain)
        handle.settle()
        after = Counters.take(handle)
        result = Measurement(
            workload, [setup_seconds], len(pairs), gen_seconds, warm, plain, before, after
        )

        if trace:
            tracer = Tracer()
            tracer.calibrate()
            result.traced = Phase()
            result.traced_before = after
            runner.start_tracing(tracer)
            try:
                for _ in range(TRACE_TRACED_SEGMENTS):
                    runner.run_segment(stream.segment(per_segment), result.traced)
                handle.settle()
            finally:
                runner.stop_tracing()
            result.traced_after = Counters.take(handle)
            result.summary = TraceSummary(tracer)
            result.spans = tracer.spans()

        # Teardown: the store must still be sound and the space must add up.
        result.integrity_errors = handle.tree.verify_integrity()["errors"]
        result.space_amp = handle.tree.space_amplification
        result.shape = _tree_shape(handle.tree)
    finally:
        handle.close()
    result.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.gen_seconds += sum(phase.gen_seconds for phase in result.phases)

    # setup_s is a median of several set-ups, not one sample. The further ones
    # load the same pairs into fresh handles only now, when the measured store
    # is closed and the peak RSS read: a closed handle's memory is not all
    # returned (the wire handle keeps ~10 MB each), and three stores' worth of
    # it would be read as one store's footprint.
    for _ in range(0 if trace else SETUP_REPEATS - 1):
        extra, setup_seconds = _timed_setup(workload, pairs)
        extra.close()
        result.setup_times.append(setup_seconds)
    return result


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
    trace_path: Optional[str] = None,
    corrupt_expected: bool = False,
) -> dict:
    """Run one workload once and return the full report.

    ``scale`` shrinks both the preload and the op counts (the smoke test runs
    at 1/50). ``corrupt_expected`` falsifies the expected answer of each
    segment's first read so the tests can see the checker count it.
    """
    started = time.perf_counter()
    calib_before = calibration_spin()
    m = measure(workload, seed, seconds, trace, scale, corrupt_expected)
    calib_us = (calib_before + calibration_spin()) / 2

    failed = sum(phase.failed for phase in m.phases)
    report = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
        "traced": trace,
        "correct": failed == 0 and not m.integrity_errors,
        "attempted": sum(phase.attempted for phase in m.phases),
        "failed": failed,
        "first_failure": next((p.first_failure for p in m.phases if p.first_failure), ""),
        "integrity_errors": m.integrity_errors[:5],
        "ops_per_segment": m.plain.segments[0].ops,
        "segments": len(m.plain.segments),
        "measured_wall_s": sum(s.wall_ns for s in m.plain.segments) / 1e9,
        "measured_flushes": m.after.stats["flushes"] - m.before.stats["flushes"],
        "setup_times_s": m.setup_times,
        "calib_us": calib_us,
        "end_to_end": _end_to_end(m),
        "series": _series(m.plain),
    }
    report["wall_s"] = time.perf_counter() - started  # without interpreter start-up
    if trace:
        report["per_layer"] = _per_layer(m, calib_us)
        report["trace_table"] = m.summary.table()
        report["trace_calibration_ns"] = {
            "inner": m.summary.inner_ns, "outer": m.summary.outer_ns,
        }
        if trace_path is not None:
            _write_trace(trace_path, report, m.spans)
    return report


def _tree_shape(tree: LSMTree) -> Dict[str, float]:
    """Levels, runs and the memory of the filters and indexes, via a pinned version."""
    version = tree.pin_version()
    try:
        tables = [table for run in version.runs for table in run.tables]
        return {
            "levels": tree.num_levels,
            "runs": tree.total_runs,
            "filter_bytes": sum(
                t.point_filter.size_bytes for t in tables if t.point_filter is not None
            ),
            "index_bytes": sum(
                t.search_index.size_bytes for t in tables if t.search_index is not None
            ),
            "cache_used_bytes": tree.cache.used_bytes,
        }
    finally:
        version.close()


def _end_to_end(m: Measurement) -> Dict[str, float]:
    """The end-to-end metrics.

    The four amplification counts cover the store's whole life — preload,
    warm-up (a cold cache) and the measured phase — because a delta over the
    measured phase alone is a handful of events on the two hot workloads, and
    a handful of events does not repeat from seed to seed. The measured-phase
    deltas are per-layer metrics (``storage.*``, ``cache.*``).
    """
    segs = m.plain.segments
    life_ops = m.preload_ops + m.warm.attempted + m.plain.attempted
    return {
        "setup_s": statistics.median(m.setup_times),
        "ops_per_s": _ops_per_s(segs),
        "cpu_us_per_op": _steady(s.cpu_ns / 1e3 / s.ops for s in segs),
        "read_p50_us": _steady(s.read_p50_us for s in segs),
        "read_mean_us": _steady(s.read_mean_us for s in segs),
        "put_p50_us": _steady(s.put_p50_us for s in segs),
        "put_mean_us": _steady(s.put_mean_us for s in segs),
        "read_ios_per_op": _ratio(m.after.cache.misses, m.warm.reads + m.plain.reads),
        "write_amp": _ratio(m.after.device.bytes_written, m.after.stats["user_bytes"]),
        "space_amp": m.space_amp,
        "sim_cost_per_op": _ratio(m.after.device.simulated_time, life_ops),
        "peak_rss_mb": m.peak_rss_mb,
    }


def _series(plain: Phase) -> Dict[str, object]:
    """Every per-segment statistic: its series in run order and the spread over it."""
    segs = plain.segments
    return {
        "ops_per_s": _spread(s.ops / (s.wall_ns / 1e9) for s in segs),
        "cpu_us_per_op": _spread(s.cpu_ns / 1e3 / s.ops for s in segs),
        "read_p50_us": _spread(s.read_p50_us for s in segs),
        "read_mean_us": _spread(s.read_mean_us for s in segs),
        "read_p99_us": _spread(s.read_p99_us for s in segs),
        "put_p50_us": _spread(s.put_p50_us for s in segs),
        "put_mean_us": _spread(s.put_mean_us for s in segs),
        "put_p99_us": _spread(s.put_p99_us for s in segs),
        "write_amp_by_segment": _spread(s.write_amp for s in segs),
    }


def _per_layer(m: Measurement, calib_us: float) -> Dict[str, float]:
    """Every per-layer metric: counts from the plain phase, times from the traced one."""
    workload, plain, traced, s = m.workload, m.plain, m.traced, m.summary
    segs = plain.segments
    ops = sum(x.ops for x in segs)
    wall_ns = sum(x.wall_ns for x in segs)
    device = m.after.device.delta(m.before.device)
    cache = m.after.cache.delta(m.before.cache)
    stat = _delta(m.after.stats, m.before.stats)
    server = _delta(m.after.server, m.before.server)
    wire = workload.handle == "wire"
    # Gets whose GetResult carries provenance: a wire reply has none.
    gets = plain.reads if workload.read_kind == GET and not wire else 0

    # Traced phase: a span's self time is charged to the operations of the
    # kind that pay for it (read-path layers per read, write-path per put).
    t_reads, t_puts, t_ops = traced.reads, traced.puts, traced.attempted
    t_blocks = _delta(m.traced_after.stats, m.traced_before.stats)["blocks_written"]
    reads = ("get", "scan")

    def us(ns: float, per: float) -> float:
        return _ratio(ns / 1e3, per)

    merges = ("compaction.plan", "compaction.execute", "compaction.install")
    # Inline, a merge runs inside install_flush; in the service it is its own root.
    inline_merge_ns = s.dur_ns(*merges, parent=("compaction.install_flush",))
    merge_ns = inline_merge_ns + s.dur_ns(*merges, parent=("",))
    flush_ns = (
        s.dur_ns("compaction.build_flush") + s.dur_ns("compaction.install_flush")
        - inline_merge_ns
    )
    handle_us = _ratio(server.get("handle_s", 0.0) * 1e6, ops)

    return {
        "workloads.gen_us_per_op": _ratio(
            m.gen_seconds * 1e6, m.preload_ops + sum(p.attempted for p in m.phases)
        ),
        "core.get_self_us": us(s.self_ns("core.get"), t_reads),
        "core.put_self_us": us(s.self_ns("core.put", "core.write_batch"), t_puts),
        "core.scan_self_us": us(s.self_ns("core.scan"), t_reads),
        "core.get_found_share": _ratio(
            plain.gets_found, plain.reads if workload.read_kind == GET else 0
        ),
        "core.runs_probed_per_get": _ratio(plain.runs_probed, gets),
        "core.flushes": stat["flushes"],
        "core.levels": m.shape["levels"],
        "core.runs": m.shape["runs"],
        "core.read_p99_us": _tail([x.read_p99_us for x in segs], plain.read_ns),
        "core.put_p99_us": _tail([x.put_p99_us for x in segs], plain.put_ns),
        # Over every measured put, the rare large merges included.
        "core.put_mean_all_us": _ratio(sum(plain.put_ns) / 1e3, len(plain.put_ns)),
        "memtable.get_us": us(s.self_ns("memtable.get", kinds=("get",)), t_reads),
        "memtable.put_us": us(s.self_ns("memtable.put"), t_puts),
        "memtable.hit_share": _ratio(plain.memtable_hits, gets),
        "filters.probe_us": us(s.self_ns("filters.may_contain", kinds=("get",)), t_reads),
        "filters.probes_per_get": _ratio(stat["filter_probes"], gets),
        "filters.negative_share": _ratio(stat["filter_negatives"], stat["filter_probes"]),
        "filters.false_positive_rate": _ratio(
            stat["false_positives"], stat["false_positives"] + stat["filter_negatives"]
        ),
        "filters.build_us_per_key": us(
            s.self_ns("filters.build"), s.calls("storage.builder_add")
        ),
        "filters.memory_bytes": m.shape["filter_bytes"],
        "indexes.locate_us": us(s.self_ns("indexes.locate", kinds=("get",)), t_reads),
        "indexes.memory_bytes": m.shape["index_bytes"],
        "cache.lookup_us": us(s.self_ns("cache.get_or_load_block", kinds=reads), t_reads),
        "cache.hit_rate": _ratio(cache.hits, cache.hits + cache.misses),
        "cache.evictions_per_op": _ratio(cache.evictions, ops),
        "cache.used_bytes": m.shape["cache_used_bytes"],
        "storage.device_read_us": us(s.self_ns("storage.device_read", kinds=reads), t_reads),
        "storage.parse_block_us": us(s.self_ns("storage.parse_block", kinds=reads), t_reads),
        "storage.build_us_per_block": us(
            s.self_ns("storage.builder_add", "storage.builder_finish"), t_blocks
        ),
        "storage.device_write_us": us(s.self_ns("storage.device_write"), t_puts),
        "storage.wal_append_us": us(s.self_ns("storage.wal_append"), t_puts),
        # Everything written that is not a data block of a table: WAL frames,
        # plus the manifest and the tables' filter/index blocks.
        "storage.wal_bytes_per_put": (
            _ratio(device.bytes_written - stat["block_bytes_stored"], plain.puts)
            if workload.config.get("wal_enabled") else 0.0
        ),
        "storage.blocks_read_per_op": _ratio(device.blocks_read, ops),
        "storage.blocks_written_per_op": _ratio(device.blocks_written, ops),
        "storage.seeks_per_op": _ratio(device.seeks, ops),
        "storage.bytes_written": device.bytes_written,
        "storage.write_amp_measured": _ratio(device.bytes_written, stat["user_bytes"]),
        "compaction.flush_busy_s": flush_ns / 1e9,
        "compaction.merge_busy_s": merge_ns / 1e9,
        "compaction.stall_share": _ratio(sum(x.stall_ns for x in segs), wall_ns),
        "compaction.longest_stall_ms": max((x.longest_put_ns for x in segs), default=0) / 1e6,
        "compaction.count": stat["compactions"],
        "compaction.bytes_in": stat["compaction_bytes_in"],
        "compaction.bytes_out": stat["compaction_bytes_out"],
        "service.get_overhead_us": us(s.self_ns("service.get"), t_reads),
        "service.put_overhead_us": us(s.self_ns("service.put"), t_puts),
        "service.batch_wait_us": us(s.self_ns("service.batch_submit"), t_puts),
        "service.avg_batch": _ratio(stat["batched_records"], stat["batches_committed"]),
        "service.batches": stat["batches_committed"],
        "service.stall_wall_s": stat["stall_time_wall"],
        "service.flush_jobs": stat["flush_jobs"],
        "service.compaction_jobs": stat["compaction_jobs"],
        "server.client_codec_us": us(
            s.self_ns("server.encode", "server.decode", side="client"), t_ops
        ),
        "server.server_codec_us": us(
            s.self_ns("server.encode", "server.decode", side="server"), t_ops
        ),
        "server.handle_us": handle_us,
        "server.socket_wait_us": max(0.0, wall_ns / 1e3 / ops - handle_us) if wire else 0.0,
        "server.bytes_per_op": _ratio(s.units("server.encode"), t_ops),
        "server.errors": server.get("errors", 0),
        "server.retries": server.get("retries", 0),
        "observe.trace_overhead_share": 1.0 - _ratio(
            _ops_per_s(traced.segments), _ops_per_s(segs)
        ),
        "bench.calib_us": calib_us,
    }


def _write_trace(path: str, report: dict, spans: List[dict]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as out:
        json.dump(
            {
                "workload": report["workload"],
                "seed": report["seed"],
                "calibration_ns": report["trace_calibration_ns"],
                "totals": report["trace_table"],
                "spans": spans,
            },
            out,
        )
