"""The engine's two observability attachments: an observer and a view.

An :class:`EngineObserver` records what the engine does not itself keep:
latency histograms, the structured event journal and the per-level share
of the read traffic. The tree calls its ``record_*`` hooks from the
get/put/scan/flush/compaction paths, and none are called at all when no
observer is attached (the hot paths check one attribute).

An :class:`EngineView` publishes what the engine *does* keep — every count
in ``metrics_snapshot()`` — into the same registry as callback series, so
an event is counted once, by the engine, and every exporter, the ``stats``
frame and the sampler read that one number. :func:`observe_tree` attaches
both.

Latency is recorded on two clocks:

* **simulated device time** — the block device's latency model, the unit
  every experiment in ``benchmarks/`` reports; and
* **wall-clock seconds** — what a client of the concurrent service layer
  actually waits, including lock waits, group-commit linger, and stalls.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from repro.observe.journal import EventJournal
from repro.observe.levels import LevelIO, export_level_gauges
from repro.observe.metrics import MetricsRegistry
from repro.storage.sstable import ProbeStats

#: Wall-clock histograms: 1 microsecond floor, <=20% relative error.
WALL_MIN = 1e-6
#: Simulated-time histograms: the unit is one sequential block read.
SIM_MIN = 1e-3

#: ``ReadGuard.as_dict()`` keys whose series an observed engine exports even
#: without a guard (at zero: it has seen no fault).
_GUARD_SERIES = {
    "fault_transient_errors": (
        "fault_transient_total", "transient read errors observed by the read guard"),
    "fault_corruptions_detected": ("fault_corruption_total", "checksum corruptions detected"),
    "retry_attempts": ("fault_retry_total", "read retries issued after transient errors"),
    "fault_degraded_reads": (
        "fault_degraded_total", "degraded reads (broken filter/index, fell back to scan)"),
    "quarantine_files": ("quarantine_files_total", "files quarantined as persistently corrupt"),
}
#: ``metrics_snapshot()`` keys published under the ``(name, help)`` their
#: series had before the registry became a view of the snapshot; every
#: other key is published as ``engine_<key>``.
_SERIES = {
    **_GUARD_SERIES,
    "gets": ("gets_total", "point lookups"),
    "recoveries": ("recoveries_total", "crash recoveries completed"),
    "parallel_compactions": (
        "parallel_compactions_total", "compactions executed as key-range subcompactions"),
    "subcompactions": ("subcompactions_total", "subcompaction worker jobs run"),
    "service_uptime_seconds": ("service_uptime_seconds", "seconds since the service started"),
    "pending_jobs": ("service_pending_jobs", "queued + in-flight background jobs"),
    "write_queue_depth": ("service_write_queue_depth", "writes parked in the commit queue"),
}
#: The keys that can go down — ratios, sizes, shape, "since"/"last" clocks —
#: are gauges; every other key is a monotone count and exports as a counter.
_GAUGES = frozenset({
    "compression_ratio", "entries_per_scan", "filter_fpr_observed", "blocks_per_get",
    "last_recovery_wall", "last_recovery_sim", "cache_hit_rate", "cache_compressed_hit_rate",
    "cache_used_bytes", "cache_compressed_used_bytes", "uptime_seconds", "levels", "runs",
    "memtable_entries", "immutable_memtables", "write_amplification",
    "service_uptime_seconds", "pending_jobs", "write_queue_depth",
})
_KEYS = {name: key for key, (name, _) in _SERIES.items()}


def series_name(key: str) -> str:
    """The registry series a ``metrics_snapshot()`` key is published as."""
    return _SERIES[key][0] if key in _SERIES else f"engine_{key}"


def engine_section(metrics: dict) -> dict:
    """``metrics_snapshot()`` as a registry snapshot carries it: every
    engine series of ``metrics`` back under its snapshot key."""
    section = {}
    for kind in ("counters", "gauges"):
        for name, value in metrics[kind].items():
            if name in _KEYS:
                section[_KEYS[name]] = value
            elif name.startswith("engine_"):
                section[name[len("engine_"):]] = value
    return section


class EngineView:
    """The registry's read side of one engine's counters.

    Publishes every numeric key of ``target.metrics_snapshot()`` (an
    ``LSMTree`` or a ``DBService``) as a callback series, and the per-level
    table as labeled gauges. The engine's own ints stay the only place an
    event is counted: nothing here is incremented. One scrape of the
    registry costs one ``metrics_snapshot()`` — the refresh hook takes it
    and the scraping thread's reads share it; a series read outside a
    scrape takes a fresh one, so ``counter.value`` is never stale.
    Re-attaching for the same tree replaces the previous view.
    """

    def __init__(self, registry: MetricsRegistry, target) -> None:
        self._registry = registry
        self._target = target
        self._tree = getattr(target, "tree", target)
        self._held = threading.local()
        self._bound: set = set()
        self._bind({**dict.fromkeys(_GUARD_SERIES, 0), **target.metrics_snapshot()})
        registry.add_refresh_hook(self._hold, key=("engine", id(self._tree)))

    def _bind(self, snapshot: dict) -> None:
        for key, value in snapshot.items():
            if key in self._bound:
                continue
            self._bound.add(key)
            if not isinstance(value, (int, float)):
                continue
            name, help_text = _SERIES.get(key) or (f"engine_{key}", f"engine {key}")
            make = self._registry.gauge if key in _GAUGES else self._registry.counter
            make(name, help_text).set_function(lambda key=key: self._read(key))

    def _read(self, key: str) -> float:
        snapshot = getattr(self._held, "snapshot", None)
        if snapshot is None:
            snapshot = self._target.metrics_snapshot()
        return snapshot.get(key, 0)

    def _hold(self):
        snapshot = self._held.snapshot = self._target.metrics_snapshot()
        self._bind(snapshot)  # keys that appeared since (a guard attached later)
        export_level_gauges(self._tree, self._registry)
        return self._release

    def _release(self) -> None:
        self._held.snapshot = None


class EngineObserver:
    """Registry-backed instrumentation for one :class:`~repro.core.lsm_tree.LSMTree`.

    Args:
        registry: the registry to report into (a private one by default).
        labels: optional labels stamped on every series this observer owns
            (the sharded store labels each shard's observer).
        journal: the structured event journal maintenance events feed into
            (a private bounded one by default; share one across components
            to interleave engine, backpressure, and server events).
        journal_capacity: ring bound for the default journal.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        labels: Optional[Dict[str, str]] = None,
        journal: Optional[EventJournal] = None,
        journal_capacity: int = 4096,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.labels = dict(labels or {})
        self.journal = journal if journal is not None else EventJournal(journal_capacity)
        reg = self.registry

        def hist(name, help, min_value):
            return reg.histogram(name, help, min_value=min_value, labels=self.labels)

        self.get_wall = hist(
            "get_latency_wall_seconds", "point-lookup wall-clock latency", WALL_MIN
        )
        self.get_sim = hist(
            "get_latency_sim", "point-lookup simulated device time", SIM_MIN
        )
        self.put_wall = hist(
            "put_latency_wall_seconds", "write wall-clock latency", WALL_MIN
        )
        self.scan_wall = hist(
            "scan_latency_wall_seconds", "full-scan wall-clock latency", WALL_MIN
        )
        self.flush_wall = hist(
            "flush_build_wall_seconds", "memtable-flush build wall time", WALL_MIN
        )
        self.compaction_wall = hist(
            "compaction_merge_wall_seconds", "compaction merge wall time", WALL_MIN
        )
        self.get_blocks = hist(
            "get_blocks_touched", "data blocks touched per point lookup", SIM_MIN
        )
        # The one count only the observer keeps; every other engine count is
        # an int the engine owns, published by EngineView.
        self.gets_found = reg.counter(
            "gets_found_total", "point lookups that found a value", self.labels
        )
        self.recovery_wall = hist(
            "recovery_wall_seconds", "manifest + WAL-replay recovery wall time", WALL_MIN
        )
        self.levels: Dict[int, LevelIO] = {}

    # -- hooks called from the engine hot paths ------------------------------

    def record_get(self, wall_s: float, sim_time: float, found: bool, blocks: int) -> None:
        self.get_wall.record(wall_s)
        self.get_sim.record(sim_time)
        self.get_blocks.record(blocks)
        if found:
            self.gets_found.inc()

    def record_multi_get(self, found: int) -> None:
        """A ``multi_get`` batch: its found keys count as found lookups. The
        latency histograms and per-level series stay point-get series."""
        self.gets_found.inc(found)

    def record_put(self, wall_s: float) -> None:
        self.put_wall.record(wall_s)

    def record_scan(self, wall_s: float) -> None:
        self.scan_wall.record(wall_s)

    def record_flush_build(self, wall_s: float) -> None:
        self.flush_wall.record(wall_s)

    def record_compaction(self, wall_s: float) -> None:
        self.compaction_wall.record(wall_s)

    def record_compaction_start(self, level: int, dest: int, bytes_in: int,
                                runs: int = 0) -> None:
        """A merge was picked and is about to execute (journal only)."""
        self.journal.emit("compaction_start", level=level, dest=dest,
                          bytes_in=bytes_in, runs=runs)

    def level(self, level_no: int) -> LevelIO:
        stats = self.levels.get(level_no)
        if stats is None:
            stats = self.levels[level_no] = LevelIO()
        return stats

    def record_level_probe(self, level_no: int, probe: ProbeStats, served: bool) -> None:
        """One point lookup's footprint at one level (called per level probed)."""
        stats = self.level(level_no)
        stats.merge(probe)
        stats.gets_probed += 1
        if served:
            stats.gets_served += 1

    def record_quarantine(self, file_id: Optional[int] = None) -> None:
        """A file crossed the corrupt-read threshold and was quarantined."""
        self.journal.emit("quarantine", file_id=file_id)

    def record_recovery(self, wall_s: float) -> None:
        """The engine this observer is being attached to came out of a crash
        recovery (manifest load + WAL replay) that took ``wall_s``."""
        self.recovery_wall.record(wall_s)
        self.journal.emit("recovery", wall_s=wall_s)

    def record_event(self, event) -> None:
        """Per-level write accounting + journal entry from a CompactionEvent."""
        if event.bytes_out:
            self.level(event.dest).bytes_written += event.bytes_out
        if event.bytes_in:
            self.level(event.level).bytes_compacted_in += event.bytes_in
        kind = event.kind
        if kind == "flush":
            journal_kind = "flush"
        elif kind == "ingest":
            journal_kind = "ingest"
        else:  # full / partial / trivial_move merges
            journal_kind = "compaction_finish"
        self.journal.emit(journal_kind, compaction=kind, level=event.level,
                          dest=event.dest, bytes_in=event.bytes_in,
                          bytes_out=event.bytes_out, tick=event.tick)


def observe_tree(tree, registry=None, sampling: float = 0.0, trace_capacity: int = 256,
                 source=None):
    """Attach metrics and tracing to a tree in one call.

    The registry then carries the latency histograms, every numeric
    ``metrics_snapshot()`` key and the per-level table (:class:`EngineView`);
    fault, retry and quarantine events of the device's read guard reach
    the journal. ``source`` is whose ``metrics_snapshot()`` is published:
    the tree's by default, a service fronting it passes itself.

    Returns:
        ``(observer, recorder)``. A recorder is always created — with
        ``sampling=0.0`` it never fires, but the knob can be raised later
        without re-wiring the tree.
    """
    from repro.observe.tracing import TraceRecorder

    observer = EngineObserver(registry)
    recorder = TraceRecorder(capacity=trace_capacity, sampling=sampling)
    tree.observer = observer
    tree.tracer = recorder
    guard = getattr(tree.device, "guard", None)
    if guard is not None:
        guard.observer = observer
    if tree.stats.recoveries:
        observer.record_recovery(tree.stats.last_recovery_wall)
    EngineView(observer.registry, source if source is not None else tree)
    return observer, recorder


__all__ = [
    "EngineObserver", "EngineView", "engine_section", "observe_tree", "series_name",
    "WALL_MIN", "SIM_MIN",
]
