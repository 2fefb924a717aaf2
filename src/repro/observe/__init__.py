"""repro.observe — metrics, tracing, per-level stats, and exporters.

The observability layer every perf claim in this repo reports through:

* :class:`MetricsRegistry` with :class:`Counter` / :class:`Gauge` /
  log-bucketed :class:`Histogram` (p50/p90/p99/p99.9, mergeable across
  shards, bounded memory);
* :class:`TraceRecorder` + :class:`Span` + :class:`TraceContext` — sampled
  request tracing with a ring buffer, near-free when sampling is off, joined
  across processes via the wire-propagated context; :class:`SlowOpLog` for
  the always-on slow-request breakdowns;
* :class:`EventJournal` — the bounded, thread-safe journal of typed engine
  events (flush/compaction/stall/quarantine/throttle) with JSONL export;
* :class:`TimeSeriesSampler` + :class:`RingSeries` — fixed-interval scrapes
  of any registry into bounded history with delta/rate derivation (the
  ``stats_history`` frame and ``python -m repro stats --live``);
* :func:`level_stats` / :func:`format_level_table` — the RocksDB-style
  per-level stats table;
* :func:`to_prometheus` / :func:`to_json` / :func:`render_dump` — the
  export surfaces (``python -m repro stats --format ...``).

Attach to an engine with :func:`observe_tree` (or
``DBService.attach_observability`` for the concurrent service layer): the
registry then also carries every ``metrics_snapshot()`` count as a callback
series (:class:`EngineView`; :func:`series_name` maps key to series) and the
per-level table as gauges, so one registry is all any reader needs.
"""

from repro.observe.engine import (
    EngineObserver,
    EngineView,
    engine_section,
    observe_tree,
    series_name,
)
from repro.observe.journal import EVENT_KINDS, EventJournal, JournalEvent
from repro.observe.export import (
    latency_rows,
    parse_prometheus,
    render_dump,
    to_json,
    to_prometheus,
)
from repro.observe.levels import (
    LEVEL_COLUMNS,
    export_level_gauges,
    format_level_table,
    level_stats,
)
from repro.observe.metrics import (
    DEFAULT_QUANTILES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_registries,
)
from repro.observe.timeseries import RingSeries, TimeSeriesSampler
from repro.observe.tracing import (
    SlowOpLog,
    Span,
    TraceContext,
    TraceRecorder,
    new_span_id,
    new_trace_id,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merge_registries",
    "DEFAULT_QUANTILES",
    "EngineObserver",
    "EngineView",
    "engine_section",
    "observe_tree",
    "series_name",
    "Span",
    "TraceRecorder",
    "TraceContext",
    "SlowOpLog",
    "new_trace_id",
    "new_span_id",
    "EventJournal",
    "JournalEvent",
    "EVENT_KINDS",
    "RingSeries",
    "TimeSeriesSampler",
    "level_stats",
    "format_level_table",
    "export_level_gauges",
    "LEVEL_COLUMNS",
    "to_prometheus",
    "parse_prometheus",
    "to_json",
    "render_dump",
    "latency_rows",
]
