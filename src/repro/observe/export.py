"""Exporters: Prometheus text exposition, JSON snapshots, human dumps.

Three renderings of one :class:`~repro.observe.metrics.MetricsRegistry`:

* :func:`to_prometheus` — the text exposition format scrapers ingest
  (counters/gauges as single samples, histograms as cumulative
  ``_bucket{le=...}`` series plus ``_sum``/``_count``);
* :func:`to_json` — a machine-readable snapshot (dashboards, CI artifacts);
* :func:`render_dump` — the human table reusing ``bench/report``.

``parse_prometheus`` is the inverse of :func:`to_prometheus` for the
round-trip tests (and for anyone diffing two scrapes without a server).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.report import format_table
from repro.observe.metrics import Histogram, MetricsRegistry, series_key


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _render_labels(labels: Dict[str, str], extra: Optional[Tuple[str, str]] = None) -> str:
    items = sorted(labels.items())
    if extra is not None:
        items.append(extra)
    if not items:
        return ""
    body = ",".join(f'{k}="{_escape(v)}"' for k, v in items)
    return "{" + body + "}"


def _escape(value: str) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _metric_name(registry: MetricsRegistry, metric) -> str:
    prefix = f"{registry.namespace}_" if registry.namespace else ""
    return prefix + metric.name


def to_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format (version 0.0.4)."""
    lines: List[str] = []
    seen_headers = set()

    def header(full_name: str, help: str, kind: str) -> None:
        if full_name in seen_headers:
            return
        seen_headers.add(full_name)
        if help:
            lines.append(f"# HELP {full_name} {_escape(help)}")
        lines.append(f"# TYPE {full_name} {kind}")

    with registry.scrape():  # pushed gauges re-derive, callback series share one view
        for kind, metrics in (("counter", registry.counters()), ("gauge", registry.gauges())):
            for metric in metrics:
                full = _metric_name(registry, metric)
                header(full, metric.help, kind)
                lines.append(f"{full}{_render_labels(metric.labels)} {_format_value(metric.value)}")
    for histogram in registry.histograms():
        full = _metric_name(registry, histogram)
        header(full, histogram.help, "histogram")
        cumulative = 0
        for upper_bound, count in histogram.buckets():
            cumulative += count
            le = ("le", _format_value(upper_bound))
            lines.append(
                f"{full}_bucket{_render_labels(histogram.labels, le)} {cumulative}"
            )
        lines.append(
            f"{full}_bucket{_render_labels(histogram.labels, ('le', '+Inf'))} "
            f"{histogram.count}"
        )
        lines.append(
            f"{full}_sum{_render_labels(histogram.labels)} {_format_value(histogram.total)}"
        )
        lines.append(f"{full}_count{_render_labels(histogram.labels)} {histogram.count}")
    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> Dict[str, float]:
    """Parse exposition text into ``{series-with-labels: value}`` (round-trips)."""
    samples: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        series, _, raw = line.rpartition(" ")
        value = float(raw.replace("+Inf", "inf").replace("-Inf", "-inf"))
        samples[series] = value
    return samples


def to_json(
    registry: MetricsRegistry,
    tree=None,
    recorder=None,
    indent: Optional[int] = 2,
) -> str:
    """A JSON snapshot: the registry, plus optional engine/trace sections.

    Args:
        tree: when given, adds ``engine`` (``metrics_snapshot()`` as the
            registry carries it — the same numbers as the ``metrics``
            section's engine series, keyed the engine's way) and ``levels``
            (the per-level table) sections.
        recorder: when given, adds the retained trace spans.
    """
    from repro.observe.engine import engine_section
    from repro.observe.levels import level_stats

    payload = {"metrics": registry.snapshot()}
    if tree is not None:
        payload["engine"] = engine_section(payload["metrics"])
        payload["levels"] = level_stats(tree)
    if recorder is not None:
        payload["traces"] = recorder.snapshot()
    return json.dumps(payload, indent=indent, sort_keys=True)


def latency_rows(
    histograms: Sequence[Histogram],
) -> List[List[object]]:
    """Table rows (name, count, mean, p50, p90, p99, p99.9, max) per histogram."""
    rows: List[List[object]] = []
    for histogram in histograms:
        pct = histogram.percentiles()
        rows.append(
            [
                series_key(histogram),
                histogram.count,
                histogram.mean,
                pct["p50"],
                pct["p90"],
                pct["p99"],
                pct["p99_9"],
                histogram.max if histogram.count else 0.0,
            ]
        )
    return rows


def render_dump(registry: MetricsRegistry, tree=None) -> str:
    """The human-readable dump: latency table, counters, per-level table.

    The per-level rows are in the registry as ``level_*`` gauges; they are
    listed only as the table ``tree`` asks for, or there would be a few
    dozen gauge lines per level above it.
    """
    from repro.observe.levels import format_level_table

    sections: List[str] = []
    histograms = registry.histograms()
    if histograms:
        sections.append("== latency distributions ==")
        sections.append(
            format_table(
                ["histogram", "count", "mean", "p50", "p90", "p99", "p99.9", "max"],
                latency_rows(histograms),
            )
        )
    with registry.scrape():
        counters = [[c.name, c.value] for c in registry.counters()]
        gauges = [
            [series_key(g), g.value] for g in registry.gauges()
            if tree is None or not g.name.startswith("level_")
        ]
    if counters:
        sections.append("\n== counters ==")
        sections.append(format_table(["counter", "value"], counters))
    if gauges:
        sections.append("\n== gauges ==")
        sections.append(format_table(["gauge", "value"], gauges))
    if tree is not None:
        sections.append("\n== per-level stats ==")
        sections.append(format_level_table(tree))
    return "\n".join(sections)
