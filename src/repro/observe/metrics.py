"""Metric primitives: counters, gauges, and log-bucketed histograms.

The registry is the one place every instrumented component reports into, so
a snapshot of it is a complete picture of the engine at a point in time.
Design constraints (all load-bearing for the rest of ``repro.observe``):

* **Bounded memory.** A histogram's buckets grow geometrically, so covering
  twelve decades of latency costs a few hundred integers, not one slot per
  distinct value.
* **Mergeable.** Two histograms with the same ``growth``/``min_value`` bucket
  identically, so a cross-shard merge is exact bucket-wise addition — the
  property :class:`~repro.sharding.ShardedStore` relies on for its merged
  registry.
* **Thread-safe.** Client threads and background maintenance workers record
  concurrently; every mutation takes the metric's lock (uncontended in the
  single-threaded engine).
"""

from __future__ import annotations

import contextlib
import math
import threading
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: The quantiles every latency report prints, in order.
DEFAULT_QUANTILES: Tuple[float, ...] = (0.50, 0.90, 0.99, 0.999)


def _label_key(labels: Optional[Dict[str, str]]) -> Tuple[Tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def series_key(metric) -> str:
    """``name`` or ``name{label=value,...}``: how snapshots and dumps key a series."""
    if not metric.labels:
        return metric.name
    rendered = ",".join(f"{k}={v}" for k, v in sorted(metric.labels.items()))
    return f"{metric.name}{{{rendered}}}"


def _sample(fn: Callable[[], float]) -> float:
    """Read a callback-backed metric; a dying component must not break exports."""
    try:
        return float(fn())
    except Exception:
        return float("nan")


class _Scalar:
    """One named scalar series: a stored value, or a callback read on every
    read (``set_function``) — the shape for a number some component already
    keeps under its own lock, which then costs its owner nothing extra."""

    __slots__ = ("name", "help", "labels", "_value", "_fn", "_lock")

    def __init__(self, name: str, help: str = "", labels: Optional[Dict[str, str]] = None):
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None
        self._lock = threading.Lock()

    def set_function(self, fn: Callable[[], float]) -> None:
        """Sample ``fn`` on every read instead of storing a value."""
        with self._lock:
            self._fn = fn

    @property
    def value(self) -> float:
        fn = self._fn
        return self._value if fn is None else _sample(fn)


class Counter(_Scalar):
    """A monotone counter (Prometheus ``counter`` semantics); a callback
    backing it must return a monotone count."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for deltas")
        with self._lock:
            self._value += amount

    def merge(self, other: "Counter") -> None:
        with self._lock:
            self._value += other.value


class Gauge(_Scalar):
    """A point-in-time value. A callback gauge is sampled at snapshot/export
    time — the natural shape for queue depths and backlogs."""

    __slots__ = ()

    def set(self, value: float) -> None:
        with self._lock:
            self._fn = None
            self._value = float(value)

    def add(self, amount: float) -> None:
        with self._lock:
            self._value += amount

    def merge(self, other: "Gauge") -> None:
        # Merging gauges sums them: queue depths and backlogs across shards
        # add; for averages, export the underlying counters instead.
        with self._lock:
            self._fn = None
            self._value = self.value + other.value


class Histogram:
    """A log-bucketed distribution with bounded memory and exact merges.

    Values are assigned to geometric buckets: bucket ``i`` covers
    ``(min_value * growth**i, min_value * growth**(i+1)]``, with one
    underflow bucket for values ``<= min_value``. A quantile estimate is the
    upper bound of the bucket holding that rank, so it is always within one
    bucket's relative error (a factor of ``growth``) above the exact sample
    quantile.

    Args:
        name: metric name (exported as ``<name>`` with ``_bucket`` series).
        help: one-line description for the Prometheus ``# HELP`` header.
        growth: per-bucket geometric growth factor (> 1). The default 1.2
            gives <= 20% relative error on every quantile.
        min_value: the underflow boundary; values at or below it land in the
            underflow bucket and are estimated as ``min_value``.
    """

    __slots__ = (
        "name", "help", "labels", "growth", "min_value",
        "_log_growth", "_buckets", "count", "total", "min", "max", "_lock",
    )

    def __init__(
        self,
        name: str,
        help: str = "",
        growth: float = 1.2,
        min_value: float = 1e-9,
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        if growth <= 1.0:
            raise ValueError("growth must exceed 1.0")
        if min_value <= 0.0:
            raise ValueError("min_value must be positive")
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self.growth = growth
        self.min_value = min_value
        self._log_growth = math.log(growth)
        self._buckets: Dict[int, int] = {}  # bucket index -> count (sparse)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------------

    def _index(self, value: float) -> int:
        if value <= self.min_value:
            return -1  # underflow bucket
        # ceil(log_g(v / min)) - 1: the bucket whose upper bound first
        # reaches v. Guard against float noise putting v in the bucket above.
        idx = int(math.ceil(math.log(value / self.min_value) / self._log_growth)) - 1
        if idx >= 0 and value <= self.min_value * self.growth ** idx:
            idx -= 1
        return max(idx, -1)

    def bucket_upper_bound(self, index: int) -> float:
        """The inclusive upper edge of bucket ``index``."""
        if index < 0:
            return self.min_value
        return self.min_value * self.growth ** (index + 1)

    def record(self, value: float) -> None:
        """Add one observation (negative values clamp to the underflow)."""
        value = float(value)
        idx = self._index(value)
        with self._lock:
            self._buckets[idx] = self._buckets.get(idx, 0) + 1
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    # -- reading -------------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0 < q <= 1) from the buckets.

        Returns the upper bound of the bucket containing the sample of rank
        ``ceil(q * count)`` — an overestimate by at most a factor of
        ``growth``. Returns 0.0 on an empty histogram.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError("q must be in (0, 1]")
        with self._lock:
            if self.count == 0:
                return 0.0
            rank = max(1, math.ceil(q * self.count))
            seen = 0
            for idx in sorted(self._buckets):
                seen += self._buckets[idx]
                if seen >= rank:
                    # Never report past the true extremes.
                    return min(self.bucket_upper_bound(idx), self.max)
            return self.max  # unreachable unless counts raced; be safe

    def percentiles(
        self, quantiles: Sequence[float] = DEFAULT_QUANTILES
    ) -> Dict[str, float]:
        """``{"p50": ..., "p99": ...}`` for the requested quantiles."""
        out = {}
        for q in quantiles:
            label = ("p%g" % (q * 100)).replace(".", "_")
            out[label] = self.quantile(q)
        return out

    def buckets(self) -> List[Tuple[float, int]]:
        """Sorted ``(upper_bound, count)`` pairs for the non-empty buckets."""
        with self._lock:
            return [
                (self.bucket_upper_bound(idx), self._buckets[idx])
                for idx in sorted(self._buckets)
            ]

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram in (must share growth/min_value)."""
        if (other.growth, other.min_value) != (self.growth, self.min_value):
            raise ValueError("cannot merge histograms with different bucketing")
        with other._lock:
            other_buckets = dict(other._buckets)
            other_count, other_total = other.count, other.total
            other_min, other_max = other.min, other.max
        with self._lock:
            for idx, n in other_buckets.items():
                self._buckets[idx] = self._buckets.get(idx, 0) + n
            self.count += other_count
            self.total += other_total
            self.min = min(self.min, other_min)
            self.max = max(self.max, other_max)

    def snapshot(self) -> dict:
        """A JSON-able summary (what the exporters serialize)."""
        summary = {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
            "buckets": [[ub, n] for ub, n in self.buckets()],
        }
        summary.update(self.percentiles())
        return summary


class MetricsRegistry:
    """A named collection of counters, gauges, and histograms.

    ``counter``/``gauge``/``histogram`` are get-or-create: instrumented code
    asks for its metric by name every time and pays one dict lookup, so no
    component needs registry-wiring ceremony. Metrics with the same name but
    different label sets are distinct series (Prometheus semantics).
    """

    def __init__(self, namespace: str = "repro") -> None:
        self.namespace = namespace
        self._metrics: Dict[tuple, object] = {}
        self._refresh_hooks: Dict[object, Callable[[], None]] = {}
        self._lock = threading.Lock()

    # -- refresh hooks ---------------------------------------------------------

    def add_refresh_hook(self, fn: Callable[[], object], key: Optional[object] = None) -> None:
        """Register ``fn`` to run at the start of every :meth:`scrape`.

        Components whose gauges are *pushed* (``.set()``) rather than
        function-backed register a hook so an idle process still reports
        current values at read time. A hook that caches a view for the
        scrape's callback series returns a callable, run when the scrape
        ends. Passing the same ``key`` again replaces the previous hook
        (idempotent re-attachment).
        """
        with self._lock:
            self._refresh_hooks[key if key is not None else fn] = fn

    @contextlib.contextmanager
    def scrape(self) -> Iterator["MetricsRegistry"]:
        """One consistent read of the registry: run every refresh hook, let
        the caller read, then release what the hooks held for it (errors
        swallowed: exports must not die)."""
        with self._lock:
            hooks = list(self._refresh_hooks.values())
        releases = []
        try:
            for fn in hooks:
                try:
                    release = fn()
                except Exception:
                    continue
                if callable(release):
                    releases.append(release)
            yield self
        finally:
            for release in releases:
                release()

    def _get_or_create(self, kind: str, key: tuple, factory):
        with self._lock:
            existing = self._metrics.get(key)
            if existing is not None:
                return existing
            metric = factory()
            self._metrics[key] = metric
            return metric

    def counter(
        self, name: str, help: str = "", labels: Optional[Dict[str, str]] = None
    ) -> Counter:
        key = ("counter", name, _label_key(labels))
        return self._get_or_create(
            "counter", key, lambda: Counter(name, help, labels)
        )

    def gauge(
        self, name: str, help: str = "", labels: Optional[Dict[str, str]] = None
    ) -> Gauge:
        key = ("gauge", name, _label_key(labels))
        return self._get_or_create("gauge", key, lambda: Gauge(name, help, labels))

    def histogram(
        self,
        name: str,
        help: str = "",
        growth: float = 1.2,
        min_value: float = 1e-9,
        labels: Optional[Dict[str, str]] = None,
    ) -> Histogram:
        key = ("histogram", name, _label_key(labels))
        return self._get_or_create(
            "histogram",
            key,
            lambda: Histogram(name, help, growth, min_value, labels),
        )

    # -- iteration / snapshot ------------------------------------------------

    def counters(self) -> List[Counter]:
        return [m for m in self._iter() if isinstance(m, Counter)]

    def gauges(self) -> List[Gauge]:
        return [m for m in self._iter() if isinstance(m, Gauge)]

    def histograms(self) -> List[Histogram]:
        return [m for m in self._iter() if isinstance(m, Histogram)]

    def _iter(self) -> Iterable:
        with self._lock:
            return list(self._metrics.values())

    def snapshot(self) -> dict:
        """A JSON-able snapshot of every registered series (one scrape)."""

        with self.scrape():
            return {
                "namespace": self.namespace,
                "counters": {series_key(c): c.value for c in self.counters()},
                "gauges": {series_key(g): g.value for g in self.gauges()},
                "histograms": {series_key(h): h.snapshot() for h in self.histograms()},
            }

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one (cross-shard aggregation).

        Counters and gauges add; histograms merge bucket-wise. Series are
        matched by (kind, name, labels); unmatched series are copied in.
        """
        with other._lock:
            items = list(other._metrics.items())
        with other.scrape():
            for key, metric in items:
                kind = key[0]
                if kind == "counter":
                    self.counter(metric.name, metric.help, metric.labels).merge(metric)
                elif kind == "gauge":
                    self.gauge(metric.name, metric.help, metric.labels).merge(metric)
                else:
                    self.histogram(
                        metric.name, metric.help, metric.growth,
                        metric.min_value, metric.labels,
                    ).merge(metric)


def merge_registries(
    registries: Sequence[MetricsRegistry], namespace: str = "repro"
) -> MetricsRegistry:
    """A fresh registry holding the sum of ``registries`` (shards in, one out)."""
    merged = MetricsRegistry(namespace=namespace)
    for registry in registries:
        merged.merge(registry)
    return merged
