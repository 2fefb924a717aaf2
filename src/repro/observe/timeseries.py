"""Time-series layer: fixed-capacity ring-buffer series scraped on an interval.

The :class:`TimeSeriesSampler` turns the point-in-time observability surface
(a :class:`~repro.observe.metrics.MetricsRegistry`, which carries an observed
engine's ``metrics_snapshot()``) into *history*: each :meth:`~TimeSeriesSampler.scrape`
appends one ``(t, value)`` point per series into a bounded :class:`RingSeries`,
so dashboards (``python -m repro stats --live``), the ``stats_history`` server
frame, and an online tuning daemon can all read rates and trends
instead of raw monotone totals.

Series come in two kinds. ``cumulative`` series (registry counters, histogram
``_count``/``_sum``, engine op totals) are stored raw and differentiated on
read — :meth:`RingSeries.deltas` / :meth:`RingSeries.rates`. ``level`` series
(gauges, derived ratios like cache hit ratio or stall fraction) are
point-in-time values read back as-is.

The scrape clock is injectable: pass the engine's simulated clock for
deterministic tests, or leave the wall default and call :meth:`start` for a
background thread that scrapes on a fixed wall interval.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple


class RingSeries:
    """One named series: a bounded ring of ``(timestamp, value)`` points.

    Args:
        name: the series key (registry series name, or a derived metric).
        capacity: points retained; appending past it evicts the oldest.
        kind: ``"cumulative"`` for monotone totals (rates derived on read)
            or ``"level"`` for point-in-time values.
    """

    __slots__ = ("name", "capacity", "kind", "_points")

    def __init__(self, name: str, capacity: int = 240, kind: str = "level") -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        if kind not in ("cumulative", "level"):
            raise ValueError("kind must be 'cumulative' or 'level'")
        self.name = name
        self.capacity = capacity
        self.kind = kind
        self._points: Deque[Tuple[float, float]] = deque(maxlen=capacity)

    def append(self, t: float, value: float) -> None:
        self._points.append((float(t), float(value)))

    def __len__(self) -> int:
        return len(self._points)

    def points(self) -> List[Tuple[float, float]]:
        """All retained ``(t, v)`` points, oldest first."""
        return list(self._points)

    def timestamps(self) -> List[float]:
        return [t for t, _ in self._points]

    def values(self) -> List[float]:
        return [v for _, v in self._points]

    def last(self) -> Optional[Tuple[float, float]]:
        return self._points[-1] if self._points else None

    def deltas(self) -> List[Tuple[float, float]]:
        """Successive differences: ``(t_i, v_i - v_{i-1})`` — length n-1."""
        pts = self.points()
        return [(t1, v1 - v0) for (_, v0), (t1, v1) in zip(pts, pts[1:])]

    def rates(self) -> List[Tuple[float, float]]:
        """Per-second rates ``(t_i, dv/dt)``; zero-dt intervals are skipped."""
        pts = self.points()
        out: List[Tuple[float, float]] = []
        for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
            dt = t1 - t0
            if dt > 0.0:
                out.append((t1, (v1 - v0) / dt))
        return out

    def last_rate(self) -> Optional[float]:
        rates = self.rates()
        return rates[-1][1] if rates else None

    def merge(self, other: "RingSeries") -> "RingSeries":
        """A new series holding both point sets, time-ordered, same bound.

        Points are sorted by ``(t, v)`` so the merge is deterministic and
        commutative; appending the sorted union through the ring keeps the
        *newest* points when the union exceeds capacity.
        """
        merged = RingSeries(self.name, capacity=self.capacity, kind=self.kind)
        for t, v in sorted(self.points() + other.points()):
            merged.append(t, v)
        return merged

    def as_dict(self, last_n: Optional[int] = None) -> dict:
        pts = self.points()
        if last_n is not None:
            pts = pts[-last_n:] if last_n > 0 else []
        return {
            "name": self.name,
            "kind": self.kind,
            "capacity": self.capacity,
            "t": [t for t, _ in pts],
            "v": [v for _, v in pts],
        }


class TimeSeriesSampler:
    """Scrapes a registry into :class:`RingSeries`.

    Every :meth:`scrape` reads, under one timestamp:

    * registry **counters** → cumulative series (per labeled series key);
    * registry **gauges** → level series (function-backed gauges and refresh
      hooks run at scrape time, so an idle process reports truthful values);
    * registry **histograms** → ``<key>_count`` / ``<key>_sum`` cumulative
      series (rate of ``_sum``/rate of ``_count`` = rolling mean latency);
    * when the registry carries an engine's series
      (:class:`~repro.observe.engine.EngineView`), the interval ratios
      derived from them (:meth:`_engine_ratios`).

    Anything else worth a history is a callback gauge on the registry.

    Args:
        registry: the registry to scrape.
        capacity: ring capacity for every series created by this sampler.
        clock: timestamp source (wall by default; inject simulated time).
    """

    def __init__(self, registry, capacity: int = 240,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.registry = registry
        self.capacity = capacity
        self.clock = clock
        self._series: Dict[str, RingSeries] = {}
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self.samples = 0

    # -- sampling --------------------------------------------------------------

    def _record(self, name: str, t: float, value, cumulative: bool) -> None:
        try:
            value = float(value)
        except (TypeError, ValueError):
            return
        if value != value:  # skip NaN (dead function gauges)
            return
        series = self._series.get(name)
        if series is None:
            series = RingSeries(
                name, capacity=self.capacity,
                kind="cumulative" if cumulative else "level",
            )
            self._series[name] = series
        series.append(t, value)

    def scrape(self) -> Dict[str, float]:
        """Take one sample of everything; returns the flat values recorded."""
        t = self.clock()
        flat: Dict[str, Tuple[float, bool]] = {}
        snap = self.registry.snapshot()  # runs refresh hooks + function gauges
        for key, value in snap["counters"].items():
            flat[key] = (value, True)
        for key, value in snap["gauges"].items():
            flat[key] = (value, False)
        for key, hist in snap["histograms"].items():
            flat[f"{key}_count"] = (hist["count"], True)
            flat[f"{key}_sum"] = (hist["sum"], True)
        if "engine_cache_lookups" in flat:  # an EngineView feeds this registry
            flat.update(self._engine_ratios(flat, t))
        with self._lock:
            for name, (value, cumulative) in flat.items():
                self._record(name, t, value, cumulative)
            self.samples += 1
        return {name: value for name, (value, _) in flat.items()}

    def _engine_ratios(self, flat, t: float) -> Dict[str, Tuple[float, bool]]:
        """The engine's headline ratios over the interval since the last
        scrape, from deltas of series this sampler already holds:
        ``cache_hit_ratio``, ``stall_fraction``, ``read_fraction`` (the
        read/write mix) and per level ``level<N>_fpr``; plus the cumulative
        ``engine_gets`` and ``level<N>_gets_probed`` under the names
        dashboards read them by.
        """
        series = self._series

        def total(name: str) -> float:
            return float(flat.get(name, (0.0,))[0])

        def delta(name: str) -> float:
            last = series[name].last() if name in series else None
            return total(name) - (last[1] if last is not None else 0.0)

        def ratio(part: str, *rest: str) -> float:
            """Interval share of ``part`` in ``part + rest``; the lifetime
            share when nothing moved this interval."""
            for of in (delta, total):
                whole = sum(of(name) for name in (part, *rest))
                if whole > 0:
                    return of(part) / whole
            return 0.0

        last = series["gets_total"].last() if "gets_total" in series else None
        dt = t - last[0] if last is not None else 0.0
        ops = sum(delta(name) for name in ("gets_total", "engine_puts", "engine_deletes"))
        out = {
            "cache_hit_ratio": (ratio("engine_cache_hits", "engine_cache_misses"), False),
            "stall_fraction": (
                min(1.0, delta("engine_stall_time_wall") / dt) if dt > 0 else 0.0, False),
            "read_fraction": (delta("gets_total") / ops if ops > 0 else 0.0, False),
            "engine_gets": (total("gets_total"), True),
        }
        prefix = "level_gets_probed{level="
        for key in [key for key in flat if key.startswith(prefix)]:
            level = key[len(prefix):-1]
            out[f"level{level}_fpr"] = (ratio(
                f"level_false_positives{{level={level}}}",
                f"level_filter_negatives{{level={level}}}"), False)
            out[f"level{level}_gets_probed"] = (total(key), True)
        return out

    # -- background scraping ---------------------------------------------------

    def start(self, interval_s: float) -> None:
        """Scrape every ``interval_s`` seconds on a daemon thread."""
        if interval_s <= 0.0:
            raise ValueError("interval_s must be positive")
        if self._thread is not None:
            return
        self._stop.clear()

        def loop() -> None:
            while not self._stop.wait(interval_s):
                try:
                    self.scrape()
                except Exception:
                    continue  # a scrape must never kill the sampler

        self._thread = threading.Thread(target=loop, name="timeseries-sampler",
                                        daemon=True)
        self._thread.start()

    def stop(self) -> None:
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=5.0)
        self._thread = None

    # -- reading ---------------------------------------------------------------

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._series)

    def series(self, name: str) -> Optional[RingSeries]:
        with self._lock:
            return self._series.get(name)

    def last(self, name: str) -> Optional[float]:
        series = self.series(name)
        point = series.last() if series is not None else None
        return point[1] if point is not None else None

    def rate(self, name: str) -> Optional[float]:
        """Latest per-second rate of a cumulative series (None if <2 points)."""
        series = self.series(name)
        return series.last_rate() if series is not None else None

    def as_dict(self, last_n: Optional[int] = None) -> dict:
        """The full history, JSON-able (the ``stats_history`` frame payload)."""
        with self._lock:
            series = {name: rs.as_dict(last_n=last_n)
                      for name, rs in sorted(self._series.items())}
        return {
            "samples": self.samples,
            "capacity": self.capacity,
            "series": series,
        }
