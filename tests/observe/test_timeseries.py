"""Time-series layer properties: ring bounds, delta/rate math, merging."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.observe import (
    MetricsRegistry,
    RingSeries,
    TimeSeriesSampler,
    observe_tree,
)
from tests.conftest import make_tree

_values = st.lists(
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False), min_size=0, max_size=40
)
_points = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=1e6, allow_nan=False),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    ),
    max_size=30,
)


class TestRingSeriesProperties:
    @given(_values, st.integers(min_value=1, max_value=16))
    def test_capacity_bounds_retention_keeping_newest(self, values, capacity):
        series = RingSeries("s", capacity=capacity)
        for i, v in enumerate(values):
            series.append(float(i), v)
        assert len(series) == min(len(values), capacity)
        assert series.values() == values[-capacity:]
        assert series.timestamps() == [float(i) for i in range(len(values))][-capacity:]

    @given(_values)
    def test_deltas_telescope_and_monotone_input_gives_nonnegative_deltas(self, values):
        series = RingSeries("s", capacity=64, kind="cumulative")
        running = 0.0
        for i, v in enumerate(values):
            running += abs(v)  # build a monotone cumulative total
            series.append(float(i), running)
        deltas = series.deltas()
        assert len(deltas) == max(0, len(series) - 1)
        assert all(d >= 0.0 for _, d in deltas)
        if deltas:
            total = sum(d for _, d in deltas)
            first, last = series.values()[0], series.values()[-1]
            assert math.isclose(total, last - first, rel_tol=1e-9, abs_tol=1e-6)

    @given(_values)
    def test_rates_are_deltas_over_dt_and_skip_zero_dt(self, values):
        series = RingSeries("s", capacity=64, kind="cumulative")
        for i, v in enumerate(values):
            series.append(2.0 * i, v)  # dt = 2s everywhere
        rates = series.rates()
        deltas = series.deltas()
        assert len(rates) == len(deltas)
        for (_, rate), (_, delta) in zip(rates, deltas):
            assert math.isclose(rate, delta / 2.0, rel_tol=1e-9, abs_tol=1e-9)
        # Same timestamp twice → that interval contributes no rate.
        dup = RingSeries("d", capacity=8, kind="cumulative")
        dup.append(1.0, 1.0)
        dup.append(1.0, 5.0)
        assert dup.rates() == []
        assert dup.last_rate() is None

    @given(_points, _points)
    def test_merge_is_commutative_ordered_and_bounded(self, left, right):
        a = RingSeries("m", capacity=16)
        b = RingSeries("m", capacity=16)
        for t, v in left:
            a.append(t, v)
        for t, v in right:
            b.append(t, v)
        ab, ba = a.merge(b), b.merge(a)
        assert ab.points() == ba.points()
        assert ab.points() == sorted(ab.points())
        assert len(ab) <= 16
        # The ring keeps the newest of the union when it overflows.
        union = sorted(a.points() + b.points())
        assert ab.points() == union[-16:]

    def test_as_dict_last_n_window(self):
        series = RingSeries("w", capacity=8, kind="cumulative")
        for i in range(6):
            series.append(float(i), float(i * i))
        full = series.as_dict()
        assert full["kind"] == "cumulative" and full["t"] == [0, 1, 2, 3, 4, 5]
        tail = series.as_dict(last_n=2)
        assert tail["t"] == [4.0, 5.0] and tail["v"] == [16.0, 25.0]

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            RingSeries("x", capacity=0)
        with pytest.raises(ValueError):
            RingSeries("x", kind="gauge")


class TestSampler:
    def test_scrape_classifies_registry_surfaces(self):
        registry = MetricsRegistry()
        registry.counter("ops_total", "").inc(5)
        registry.gauge("depth", "").set(3.0)
        registry.histogram("lat_seconds", "", min_value=1e-6).record(0.01)
        clock_value = [0.0]
        sampler = TimeSeriesSampler(registry, clock=lambda: clock_value[0])
        sampler.scrape()
        clock_value[0] = 1.0
        registry.counter("ops_total", "").inc(7)
        sampler.scrape()
        assert sampler.series("ops_total").kind == "cumulative"
        assert sampler.series("depth").kind == "level"
        assert sampler.series("lat_seconds_count").kind == "cumulative"
        assert sampler.rate("ops_total") == pytest.approx(7.0)
        assert sampler.last("depth") == 3.0
        assert sampler.samples == 2

    def test_one_timestamp_and_dead_callbacks_skipped(self):
        registry = MetricsRegistry()
        registry.gauge("a", "").set_function(lambda: 1.0)
        registry.gauge("bad", "").set_function(lambda: float("nan"))
        registry.gauge("dead", "").set_function(
            lambda: (_ for _ in ()).throw(RuntimeError("boom")))
        registry.counter("n", "").inc(3)
        sampler = TimeSeriesSampler(registry, clock=lambda: 42.0)
        flat = sampler.scrape()
        assert flat["a"] == 1.0
        assert sampler.names() == ["a", "n"]  # NaN and the raising callback skipped
        assert sampler.series("a").points() == [(42.0, 1.0)]
        assert sampler.series("n").points() == [(42.0, 3.0)]

    def test_engine_source_emits_ratios_and_per_level_series(self):
        tree = make_tree(buffer_bytes=2 << 10)
        registry = MetricsRegistry()
        observe_tree(tree, registry, sampling=0.0)
        sampler = TimeSeriesSampler(registry)
        for i in range(300):
            tree.put(f"key{i:05d}".encode(), b"v" * 64)
        sampler.scrape()
        for i in range(300):
            tree.get(f"key{i:05d}".encode())
            tree.get(f"absent{i:05d}".encode())
        sampler.scrape()
        hit_ratio = sampler.last("cache_hit_ratio")
        assert hit_ratio is not None and 0.0 <= hit_ratio <= 1.0
        assert sampler.last("read_fraction") == pytest.approx(1.0)
        assert 0.0 <= sampler.last("stall_fraction") <= 1.0
        level_fprs = [n for n in sampler.names()
                      if n.startswith("level") and n.endswith("_fpr")]
        assert level_fprs, "a flushed tree must report per-level FPR series"
        for name in level_fprs:
            assert 0.0 <= sampler.last(name) <= 1.0
        probed = [n for n in sampler.names() if n.endswith("_gets_probed")]
        assert probed and sampler.series(probed[0]).kind == "cumulative"
        assert sampler.rate("engine_gets") is not None
        assert sampler.rate("engine_gets") > 0
