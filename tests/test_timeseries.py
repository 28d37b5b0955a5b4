"""Tests for the fixed-interval rolling time-series store.

Everything injects explicit ``now`` values, so the windowing
arithmetic is tested deterministically — no sleeps, no wall clock.
"""

import threading

import pytest

from repro.obs.histogram import Histogram
from repro.obs.timeseries import (
    RollingCounter,
    RollingGauge,
    TimeSeriesStore,
)


class TestRollingCounter:
    def test_total_over_window(self):
        counter = RollingCounter(interval=1.0, capacity=10)
        for tick in range(5):
            counter.add(2.0, now=float(tick))
        assert counter.total(5.0, now=4.0) == pytest.approx(10.0)
        # a 2 s window sees only the last two ticks
        assert counter.total(2.0, now=4.0) == pytest.approx(4.0)

    def test_rate_is_total_over_window(self):
        counter = RollingCounter(interval=1.0, capacity=10)
        for tick in range(4):
            counter.add(3.0, now=float(tick))
        assert counter.rate(4.0, now=3.0) == pytest.approx(3.0)

    def test_stale_slots_expire(self):
        counter = RollingCounter(interval=1.0, capacity=4)
        counter.add(5.0, now=0.0)
        # 100 ticks later the ring has wrapped many times over
        assert counter.total(4.0, now=100.0) == 0.0

    def test_slot_reset_on_wrap(self):
        counter = RollingCounter(interval=1.0, capacity=3)
        counter.add(1.0, now=0.0)
        counter.add(1.0, now=3.0)  # same slot as tick 0, must reset
        assert counter.total(1.0, now=3.0) == pytest.approx(1.0)
        assert counter.total(3.0, now=3.0) == pytest.approx(1.0)

    def test_window_longer_than_capacity_is_clamped(self):
        counter = RollingCounter(interval=1.0, capacity=4)
        for tick in range(8):
            counter.add(1.0, now=float(tick))
        # only capacity ticks of history exist
        assert counter.total(100.0, now=7.0) == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RollingCounter(interval=0.0)
        with pytest.raises(ValueError):
            RollingCounter(capacity=1)

    def test_empty(self):
        counter = RollingCounter()
        assert counter.total(60.0, now=10.0) == 0.0
        assert counter.rate(60.0, now=10.0) == 0.0

    def test_thread_safety_totals(self):
        counter = RollingCounter(interval=1.0, capacity=8)

        def work():
            for _ in range(500):
                counter.add(1.0, now=1.0)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.total(1.0, now=1.0) == pytest.approx(2000.0)


class TestRollingGauge:
    def test_latest_and_mean(self):
        gauge = RollingGauge(interval=1.0, capacity=10)
        gauge.set(1.0, now=0.0)
        gauge.set(3.0, now=1.0)
        gauge.set(5.0, now=2.0)
        assert gauge.latest() == pytest.approx(5.0)
        assert gauge.mean(10.0, now=2.0) == pytest.approx(3.0)
        assert gauge.max(10.0, now=2.0) == pytest.approx(5.0)

    def test_latest_within_tick_overwrites(self):
        gauge = RollingGauge(interval=1.0, capacity=10)
        gauge.set(1.0, now=0.1)
        gauge.set(9.0, now=0.9)
        assert gauge.latest() == pytest.approx(9.0)

    def test_empty_window(self):
        gauge = RollingGauge()
        assert gauge.latest() == 0.0
        assert gauge.mean(60.0, now=5.0) == 0.0
        assert gauge.max(60.0, now=5.0) == 0.0


class TestRollingHistogram:
    """Windowed reads over a ring-carrying :class:`Histogram`."""

    def test_quantiles_bucket_resolution(self):
        histogram = Histogram(interval=1.0, capacity=10)
        for _ in range(9):
            histogram.observe(0.004, now=1.0)
        histogram.observe(0.9, now=1.0)
        assert histogram.count(10.0, now=1.0) == 10
        # p50 lands in the bucket covering 4 ms; p99 in the slow tail
        assert histogram.quantile(0.50, 10.0, now=1.0) <= 0.01
        assert histogram.quantile(0.99, 10.0, now=1.0) >= 0.9

    def test_observations_expire(self):
        histogram = Histogram(interval=1.0, capacity=4)
        histogram.observe(0.1, now=0.0)
        assert histogram.count(4.0, now=0.0) == 1
        assert histogram.count(4.0, now=50.0) == 0
        assert histogram.quantile(0.5, 4.0, now=50.0) == 0.0
        # the since-boot read of the same object keeps it
        assert histogram.count() == 1

    def test_slot_reset_on_wrap(self):
        histogram = Histogram(interval=1.0, capacity=3)
        histogram.observe(0.1, now=0.0)
        histogram.observe(0.002, now=3.0)  # same slot as tick 0
        assert histogram.count(3.0, now=3.0) == 1
        assert histogram.quantile(0.5, 3.0, now=3.0) == 0.0025

    def test_quantile_zero_is_lowest_non_empty_bucket(self):
        histogram = Histogram(interval=1.0, capacity=4)
        histogram.observe(0.5, now=0.0)
        assert histogram.quantile(0.0, 4.0, now=0.0) == 0.5

    def test_snapshot_shape(self):
        histogram = Histogram(interval=1.0, capacity=4)
        histogram.observe(0.002, now=0.0)
        snapshot = histogram.snapshot(4.0, now=0.0)
        assert snapshot["count"] == 1
        les = [le for le, _ in snapshot["buckets"]]
        assert les[-1] == "+Inf"
        counts = [count for _, count in snapshot["buckets"]]
        assert counts == sorted(counts)  # cumulative
        assert counts[-1] == 1


class TestTimeSeriesStore:
    def test_create_or_get(self):
        store = TimeSeriesStore()
        assert store.counter("x") is store.counter("x")
        assert store.gauge("g") is store.gauge("g")
        assert store.histogram("h") is store.histogram("h")
        assert store.histogram("h").capacity == store.capacity

    def test_window_snapshot(self):
        store = TimeSeriesStore(interval=1.0, capacity=10)
        store.counter("requests").add(now=1.0)
        store.counter("requests").add(now=2.0)
        store.gauge("depth").set(3.0, now=2.0)
        store.histogram("latency").observe(0.01, now=2.0)
        snapshot = store.window_snapshot(10.0, now=2.0)
        assert snapshot["window_seconds"] == 10.0
        assert snapshot["counters"]["requests"]["total"] == 2.0
        assert snapshot["gauges"]["depth"]["latest"] == 3.0
        assert snapshot["histograms"]["latency"]["count"] == 1
        assert snapshot["histograms"]["latency"]["p99"] > 0.0
        # a histogram that never saw data is not listed
        store.histogram("idle")
        assert "idle" not in store.window_snapshot(10.0, now=2.0)[
            "histograms"]

    def test_bounded_memory(self):
        store = TimeSeriesStore(interval=1.0, capacity=16)
        counter = store.counter("c")
        for tick in range(10_000):
            counter.add(now=float(tick))
        # ring capacity bounds retained history regardless of volume
        assert counter.total(10_000.0, now=9_999.0) <= 16.0
