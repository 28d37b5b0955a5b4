r"""Fixed-interval ring-buffer time series for continuous telemetry.

Everything the service exposed so far is either one request (a span
tree, a slow-log line) or a since-boot aggregate (counters, histogram
totals).  Neither can answer "what was the error rate over the last
five minutes" — the question every SLO, dashboard, and straggler
detector actually asks.  This module adds that middle timescale: each
series is a fixed ring of per-tick buckets (one tick = ``interval``
seconds), so memory is bounded at construction time and a windowed
read is a single pass over at most ``capacity`` slots.

Design constraints, shared with the rest of :mod:`repro.obs`:

- **stdlib-only, no background threads.**  Ticks advance lazily:
  every write stamps its slot with the current tick number and resets
  the slot if the stamp is stale.  Reads simply ignore slots whose
  stamp falls outside the requested window.  Nothing ever needs to
  "expire" data on a timer, which keeps the module fork-safe — a
  forked child inherits plain lists and a lock, never a thread.
- **bounded memory.**  A series never holds more than ``capacity``
  slots, regardless of traffic or uptime.
- **deterministic tests.**  Every mutating and reading method takes
  an optional ``now`` (seconds, monotonic); production callers omit
  it, tests pass explicit timestamps and never sleep.

Two series kinds live here; windowed latency is a read over the
shared :class:`~repro.obs.histogram.Histogram`:

- :class:`RollingCounter` — monotone events per tick (requests,
  errors, SLO good/bad events); windowed ``total`` and ``rate``.
- :class:`RollingGauge` — last-write-wins samples per tick (queue
  depth); windowed ``mean`` / ``max`` and the latest sample.

:class:`TimeSeriesStore` is the named registry ``ServiceMetrics``
owns; its :meth:`~TimeSeriesStore.histogram` hands out ring-carrying
:class:`~repro.obs.histogram.Histogram` objects, and its
:meth:`~TimeSeriesStore.window_snapshot` is the substrate for
``/statusz``, ``repro top`` and ``repro obs report``.
"""

from __future__ import annotations

import threading
import time

from repro.obs.histogram import (
    DEFAULT_BUCKETS,
    Histogram,
    bucket_quantile,
    tick_window,
)

__all__ = ["RollingCounter", "RollingGauge", "TimeSeriesStore"]


class _Series:
    """Shared ring mechanics: tick arithmetic and slot recycling."""

    def __init__(self, interval: float, capacity: int):
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        if capacity < 2:
            raise ValueError(f"capacity must be >= 2, got {capacity}")
        self.interval = float(interval)
        self.capacity = int(capacity)
        # None marks a never-written slot; a numeric sentinel would
        # alias a real tick when a window reaches back that far
        self._ticks: list[int | None] = [None] * self.capacity
        self._lock = threading.Lock()

    def span_seconds(self) -> float:
        """Longest window this series can answer for."""
        return self.interval * self.capacity

    def _tick(self, now: float | None) -> int:
        return int((now if now is not None else time.monotonic())
                   // self.interval)

    def _live_slots(self, window_s: float, now: float | None):
        """Yield slot indexes whose stamp lies inside the window.

        The caller must hold ``self._lock``; the window arithmetic is
        :func:`~repro.obs.histogram.tick_window`.
        """
        first, current = tick_window(self.interval, self.capacity,
                                     window_s, now)
        for slot, stamp in enumerate(self._ticks):
            if stamp is not None and first <= stamp <= current:
                yield slot


class RollingCounter(_Series):
    """Windowed event counter: one float accumulator per tick."""

    def __init__(self, interval: float = 1.0, capacity: int = 360):
        super().__init__(interval, capacity)
        self._values = [0.0] * self.capacity

    def add(self, value: float = 1.0, now: float | None = None) -> None:
        tick = self._tick(now)
        slot = tick % self.capacity
        with self._lock:
            if self._ticks[slot] != tick:
                self._ticks[slot] = tick
                self._values[slot] = 0.0
            self._values[slot] += value

    def total(self, window_s: float, now: float | None = None) -> float:
        """Sum of events recorded within the trailing window."""
        with self._lock:
            return sum(self._values[slot]
                       for slot in self._live_slots(window_s, now))

    def rate(self, window_s: float, now: float | None = None) -> float:
        """Events per second over the trailing window."""
        window_s = float(window_s)
        if window_s <= 0:
            return 0.0
        return self.total(window_s, now) / window_s


class RollingGauge(_Series):
    """Windowed sampled value: last write wins within a tick."""

    def __init__(self, interval: float = 1.0, capacity: int = 360):
        super().__init__(interval, capacity)
        self._values = [0.0] * self.capacity
        self._latest = 0.0
        self._seen = False

    def set(self, value: float, now: float | None = None) -> None:
        tick = self._tick(now)
        slot = tick % self.capacity
        with self._lock:
            self._ticks[slot] = tick
            self._values[slot] = float(value)
            self._latest = float(value)
            self._seen = True

    def latest(self) -> float:
        """Most recent sample ever set (0.0 before the first)."""
        with self._lock:
            return self._latest

    def _window_values(self, window_s: float,
                       now: float | None) -> list[float]:
        with self._lock:
            return [self._values[slot]
                    for slot in self._live_slots(window_s, now)]

    def mean(self, window_s: float, now: float | None = None) -> float:
        values = self._window_values(window_s, now)
        return sum(values) / len(values) if values else 0.0

    def max(self, window_s: float, now: float | None = None) -> float:
        values = self._window_values(window_s, now)
        return max(values) if values else 0.0


class TimeSeriesStore:
    """Named registry of rolling series with one clock and layout.

    ``counter`` / ``gauge`` / ``histogram`` create on first use and
    return the same object thereafter (create-or-get, like Prometheus
    client registries), so call sites never coordinate registration.
    """

    def __init__(self, interval: float = 1.0, capacity: int = 360,
                 bounds: tuple[float, ...] = DEFAULT_BUCKETS):
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        if capacity < 2:
            raise ValueError(f"capacity must be >= 2, got {capacity}")
        self.interval = float(interval)
        self.capacity = int(capacity)
        self.bounds = tuple(bounds)
        self._lock = threading.Lock()
        self._counters: dict[str, RollingCounter] = {}
        self._gauges: dict[str, RollingGauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def span_seconds(self) -> float:
        return self.interval * self.capacity

    def counter(self, name: str) -> RollingCounter:
        with self._lock:
            series = self._counters.get(name)
            if series is None:
                series = RollingCounter(self.interval, self.capacity)
                self._counters[name] = series
            return series

    def gauge(self, name: str) -> RollingGauge:
        with self._lock:
            series = self._gauges.get(name)
            if series is None:
                series = RollingGauge(self.interval, self.capacity)
                self._gauges[name] = series
            return series

    def histogram(self, name: str) -> Histogram:
        """The ring-carrying histogram ``name`` (created on first use)."""
        with self._lock:
            series = self._histograms.get(name)
            if series is None:
                series = Histogram(self.bounds, interval=self.interval,
                                   capacity=self.capacity)
                self._histograms[name] = series
            return series

    def window_snapshot(self, window_s: float,
                        now: float | None = None) -> dict:
        """One JSON-ready view of every series over one window.

        Shape (stable; the ``/statusz`` endpoint and ``repro obs
        report`` both consume it)::

            {"window_seconds": w,
             "counters": {name: {"total": .., "rate": ..}},
             "gauges": {name: {"latest": .., "mean": .., "max": ..}},
             "histograms": {name: {"count": .., "p50": ..,
                                   "p95": .., "p99": ..}}}

        Histograms never observed since creation are left out, so a
        series appears once it has seen data, as counters do.
        """
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        window_s = float(window_s)
        return {
            "window_seconds": window_s,
            "counters": {
                name: {"total": series.total(window_s, now),
                       "rate": series.rate(window_s, now)}
                for name, series in sorted(counters.items())},
            "gauges": {
                name: {"latest": series.latest(),
                       "mean": series.mean(window_s, now),
                       "max": series.max(window_s, now)}
                for name, series in sorted(gauges.items())},
            "histograms": {
                name: _window_row(series, window_s, now)
                for name, series in sorted(histograms.items())
                if series.count()},
        }


def _window_row(series: Histogram, window_s: float,
                now: float | None) -> dict:
    counts, _ = series.counts(window_s, now)
    return {"count": sum(counts),
            "p50": bucket_quantile(series.bounds, counts, 0.50),
            "p95": bucket_quantile(series.bounds, counts, 0.95),
            "p99": bucket_quantile(series.bounds, counts, 0.99)}
