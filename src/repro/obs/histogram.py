r"""Fixed-bucket histograms: one class behind every bucketed series.

Prometheus-style fixed-bucket histograms are additive (across threads,
scrapes, and restarts), recover any quantile to bucket resolution, and
make recording a bisect + increment.  :class:`Histogram` is the only
bucketed structure in the serving stack: end-to-end and per-tenant
latency, per-stage latency, per-shard fold time, and batch sizes.

Each histogram keeps since-boot bucket counts and sum.  Constructed
with a ``capacity``, it also keeps a ring of per-tick bucket counts
(one tick = ``interval`` seconds), so a rolling window ("p99 over the
last 60 s") is a read over the same object rather than a second
structure fed the same observations.  Histograms that are never read
through a window are built without a ring and allocate none.

One lock per histogram guards both the since-boot counts and the
ring; recording holds it for a few list increments.  Two functions
turn counts into numbers — :func:`bucket_quantile` and
:func:`cumulative_snapshot` — and every since-boot and windowed read
goes through them, so ``/metrics``, ``/statusz`` and the tenant and
shard tables agree on what "p99" means.

Latency bucket bounds are log-spaced (1–2.5–5 per decade) from 10 µs
to 10 s, matching the dynamic range between a cache hit and a
worst-case cold fold.  All ``le`` labels are rendered exactly as
Prometheus expects (cumulative, closed upper bounds, trailing
``+Inf``).
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left

__all__ = ["DEFAULT_BUCKETS", "STAGES", "Histogram", "bucket_quantile",
           "cumulative_snapshot", "exact_quantile", "format_le"]

#: Upper bucket bounds in seconds: 1–2.5–5 per decade, 10 µs … 10 s.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(
    round(mantissa * 10.0 ** exponent, 10)
    for exponent in range(-5, 1)
    for mantissa in (1.0, 2.5, 5.0)) + (10.0,)

#: The serving pipeline's instrumented stages, in pipeline order.
STAGES: tuple[str, ...] = ("admission", "cache_lookup", "batch_wait",
                           "dispatch", "fold", "merge", "serialize")


def format_le(bound: float) -> str:
    """Prometheus ``le`` label text for one finite bucket bound."""
    text = repr(float(bound))
    return text[:-2] if text.endswith(".0") else text


def exact_quantile(values, q: float) -> float:
    """Nearest-rank quantile of raw samples; ``0.0`` when empty.

    The one sample-based quantile used everywhere raw latencies are
    at hand (loadgen reports, slow-log summaries), so every surface
    agrees on what "p99" means.  Bucketed series use
    :func:`bucket_quantile` instead — same convention, one bucket of
    resolution.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    ordered = sorted(values)
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1,
                max(0, round(q * (len(ordered) - 1))))
    return float(ordered[index])


def bucket_quantile(bounds, counts, q: float) -> float:
    """Upper bound of the bucket holding the ``q``-quantile.

    ``counts`` holds one count per bound plus a trailing ``+Inf``
    overflow count.  Resolution is one bucket (≤ 2.5× for the latency
    layout); ``q = 0`` reports the lowest non-empty bucket, overflow
    observations report the largest finite bound, and an empty
    histogram reports ``0.0``.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    target = q * sum(counts)
    running = 0
    for bound, value in zip(bounds, counts):
        running += value
        if value and running >= target:
            return bound
    return bounds[-1] if counts[-1] else 0.0


def cumulative_snapshot(bounds, counts, total: float) -> dict:
    """``{"buckets": [(le, cumulative), ...], "sum": .., "count": ..}``

    Buckets are cumulative with a trailing ``("+Inf", count)`` entry,
    exactly the Prometheus histogram exposition shape.
    """
    cumulative: list[tuple[str, int]] = []
    running = 0
    for bound, value in zip(bounds, counts):
        running += value
        cumulative.append((format_le(bound), running))
    cumulative.append(("+Inf", running + counts[-1]))
    return {"buckets": cumulative, "sum": total,
            "count": running + counts[-1]}


def tick_window(interval: float, capacity: int, window_s: float,
                now: float | None) -> tuple[int, int]:
    """``(first, current)`` tick numbers a trailing window covers.

    A window of ``w`` seconds covers the current (partial) tick plus
    enough whole ticks to span ``w``, clamped to the ring capacity.
    ``now`` defaults to the monotonic clock.
    """
    current = int((time.monotonic() if now is None else now) // interval)
    ticks = min(capacity, max(1, -int(-float(window_s) // interval)))
    return current - ticks + 1, current


class Histogram:
    """Fixed-bucket histogram: since-boot counts plus an optional ring.

    ``observe`` is safe from any thread.  With ``capacity`` > 0 every
    observation also lands in the current tick's ring slot, and the
    reads (:meth:`counts`, :meth:`count`, :meth:`quantile`,
    :meth:`snapshot`) accept ``window_s`` to cover only the trailing
    window.  Ticks advance lazily — a write to a stale slot resets it,
    reads skip slots stamped outside the window — so there is no
    background thread and memory is bounded by ``capacity``.  Every
    method takes an optional ``now`` (monotonic seconds) so tests can
    drive the clock.
    """

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BUCKETS, *,
                 interval: float = 1.0, capacity: int = 0):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("bounds must be a non-empty ascending tuple")
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        if capacity == 1 or capacity < 0:
            raise ValueError(f"capacity must be 0 or >= 2, got {capacity}")
        self.bounds = tuple(bounds)
        self.interval = float(interval)
        self.capacity = int(capacity)
        self._counts = [0] * (len(self.bounds) + 1)  # trailing +Inf
        # 0 for integer bounds (batch sizes), 0.0 for latency bounds
        self._sum = self.bounds[0] * 0
        self._lock = threading.Lock()
        # ring slots are [tick, counts, sum], allocated on first write
        self._slots: list[list | None] = [None] * self.capacity

    def observe(self, value: float, now: float | None = None) -> None:
        """Record one observation (thread-safe)."""
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            if self.capacity:
                tick = int((time.monotonic() if now is None else now)
                           // self.interval)
                slot = self._slots[tick % self.capacity]
                if slot is None or slot[0] != tick:
                    slot = [tick, [0] * len(self._counts), 0.0]
                    self._slots[tick % self.capacity] = slot
                slot[1][index] += 1
                slot[2] += value

    def counts(self, window_s: float | None = None,
               now: float | None = None) -> tuple[list[int], float]:
        """Bucket counts (trailing ``+Inf`` included) and their sum.

        Since boot when ``window_s`` is ``None``; otherwise merged over
        the ring slots inside the trailing window, which needs a ring.
        """
        if window_s is None:
            with self._lock:
                return list(self._counts), self._sum
        if not self.capacity:
            raise ValueError("windowed reads need a histogram built "
                             "with capacity > 0")
        first, current = tick_window(self.interval, self.capacity,
                                     window_s, now)
        counts = [0] * len(self._counts)
        total = 0.0
        with self._lock:
            for slot in self._slots:
                if slot is not None and first <= slot[0] <= current:
                    for index, value in enumerate(slot[1]):
                        counts[index] += value
                    total += slot[2]
        return counts, total

    def count(self, window_s: float | None = None,
              now: float | None = None) -> int:
        """Number of observations (since boot or over the window)."""
        return sum(self.counts(window_s, now)[0])

    def quantile(self, q: float, window_s: float | None = None,
                 now: float | None = None) -> float:
        """Bucket-resolution ``q``-quantile, see :func:`bucket_quantile`."""
        return bucket_quantile(self.bounds, self.counts(window_s, now)[0],
                               q)

    def snapshot(self, window_s: float | None = None,
                 now: float | None = None) -> dict:
        """Prometheus-shaped cumulative view, see
        :func:`cumulative_snapshot`."""
        counts, total = self.counts(window_s, now)
        return cumulative_snapshot(self.bounds, counts, total)
