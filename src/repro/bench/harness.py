"""Timing and aggregation helpers for the experiment drivers."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Timer", "run_with_timing", "summarize"]


class Timer:
    """Context-manager wall-clock timer.

    >>> with Timer() as t:
    ...     _ = sum(range(1000))
    >>> t.seconds >= 0
    True
    """

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        self.seconds = 0.0
        return self

    def __exit__(self, *exc_info) -> None:
        self.seconds = time.perf_counter() - self._start


@dataclass
class QueryTimings:
    """Per-query seconds plus any work counters the runner recorded."""

    seconds: list[float] = field(default_factory=list)
    counters: dict[str, list[float]] = field(default_factory=dict)

    def add(self, seconds: float, counters: dict | None = None) -> None:
        """Record one query's wall clock and counters."""
        self.seconds.append(seconds)
        for key, value in (counters or {}).items():
            if isinstance(value, (int, float, np.integer, np.floating)):
                self.counters.setdefault(key, []).append(float(value))


def run_with_timing(func, queries, *args, **kwargs) -> QueryTimings:
    """Run ``func(query, *args, **kwargs)`` per query, timing each.

    If the result has a ``stats`` dict (a
    :class:`~repro.core.result.PPRResult`), its numeric entries are
    collected as counters.
    """
    timings = QueryTimings()
    for query in queries:
        started = time.perf_counter()
        result = func(query, *args, **kwargs)
        elapsed = time.perf_counter() - started
        timings.add(elapsed, getattr(result, "stats", None))
    return timings


def summarize(values) -> dict[str, float]:
    """Mean / median / min / max / std of a sequence of numbers."""
    array = np.asarray(list(values), dtype=np.float64)
    if array.size == 0:
        return {"mean": 0.0, "median": 0.0, "min": 0.0, "max": 0.0,
                "std": 0.0, "count": 0}
    return {
        "mean": float(array.mean()),
        "median": float(np.median(array)),
        "min": float(array.min()),
        "max": float(array.max()),
        "std": float(array.std()),
        "count": int(array.size),
    }
