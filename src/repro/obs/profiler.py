r"""Opt-in sampling profiler dumping collapsed stacks for flamegraphs.

``--profile`` on ``repro serve`` turns this on; it is never active
otherwise, so the serving hot path pays nothing.

The sampler is thread-based rather than signal-based: a daemon thread
wakes every ``interval`` seconds and snapshots every live thread's
Python stack via ``sys._current_frames()``.  Signals (``SIGPROF`` /
``setitimer``) only interrupt the main thread and interact badly with
the forked executor workers — a thread sampler sees the scheduler
flush threads, the HTTP connection threads, and the executor's
dispatcher/collector/monitor alike, which is exactly the set of
threads whose time split we want.  The cost is sampling bias at very
short intervals; at the default 5 ms the GIL-scheduling error is well
under the stage durations being profiled.

Output is the *collapsed stack* format flamegraph tooling consumes
directly (``flamegraph.pl collapsed.txt > flame.svg``, or paste into
speedscope): one line per unique stack, frames root-first joined by
``;``, then a space and the sample count.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter

__all__ = ["SamplingProfiler"]


class SamplingProfiler:
    """Whole-process Python stack sampler (collapsed-stack output).

    Examples
    --------
    >>> profiler = SamplingProfiler(interval=0.001)
    >>> profiler.start()
    >>> sum(i * i for i in range(100_000)) > 0
    True
    >>> profiler.stop()
    >>> profiler.samples > 0
    True
    """

    def __init__(self, interval: float = 0.005):
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.interval = float(interval)
        self._stacks: Counter[str] = Counter()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.samples = 0

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "SamplingProfiler":
        """Begin sampling on a daemon thread; idempotent."""
        if self._thread is None or not self._thread.is_alive():
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop, name="ppr-profiler", daemon=True)
            self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        """Stop sampling (collected stacks are kept)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        return self

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- sampling ------------------------------------------------------
    def _loop(self) -> None:
        own_id = threading.get_ident()
        while not self._stop.wait(self.interval):
            frames = sys._current_frames()
            with self._lock:
                for thread_id, frame in frames.items():
                    if thread_id == own_id:
                        continue
                    self._stacks[_collapse(frame)] += 1
                    self.samples += 1

    # -- output --------------------------------------------------------
    def collapsed(self) -> list[str]:
        """``"frame;frame;frame count"`` lines, most sampled first."""
        with self._lock:
            ordered = sorted(self._stacks.items(),
                             key=lambda item: (-item[1], item[0]))
        return [f"{stack} {count}" for stack, count in ordered]

    def dump(self, path: str) -> int:
        """Write the collapsed stacks to ``path``; returns sample count."""
        lines = self.collapsed()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines))
            if lines:
                handle.write("\n")
        return self.samples


def _collapse(frame) -> str:
    """Root-first ``module.function`` frame chain for one stack."""
    parts: list[str] = []
    while frame is not None:
        code = frame.f_code
        module = frame.f_globals.get("__name__", "?")
        parts.append(f"{module}.{code.co_name}")
        frame = frame.f_back
    return ";".join(reversed(parts))
