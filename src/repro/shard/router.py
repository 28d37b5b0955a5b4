r"""Scatter-gather query routing across per-shard worker pools.

:class:`ShardRouter` presents the exact surface of a
:class:`~repro.service.executor.ProcessExecutor` — ``run_batch`` /
``start`` / ``shutdown`` / ``warm`` / ``stats`` / ``in_flight`` /
``utilization`` — over one *pool per shard*, so the micro-batch
scheduler plugs it in as its ``executor`` without knowing anything
about shards.  It is the only executor the service builds: flat
process serving is the one-shard case, whose single pool attaches the
whole-space bank and answers every batch whole.  With two or more
shards, per kind:

- **source / target / multiseed** scatter the identical batch to every
  shard.  Each shard's workers run the full deterministic push over
  the full graph (pushes are cheap; the fold is the expensive stage)
  and fold only their own output rows, returning
  :class:`~repro.shard.partial.ShardPartial` rows; the router
  reassembles full vectors by pure array placement — no floating-point
  arithmetic at merge time, so the merged estimates are bit-identical
  to the unsharded fold.
- **pair** items are grouped by the shard that owns each *source*
  (``estimate_target_entries`` gathers the source row, which only that
  shard's restriction carries) and dispatched concurrently; the
  complete :class:`~repro.core.result.PairResult` objects come back
  and are reassembled in request order.  Entry values are
  column-independent in the fold, so the per-group computation is
  bit-identical to the one-batch computation.
- **topk** is affinity-routed whole to a single shard's pool, chosen
  deterministically from the first query node.  The top-k solver
  samples its own forest stream from the config seed and borrows no
  bank, so any pool answers it bit-identically — scattering it would
  *break* identity (per-shard partial top-k lists would come from
  per-shard forest streams).

Because every shard runs the identical push for the same request, the
merged result adopts shard 0's per-query stats verbatim — exactly the
unsharded values, keeping serialized responses byte-identical across
shard counts.  The genuinely duplicated per-shard work is reported
separately through the ``stats`` out-parameter (``per_shard``) and the
per-shard fold-latency histogram
(``repro_service_shard_fold_seconds``).
"""

from __future__ import annotations

import os
import statistics
import threading
from collections import deque

import numpy as np

from repro.core.result import PPRResult
from repro.exceptions import ConfigError
from repro.service.executor import ExecutorError, ProcessExecutor

__all__ = ["ShardRouter", "StragglerDetector"]

#: Test/ops hook: ``"<shard>:<seconds>[,<shard>:<seconds>...]"`` adds
#: synthetic fold time to the named shards *at recording time* (the
#: answers are untouched — only the observed latency moves), so a
#: deterministically slow shard can be forced without slowing tests.
SLOWDOWN_ENV = "REPRO_SHARD_SLOWDOWN"


#: A fold is flagged only if it also takes at least this multiple of the
#: window median, so a tight window (tiny MAD) cannot turn ordinary
#: scheduling jitter into a large robust z-score.  Millisecond folds
#: were measured jumping to 3-4x the median from scheduling alone on a
#: 2-vCPU host, hence the margin.
STRAGGLER_MIN_RATIO = 10.0

#: Scales a median absolute deviation to a standard deviation under
#: normal noise (1 / Φ⁻¹(3/4)).
MAD_TO_SIGMA = 1.4826


def _env_slowdowns() -> dict[int, float]:
    spec = os.environ.get(SLOWDOWN_ENV, "").strip()
    if not spec:
        return {}
    slowdowns: dict[int, float] = {}
    for part in spec.split(","):
        shard, _, seconds = part.partition(":")
        try:
            slowdowns[int(shard)] = float(seconds)
        except ValueError:
            continue
    return slowdowns


class StragglerDetector:
    """Flag shard folds far above the rolling cross-shard fold time.

    Keeps one bounded window of recent fold times across *all* shards
    (the peers a straggler is slow relative to) and flags a fold whose
    robust z-score — distance from the window median in units of the
    scaled median absolute deviation — exceeds ``z_threshold`` *and*
    which takes at least :data:`STRAGGLER_MIN_RATIO` times the window
    median.  Median and MAD ignore the odd slow warm-up fold that would
    inflate a mean/std baseline.  A ``min_samples`` guard keeps the
    first folds — when the window cannot yet estimate a distribution —
    from being flagged, and a floor on the sigma keeps near-constant
    fold times (MAD ≈ 0) from turning microsecond jitter into alerts.
    """

    def __init__(self, window: int = 128, min_samples: int = 8,
                 z_threshold: float = 3.0, min_sigma: float = 1e-4):
        if window < 2:
            raise ConfigError(f"window must be >= 2, got {window}")
        if min_samples < 2:
            raise ConfigError(
                f"min_samples must be >= 2, got {min_samples}")
        if z_threshold <= 0:
            raise ConfigError(
                f"z_threshold must be > 0, got {z_threshold}")
        self.window = int(window)
        self.min_samples = int(min_samples)
        self.z_threshold = float(z_threshold)
        self.min_sigma = float(min_sigma)
        self._samples: deque[float] = deque(maxlen=self.window)
        self._flagged: dict[int, int] = {}
        self._folds: dict[int, int] = {}
        self._last_z: dict[int, float] = {}
        self._lock = threading.Lock()

    def observe(self, shard: int, seconds: float) -> float | None:
        """Record one fold; returns its z-score when flagged else None.

        The z-score is computed against the window *before* the new
        sample joins it, so one slow fold cannot dilute the baseline
        it is judged against.
        """
        shard, seconds = int(shard), float(seconds)
        with self._lock:
            self._folds[shard] = self._folds.get(shard, 0) + 1
            z = None
            if len(self._samples) >= self.min_samples:
                median, sigma = self._robust_scale(self._samples)
                z = (seconds - median) / sigma
                self._last_z[shard] = z
            self._samples.append(seconds)
            if (z is not None and z >= self.z_threshold
                    and seconds >= STRAGGLER_MIN_RATIO * median):
                self._flagged[shard] = self._flagged.get(shard, 0) + 1
                return z
            return None

    def _robust_scale(self, samples) -> tuple[float, float]:
        """``(median, MAD-based sigma floored at min_sigma)``."""
        median = statistics.median(samples)
        mad = statistics.median(abs(value - median) for value in samples)
        return median, max(MAD_TO_SIGMA * mad, self.min_sigma)

    def stats(self) -> dict:
        """Window summary + per-shard fold/straggler counts."""
        with self._lock:
            samples = list(self._samples)
            flagged = dict(self._flagged)
            folds = dict(self._folds)
            last_z = dict(self._last_z)
        median, sigma = (self._robust_scale(samples) if samples
                         else (0.0, 0.0))
        return {
            "window": len(samples),
            "median_seconds": median,
            "sigma_seconds": sigma,
            "z_threshold": self.z_threshold,
            "per_shard": [
                {"shard": shard,
                 "folds": folds.get(shard, 0),
                 "straggler_folds": flagged.get(shard, 0),
                 "last_z": round(last_z.get(shard, 0.0), 3)}
                for shard in sorted(folds)],
        }


class ShardRouter:
    """One :class:`ProcessExecutor` per shard behind the executor API.

    Parameters
    ----------
    index_manager:
        The :class:`~repro.service.index_manager.IndexManager`; the
        router runs ``index_manager.shards`` pools.  With several
        shards each pool is pinned to its shard's restricted bank; the
        one pool of an unsharded manager attaches the whole-space bank.
    workers_per_shard:
        Pool size per shard (total workers = shards × this).
    max_in_flight / task_timeout:
        Forwarded to each per-shard pool.
    metrics:
        Optional :class:`~repro.service.metrics.ServiceMetrics`; each
        dispatch records its per-shard fold wall time into the
        ``repro_service_shard_fold_seconds`` histogram so shard
        imbalance is visible from ``/metrics``.
    """

    def __init__(self, index_manager, *, workers_per_shard: int = 1,
                 max_in_flight: int | None = None,
                 task_timeout: float = 120.0, metrics=None):
        self.index_manager = index_manager
        self.num_shards = index_manager.shards
        self.workers_per_shard = int(workers_per_shard)
        self.num_workers = self.num_shards * self.workers_per_shard
        self.task_timeout = float(task_timeout)
        self.metrics = metrics
        self.straggler_detector = StragglerDetector()
        self._slowdown_spec: str | None = None
        self._slowdown_map: dict[int, float] = {}
        self.executors = [
            ProcessExecutor(index_manager, workers=workers_per_shard,
                            max_in_flight=max_in_flight,
                            task_timeout=task_timeout,
                            shard=shard if self.num_shards > 1 else None)
            for shard in range(self.num_shards)]

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "ShardRouter":
        for executor in self.executors:
            executor.start()
        return self

    def shutdown(self, timeout: float = 5.0) -> None:
        for executor in self.executors:
            executor.shutdown(timeout=timeout)

    def __enter__(self) -> "ShardRouter":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def warm(self, graph: str, alpha: float | None = None,
             timeout: float = 30.0) -> int:
        """Warm every shard pool against its own bank, concurrently.

        Each pool's view is pinned to its shard, so the same
        ``(graph, alpha)`` spec warms shard-``k`` workers with the
        shard-``k`` bank and nothing else.  Returns the total
        completed warm-ups across all pools.
        """
        return sum(self._scatter([
            (shard, (lambda shard=shard: self.executors[shard].warm(
                graph, alpha, timeout)))
            for shard in range(self.num_shards)]).values())

    # -- scatter-gather ------------------------------------------------
    def _scatter(self, calls):
        """Run ``(shard, thunk)`` pairs concurrently; gather or raise.

        Returns ``{shard: value}``.  The first shard failure wins and
        is re-raised as :class:`ExecutorError` — the scheduler answers
        that by folding inline on the whole-space bank, so a single
        sick shard degrades throughput, never correctness.
        """
        if len(calls) == 1:
            shard, thunk = calls[0]
            return {shard: thunk()}
        results: dict[int, object] = {}
        errors: dict[int, BaseException] = {}
        lock = threading.Lock()

        def one(shard, thunk):
            try:
                value = thunk()
            except BaseException as error:  # noqa: BLE001 - re-raised
                with lock:
                    errors[shard] = error
            else:
                with lock:
                    results[shard] = value

        threads = [threading.Thread(target=one, args=call, daemon=True)
                   for call in calls]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            shard = min(errors)
            error = errors[shard]
            if isinstance(error, ExecutorError):
                raise ExecutorError(
                    f"shard {shard}: {error}") from error
            raise error
        return results

    def _slowdowns(self) -> dict[int, float]:
        """Current :data:`SLOWDOWN_ENV` map, re-read when it changes.

        Re-parsing on change (rather than once at construction) lets a
        test warm the straggler baseline with honest fold times and
        only then inject the slow shard — the realistic failure shape
        the z-score is designed for.
        """
        spec = os.environ.get(SLOWDOWN_ENV, "")
        if spec != self._slowdown_spec:
            self._slowdown_spec = spec
            self._slowdown_map = _env_slowdowns()
        return self._slowdown_map

    def _record_shard(self, per_shard: list[dict], stats: dict | None,
                      shard_stats: dict[int, dict]) -> None:
        """Fold per-shard extras into metrics and the stats out-param.

        With peer shards, each shard's fold time also feeds the
        straggler detector; a flagged fold lands in
        ``stats["stragglers"]`` (the scheduler annotates the
        scatter-gather dispatch span with it) and in the
        ``straggler_folds`` metric.  A lone shard has no peers to be
        slow against, so nothing is flagged.
        """
        stragglers: list[dict] = []
        for shard in sorted(shard_stats):
            extra = shard_stats[shard]
            fold = float(extra.get("fold_seconds", 0.0) or 0.0)
            fold += self._slowdowns().get(shard, 0.0)
            per_shard.append({"shard": shard, "fold_seconds": fold})
            z = (self.straggler_detector.observe(shard, fold)
                 if self.num_shards > 1 else None)
            if z is not None:
                stragglers.append({"shard": shard,
                                   "fold_seconds": fold,
                                   "z": round(z, 3)})
                if self.metrics is not None:
                    self.metrics.record_straggler(shard)
            if self.metrics is not None:
                self.metrics.record_shard_fold(shard, fold)
        if stats is not None:
            stats["per_shard"] = per_shard
            if stragglers:
                stats["stragglers"] = stragglers
            if per_shard:
                stats["fold_seconds"] = max(entry["fold_seconds"]
                                            for entry in per_shard)

    def run_batch(self, graph: str, kind: str, alpha: float,
                  epsilon: float, nodes, *,
                  pin: int | None = None,
                  timeout: float | None = None,
                  trace: bool = False,
                  stats: dict | None = None) -> list:
        """Scatter one batch across the shard pools and merge.

        Same contract as :meth:`ProcessExecutor.run_batch`; results are
        bit-identical to the unsharded executor for every kind.
        ``pin`` is ignored (each pool pins its own warm tasks).  One
        shard answers every batch whole.
        """
        items = list(nodes)
        if not items:
            return []
        if kind == "topk" or self.num_shards == 1:
            return self._run_affinity(graph, kind, alpha, epsilon, items,
                                      timeout=timeout, trace=trace,
                                      stats=stats)
        if kind == "pair":
            return self._run_pair(graph, kind, alpha, epsilon, items,
                                  timeout=timeout, trace=trace,
                                  stats=stats)
        return self._run_scatter(graph, kind, alpha, epsilon, items,
                                 timeout=timeout, trace=trace,
                                 stats=stats)

    def _run_scatter(self, graph, kind, alpha, epsilon, items, *,
                     timeout, trace, stats):
        """Full-vector kinds: every shard folds its own rows."""
        shard_map = self.index_manager.shard_map(graph)
        shard_stats: dict[int, dict] = {
            shard: {} for shard in range(self.num_shards)}
        gathered = self._scatter([
            (shard, (lambda shard=shard: self.executors[shard].run_batch(
                graph, kind, alpha, epsilon, items, timeout=timeout,
                trace=trace and shard == 0, stats=shard_stats[shard])))
            for shard in range(self.num_shards)])
        num_nodes = shard_map.num_nodes
        results = []
        for position in range(len(items)):
            estimates = np.empty(num_nodes, dtype=np.float64)
            for shard in range(self.num_shards):
                partial = gathered[shard][position]
                estimates[shard_map.local_nodes(shard)] = partial.estimates
            head = gathered[0][position]
            # every shard ran the identical push, so shard 0's stats
            # ARE the unsharded per-query stats — adopting them keeps
            # serialized responses byte-identical across shard counts
            results.append(PPRResult(
                estimates=estimates, kind=head.kind,
                query_node=head.query_node, method=head.method,
                alpha=head.alpha, epsilon=head.epsilon,
                stats=dict(head.stats)))
        self._record_shard([], stats, shard_stats)
        if stats is not None:
            stats["spans"] = shard_stats[0].get("spans")
        return results

    def _run_pair(self, graph, kind, alpha, epsilon, items, *,
                  timeout, trace, stats):
        """Pair items go to the shard owning each source, in parallel."""
        shard_map = self.index_manager.shard_map(graph)
        groups: dict[int, list[int]] = {}
        for position, (source, _target) in enumerate(items):
            shard = int(shard_map.shard_of[int(source)])
            groups.setdefault(shard, []).append(position)
        shard_stats: dict[int, dict] = {shard: {} for shard in groups}
        gathered = self._scatter([
            (shard, (lambda shard=shard, positions=positions:
                     self.executors[shard].run_batch(
                         graph, kind, alpha, epsilon,
                         [items[position] for position in positions],
                         timeout=timeout,
                         trace=trace and shard == min(groups),
                         stats=shard_stats[shard])))
            for shard, positions in sorted(groups.items())])
        results: list = [None] * len(items)
        for shard, positions in groups.items():
            for offset, position in enumerate(positions):
                results[position] = gathered[shard][offset]
        self._record_shard([], stats, shard_stats)
        if stats is not None:
            stats["spans"] = shard_stats[min(groups)].get("spans")
        return results

    def _run_affinity(self, graph, kind, alpha, epsilon, items, *,
                      timeout, trace, stats):
        """One pool answers the whole batch: the only pool, or for
        top-k (which borrows no bank, so every pool's answer is
        identical) the pool owning the first query node, which just
        spreads load deterministically."""
        shard = 0
        if self.num_shards > 1:
            shard_map = self.index_manager.shard_map(graph)
            shard = int(shard_map.shard_of[int(items[0][0])])
        shard_stats: dict[int, dict] = {shard: {}}
        gathered = self._scatter([
            (shard, lambda: self.executors[shard].run_batch(
                graph, kind, alpha, epsilon, items, timeout=timeout,
                trace=trace, stats=shard_stats[shard]))])
        self._record_shard([], stats, shard_stats)
        if stats is not None:
            stats["spans"] = shard_stats[shard].get("spans")
        return gathered[shard]

    # -- observability -------------------------------------------------
    @property
    def in_flight(self) -> int:
        return sum(executor.in_flight for executor in self.executors)

    def utilization(self) -> list[float]:
        return [fraction for executor in self.executors
                for fraction in executor.utilization()]

    def straggler_stats(self) -> dict:
        """The straggler detector's window + per-shard flag counts."""
        return self.straggler_detector.stats()

    def stats(self) -> dict:
        """Executor-shaped snapshot plus a per-shard breakdown.

        ``mode`` is ``"process"`` for one shard and ``"sharded"``
        otherwise; ``shard`` is ``None`` (the router as a whole serves
        the whole node space), as a flat pool reports it."""
        per_shard = [executor.stats() for executor in self.executors]
        return {
            "mode": "sharded" if self.num_shards > 1 else "process",
            "shard": None,
            "shards": self.num_shards,
            "workers": self.num_workers,
            "alive": [flag for entry in per_shard
                      for flag in entry["alive"]],
            "in_flight": sum(entry["in_flight"] for entry in per_shard),
            "tasks_done": [count for entry in per_shard
                           for count in entry["tasks_done"]],
            "respawns": sum(entry["respawns"] for entry in per_shard),
            "utilization": self.utilization(),
            "per_shard": per_shard,
            "stragglers": self.straggler_stats(),
            "pid": os.getpid(),
        }
