r"""Batch query solvers: amortise forests across many queries.

The crucial structural fact of the forest approach — the sampled
forests do not depend on the query node — means a bank of forests can
serve *every* source (or target) in a workload; only the cheap push
stage is per-query.  This is §5.3's index idea turned into a
batch-processing API:

- :class:`BatchSourceSolver` — many single-source queries, one forest
  bank (FORALV+/SPEEDLV+ semantics with an explicit lifecycle);
- :class:`BatchTargetSolver` — the single-target analogue (not in the
  paper, but an immediate corollary).

Both are thin, explicit wrappers over
:class:`~repro.montecarlo.forest_index.ForestIndex` plus the
appropriate push, returning ordinary
:class:`~repro.core.result.PPRResult` objects.

Lifecycle: a solver may be constructed around a pre-built, shared
``index=`` (the serving layer's :class:`~repro.service.IndexManager`
does this so one bank backs many solvers), used as a context manager,
and observed via :meth:`~_BatchSolverBase.stats` — bank size, queries
served, cumulative push work.  :meth:`~_BatchSolverBase.close`
releases an owned bank; a solver that merely borrowed an injected
index leaves it untouched.

Parallel pushes: a batch's pushes do not depend on one another, so
when ``config.workers`` allows it and the pushes are large enough
(:func:`push_pool_size`) they run on a persistent fork pool
(:class:`~repro.parallel.pool.ForkPool`), at most one per graph and
shared by every solver pushing on that graph.  The workers inherit the
graph through the fork and call the same
:func:`~repro.push.forward.balanced_forward_push` /
:func:`~repro.push.backward.backward_push`, and the results come back
in node order, so every answer is bit-identical to the serial loop.
The pool is forked at the first batch that needs it and stopped when
its last solver is closed or collected, or at interpreter exit.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
import weakref

import numpy as np

from repro.core.config import PPRConfig
from repro.core.result import PairResult, PPRResult
from repro.counters import WorkCounters
from repro.exceptions import ConfigError
from repro.forests.estimators import weighted_combine
from repro.graph.csr import Graph
from repro.montecarlo.forest_index import ForestIndex
from repro.parallel.engine import resolve_workers, usable_cpus
from repro.parallel.pool import ForkPool, PoolBroken, can_fork
from repro.push.backward import backward_push
from repro.shard.partial import ShardPartial
from repro.push.forward import balanced_forward_push
from repro.rng import ensure_rng

__all__ = [
    "BatchSourceSolver",
    "BatchTargetSolver",
    "BatchMultiSeedSolver",
    "BatchPairSolver",
    "normalize_seed_set",
    "push_pool_size",
    "PUSH_POOL_MIN_WORK",
    "PUSH_POOL_MIN_WORK_PER_NODE",
]

#: Mean edge traversals per push, per graph node, from which a batch's
#: pushes run on the pool: a worker ships each
#: :class:`~repro.push.forward.PushResult` back as two ``n``-vectors,
#: so the round trip grows with ``n`` and the gain with the work.
#: ``bench_push_crossover`` (youtube stand-in, n = 12,000, 2 vCPU,
#: pooled/serial medians of 5, three runs): 8- and 32-push batches won
#: from 12 per node in two runs (0.44–0.83×) but lost up to 1.58× at
#: 23–35 per node in the third, while the host's speed flipped; from
#: 80 per node every one won (0.41–0.60×).  2-push batches read
#: 0.60–1.90× below 40 per node and 0.90–1.03× at 83–87.  The
#: constant sits above every loss seen.
PUSH_POOL_MIN_WORK_PER_NODE = 60.0

#: Mean edge traversals per push below which a batch stays serial on
#: any graph: a round trip through a worker's pipe costs a fixed
#: ~0.2–0.3 ms, about 40,000 edge traversals, which only a push several
#: times that size earns back on half the batch.
PUSH_POOL_MIN_WORK = 200_000


def push_pool_size(workers: int | None, batch: int, mean_work: float,
                   num_nodes: int) -> int:
    """Pool workers a batch of ``batch`` pushes runs on; ``1`` means
    serially in the caller.

    ``mean_work`` is the expected :attr:`~repro.push.forward.PushResult.work`
    of one push (edge traversals, a machine-independent count).  The
    pool is used only when ``mean_work`` reaches both
    :data:`PUSH_POOL_MIN_WORK` and :data:`PUSH_POOL_MIN_WORK_PER_NODE`
    per node, and it never exceeds the request, the usable CPUs or the
    batch.
    """
    requested = resolve_workers(workers)
    if (mean_work < max(PUSH_POOL_MIN_WORK,
                        PUSH_POOL_MIN_WORK_PER_NODE * num_nodes)
            or not can_fork()):
        return 1
    return max(min(requested, usable_cpus(), batch), 1)


def _push_task(graph: Graph, task: tuple):
    """One push of a batch, timed where it runs: ``(push, seconds)``.

    ``task`` is ``(kind, node, alpha, r_max)``; a ``"source"`` push is
    the balanced forward push, anything else the backward push.
    """
    kind, node, alpha, r_max = task
    push_fn = balanced_forward_push if kind == "source" else backward_push
    started = time.perf_counter()
    push = push_fn(graph, node, alpha, r_max)
    return push, time.perf_counter() - started


_POOLS_LOCK = threading.Lock()
#: ``id(graph)`` → ``(pool, owner tokens)``: at most one push pool per
#: graph (the pool holds the graph, so the id cannot be reused)
_PUSH_POOLS: dict[int, tuple[ForkPool, set[int]]] = {}
_OWNER_TOKENS = itertools.count()


def _acquire_push_pool(graph: Graph, token: int) -> ForkPool:
    with _POOLS_LOCK:
        pool, owners = _PUSH_POOLS.get(id(graph), (None, set()))
        if pool is None or pool.closed:
            pool = ForkPool(functools.partial(_push_task, graph))
        owners.add(token)
        _PUSH_POOLS[id(graph)] = (pool, owners)
        return pool


def _release_push_pool(key: int, token: int) -> None:
    """Drop one owner; the last one out stops the pool."""
    with _POOLS_LOCK:
        pool, owners = _PUSH_POOLS.get(key, (None, set()))
        if token not in owners:
            return
        owners.discard(token)
        if owners:
            return
        del _PUSH_POOLS[key]
    pool.close()


def normalize_seed_set(seeds, weights, num_nodes: int) -> tuple[tuple[int, ...],
                                                                tuple[float, ...]]:
    """Validate and canonicalise one ``(seeds, weights)`` item.

    Seeds become a tuple of in-range ints; weights default to uniform
    and are normalised to sum to 1 (deterministically: ``w / w.sum()``),
    so every layer — solver, cache key, HTTP echo — agrees on one
    canonical personalization vector.
    """
    seeds = tuple(int(seed) for seed in seeds)
    if not seeds:
        raise ConfigError("seed set must not be empty")
    for seed in seeds:
        if not 0 <= seed < num_nodes:
            raise ConfigError(f"seed {seed} out of range")
    if weights is None:
        weights = np.full(len(seeds), 1.0 / len(seeds))
    else:
        weights = np.asarray(list(weights), dtype=np.float64)
        if weights.shape != (len(seeds),):
            raise ConfigError(
                f"need one weight per seed, got {weights.size} weights "
                f"for {len(seeds)} seeds")
        if not np.all(np.isfinite(weights)) or np.any(weights < 0):
            raise ConfigError("weights must be finite and non-negative")
        total = float(weights.sum())
        if total <= 0:
            raise ConfigError("weights must have positive sum")
        weights = weights / total
    return seeds, tuple(float(weight) for weight in weights)


class _BatchSolverBase:
    def __init__(self, graph: Graph, *, config: PPRConfig | None = None,
                 num_forests: int | None = None,
                 index: ForestIndex | None = None, **overrides):
        config = config or PPRConfig()
        if overrides:
            config = config.with_overrides(**overrides)
        self.config = config.resolve(graph)
        self.graph = graph
        self._improved = not graph.directed
        if index is not None:
            if index.graph.num_nodes != graph.num_nodes:
                raise ConfigError(
                    f"injected index was built for "
                    f"{index.graph.num_nodes} nodes, graph has "
                    f"{graph.num_nodes}")
            if abs(index.alpha - self.config.alpha) > 1e-12:
                raise ConfigError(
                    f"injected index was built for alpha={index.alpha}, "
                    f"config says alpha={self.config.alpha}")
            self.index = index
            self._owns_index = False
        else:
            if num_forests is None:
                num_forests = ForestIndex.recommended_size(
                    graph, self.config.epsilon)
            self.index = ForestIndex.build(graph, self.config.alpha,
                                           num_forests,
                                           rng=ensure_rng(self.config.seed))
            self._owns_index = True
        self._closed = False
        self._queries_served = 0
        self._push_work = 0
        self._push_edges = 0
        self._lock = threading.Lock()
        self._pool_release: weakref.finalize | None = None

    # -- lifecycle -----------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def close(self) -> None:
        """Drop the forest bank and refuse further queries.

        Idempotent.  An owned bank is freed with the last reference; an
        injected ``index=`` stays valid for every other solver
        borrowing it.  The push pool stops unless another open solver
        on the same graph still uses it.
        """
        if self._closed:
            return
        self._closed = True
        self.index = None  # type: ignore[assignment]
        if self._pool_release is not None:
            self._pool_release()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def stats(self) -> dict:
        """Point-in-time lifecycle snapshot for monitoring.

        Keys: ``num_forests`` / ``index_size_bytes`` (bank footprint),
        ``queries_served``, ``push_work`` (cumulative push operations),
        ``push_work_per_query`` (mean), ``owns_index``, ``closed``.
        """
        with self._lock:
            served = self._queries_served
            push_work = self._push_work
        return {
            "num_forests": 0 if self._closed else self.index.num_forests,
            "index_size_bytes": 0 if self._closed else self.index.size_bytes,
            "queries_served": served,
            "push_work": push_work,
            "push_work_per_query": push_work / served if served else 0.0,
            "owns_index": self._owns_index,
            "closed": self._closed,
        }

    def run_items(self, items) -> list:
        """Uniform micro-batch entry point used by the serving layer.

        Every batch solver answers a sequence of kind-specific items
        (plain node ids here; ``(seeds, weights)`` / ``(node, k)`` /
        ``(source, target)`` tuples for the richer kinds) through this
        one method, so the scheduler and the process-executor workers
        need no per-kind dispatch.
        """
        return self.query_many(items)

    # -- internals -----------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise ConfigError(
                f"{type(self).__name__} is closed; build a new solver")

    def _record_query(self, push) -> None:
        with self._lock:
            self._queries_served += 1
            self._push_work += int(push.num_pushes)
            self._push_edges += int(push.work)

    def _push_pool(self) -> ForkPool:
        """The graph's shared push pool, this solver registered as an
        owner until :meth:`close` or its collection."""
        with self._lock:
            if self._pool_release is None:
                self._pool_token = next(_OWNER_TOKENS)
                self._pool_release = weakref.finalize(
                    self, _release_push_pool, id(self.graph),
                    self._pool_token)
        return _acquire_push_pool(self.graph, self._pool_token)

    def _push_all(self, kind: str, nodes: list[int],
                  r_max: float) -> list[tuple]:
        """Every push of a batch, ``(push, seconds)`` in node order.

        The size decision (:func:`push_pool_size`) reads the mean work
        of this solver's earlier pushes; before its first query, the
        batch's first push runs here and stands in for them.  Where a
        push runs changes nothing in its result.
        """
        tasks = [(kind, node, self.config.alpha, r_max) for node in nodes]
        done = []
        with self._lock:
            served, edges = self._queries_served, self._push_edges
        if not served:
            done.append(_push_task(self.graph, tasks[0]))
            served, edges = 1, done[0][0].work
        rest = tasks[len(done):]
        processes = push_pool_size(self.config.workers, len(rest),
                                   edges / served, self.graph.num_nodes)
        if processes > 1:
            try:
                return done + self._push_pool().map(rest, processes)
            except PoolBroken:
                pass  # no worker, or one died: push the batch here
        return done + [_push_task(self.graph, task) for task in rest]

    @property
    def num_forests(self) -> int:
        """Size of the shared forest bank."""
        return self.index.num_forests

    def _default_r_max(self) -> float:
        self._check_open()
        budget = self.config.walk_budget(self.graph)
        tau_hat = max(self.index.build_steps / self.index.num_forests, 1.0)
        mean_degree = max(self.graph.average_degree, 1.0)
        return float(np.clip(
            np.sqrt(mean_degree / (self.config.alpha * budget * tau_hat)),
            1e-9, 1.0))

    def _target_r_max(self) -> float:
        """Backward-push threshold shared by the target and pair paths.

        Kept in one place so a pair query's push stage is bit-identical
        to the single-target solver's — the foundation of the
        ``pair == full-vector entry`` contract.
        """
        return self.config.r_max or max(
            self._default_r_max(),
            self.config.epsilon * self.config.mu / self.config.budget_scale)

    def _query_stats(self, push, r_max: float, push_seconds: float,
                     mc_seconds: float, batch_size: int) -> dict:
        work = WorkCounters()
        work.record_push(push)
        stats = {"r_max": r_max, "num_pushes": push.num_pushes,
                 "push_work": push.work, "push_seconds": push_seconds,
                 "mc_seconds": mc_seconds,
                 "index_forests": self.index.num_forests,
                 "batch_size": batch_size}
        stats.update(work.as_stats())
        return stats

    def _run_batch(self, nodes, label: str, r_max: float,
                   estimate_many, kind: str, method: str):
        """Shared push-then-batched-fold body of both ``query_many``."""
        self._check_open()
        nodes = [int(node) for node in nodes]
        for node in nodes:
            if not 0 <= node < self.graph.num_nodes:
                raise ConfigError(f"{label} {node} out of range")
        if not nodes:
            return []
        pushes, push_seconds = zip(*self._push_all(kind, nodes, r_max))
        t1 = time.perf_counter()
        residuals = np.stack([push.residual for push in pushes])
        mc = estimate_many(residuals, improved=self._improved)
        mc_seconds = (time.perf_counter() - t1) / len(nodes)
        local_nodes = getattr(self.index, "local_nodes", None)
        results = []
        for position, node in enumerate(nodes):
            push = pushes[position]
            self._record_query(push)
            stats = self._query_stats(push, r_max, push_seconds[position],
                                      mc_seconds, len(nodes))
            if local_nodes is None:
                results.append(PPRResult(
                    estimates=push.reserve + mc[position], kind=kind,
                    query_node=node, method=method,
                    alpha=self.config.alpha, epsilon=self.config.epsilon,
                    stats=stats))
            else:
                # restricted bank: the fold produced only this shard's
                # rows; slicing the reserve before the add matches
                # (reserve + mc_full)[local] bit for bit, so the
                # router's reassembly is pure placement
                results.append(ShardPartial(
                    estimates=push.reserve[local_nodes] + mc[position],
                    kind=kind, query_node=node, method=method,
                    alpha=self.config.alpha, epsilon=self.config.epsilon,
                    stats=stats))
        return results


class BatchSourceSolver(_BatchSolverBase):
    """Answer many single-source queries against one forest bank.

    Examples
    --------
    >>> import repro
    >>> from repro.core.batch import BatchSourceSolver
    >>> g = repro.load_dataset("youtube", scale=0.05)
    >>> with BatchSourceSolver(g, alpha=0.05, seed=1,
    ...                        budget_scale=0.05) as solver:
    ...     results = [solver.query(s) for s in (0, 1, 2)]
    >>> all(abs(r.total_mass - 1.0) < 0.3 for r in results)
    True
    >>> solver.stats()["queries_served"]
    3
    """

    def query(self, source: int) -> PPRResult:
        """``π(source, ·)`` via balanced forward push + the shared bank.

        Exactly ``query_many([source])[0]`` — single and micro-batched
        serving share one code path, so they are byte-identical.
        """
        return self.query_many([source])[0]

    def query_many(self, sources) -> list[PPRResult]:
        """Answer a micro-batch of single-source queries in one fold.

        The per-query pushes run individually (their cost is bounded by
        ``r_max``), then one batched estimator fold
        (:meth:`~repro.montecarlo.forest_index.ForestIndex.estimate_source_many`)
        amortises the per-forest segment work across the whole batch.
        Each returned :class:`~repro.core.result.PPRResult` is
        bit-identical to a standalone :meth:`query` for that source.
        """
        r_max = self.config.r_max or self._default_r_max()
        return self._run_batch(
            sources, "source", r_max, self.index.estimate_source_many,
            "source", "batch-source")


class BatchTargetSolver(_BatchSolverBase):
    """Answer many single-target queries against one forest bank."""

    def query(self, target: int) -> PPRResult:
        """``π(·, target)`` via backward push + the shared bank.

        Exactly ``query_many([target])[0]`` — see
        :meth:`BatchSourceSolver.query`.
        """
        return self.query_many([target])[0]

    def query_many(self, targets) -> list[PPRResult]:
        """Micro-batch of single-target queries in one estimator fold."""
        r_max = self._target_r_max()
        return self._run_batch(
            targets, "target", r_max, self.index.estimate_target_many,
            "target", "batch-target")


class BatchMultiSeedSolver(BatchSourceSolver):
    r"""Weighted seed-set personalization over one forest bank.

    ``π(w, ·) = Σ_i w_i · π(s_i, ·)`` by linearity of PPR in the
    personalization vector — and the forest estimators are linear in
    the residual, so the fold below (single-seed rows combined by
    :func:`~repro.forests.estimators.weighted_combine`) is *bit
    identical* to the weighted sum of the single-seed
    :meth:`~BatchSourceSolver.query` rows, not merely close.  A batch
    of seed-set items flattens every seed into one
    :meth:`~BatchSourceSolver.query_many` fold, so the per-forest
    segment work is still paid once per micro-batch.
    """

    def query_multiseed(self, seeds, weights=None) -> PPRResult:
        """One weighted seed-set query (``weights`` default uniform)."""
        return self.run_items([(tuple(seeds),
                                None if weights is None
                                else tuple(weights))])[0]

    def run_items(self, items) -> list[PPRResult]:
        """Answer ``[(seeds, weights), ...]`` items in one shared fold."""
        self._check_open()
        parsed = [normalize_seed_set(seeds, weights, self.graph.num_nodes)
                  for seeds, weights in items]
        if not parsed:
            return []
        flat = [seed for seeds, _ in parsed for seed in seeds]
        rows = self.query_many(flat)
        # sharded banks yield ShardPartial rows; weighted_combine is
        # elementwise, so combining the local rows equals the full
        # combination's local slice bit for bit
        result_cls = (ShardPartial if rows
                      and isinstance(rows[0], ShardPartial) else PPRResult)
        results = []
        position = 0
        for seeds, weights in parsed:
            chunk = rows[position:position + len(seeds)]
            position += len(seeds)
            estimates = weighted_combine(
                [row.estimates for row in chunk], weights)
            work = WorkCounters()
            for row in chunk:
                work.merge(row.stats)
            stats = {"num_seeds": len(seeds),
                     "seeds": list(seeds),
                     "weights": list(weights),
                     "batch_size": len(parsed),
                     "index_forests": self.index.num_forests}
            stats.update(work.as_stats())
            results.append(result_cls(
                estimates=estimates, kind="source", query_node=seeds[0],
                method="multiseed", alpha=self.config.alpha,
                epsilon=self.config.epsilon, stats=stats))
        return results


class BatchPairSolver(_BatchSolverBase):
    """Answer ``π(source, target)`` pair queries against one bank.

    Meet-in-the-middle: a backward push from each target (bounded by
    the same ``r_max`` as :class:`BatchTargetSolver`) leaves a reserve
    plus residual; the forest fold then gathers only the *source* row
    of each operator instead of spreading to all ``n`` nodes
    (:meth:`~repro.montecarlo.forest_index.ForestIndex.estimate_target_entries`),
    so the answer is bit-identical to
    ``BatchTargetSolver.query(target)[source]`` at roughly half the
    fold cost.
    """

    def query_pair(self, source: int, target: int) -> PairResult:
        """One ``π(source, target)`` scalar."""
        return self.run_items([(int(source), int(target))])[0]

    def run_items(self, items) -> list[PairResult]:
        """Answer ``[(source, target), ...]`` items in one gather fold."""
        self._check_open()
        pairs = [(int(source), int(target)) for source, target in items]
        for source, target in pairs:
            if not 0 <= source < self.graph.num_nodes:
                raise ConfigError(f"source {source} out of range")
            if not 0 <= target < self.graph.num_nodes:
                raise ConfigError(f"target {target} out of range")
        if not pairs:
            return []
        r_max = self._target_r_max()
        pushes, push_seconds = zip(*self._push_all(
            "target", [target for _, target in pairs], r_max))
        t1 = time.perf_counter()
        residuals = np.stack([push.residual for push in pushes])
        entries = np.array([source for source, _ in pairs], dtype=np.int64)
        mc = self.index.estimate_target_entries(residuals, entries,
                                                improved=self._improved)
        mc_seconds = (time.perf_counter() - t1) / len(pairs)
        results = []
        for position, (source, target) in enumerate(pairs):
            push = pushes[position]
            self._record_query(push)
            value = float(push.reserve[source] + mc[position])
            stats = self._query_stats(push, r_max, push_seconds[position],
                                      mc_seconds, len(pairs))
            stats["estimator"] = ("improved" if self._improved else "basic")
            results.append(PairResult(
                source=source, target=target, value=value,
                method="batch-pair", alpha=self.config.alpha,
                epsilon=self.config.epsilon, stats=stats))
        return results
