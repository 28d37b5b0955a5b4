r"""Top-k and heavy-hitter PPR queries with adaptive forest sampling.

The paper's related work covers dedicated top-k engines (TopPPR [47])
and heavy-hitter queries ([45]); both reduce, on the forest machinery,
to *sequential* sampling: draw forests in batches, maintain per-node
running means and variances of the (improved) estimator, and stop as
soon as the answer set is statistically separated —

- :func:`top_k_single_source`: stop when the k-th largest estimate's
  lower confidence bound clears the (k+1)-th largest's upper bound;
- :func:`heavy_hitters`: stop when every node's confidence interval
  lies entirely above or below the threshold ``φ``.

Confidence intervals are normal-approximation ``z·σ̂/√N`` over the
i.i.d. per-forest estimates — the same empirical-variance idea behind
sequential A/B testing, here applicable because each forest yields an
independent full-vector observation.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from repro.core.config import PPRConfig
from repro.counters import WorkCounters
from repro.exceptions import ConfigError
from repro.forests.estimators import (
    source_estimate_basic,
    source_estimate_improved,
)
from repro.forests.sampling import sample_forest
from repro.graph.csr import Graph
from repro.push.forward import balanced_forward_push
from repro.rng import ensure_rng

__all__ = [
    "TopKResult",
    "TopKQueryResult",
    "BatchTopKSolver",
    "top_k_single_source",
    "heavy_hitters",
]


@dataclass
class TopKResult:
    """Outcome of an adaptive top-k / heavy-hitter query.

    Attributes
    ----------
    nodes:
        The answer set, sorted by descending estimate.
    estimates:
        Estimated PPR values parallel to ``nodes``.
    converged:
        Whether the statistical separation criterion was met before
        the forest budget ran out.
    num_forests:
        Forests actually sampled.
    stats:
        Push and sampling counters.
    """

    nodes: np.ndarray
    estimates: np.ndarray
    converged: bool
    num_forests: int
    stats: dict

    def as_pairs(self) -> list[tuple[int, float]]:
        """``[(node, estimate), ...]`` in rank order."""
        return [(int(node), float(value))
                for node, value in zip(self.nodes, self.estimates)]


@dataclass
class TopKQueryResult:
    """Serving-layer top-k answer: ranked prefix plus provenance.

    Unlike the library-level :class:`TopKResult`, this carries the
    query identity (``node``, ``k``, α, ε) so the cache, the HTTP
    layer, and the process-executor pipe can all treat it as a
    self-contained, picklable value.
    """

    node: int
    k: int
    nodes: np.ndarray
    estimates: np.ndarray
    converged: bool
    num_forests: int
    alpha: float
    epsilon: float
    stats: dict = field(default_factory=dict)

    def as_pairs(self) -> list[tuple[int, float]]:
        """``[(node, estimate), ...]`` in rank order."""
        return [(int(node), float(value))
                for node, value in zip(self.nodes, self.estimates)]

    def prefix(self, k: int) -> "TopKQueryResult":
        """This answer truncated to its first ``k`` ranks.

        The cache's prefix-dominance rule serves a ``k' <= k`` query
        from a stored depth-``k`` entry via this view; stats and
        provenance are shared, only the ranked arrays shrink.
        """
        if k > self.k:
            raise ConfigError(
                f"cannot extend a depth-{self.k} answer to k={k}")
        return TopKQueryResult(
            node=self.node, k=k, nodes=self.nodes[:k],
            estimates=self.estimates[:k], converged=self.converged,
            num_forests=self.num_forests, alpha=self.alpha,
            epsilon=self.epsilon, stats=self.stats)

    @property
    def work(self) -> WorkCounters:
        """Machine-independent work done (parsed from ``work_*`` stats)."""
        return WorkCounters.from_stats(self.stats)


class _SequentialEstimator:
    """Running mean/variance of per-forest estimate vectors."""

    def __init__(self, graph: Graph, source: int, config: PPRConfig):
        self.graph = graph
        self.config = config
        self.rng = ensure_rng(config.seed)
        self.improved = not graph.directed
        r_max = config.r_max or 1.0 / max(
            np.sqrt(config.walk_budget(graph)), 2.0)
        self.push = balanced_forward_push(graph, source, config.alpha,
                                          min(max(r_max, 1e-9), 1.0))
        self.r_max = r_max
        self.count = 0
        self.sum = np.zeros(graph.num_nodes)
        self.sum_squares = np.zeros(graph.num_nodes)
        self.steps = 0

    def draw(self, batch: int) -> None:
        """Sample ``batch`` more forests into the running moments."""
        degrees = self.graph.degrees
        for _ in range(batch):
            forest = sample_forest(self.graph, self.config.alpha,
                                   rng=self.rng)
            if self.improved:
                estimate = source_estimate_improved(
                    forest, self.push.residual, degrees)
            else:
                estimate = source_estimate_basic(forest, self.push.residual)
            self.sum += estimate
            self.sum_squares += estimate * estimate
            self.steps += forest.num_steps
            self.count += 1

    def mean(self) -> np.ndarray:
        """Current point estimate: reserve + Monte-Carlo mean."""
        return self.push.reserve + self.sum / self.count

    def half_width(self, z: float) -> np.ndarray:
        """Per-node confidence half-width ``z·σ̂/√N``."""
        mean_mc = self.sum / self.count
        variance = np.maximum(
            self.sum_squares / self.count - mean_mc * mean_mc, 0.0)
        return z * np.sqrt(variance / self.count)


def _prepare(graph: Graph, source: int, config: PPRConfig | None,
             overrides: dict) -> PPRConfig:
    if not 0 <= source < graph.num_nodes:
        raise ConfigError(f"source {source} out of range")
    config = config or PPRConfig()
    if overrides:
        config = config.with_overrides(**overrides)
    return config.resolve(graph)


def top_k_single_source(graph: Graph, source: int, k: int, *,
                        confidence: float = 0.95,
                        batch_size: int = 8,
                        max_forests: int = 512,
                        config: PPRConfig | None = None,
                        **overrides) -> TopKResult:
    """Adaptively find the ``k`` nodes with largest ``π(source, ·)``.

    Samples forests in batches of ``batch_size`` until the k-th and
    (k+1)-th ranked estimates' confidence intervals separate (or
    ``max_forests`` is hit; check ``result.converged``).
    """
    if k <= 0 or k >= graph.num_nodes:
        raise ConfigError("k must lie in [1, n)")
    if not 0.0 < confidence < 1.0:
        raise ConfigError("confidence must lie in (0, 1)")
    if batch_size <= 0 or max_forests < batch_size:
        raise ConfigError("need 0 < batch_size <= max_forests")
    config = _prepare(graph, source, config, overrides)
    z = float(ndtri(0.5 + confidence / 2.0))
    estimator = _SequentialEstimator(graph, source, config)

    converged = False
    while estimator.count < max_forests:
        estimator.draw(batch_size)
        means = estimator.mean()
        half = estimator.half_width(z)
        order = np.argsort(-means, kind="stable")
        kth, next_one = order[k - 1], order[k]
        if (means[kth] - half[kth]) > (means[next_one] + half[next_one]):
            converged = True
            break

    means = estimator.mean()
    order = np.argsort(-means, kind="stable")[:k]
    stats = {"num_pushes": estimator.push.num_pushes,
             "push_work": estimator.push.work,
             "forest_steps": estimator.steps,
             "r_max": estimator.r_max}
    return TopKResult(nodes=order, estimates=means[order],
                      converged=converged,
                      num_forests=estimator.count, stats=stats)


def heavy_hitters(graph: Graph, source: int, threshold: float, *,
                  confidence: float = 0.95,
                  batch_size: int = 8,
                  max_forests: int = 512,
                  config: PPRConfig | None = None,
                  **overrides) -> TopKResult:
    """All nodes with ``π(source, v) > threshold`` (the [45]-style query).

    Adaptive stopping: sampling continues until every node's confidence
    interval is entirely on one side of ``threshold``.
    """
    if threshold <= 0.0:
        raise ConfigError("threshold must be positive")
    if not 0.0 < confidence < 1.0:
        raise ConfigError("confidence must lie in (0, 1)")
    if batch_size <= 0 or max_forests < batch_size:
        raise ConfigError("need 0 < batch_size <= max_forests")
    config = _prepare(graph, source, config, overrides)
    z = float(ndtri(0.5 + confidence / 2.0))
    estimator = _SequentialEstimator(graph, source, config)

    converged = False
    while estimator.count < max_forests:
        estimator.draw(batch_size)
        means = estimator.mean()
        half = estimator.half_width(z)
        straddling = (means - half <= threshold) & (means + half > threshold)
        if not straddling.any():
            converged = True
            break

    means = estimator.mean()
    hitters = np.flatnonzero(means > threshold)
    hitters = hitters[np.argsort(-means[hitters], kind="stable")]
    stats = {"num_pushes": estimator.push.num_pushes,
             "push_work": estimator.push.work,
             "forest_steps": estimator.steps,
             "threshold": threshold,
             "r_max": estimator.r_max}
    return TopKResult(nodes=hitters, estimates=means[hitters],
                      converged=converged,
                      num_forests=estimator.count, stats=stats)


class _TopKState:
    """Per-query running moments over the shared forest stream."""

    __slots__ = ("node", "k", "push", "push_seconds", "sum", "sum_squares",
                 "done", "result")

    def __init__(self, node, k, push, push_seconds, num_nodes):
        self.node = node
        self.k = k
        self.push = push
        self.push_seconds = push_seconds
        self.sum = np.zeros(num_nodes)
        self.sum_squares = np.zeros(num_nodes)
        self.done = False
        self.result = None


class BatchTopKSolver:
    """Early-terminating top-k queries with a shared forest stream.

    A micro-batch of ``(node, k)`` items shares one deterministic
    forest stream (the RNG restarts from ``config.seed`` on every
    :meth:`run_items` call): forests are drawn in chunks of
    ``batch_draw``, each active query folds them into its running
    moments, and a query *freezes* its answer at the first checkpoint
    where the k-th and (k+1)-th ranked estimates' confidence intervals
    separate (:func:`top_k_single_source`'s rule).  Because the stream
    and the checkpoint grid are fixed, a query's answer depends only on
    ``(graph, config, node, k)`` — byte-identical for every batch
    composition and across thread/process executors — while queries
    that separate early stop paying estimator and sampling work, which
    is the measured ``walk_steps`` win over the full-budget path.

    ``early_stop=False`` disables the stopping rule (every query runs
    to ``max_forests``) — the matched-accuracy comparator the tier-1
    walk-step floor (``tests/test_work_budgets.py``) measures against.
    """

    def __init__(self, graph: Graph, *, config: PPRConfig | None = None,
                 confidence: float = 0.95, batch_draw: int = 8,
                 max_forests: int = 256, early_stop: bool = True,
                 **overrides):
        config = config or PPRConfig()
        if overrides:
            config = config.with_overrides(**overrides)
        self.config = config.resolve(graph)
        self.graph = graph
        if not 0.0 < confidence < 1.0:
            raise ConfigError("confidence must lie in (0, 1)")
        if batch_draw <= 0 or max_forests < batch_draw:
            raise ConfigError("need 0 < batch_draw <= max_forests")
        self.confidence = float(confidence)
        self.batch_draw = int(batch_draw)
        self.max_forests = int(max_forests)
        self.early_stop = bool(early_stop)
        self._improved = not graph.directed
        self._z = float(ndtri(0.5 + self.confidence / 2.0))
        self._closed = False
        self._queries_served = 0
        self._push_work = 0
        self._lock = threading.Lock()

    # -- lifecycle (mirrors the batch solvers) -------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def close(self) -> None:
        """Refuse further queries (idempotent; no bank to release)."""
        self._closed = True

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def stats(self) -> dict:
        """Lifecycle snapshot in the batch-solver shape."""
        with self._lock:
            served = self._queries_served
            push_work = self._push_work
        return {
            "num_forests": 0,
            "index_size_bytes": 0,
            "queries_served": served,
            "push_work": push_work,
            "push_work_per_query": push_work / served if served else 0.0,
            "owns_index": False,
            "closed": self._closed,
        }

    # ------------------------------------------------------------------
    def query_topk(self, node: int, k: int) -> TopKQueryResult:
        """One top-k query — exactly ``run_items([(node, k)])[0]``."""
        return self.run_items([(int(node), int(k))])[0]

    def run_items(self, items) -> list[TopKQueryResult]:
        """Answer ``[(node, k), ...]`` items over one forest stream."""
        if self._closed:
            raise ConfigError(
                f"{type(self).__name__} is closed; build a new solver")
        parsed = [(int(node), int(k)) for node, k in items]
        for node, k in parsed:
            if not 0 <= node < self.graph.num_nodes:
                raise ConfigError(f"source {node} out of range")
            if not 1 <= k < self.graph.num_nodes:
                raise ConfigError("k must lie in [1, n)")
        if not parsed:
            return []
        r_max = self.config.r_max or 1.0 / max(
            np.sqrt(self.config.walk_budget(self.graph)), 2.0)
        r_max = min(max(r_max, 1e-9), 1.0)
        states = []
        for node, k in parsed:
            t0 = time.perf_counter()
            push = balanced_forward_push(self.graph, node,
                                         self.config.alpha, r_max)
            states.append(_TopKState(node, k, push,
                                     time.perf_counter() - t0,
                                     self.graph.num_nodes))
        rng = ensure_rng(self.config.seed)
        degrees = self.graph.degrees
        drawn = 0
        walk_steps = 0
        cycle_pops = 0
        while drawn < self.max_forests and any(not s.done for s in states):
            chunk = min(self.batch_draw, self.max_forests - drawn)
            for _ in range(chunk):
                forest = sample_forest(self.graph, self.config.alpha,
                                       rng=rng)
                walk_steps += forest.num_steps
                cycle_pops += forest.num_pops
                for state in states:
                    if state.done:
                        continue
                    if self._improved:
                        estimate = source_estimate_improved(
                            forest, state.push.residual, degrees)
                    else:
                        estimate = source_estimate_basic(
                            forest, state.push.residual)
                    state.sum += estimate
                    state.sum_squares += estimate * estimate
            drawn += chunk
            for state in states:
                if state.done:
                    continue
                separated = self._separated(state, drawn)
                exhausted = drawn >= self.max_forests
                if (self.early_stop and separated) or exhausted:
                    self._freeze(state, drawn, walk_steps, cycle_pops,
                                 r_max, converged=separated,
                                 batch_size=len(parsed))
        return [state.result for state in states]

    # -- internals -----------------------------------------------------
    def _moments(self, state: _TopKState, count: int):
        means = state.push.reserve + state.sum / count
        mean_mc = state.sum / count
        variance = np.maximum(
            state.sum_squares / count - mean_mc * mean_mc, 0.0)
        half = self._z * np.sqrt(variance / count)
        return means, half

    def _separated(self, state: _TopKState, count: int) -> bool:
        means, half = self._moments(state, count)
        order = np.argsort(-means, kind="stable")
        kth, next_one = order[state.k - 1], order[state.k]
        return bool((means[kth] - half[kth])
                    > (means[next_one] + half[next_one]))

    def _freeze(self, state: _TopKState, count: int, walk_steps: int,
                cycle_pops: int, r_max: float, *, converged: bool,
                batch_size: int) -> None:
        means, _ = self._moments(state, count)
        order = np.argsort(-means, kind="stable")[:state.k]
        work = WorkCounters(walk_steps=int(walk_steps),
                            cycle_pops=int(cycle_pops),
                            forests_sampled=int(count))
        work.record_push(state.push)
        stats = {"r_max": r_max,
                 "num_pushes": state.push.num_pushes,
                 "push_work": state.push.work,
                 "push_seconds": state.push_seconds,
                 "confidence": self.confidence,
                 "batch_draw": self.batch_draw,
                 "max_forests": self.max_forests,
                 "early_stop": self.early_stop,
                 "batch_size": batch_size}
        stats.update(work.as_stats())
        state.result = TopKQueryResult(
            node=state.node, k=state.k, nodes=order,
            estimates=means[order], converged=converged,
            num_forests=count, alpha=self.config.alpha,
            epsilon=self.config.epsilon, stats=stats)
        state.done = True
        with self._lock:
            self._queries_served += 1
            self._push_work += int(state.push.num_pushes)
