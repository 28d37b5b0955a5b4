"""Chunked multi-process forest-sampling engine.

The Monte-Carlo stage of every two-stage algorithm draws ω independent
forests and folds each through an estimator — embarrassingly parallel
across forests.  This engine splits the batch into *chunks*, runs each
chunk in a forked worker process (which inherits the graph with the
rest of the pool's initial arguments: nothing is pickled but the
tasks), and merges the per-chunk accumulators in chunk order.

Determinism contract
--------------------
A fixed seed yields **bit-identical** results for any worker count:

- the chunk plan depends only on the sample count (never on the worker
  count or the host),
- each chunk gets its own child generator via
  :func:`repro.rng.spawn_children`, so chunk *c* consumes the same
  stream whether it runs in the parent or in any worker,
- per-chunk accumulators are merged in chunk-index order, fixing the
  floating-point summation order.

The serial path (``workers=1``, platforms without the ``fork`` start
method, a daemonic process, which may not fork, a single-chunk plan,
or a job below :data:`MIN_POOL_FOREST_NODES`) executes the identical per-chunk
closures in-process, so ``workers=1`` *is* the fallback, not a second
code path.

Never slower than serial
------------------------
A pool is forked per call, and forking, shipping the chunks back and
merging them costs a roughly fixed price that a small job does not
earn back.  :func:`pool_size` therefore caps the pool at the CPUs this
process may run on (workers beyond them only contend) and runs a job
serially when its forests × nodes, the work model of one sampling
chunk, is below :data:`MIN_POOL_FOREST_NODES`.  Both rules change only
where the chunks run, so the determinism contract is untouched.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field

import numpy as np

from repro.counters import WorkCounters
from repro.exceptions import ConfigError
from repro.forests.batch_sampling import sample_forests_batch
from repro.forests.estimators import accumulate_estimates
from repro.forests.forest import RootedForest
from repro.forests.sampling import sample_forests
from repro.graph.csr import Graph
from repro.parallel.pool import can_fork
from repro.rng import spawn_children

__all__ = ["plan_chunks", "resolve_workers", "usable_cpus", "pool_size",
           "sample_forests_parallel", "parallel_estimate_stage",
           "StageResult", "DEFAULT_CHUNK_SIZE", "STRATIFIED_CHUNK_SIZE",
           "MIN_POOL_FOREST_NODES"]

#: Forests per chunk when the caller does not override it.  Small
#: enough that ω ≥ 32 already load-balances over 4 workers, large
#: enough that per-task dispatch overhead stays negligible.
DEFAULT_CHUNK_SIZE = 8

#: Default chunk size under ``variance_mode="stratified"``.  The
#: Latin-hypercube coupling only acts *within* a chunk (chunks stay
#: independent so the plan remains worker-count-invariant), so wider
#: chunks realise more of the variance reduction; 32 layers recover
#: most of the asymptotic gain while still splitting ω ≥ 128 across
#: four workers.
STRATIFIED_CHUNK_SIZE = 32

#: Forests × nodes below which a job runs serially whatever ``workers``
#: asks for.  ``bench_engine_crossover`` (Chung–Lu graphs, α 0.1,
#: 2 vCPU, pooled/serial medians of 5): 2.99× at 64k (4,000 × 16),
#: 1.89× at 256k, 1.23–1.81× at 384k, 0.83–1.22× at 640k, 0.90–0.98×
#: at 768k, 0.89–1.06× at 1.28M and 0.79× at 3.84M.
MIN_POOL_FOREST_NODES = 1_000_000


def plan_chunks(count: int, chunk_size: int | None = None) -> list[int]:
    """Split ``count`` samples into deterministic chunk sizes.

    The plan is a pure function of ``count`` (and the explicit
    ``chunk_size``) — never of the worker count — which is what makes
    results worker-count-invariant.
    """
    if count < 0:
        raise ConfigError("count must be non-negative")
    size = DEFAULT_CHUNK_SIZE if chunk_size is None else int(chunk_size)
    if size <= 0:
        raise ConfigError("chunk_size must be positive")
    full, rest = divmod(count, size)
    return [size] * full + ([rest] if rest else [])


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the
    platform has one, else the cpu count)."""
    if hasattr(os, "sched_getaffinity"):
        return max(len(os.sched_getaffinity(0)), 1)
    return max(os.cpu_count() or 1, 1)


def resolve_workers(workers: int | None) -> int:
    """Normalise a worker-count request (``None``/``0`` → usable CPUs)."""
    if workers is None or workers == 0:
        return usable_cpus()
    if not isinstance(workers, (int, np.integer)) or workers < 1:
        raise ConfigError(f"workers must be a positive int, got {workers!r}")
    return int(workers)


def pool_size(workers: int | None, num_chunks: int,
              forest_nodes: int) -> int:
    """Processes a job of ``num_chunks`` chunks and ``forest_nodes``
    forests × nodes runs on; ``1`` means serially in the caller.

    The pool never exceeds the request, the chunk count or
    :func:`usable_cpus`, and a job below
    :data:`MIN_POOL_FOREST_NODES` stays serial.
    """
    requested = resolve_workers(workers)
    if forest_nodes < MIN_POOL_FOREST_NODES or not can_fork():
        return 1
    return max(min(requested, num_chunks, usable_cpus()), 1)


@dataclass
class StageResult:
    """Merged output of a chunked estimator stage."""

    sums: np.ndarray
    squares: np.ndarray | None
    drawn: int
    counters: WorkCounters = field(default_factory=WorkCounters)
    num_chunks: int = 0
    workers_used: int = 1

    @property
    def mean(self) -> np.ndarray:
        """Monte-Carlo mean estimate (zeros if nothing was drawn)."""
        if self.drawn == 0:
            return np.zeros_like(self.sums)
        return self.sums / self.drawn

    def stderr(self) -> np.ndarray | None:
        """Per-node standard error of the mean (needs ``squares``)."""
        if self.squares is None or self.drawn == 0:
            return None
        mean = self.mean
        variance = np.maximum(self.squares / self.drawn - mean * mean, 0.0)
        return np.sqrt(variance / self.drawn)


# ----------------------------------------------------------------------
# Worker plumbing.  The context travels through the fork, so the task
# payload is just (chunk_count, child_generator).
# ----------------------------------------------------------------------
_WORKER_CTX: dict = {}


def _init_worker(ctx: dict) -> None:
    _WORKER_CTX.clear()
    _WORKER_CTX.update(ctx)


def _run_sample_chunk(task) -> list[RootedForest]:
    chunk_count, generator = task
    ctx = _WORKER_CTX
    if ctx["batch"] or ctx.get("stratified"):
        return sample_forests_batch(ctx["graph"], ctx["alpha"], chunk_count,
                                    rng=generator,
                                    stratified=bool(ctx.get("stratified")))
    return list(sample_forests(ctx["graph"], ctx["alpha"], chunk_count,
                               rng=generator))


def _run_estimate_chunk(task) -> tuple[np.ndarray, np.ndarray | None,
                                       int, dict]:
    chunk_count, generator = task
    ctx = _WORKER_CTX
    counters = WorkCounters()
    mode = ctx.get("variance_mode", "improved")
    if mode == "stratified":
        forests = sample_forests_batch(ctx["graph"], ctx["alpha"],
                                       chunk_count, rng=generator,
                                       counters=counters, stratified=True)
        sums, squares, drawn = accumulate_estimates(
            forests, ctx["residual"], ctx["degrees"], kind=ctx["kind"],
            improved=ctx["improved"], track_squares=ctx["track_squares"])
        return sums, squares, drawn, counters.as_dict()
    forests = sample_forests(ctx["graph"], ctx["alpha"], chunk_count,
                             rng=generator)
    sums, squares, drawn = accumulate_estimates(
        forests, ctx["residual"], ctx["degrees"], kind=ctx["kind"],
        improved=ctx["improved"], track_squares=ctx["track_squares"],
        counters=counters)
    return sums, squares, drawn, counters.as_dict()


def _run_chunked(graph: Graph, ctx: dict, runner, tasks: list,
                 workers: int | None) -> tuple[list, int]:
    """Run ``runner`` over ``tasks``, in a pool or serially.

    Returns ``(results_in_task_order, workers_used)``; the pool's size
    is :func:`pool_size`'s.  Forked pool workers inherit ``initargs``
    (the graph included) instead of unpickling them; the serial path
    runs the identical closures in-process, so both produce the same
    results bit for bit.
    """
    forests = sum(count for count, _ in tasks)
    effective = pool_size(workers, len(tasks), forests * graph.num_nodes)
    worker_ctx = dict(ctx, graph=graph)
    if effective <= 1:
        _init_worker(worker_ctx)
        try:
            return [runner(task) for task in tasks], 1
        finally:
            _WORKER_CTX.clear()
    mp_ctx = multiprocessing.get_context("fork")
    with mp_ctx.Pool(processes=effective, initializer=_init_worker,
                     initargs=(worker_ctx,)) as pool:
        results = pool.map(runner, tasks, chunksize=1)
    return results, effective


def _tasks_for(count: int, rng, chunk_size: int | None) -> list:
    plan = plan_chunks(count, chunk_size)
    children = spawn_children(rng, len(plan))
    return list(zip(plan, children))


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------
def sample_forests_parallel(graph: Graph, alpha: float, count: int,
                            rng: np.random.Generator | int | None = None, *,
                            workers: int | None = 1,
                            batch: bool = False,
                            chunk_size: int | None = None,
                            counters: WorkCounters | None = None,
                            stratified: bool = False,
                            ) -> list[RootedForest]:
    """Sample ``count`` independent forests across worker processes.

    Parameters
    ----------
    workers:
        Worker processes (``None``/``0`` → usable CPUs, ``1`` →
        serial); capped and sent serial as :func:`pool_size` says.
    batch:
        Use the layered batch sampler
        (:func:`~repro.forests.batch_sampling.sample_forests_batch`)
        inside each chunk instead of one-at-a-time sampling, which
        otherwise picks its sampler from α as
        :func:`~repro.forests.sampling.sample_forest` does.
    counters:
        Optional :class:`~repro.counters.WorkCounters` accumulating the
        work done across all chunks.
    stratified:
        Couple each chunk's layers through the Latin-hypercube batch
        sampler (implies the batch path; widens the default chunk to
        :data:`STRATIFIED_CHUNK_SIZE`).  Marginals are unchanged, so
        downstream consumers need no changes.

    With a fixed seed the returned forests are identical for every
    ``workers`` value (see the module determinism contract).
    """
    if count == 0:
        return []
    if chunk_size is None and stratified:
        chunk_size = STRATIFIED_CHUNK_SIZE
    tasks = _tasks_for(count, rng, chunk_size)
    ctx = {"alpha": alpha, "batch": batch, "stratified": stratified}
    results, _ = _run_chunked(graph, ctx, _run_sample_chunk, tasks, workers)
    forests: list[RootedForest] = []
    for chunk in results:
        forests.extend(chunk)
    if counters is not None:
        for forest in forests:
            counters.record_forest(forest)
    return forests


def parallel_estimate_stage(graph: Graph, alpha: float, count: int,
                            residual: np.ndarray, *,
                            kind: str, improved: bool,
                            rng: np.random.Generator | int | None = None,
                            workers: int | None = 1,
                            track_squares: bool = False,
                            chunk_size: int | None = None,
                            variance_mode: str = "improved") -> StageResult:
    """Sample ``count`` forests and fold them through an estimator.

    The worker-side fold never ships forests back to the parent — each
    chunk returns only its ``O(n)`` accumulator arrays — so the
    inter-process traffic is independent of ω.

    ``variance_mode`` selects the variance-reduction machinery:
    ``"improved"`` (the historical path — the ``improved`` flag picks
    basic vs conditional-MC; the sampler follows α as in
    :func:`~repro.forests.sampling.sample_forest`) or ``"stratified"``
    (Latin-hypercube-coupled chunks via the batch sampler, same
    estimator as ``improved``).

    Returns a :class:`StageResult` whose ``sums``/``squares``/``drawn``
    match a serial chunk-ordered fold bit for bit, for any ``workers``.
    """
    residual = np.asarray(residual, dtype=np.float64)
    if residual.shape != (graph.num_nodes,):
        raise ConfigError(
            f"residual must have shape ({graph.num_nodes},), "
            f"got {residual.shape}")
    if chunk_size is None and variance_mode == "stratified":
        chunk_size = STRATIFIED_CHUNK_SIZE
    if count == 0:
        return StageResult(
            sums=np.zeros(graph.num_nodes),
            squares=np.zeros(graph.num_nodes) if track_squares else None,
            drawn=0)
    tasks = _tasks_for(count, rng, chunk_size)
    ctx = {"alpha": alpha, "kind": kind,
           "improved": improved, "residual": residual,
           "degrees": graph.degrees, "track_squares": track_squares,
           "variance_mode": variance_mode}
    results, used = _run_chunked(graph, ctx, _run_estimate_chunk, tasks,
                                 workers)
    sums = np.zeros(graph.num_nodes)
    squares = np.zeros(graph.num_nodes) if track_squares else None
    drawn = 0
    counters = WorkCounters()
    for chunk_sums, chunk_squares, chunk_drawn, chunk_counters in results:
        sums += chunk_sums
        if squares is not None and chunk_squares is not None:
            squares += chunk_squares
        drawn += chunk_drawn
        counters.merge(WorkCounters(**chunk_counters))
    return StageResult(sums=sums, squares=squares, drawn=drawn,
                       counters=counters, num_chunks=len(tasks),
                       workers_used=used)
