r"""Single-source PPR algorithms (§5): baselines and the paper's.

Online algorithms, all two-stage (deterministic push, then Monte
Carlo on the leftover residual, Eq. 6):

=============  =====================  ==============================
name           push stage             Monte-Carlo stage
=============  =====================  ==============================
``fora``       forward push (Alg. 2)  α-walks, ``⌈r(u)·W⌉`` per node
``foral``      balanced forward push  forests, basic estimator
``foralv``     balanced forward push  forests, improved estimator
``speedppr``   power push             α-walks
``speedl``     power push             forests, basic estimator
``speedlv``    power push             forests, improved estimator
=============  =====================  ==============================

Index-based variants (``fora_plus``, ``speedppr_plus``,
``foralv_plus``, ``speedlv_plus``) replace the online Monte-Carlo
stage with lookups into a prebuilt :class:`~repro.montecarlo.walk_index.WalkIndex`
or :class:`~repro.montecarlo.forest_index.ForestIndex` (§5.3).

Default ``r_max`` selection follows the paper's balancing arguments:

- FORA: minimise ``1/(α r) + r·W·(1/α)·m`` → ``r_max = 1/√(W·m)``;
- FORAL/FORALV: minimise ``d̄/(α r) + r·W·τ`` →
  ``r_max = √(d̄ / (α·W·τ̂))`` with τ̂ measured from a pilot forest
  (which is then reused as the first Monte-Carlo sample);
- SPEED*: power-push until the marginal mat-vec no longer pays for
  itself — residual mass target ``m/W`` (walks) with the forest
  variants stopping at the same point for comparability.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.config import PPRConfig
from repro.core.result import PPRResult
from repro.counters import WorkCounters
from repro.exceptions import ConfigError
from repro.forests.estimators import accumulate_estimates
from repro.forests.sampling import sample_forest
from repro.graph.csr import Graph
from repro.montecarlo.forest_index import ForestIndex
from repro.montecarlo.walk_index import WalkIndex
from repro.montecarlo.walks import simulate_alpha_walks
from repro.parallel.engine import parallel_estimate_stage
from repro.push.forward import balanced_forward_push, forward_push
from repro.push.power_push import power_push
from repro.rng import ensure_rng

__all__ = [
    "fora", "foral", "foralv", "speedppr", "speedl", "speedlv",
    "fora_plus", "speedppr_plus", "foralv_plus", "speedlv_plus",
]


# ----------------------------------------------------------------------
# Shared Monte-Carlo stages
# ----------------------------------------------------------------------
def _walk_stage(graph: Graph, residual: np.ndarray, config: PPRConfig,
                rng) -> tuple[np.ndarray, dict]:
    """α-walk stage: ``⌈r(u)·W⌉`` walks from each ``u``, weight
    ``r(u)/count`` per endpoint."""
    budget = config.walk_budget(graph)
    nodes = np.flatnonzero(residual > 0)
    if nodes.size == 0:
        return np.zeros(graph.num_nodes), {"num_walks": 0, "walk_steps": 0,
                                           "_counters": WorkCounters()}
    counts = np.ceil(residual[nodes] * budget).astype(np.int64)
    counts = np.maximum(counts, 1)
    total = int(counts.sum())
    if total > config.max_walks:
        # uniform thinning keeps the estimator unbiased, only noisier
        counts = np.maximum(
            (counts * (config.max_walks / total)).astype(np.int64), 1)
        total = int(counts.sum())
    starts = np.repeat(nodes, counts)
    batch = simulate_alpha_walks(graph, starts, config.alpha, rng=rng)
    weights = np.repeat(residual[nodes] / counts, counts)
    estimate = np.bincount(batch.endpoints, weights=weights,
                           minlength=graph.num_nodes)
    return estimate, {"num_walks": total, "walk_steps": batch.total_steps,
                      "_counters": WorkCounters(
                          walk_steps=int(batch.total_steps))}


def _forest_stage(graph: Graph, residual: np.ndarray, config: PPRConfig,
                  rng, *, improved: bool, sample_ceiling: float,
                  pilot=None, kind: str = "source") -> tuple[np.ndarray, dict]:
    """Forest stage: ``ω = ⌈ceiling·W⌉`` forests, averaged estimator.

    Runs through the chunked engine (:mod:`repro.parallel.engine`) with
    ``config.workers`` processes; the chunk plan and per-chunk RNG
    streams depend only on ω, so a fixed seed gives bit-identical
    estimates for every worker count.

    With ``config.track_variance`` the per-node standard error of the
    Monte-Carlo mean (``σ̂/√ω``) is returned in the stats under
    ``"mc_stderr"`` — the per-forest estimates are i.i.d., so this is a
    calibrated uncertainty for the sampled part of the answer.

    ``config.variance_mode="stratified"`` couples the sampling chunks
    (same estimator, ω already discounted by
    :attr:`~repro.core.config.PPRConfig.variance_gain`).  The pilot
    forest, when present, is folded in first under either mode — a
    stratified batch's members keep the single-forest marginal law, so
    mixing the pilot in stays unbiased.
    """
    omega = config.num_forests(graph, sample_ceiling)
    counters = WorkCounters()
    track = config.track_variance
    mode = config.variance_mode
    sums = np.zeros(graph.num_nodes)
    squares = np.zeros(graph.num_nodes) if track else None
    drawn = 0
    if pilot is not None:
        # the pilot was already drawn from the parent stream; fold it
        # in first so it is reused as the first Monte-Carlo sample
        pilot_sums, pilot_squares, pilot_drawn = accumulate_estimates(
            [pilot], residual, graph.degrees, kind=kind, improved=improved,
            track_squares=track, counters=counters)
        sums += pilot_sums
        if squares is not None and pilot_squares is not None:
            squares += pilot_squares
        drawn += pilot_drawn
    stage = parallel_estimate_stage(
        graph, config.alpha, max(omega - drawn, 0), residual, kind=kind,
        improved=improved, rng=rng, workers=config.workers,
        track_squares=track, variance_mode=mode)
    sums += stage.sums
    if squares is not None and stage.squares is not None:
        squares += stage.squares
    drawn += stage.drawn
    counters.merge(stage.counters)
    stats = {"num_forests": drawn, "forest_steps": counters.walk_steps,
             "cycle_pops": counters.cycle_pops, "omega": omega,
             "mc_workers": stage.workers_used, "mc_chunks": stage.num_chunks,
             "variance_mode": mode, "_counters": counters}
    mean = sums / drawn
    if squares is not None:
        variance = np.maximum(squares / drawn - mean * mean, 0.0)
        stats["mc_stderr"] = np.sqrt(variance / drawn)
    return mean, stats


def _pilot_r_max(graph: Graph, config: PPRConfig, rng):
    """FORAL/FORALV default ``r_max``: balance push against sampling
    using a pilot forest's step count as τ̂.  Returns (r_max, pilot)."""
    pilot = sample_forest(graph, config.alpha, rng=rng)
    tau_hat = max(pilot.num_steps, 1)
    budget = config.walk_budget(graph)
    mean_degree = max(graph.average_degree, 1.0)
    r_max = float(np.sqrt(mean_degree / (config.alpha * budget * tau_hat)))
    return float(np.clip(r_max, 1e-9, 1.0)), pilot


def _finish(graph: Graph, source: int, method: str, config: PPRConfig,
            reserve: np.ndarray, mc_estimate: np.ndarray,
            stats: dict) -> PPRResult:
    return PPRResult(estimates=reserve + mc_estimate, kind="source",
                     query_node=source, method=method, alpha=config.alpha,
                     epsilon=config.epsilon, stats=stats)


def _merge_work(stats: dict, push) -> dict:
    """Fold the stage's ``WorkCounters`` plus the push stage into ``stats``.

    Pops the private ``"_counters"`` entry the Monte-Carlo stages leave
    behind, accounts the :class:`~repro.push.forward.PushResult`'s
    pushes/sweeps, and flattens everything into ``work_*`` keys (see
    :mod:`repro.counters`) so the harness picks the counters up.
    """
    work = stats.pop("_counters", None) or WorkCounters()
    work.record_push(push)
    stats.update(work.as_stats())
    return stats


def _prepare(graph: Graph, source: int,
             config: PPRConfig | None) -> tuple[PPRConfig, np.random.Generator]:
    if not 0 <= source < graph.num_nodes:
        raise ConfigError(f"source {source} out of range [0, {graph.num_nodes})")
    config = (config or PPRConfig()).resolve(graph)
    return config, ensure_rng(config.seed)


def _require_undirected_for_improved(graph: Graph, method: str) -> None:
    """Theorem 3.7's conditional root law needs an undirected graph; the
    improved estimator is biased on directed inputs (see
    :mod:`repro.forests.estimators`)."""
    if graph.directed:
        raise ConfigError(
            f"{method} uses the variance-reduced estimator, which is only "
            f"unbiased on undirected graphs; use the basic-estimator "
            f"variant instead")


# ----------------------------------------------------------------------
# FORA family (forward push front-end)
# ----------------------------------------------------------------------
def fora(graph: Graph, source: int,
         config: PPRConfig | None = None) -> PPRResult:
    """FORA [46]: forward push + per-node α-walks (baseline)."""
    config, rng = _prepare(graph, source, config)
    r_max = config.r_max
    if r_max is None:
        budget = config.walk_budget(graph)
        r_max = float(np.clip(1.0 / np.sqrt(budget * max(graph.num_arcs, 1)),
                              1e-9, 1.0))
    t0 = time.perf_counter()
    push = forward_push(graph, source, config.alpha, r_max)
    t1 = time.perf_counter()
    mc, mc_stats = _walk_stage(graph, push.residual, config, rng)
    t2 = time.perf_counter()
    stats = _merge_work({"r_max": r_max, "num_pushes": push.num_pushes,
                         "push_work": push.work, "push_seconds": t1 - t0,
                         "mc_seconds": t2 - t1, **mc_stats},
                        push)
    return _finish(graph, source, "fora", config, push.reserve, mc, stats)


def _foral_family(graph: Graph, source: int, config: PPRConfig | None,
                  *, improved: bool, method: str) -> PPRResult:
    if improved:
        _require_undirected_for_improved(graph, method)
    config, rng = _prepare(graph, source, config)
    t0 = time.perf_counter()
    pilot = None
    r_max = config.r_max
    if r_max is None:
        r_max, pilot = _pilot_r_max(graph, config, rng)
    push = balanced_forward_push(graph, source, config.alpha, r_max)
    t1 = time.perf_counter()
    mc, mc_stats = _forest_stage(graph, push.residual, config, rng,
                                 improved=improved, sample_ceiling=r_max,
                                 pilot=pilot)
    t2 = time.perf_counter()
    stats = _merge_work({"r_max": r_max, "num_pushes": push.num_pushes,
                         "push_work": push.work, "push_seconds": t1 - t0,
                         "mc_seconds": t2 - t1, **mc_stats},
                        push)
    return _finish(graph, source, method, config, push.reserve, mc, stats)


def foral(graph: Graph, source: int,
          config: PPRConfig | None = None) -> PPRResult:
    """FORAL (Algorithm 3, basic estimator): balanced forward push +
    spanning forests."""
    return _foral_family(graph, source, config, improved=False,
                         method="foral")


def foralv(graph: Graph, source: int,
           config: PPRConfig | None = None) -> PPRResult:
    """FORALV (Algorithm 3, improved estimator): balanced forward push
    + spanning forests with conditional-Monte-Carlo variance reduction.
    Carries the relative error guarantee of Theorem 5.3."""
    return _foral_family(graph, source, config, improved=True,
                         method="foralv")


# ----------------------------------------------------------------------
# SPEED family (power push front-end)
# ----------------------------------------------------------------------
def _residual_target(graph: Graph, config: PPRConfig) -> float:
    """SPEEDPPR stopping mass: one more mat-vec costs ``m`` push-edge
    units and removes ``W·ρ`` expected walk steps, so stop at
    ``ρ ≈ m·c_ratio/W`` with ``c_ratio`` the push/walk unit-cost ratio."""
    budget = config.walk_budget(graph)
    target = graph.num_arcs * config.push_cost_ratio / budget
    return float(np.clip(target, 1e-12, 1.0))


def _max_residual_target(graph: Graph, config: PPRConfig,
                         tau_hat: float) -> float:
    """SPEEDL/SPEEDLV stopping ceiling: a mat-vec shrinks the residual
    ceiling by the factor ``1-α`` and the forest stage costs
    ``⌈r_ceil·W⌉·τ`` steps, so the marginal balance stops at
    ``r_ceil ≈ m·c_ratio / (W·τ̂·α)``."""
    budget = config.walk_budget(graph)
    target = (graph.num_arcs * config.push_cost_ratio
              / (budget * max(tau_hat, 1.0) * config.alpha))
    return float(np.clip(target, 1e-12, 1.0))


def speedppr(graph: Graph, source: int,
             config: PPRConfig | None = None) -> PPRResult:
    """SPEEDPPR [49]: whole-vector power push + α-walks (baseline)."""
    config, rng = _prepare(graph, source, config)
    target = _residual_target(graph, config)
    t0 = time.perf_counter()
    push = power_push(graph, source, config.alpha, target)
    t1 = time.perf_counter()
    mc, mc_stats = _walk_stage(graph, push.residual, config, rng)
    t2 = time.perf_counter()
    stats = _merge_work({"residual_target": target,
                         "num_pushes": push.num_pushes,
                         "push_work": push.work, "push_seconds": t1 - t0,
                         "mc_seconds": t2 - t1, **mc_stats},
                        push)
    return _finish(graph, source, "speedppr", config, push.reserve, mc, stats)


def _speedl_family(graph: Graph, source: int, config: PPRConfig | None,
                   *, improved: bool, method: str) -> PPRResult:
    if improved:
        _require_undirected_for_improved(graph, method)
    config, rng = _prepare(graph, source, config)
    t0 = time.perf_counter()
    if config.r_max is not None:
        target, pilot = config.r_max, None
    else:
        pilot = sample_forest(graph, config.alpha, rng=rng)
        target = _max_residual_target(graph, config, pilot.num_steps)
    push = power_push(graph, source, config.alpha, target, criterion="max")
    t1 = time.perf_counter()
    ceiling = max(float(push.residual.max(initial=0.0)), 1e-12)
    mc, mc_stats = _forest_stage(graph, push.residual, config, rng,
                                 improved=improved, sample_ceiling=ceiling,
                                 pilot=pilot)
    t2 = time.perf_counter()
    stats = _merge_work({"residual_target": target,
                         "num_pushes": push.num_pushes,
                         "push_work": push.work, "push_seconds": t1 - t0,
                         "mc_seconds": t2 - t1, **mc_stats},
                        push)
    return _finish(graph, source, method, config, push.reserve, mc, stats)


def speedl(graph: Graph, source: int,
           config: PPRConfig | None = None) -> PPRResult:
    """SPEEDL: power push + spanning forests (basic estimator)."""
    return _speedl_family(graph, source, config, improved=False,
                          method="speedl")


def speedlv(graph: Graph, source: int,
            config: PPRConfig | None = None) -> PPRResult:
    """SPEEDLV: power push + spanning forests (improved estimator) —
    the paper's best online single-source algorithm."""
    return _speedl_family(graph, source, config, improved=True,
                          method="speedlv")


# ----------------------------------------------------------------------
# Index-based variants (§5.3)
# ----------------------------------------------------------------------
def _check_index(index, graph: Graph, config: PPRConfig,
                 expected_type, name: str) -> None:
    if not isinstance(index, expected_type):
        raise ConfigError(f"{name} requires a {expected_type.__name__}")
    if index.graph is not graph:
        raise ConfigError(f"{name}: index was built for a different graph")
    if not np.isclose(index.alpha, config.alpha):
        raise ConfigError(
            f"{name}: index was built for alpha={index.alpha}, "
            f"query uses alpha={config.alpha}")
    if getattr(index, "local_nodes", None) is not None:
        raise ConfigError(
            f"{name}: index is restricted to one shard's rows; query "
            f"the whole-space bank")


def fora_plus(graph: Graph, source: int, index: WalkIndex,
              config: PPRConfig | None = None) -> PPRResult:
    """FORA+ [46]: forward push + precomputed walk endpoints."""
    config, _ = _prepare(graph, source, config)
    _check_index(index, graph, config, WalkIndex, "fora_plus")
    budget = config.walk_budget(graph)
    r_max = config.r_max
    if r_max is None:
        r_max = float(np.clip(1.0 / np.sqrt(budget * max(graph.num_arcs, 1)),
                              1e-9, 1.0))
    t0 = time.perf_counter()
    push = forward_push(graph, source, config.alpha, r_max)
    t1 = time.perf_counter()
    mc = index.estimate_from_residual(push.residual, budget)
    t2 = time.perf_counter()
    stats = _merge_work({"r_max": r_max, "num_pushes": push.num_pushes,
                         "push_work": push.work, "push_seconds": t1 - t0,
                         "mc_seconds": t2 - t1,
                         "index_walks": index.num_walks},
                        push)
    return _finish(graph, source, "fora+", config, push.reserve, mc, stats)


def speedppr_plus(graph: Graph, source: int, index: WalkIndex,
                  config: PPRConfig | None = None) -> PPRResult:
    """SPEEDPPR+ [49]: power push + precomputed walk endpoints."""
    config, _ = _prepare(graph, source, config)
    _check_index(index, graph, config, WalkIndex, "speedppr_plus")
    target = _residual_target(graph, config)
    t0 = time.perf_counter()
    push = power_push(graph, source, config.alpha, target)
    t1 = time.perf_counter()
    mc = index.estimate_from_residual(push.residual,
                                      config.walk_budget(graph))
    t2 = time.perf_counter()
    stats = _merge_work({"residual_target": target,
                         "num_pushes": push.num_pushes,
                         "push_work": push.work, "push_seconds": t1 - t0,
                         "mc_seconds": t2 - t1,
                         "index_walks": index.num_walks},
                        push)
    return _finish(graph, source, "speedppr+", config, push.reserve, mc,
                   stats)


def foralv_plus(graph: Graph, source: int, index: ForestIndex,
                config: PPRConfig | None = None) -> PPRResult:
    """FORALV+: balanced forward push + precomputed spanning forests.

    The bank folds with the improved estimator; on a directed graph,
    where that estimator is biased, with the basic one, as the batch
    solvers do."""
    config, rng = _prepare(graph, source, config)
    _check_index(index, graph, config, ForestIndex, "foralv_plus")
    r_max = config.r_max
    if r_max is None:
        r_max, _ = _pilot_r_max(graph, config, rng)
    t0 = time.perf_counter()
    push = balanced_forward_push(graph, source, config.alpha, r_max)
    t1 = time.perf_counter()
    mc = index.estimate_source_many(push.residual,
                                    improved=not graph.directed)[0]
    t2 = time.perf_counter()
    stats = _merge_work({"r_max": r_max, "num_pushes": push.num_pushes,
                         "push_work": push.work, "push_seconds": t1 - t0,
                         "mc_seconds": t2 - t1,
                         "index_forests": index.num_forests},
                        push)
    return _finish(graph, source, "foralv+", config, push.reserve, mc, stats)


def speedlv_plus(graph: Graph, source: int, index: ForestIndex,
                 config: PPRConfig | None = None) -> PPRResult:
    """SPEEDLV+: power push + precomputed spanning forests — the
    paper's best indexed single-source algorithm.  Folds as
    :func:`foralv_plus` does."""
    config, _ = _prepare(graph, source, config)
    _check_index(index, graph, config, ForestIndex, "speedlv_plus")
    target = _residual_target(graph, config)
    t0 = time.perf_counter()
    push = power_push(graph, source, config.alpha, target)
    t1 = time.perf_counter()
    mc = index.estimate_source_many(push.residual,
                                    improved=not graph.directed)[0]
    t2 = time.perf_counter()
    stats = _merge_work({"residual_target": target,
                         "num_pushes": push.num_pushes,
                         "push_work": push.work, "push_seconds": t1 - t0,
                         "mc_seconds": t2 - t1,
                         "index_forests": index.num_forests},
                        push)
    return _finish(graph, source, "speedlv+", config, push.reserve, mc,
                   stats)
