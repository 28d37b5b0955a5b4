r"""Single-target PPR algorithms (§6): BACK, RBACK, BACKL, BACKLV.

The baselines run backward push alone to the additive threshold
``r_max = ε·μ`` (so every ``π(v,t) ≥ μ`` carries relative error
``≤ ε``).  The paper's two-stage algorithms stop the push early at a
balanced ``r_max`` and estimate the leftover (Eq. 7)
``Σ_u π(v, u) r(u)`` with spanning forests:

- **BACKL** (basic): each node inherits its tree root's residual —
  ``a_v = r(root(v))``;
- **BACKLV** (improved, Theorem 6.1's relative error guarantee):
  degree-weighted tree average —
  ``a_v = Σ_{u∈C(v)} r(u) d_u / Σ_{u∈C(v)} d_u``.

Default ``r_max`` for the two-stage methods balances push cost
``π(t)·c_push/(α·r)`` against sampling cost ``r·W·τ``:
``r_max = √(d̄/(α·W·τ̂))`` with τ̂ from a pilot forest (reused as the
first sample), floored at the baseline's ``ε·μ`` so the two-stage
method never pushes *harder* than BACK.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.config import PPRConfig
from repro.core.result import PPRResult
from repro.core.single_source import _check_index
from repro.counters import WorkCounters
from repro.exceptions import ConfigError
from repro.forests.estimators import accumulate_estimates
from repro.forests.sampling import sample_forest
from repro.graph.csr import Graph
from repro.montecarlo.forest_index import ForestIndex
from repro.parallel.engine import parallel_estimate_stage
from repro.push.backward import backward_push, randomized_backward_push
from repro.rng import ensure_rng

__all__ = ["back", "rback", "backl", "backlv", "backlv_plus"]


def _prepare(graph: Graph, target: int,
             config: PPRConfig | None) -> tuple[PPRConfig, np.random.Generator]:
    if not 0 <= target < graph.num_nodes:
        raise ConfigError(f"target {target} out of range [0, {graph.num_nodes})")
    config = (config or PPRConfig()).resolve(graph)
    return config, ensure_rng(config.seed)


def _baseline_r_max(config: PPRConfig) -> float:
    """``ε·μ``: additive precision that implies the relative guarantee."""
    return config.epsilon * config.mu


def _push_counters(push) -> WorkCounters:
    """Fresh :class:`WorkCounters` seeded with one push stage's work."""
    counters = WorkCounters()
    counters.record_push(push)
    return counters


def _finish(graph: Graph, target: int, method: str, config: PPRConfig,
            estimates: np.ndarray, stats: dict) -> PPRResult:
    return PPRResult(estimates=estimates, kind="target", query_node=target,
                     method=method, alpha=config.alpha,
                     epsilon=config.epsilon, stats=stats)


def back(graph: Graph, target: int,
         config: PPRConfig | None = None) -> PPRResult:
    """BACK [3]: pure backward push to additive error ``ε·μ``.

    ``budget_scale < 1`` relaxes the threshold proportionally (the
    same uniform budget knob the sampling algorithms use).
    """
    config, _ = _prepare(graph, target, config)
    r_max = config.r_max
    if r_max is None:
        r_max = _baseline_r_max(config) / config.budget_scale
    t0 = time.perf_counter()
    push = backward_push(graph, target, config.alpha, r_max)
    t1 = time.perf_counter()
    stats = {"r_max": r_max, "num_pushes": push.num_pushes,
             "push_work": push.work, "push_seconds": t1 - t0,
             "residual_mass": push.residual_mass,
             **_push_counters(push).as_stats()}
    return _finish(graph, target, "back", config, push.reserve, stats)


def rback(graph: Graph, target: int,
          config: PPRConfig | None = None) -> PPRResult:
    """RBACK [43]: randomized backward push (probabilistic increment
    rounding) to the same threshold as :func:`back`."""
    config, rng = _prepare(graph, target, config)
    r_max = config.r_max
    if r_max is None:
        r_max = _baseline_r_max(config) / config.budget_scale
    t0 = time.perf_counter()
    push = randomized_backward_push(graph, target, config.alpha, r_max,
                                    rng=rng)
    t1 = time.perf_counter()
    stats = {"r_max": r_max, "num_pushes": push.num_pushes,
             "push_work": push.work, "push_seconds": t1 - t0,
             "residual_mass": push.residual_mass,
             **_push_counters(push).as_stats()}
    return _finish(graph, target, "rback", config, push.reserve, stats)


def _two_stage_r_max(graph: Graph, target: int, config: PPRConfig, rng):
    """Balanced ``r_max`` for BACKL/BACKLV (pilot-forest τ̂).

    Backward-push cost scales with the target's total incoming PPR
    mass ``S_t = Σ_v π(v, t)`` — approximated by its α→0 limit
    ``n·d_t / Σ_u d_u`` — times ``d̄ / (α·r_max)``; the forest stage
    costs ``r_max·W·τ̂``.  Balancing gives
    ``r_max = √(S_t·d̄ / (α·W·τ̂))``, floored at the BACK baseline's
    threshold so the two-stage method never pushes *deeper* than BACK.
    """
    pilot = sample_forest(graph, config.alpha, rng=rng)
    tau_hat = max(pilot.num_steps, 1)
    budget = config.walk_budget(graph)
    mean_degree = max(graph.average_degree, 1.0)
    target_mass = max(
        graph.num_nodes * float(graph.degrees[target])
        / max(graph.total_weight, 1.0), 1.0)
    r_max = float(np.sqrt(target_mass * mean_degree
                          / (config.alpha * budget * tau_hat)))
    r_max = max(r_max, _baseline_r_max(config) / config.budget_scale)
    return float(np.clip(r_max, 1e-9, 1.0)), pilot


def _backl_family(graph: Graph, target: int, config: PPRConfig | None,
                  *, improved: bool, method: str) -> PPRResult:
    if improved and graph.directed:
        raise ConfigError(
            f"{method} uses the variance-reduced estimator, which is only "
            f"unbiased on undirected graphs; use backl instead")
    config, rng = _prepare(graph, target, config)
    pilot = None
    r_max = config.r_max
    if r_max is None:
        r_max, pilot = _two_stage_r_max(graph, target, config, rng)
    t0 = time.perf_counter()
    push = backward_push(graph, target, config.alpha, r_max)
    t1 = time.perf_counter()
    # ω is already discounted by config.variance_gain for modes with a
    # measured variance reduction
    omega = config.num_forests(graph, r_max)
    counters = _push_counters(push)
    accumulated = np.zeros(graph.num_nodes)
    drawn = 0
    if pilot is not None:
        pilot_sums, _, pilot_drawn = accumulate_estimates(
            [pilot], push.residual, graph.degrees, kind="target",
            improved=improved, counters=counters)
        accumulated += pilot_sums
        drawn += pilot_drawn
    stage = parallel_estimate_stage(
        graph, config.alpha, max(omega - drawn, 0), push.residual,
        kind="target", improved=improved, rng=rng, workers=config.workers,
        variance_mode=config.variance_mode)
    accumulated += stage.sums
    drawn += stage.drawn
    counters.merge(stage.counters)
    mean = accumulated / max(drawn, 1)
    t2 = time.perf_counter()
    stats = {"r_max": r_max, "num_pushes": push.num_pushes,
             "push_work": push.work, "push_seconds": t1 - t0,
             "mc_seconds": t2 - t1, "num_forests": drawn,
             "forest_steps": counters.walk_steps,
             "cycle_pops": counters.cycle_pops, "omega": omega,
             "mc_workers": stage.workers_used,
             "mc_chunks": stage.num_chunks,
             "variance_mode": config.variance_mode, **counters.as_stats()}
    return _finish(graph, target, method, config,
                   push.reserve + mean, stats)


def backl(graph: Graph, target: int,
          config: PPRConfig | None = None) -> PPRResult:
    """BACKL (Algorithm 5, basic estimator)."""
    return _backl_family(graph, target, config, improved=False,
                         method="backl")


def backlv(graph: Graph, target: int,
           config: PPRConfig | None = None) -> PPRResult:
    """BACKLV (Algorithm 5, improved estimator) — the paper's best
    single-target algorithm (Theorem 6.1 relative error guarantee)."""
    return _backl_family(graph, target, config, improved=True,
                         method="backlv")


def backlv_plus(graph: Graph, target: int, index: ForestIndex,
                config: PPRConfig | None = None) -> PPRResult:
    """BACKLV with a prebuilt forest index instead of online sampling.

    Not benchmarked in the paper but an immediate corollary of §5.3;
    provided for applications issuing many target queries.  On a
    directed graph the bank folds with the basic estimator (BACKL's),
    as the batch solvers do: the improved one is biased there.
    """
    config, rng = _prepare(graph, target, config)
    _check_index(index, graph, config, ForestIndex, "backlv_plus")
    r_max = config.r_max
    if r_max is None:
        r_max, _ = _two_stage_r_max(graph, target, config, rng)
    t0 = time.perf_counter()
    push = backward_push(graph, target, config.alpha, r_max)
    t1 = time.perf_counter()
    mc = index.estimate_target_many(push.residual,
                                    improved=not graph.directed)[0]
    t2 = time.perf_counter()
    stats = {"r_max": r_max, "num_pushes": push.num_pushes,
             "push_work": push.work, "push_seconds": t1 - t0,
             "mc_seconds": t2 - t1, "index_forests": index.num_forests,
             **_push_counters(push).as_stats()}
    return _finish(graph, target, "backlv+", config, push.reserve + mc,
                   stats)
