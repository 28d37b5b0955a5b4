r"""Single-pair PPR queries: estimate one value ``π(s, t)``.

The bidirectional recipe (in the spirit of BiPPR [33], rebuilt on
spanning forests): run a backward push from the *target* to get
reserve/residual with the invariant (Eq. 7)

.. math:: \pi(s, t) = q(s) + \sum_u \pi(s, u)\, r(u),

then estimate the remaining sum with forests — it is exactly the
single-target forest estimator *read at the single entry* ``s``:
``E[r(root(s))]`` (basic) or the degree-weighted tree average
(improved, undirected only).  Because only one entry is read, far
fewer forests suffice than for a full vector at equal per-entry
accuracy.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.config import PPRConfig
from repro.exceptions import ConfigError
from repro.forests.sampling import sample_forest
from repro.graph.csr import Graph
from repro.push.backward import backward_push
from repro.rng import ensure_rng

__all__ = ["PairEstimate", "pair_ppr", "pair_ppr_bippr"]


class PairEstimate(float):
    """A float subclass carrying the estimate's provenance in ``stats``."""

    def __new__(cls, value: float, stats: dict):
        instance = super().__new__(cls, value)
        instance.stats = stats
        return instance


def pair_ppr(graph: Graph, source: int, target: int, *,
             config: PPRConfig | None = None,
             num_forests: int | None = None,
             **overrides) -> PairEstimate:
    """Estimate the single value ``π(source, target)``.

    Parameters
    ----------
    num_forests:
        Forest count for the Monte-Carlo half; defaults to
        ``⌈r_max·W⌉`` like the full-vector algorithms.
    overrides:
        ``PPRConfig`` field overrides (``alpha=``, ``seed=``, ...).

    Returns
    -------
    PairEstimate
        A float with ``.stats`` (push/forest counters) attached.

    Examples
    --------
    >>> import repro
    >>> from repro.core.pairwise import pair_ppr
    >>> g = repro.load_dataset("youtube", scale=0.05)
    >>> value = pair_ppr(g, 0, 1, alpha=0.1, seed=3, budget_scale=0.05)
    >>> 0.0 <= float(value) <= 1.0
    True
    """
    for node, label in ((source, "source"), (target, "target")):
        if not 0 <= node < graph.num_nodes:
            raise ConfigError(f"{label} {node} out of range")
    config = (config or PPRConfig())
    if overrides:
        config = config.with_overrides(**overrides)
    config = config.resolve(graph)
    rng = ensure_rng(config.seed)
    improved = not graph.directed

    pilot = sample_forest(graph, config.alpha, rng=rng)
    tau_hat = max(pilot.num_steps, 1)
    budget = config.walk_budget(graph)
    r_max = config.r_max
    if r_max is None:
        mean_degree = max(graph.average_degree, 1.0)
        r_max = float(np.clip(
            np.sqrt(mean_degree / (config.alpha * budget * tau_hat)),
            config.epsilon * config.mu, 1.0))

    t0 = time.perf_counter()
    push = backward_push(graph, target, config.alpha, r_max)
    t1 = time.perf_counter()

    if num_forests is None:
        num_forests = config.num_forests(graph, r_max)
    degrees = graph.degrees
    residual = push.residual
    total = 0.0
    steps = 0
    drawn = 0
    forest = pilot
    while True:
        if improved:
            component = forest.component_of(source)
            mass = degrees[component].sum()
            if mass > 0:
                total += float(
                    (residual[component] * degrees[component]).sum() / mass)
            else:
                total += float(residual[source])
        else:
            total += float(residual[forest.roots[source]])
        steps += forest.num_steps
        drawn += 1
        if drawn >= num_forests:
            break
        forest = sample_forest(graph, config.alpha, rng=rng)
    t2 = time.perf_counter()

    estimate = float(push.reserve[source]) + total / drawn
    stats = {"r_max": r_max, "num_pushes": push.num_pushes,
             "push_work": push.work, "push_seconds": t1 - t0,
             "mc_seconds": t2 - t1, "num_forests": drawn,
             "forest_steps": steps,
             "estimator": "improved" if improved else "basic"}
    return PairEstimate(estimate, stats)


def pair_ppr_bippr(graph: Graph, source: int, target: int, *,
                   config: PPRConfig | None = None,
                   num_walks: int | None = None,
                   **overrides) -> PairEstimate:
    r"""BiPPR-style baseline for ``π(source, target)`` ([33]).

    Same backward-push front-end as :func:`pair_ppr`, but the residual
    term ``Σ_v π(s, v) r(v)`` is estimated with forward α-walks from
    the source: a walk's endpoint ``X`` satisfies
    ``E[r(X)] = Σ_v π(s, v) r(v)`` exactly.  Provided as the
    walk-based comparator to the forest-based estimator — the pair
    ablation in the benchmarks contrasts their α-sensitivity.
    """
    from repro.montecarlo.walks import simulate_alpha_walks

    for node, label in ((source, "source"), (target, "target")):
        if not 0 <= node < graph.num_nodes:
            raise ConfigError(f"{label} {node} out of range")
    config = (config or PPRConfig())
    if overrides:
        config = config.with_overrides(**overrides)
    config = config.resolve(graph)
    rng = ensure_rng(config.seed)

    budget = config.walk_budget(graph)
    r_max = config.r_max
    if r_max is None:
        # BiPPR balance: push cost d̄/(α r) vs walk cost r·W/α
        r_max = float(np.clip(
            np.sqrt(max(graph.average_degree, 1.0) / budget),
            config.epsilon * config.mu, 1.0))

    t0 = time.perf_counter()
    push = backward_push(graph, target, config.alpha, r_max)
    t1 = time.perf_counter()

    if num_walks is None:
        num_walks = int(np.clip(np.ceil(r_max * budget), 1,
                                config.max_walks))
    starts = np.full(num_walks, source, dtype=np.int64)
    batch = simulate_alpha_walks(graph, starts, config.alpha, rng=rng)
    mc = float(push.residual[batch.endpoints].mean())
    t2 = time.perf_counter()

    stats = {"r_max": r_max, "num_pushes": push.num_pushes,
             "push_work": push.work, "push_seconds": t1 - t0,
             "mc_seconds": t2 - t1, "num_walks": num_walks,
             "walk_steps": batch.total_steps, "estimator": "bippr"}
    return PairEstimate(float(push.reserve[source]) + mc, stats)
