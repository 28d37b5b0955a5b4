"""Sampler selection and batch sampling helpers."""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.exceptions import ConfigError
from repro.forests.cycle_popping import sample_forest_cycle_popping
from repro.forests.forest import RootedForest
from repro.forests.wilson import sample_forest_wilson
from repro.graph.csr import Graph
from repro.rng import ensure_rng

__all__ = ["sample_forest", "sample_forests", "SAMPLERS",
           "AUTO_SAMPLER_ALPHA_THRESHOLD"]

#: Registered samplers; both draw the distribution of Theorem 4.3.
SAMPLERS = {
    "wilson": sample_forest_wilson,
    "cycle_popping": sample_forest_cycle_popping,
}

#: Below this α the ``auto`` mode prefers the Wilson reference sampler:
#: cycle popping grinds through many near-empty popping rounds before
#: the first root appears (expected 1/α arrow draws away), and its
#: per-round vectorisation overhead then dominates the per-step cost
#: of the sequential sampler.  On the 12,000-node ``youtube`` stand-in
#: Wilson takes 69 ms against 446 ms at α = 1e-4, while cycle popping
#: wins from α = 3e-3 up (15 ms against 50 ms);
#: ``benchmarks/bench_ablation_samplers.py`` checks both sides.  Every
#: sampling entry point (query stages, index builds, the chunked
#: engine) goes through ``"auto"``, so this is the one place the
#: sampler is chosen.
AUTO_SAMPLER_ALPHA_THRESHOLD = 1e-3


def sample_forest(graph: Graph, alpha: float,
                  rng: np.random.Generator | int | None = None,
                  method: str = "auto",
                  counters=None) -> RootedForest:
    """Sample one rooted spanning forest.

    ``method`` selects between the vectorised production sampler
    (``"cycle_popping"``), the faithful Algorithm 1 reference
    (``"wilson"``), or ``"auto"`` (default) which picks cycle popping
    for moderate α and Wilson below
    :data:`AUTO_SAMPLER_ALPHA_THRESHOLD` — both draw the identical
    distribution, so the choice is purely a constant-factor matter.

    ``counters`` (a :class:`~repro.counters.WorkCounters`) is credited
    with the forest's walk steps and cycle pops if given.
    """
    if method == "auto":
        method = ("cycle_popping" if alpha >= AUTO_SAMPLER_ALPHA_THRESHOLD
                  else "wilson")
    try:
        sampler = SAMPLERS[method]
    except KeyError:
        raise ConfigError(
            f"unknown sampler {method!r}; choose from "
            f"{sorted(SAMPLERS) + ['auto']}") from None
    forest = sampler(graph, alpha, rng=rng)
    if counters is not None:
        counters.record_forest(forest)
    return forest


def sample_forests(graph: Graph, alpha: float, count: int,
                   rng: np.random.Generator | int | None = None,
                   method: str = "auto",
                   counters=None) -> Iterator[RootedForest]:
    """Yield ``count`` independent forests from one RNG stream.

    A generator so callers can fold estimates forest-by-forest without
    holding all samples in memory (a forest is O(n)).  ``counters`` is
    credited per yielded forest, as in :func:`sample_forest`.

    ``method="stratified"`` draws the whole batch through the coupled
    Latin-hypercube sampler
    (:func:`~repro.forests.batch_sampling.sample_forests_batch` with
    ``stratified=True``): every yielded forest keeps the exact
    single-forest law, but the batch is negatively correlated so its
    *mean* has lower variance — the allocation behind
    ``variance_mode="stratified"``.
    """
    if count < 0:
        raise ConfigError("count must be non-negative")
    generator = ensure_rng(rng)
    if method == "stratified":
        if count:
            from repro.forests.batch_sampling import sample_forests_batch
            yield from sample_forests_batch(graph, alpha, count,
                                            rng=generator,
                                            counters=counters,
                                            stratified=True)
        return
    for _ in range(count):
        yield sample_forest(graph, alpha, rng=generator, method=method,
                            counters=counters)
