r"""Batched forest sampling: many independent forests per NumPy pass.

Sampling ``k`` independent forests of ``G`` is *identical in law* to
sampling one forest of the disjoint union of ``k`` copies of ``G``
(arrow stacks are per-node independent, and cycle popping never crosses
components).  Working on the union — node ``(layer, u)`` encoded as
``layer·n + u`` — lets every popping round draw arrows and resolve
pointers for **all layers at once**, amortising the per-round NumPy
call overhead that dominates the single-forest sampler when α is small
and cycles pop slowly.

The union is virtual: neighbour sampling runs against the base graph's
alias table on ``id mod n`` and adds the layer offset back, so memory
is ``O(k·n)`` work arrays, never ``k`` copies of the edges.

Equivalence with the sequential samplers is tested statistically.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigError
from repro.forests.cycle_popping import check_alpha, fresh_arrows, pop_cycles
from repro.forests.forest import RootedForest
from repro.graph.csr import Graph
from repro.rng import ensure_rng

__all__ = ["sample_forests_batch"]


def _stratified_uniforms(base: np.ndarray, generator: np.random.Generator
                         ) -> tuple[np.ndarray, np.ndarray, int]:
    """Latin-hypercube uniforms for one popping round.

    ``base`` holds the base-graph node of every active union-node.
    Layers sharing a base node form one stratum of size ``k``: each
    layer is assigned a distinct cell ``[j/k, (j+1)/k)`` of the unit
    interval (a fresh random permutation per node per round) and draws
    its arrow uniform inside that cell.  Marginally every layer still
    sees an i.i.d. ``U[0, 1)`` stream, so each forest keeps the exact
    sequential cycle-popping law; only the *joint* draw across layers
    is coupled, which is what shrinks the variance of bank means.

    Returns ``(order, uniforms, strata)`` where ``order`` sorts the
    active set by base node, ``uniforms`` aligns with ``base[order]``,
    and ``strata`` counts the multi-layer groups formed.
    """
    m = base.size
    order = np.argsort(base, kind="stable")
    sorted_base = base[order]
    boundary = np.empty(m, dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_base[1:], sorted_base[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    counts = np.diff(np.append(starts, m))
    sizes = np.repeat(counts, counts)
    # random permutation within each group: rank layers by an i.i.d. key
    keys = generator.random(m)
    within = np.lexsort((keys, sorted_base))
    ranks = np.empty(m, dtype=np.int64)
    ranks[within] = np.arange(m) - np.repeat(starts, counts)
    uniforms = (ranks + generator.random(m)) / sizes
    return order, uniforms, int(np.count_nonzero(counts > 1))


def _neighbors_from_quantiles(graph: Graph, nodes: np.ndarray,
                              quantiles: np.ndarray,
                              edge_cumsum: np.ndarray | None) -> np.ndarray:
    """Inverse-CDF neighbour choice: quantile ``q`` → out-edge of ``u``.

    Unweighted rows use ``floor(q·deg)``; weighted rows binary-search
    the global edge-weight cumsum (strictly increasing, weights > 0)
    restricted to the row, so the draw matches the alias table's law.
    """
    lo = graph.indptr[nodes]
    if graph.weights is None:
        deg = graph.indptr[nodes + 1] - lo
        slot = np.minimum((quantiles * deg).astype(np.int64), deg - 1)
        return graph.indices[lo + slot]
    targets = edge_cumsum[lo] + quantiles * graph.degrees[nodes]
    pos = np.searchsorted(edge_cumsum, targets, side="right") - 1
    return graph.indices[np.minimum(pos, graph.indptr[nodes + 1] - 1)]


def _stratified_arrows(graph: Graph, alpha: float, base: np.ndarray,
                       generator: np.random.Generator,
                       edge_cumsum: np.ndarray | None
                       ) -> tuple[np.ndarray, np.ndarray, int]:
    """Arrows of base nodes ``base`` from one Latin-hypercube round.

    The stratified twin of
    :func:`~repro.forests.cycle_popping.fresh_arrows`: one uniform per
    entry decides both the stop coin and, for movers, the neighbour.
    Returns ``(targets, stops, strata)``, aligned with ``base``.
    """
    order, uniforms, strata = _stratified_uniforms(base, generator)
    base_sorted = base[order]
    moves = (uniforms >= alpha) & (graph.out_degrees[base_sorted] != 0)
    sorted_targets = base_sorted.copy()
    # reuse the surviving uniform: conditional on u >= α it is
    # U[α, 1), so (u-α)/(1-α) is an independent U[0, 1)
    quantiles = (uniforms[moves] - alpha) / (1.0 - alpha)
    sorted_targets[moves] = _neighbors_from_quantiles(
        graph, base_sorted[moves], quantiles, edge_cumsum)
    targets = np.empty_like(sorted_targets)
    targets[order] = sorted_targets
    stops = np.empty(base.size, dtype=bool)
    stops[order] = ~moves
    return targets, stops, strata


def sample_forests_batch(graph: Graph, alpha: float, count: int,
                         rng: np.random.Generator | int | None = None,
                         max_rounds: int = 10_000_000,
                         counters=None,
                         stratified: bool = False) -> list[RootedForest]:
    """Sample ``count`` independent rooted spanning forests at once.

    Same distribution as ``count`` calls of
    :func:`~repro.forests.cycle_popping.sample_forest_cycle_popping`.
    ``counters`` (a :class:`~repro.counters.WorkCounters`) is credited
    with every layer's steps and pops if given.

    When it pays: the batch shares popping rounds, so the per-round
    NumPy call overhead is amortised — about 2× faster on small graphs
    (n ≲ 1000) or large batches.  On graphs with tens of thousands of
    nodes the per-round array work dominates either way and the
    sequential sampler is just as fast; measured numbers live in the
    sampler ablation bench.

    ``stratified=True`` couples the layers' arrow draws through a
    Latin-hypercube grid per (node, round) — see
    :func:`_stratified_uniforms`.  Every individual forest keeps the
    exact product-law marginal, so all estimators stay unbiased; only
    estimates *averaged across the batch* see reduced variance (the
    ``variance_mode="stratified"`` contract measured by
    :func:`repro.forests.statistics.empirical_variance_ratio`).
    ``counters.strata`` is credited with the groups formed.
    """
    check_alpha(alpha)
    if count <= 0:
        raise ConfigError("count must be positive")
    n = graph.num_nodes
    generator = ensure_rng(rng)
    edge_cumsum = None
    if stratified and graph.weights is not None:
        # global running sum; within row u it is offset + per-row cumsum
        edge_cumsum = np.concatenate(
            ([0.0], np.cumsum(graph.weights, dtype=np.float64)))
    steps_per_layer = np.zeros(count, dtype=np.int64)
    strata_formed = 0

    def draw(active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # union-node layer·n + u draws u's arrow, shifted by layer·n
        nonlocal strata_formed
        base = active % n
        steps_per_layer[:] += np.bincount(active // n, minlength=count)
        if stratified:
            targets, stops, groups = _stratified_arrows(
                graph, alpha, base, generator, edge_cumsum)
            strata_formed += groups
        else:
            targets, stops = fresh_arrows(graph, alpha, base, generator)
        targets += active - base
        return targets, stops

    roots, parents, _ = pop_cycles(count * n, draw, max_rounds)
    forests = []
    for layer in range(count):
        lo, hi = layer * n, (layer + 1) * n
        forests.append(RootedForest(
            roots=roots[lo:hi] - lo,
            parents=np.where(parents[lo:hi] >= 0, parents[lo:hi] - lo, -1),
            num_steps=int(steps_per_layer[layer]),
            method="cycle_popping_batch"))
    if counters is not None:
        for forest in forests:
            counters.record_forest(forest)
        counters.strata += strata_formed
    return forests
