r"""Frontier-batch push kernels shared by every deterministic push.

All push algorithms in this package run as *synchronous frontier
sweeps*: each iteration selects the entire above-threshold frontier at
once, converts the α-share of every frontier residual into reserve,
and scatters the remaining ``(1-α)`` mass to the frontier's neighbours
over the shared CSR arrays.  The per-sweep scatter — the hot inner
loop — lives here: one ``np.add.at`` segment-scatter over the
concatenated CSR rows of all frontier nodes (PowerWalk-style
vertex-centric batching).  :func:`backward_scatter` switches to a
dense strategy when the frontier covers a large share of the in-arcs
(small α, hub targets): it scatters over *all* arcs with zero
increments off the frontier, which skips rebuilding the frontier's
edge list and adds exactly the same terms in the same order.

The node-at-a-time loop these kernels replaced lives on in
``tests/push_oracle.py``; the equivalence suite swaps it in under the
production sweep drivers and asserts agreement to ≤1e-12 with equal
push counts.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import Graph

__all__ = [
    "frontier_edges",
    "forward_scatter",
    "backward_scatter",
]


def frontier_edges(indptr: np.ndarray, frontier: np.ndarray,
                   counts: np.ndarray) -> np.ndarray:
    """Flat CSR edge positions of the frontier's rows, in frontier order.

    ``counts`` must equal ``indptr[frontier + 1] - indptr[frontier]``,
    the frontier's row lengths (passed in because every caller already
    has them, from the graph's cached ``out_degrees``).  The result
    concatenates each row's ``arange(indptr[u], indptr[u+1])`` so that
    gathered edge arrays line up with ``np.repeat(..., counts)``.
    """
    total = int(counts.sum())
    starts = indptr[frontier]
    # start of each row inside the concatenated output
    offsets = np.concatenate(([0], np.cumsum(counts[:-1])))
    return np.arange(total, dtype=np.int64) + np.repeat(starts - offsets,
                                                        counts)


def forward_scatter(graph: Graph, frontier: np.ndarray, mass: np.ndarray,
                    alpha: float, residual: np.ndarray) -> int:
    """Scatter the forward shares of every frontier node's residual.

    ``mass`` holds the residuals captured at sweep start (the driver
    has already zeroed ``residual[frontier]`` and credited the reserve)
    and every frontier node has out-degree > 0.  Each neighbour ``v``
    of ``u`` receives ``(1-α)·mass(u)·w_uv/d_u``.  Returns the number
    of edge traversals.
    """
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    degrees = graph.degrees
    counts = graph.out_degrees[frontier]
    edges = frontier_edges(indptr, frontier, counts)
    targets = indices[edges]
    if weights is None:
        shares = np.repeat((1.0 - alpha) * mass / degrees[frontier], counts)
    else:
        shares = (np.repeat((1.0 - alpha) * mass, counts) * weights[edges]
                  / np.repeat(degrees[frontier], counts))
    np.add.at(residual, targets, shares)
    return int(counts.sum())


#: Frontier share of all in-arcs from which :func:`backward_scatter`
#: takes every arc instead of gathering the frontier's rows.
#: ``bench_backward_scatter_crossover`` (youtube stand-in, 12,000 nodes,
#: 63,912 arcs, 2 vCPU): a dense sweep costs ~0.3–0.5 ms whatever the
#: frontier, and it breaks even with the gather path at a share of
#: about 0.35 (0.9–1.1×); it takes ~0.75× the gather time at 0.5 and
#: ~0.4× at 1.0, and 1.2–1.5× at 0.25.
DENSE_SHARE = 0.35


def backward_scatter(graph: Graph, frontier: np.ndarray, spread: np.ndarray,
                     residual: np.ndarray) -> int:
    """Scatter backward-push mass to the frontier's in-neighbours.

    ``graph`` is the forward graph; the in-arcs come from its cached
    :meth:`~repro.graph.csr.Graph.reverse`.  In-neighbour ``z`` of
    ``u`` receives ``spread(u)·w_zu/d_z`` — the division is by the
    *receiver's* forward degree, the transpose of forward push.
    ``spread`` is the driver's per-node outgoing mass (``(1-α)·r(u)``,
    or the dangling closed form).  Returns the number of edge
    traversals.

    Two strategies, chosen per sweep, give bit-identical residuals.  A
    sparse frontier gathers its rows' arcs (``frontier_edges``).  A
    frontier whose rows hold at least :data:`DENSE_SHARE` of all
    in-arcs instead takes *every* arc, spreading from a per-node
    vector that is zero off the frontier.  Both add with one
    ``np.add.at`` in ascending-``u`` CSR order, each nonzero term is
    the same ``(spread·w)/d_z``, and an off-frontier arc adds ``+0.0``,
    which leaves a non-negative residual unchanged.
    """
    reverse = graph.reverse()
    indptr, weights = reverse.indptr, reverse.weights
    counts = reverse.out_degrees[frontier]
    total = int(counts.sum())
    if total >= DENSE_SHARE * reverse.num_arcs:
        arcs = slice(None)
        node_spread = np.zeros(graph.num_nodes)
        node_spread[frontier] = spread
        increments = node_spread[reverse.arc_rows]
    else:
        arcs = frontier_edges(indptr, frontier, counts)
        increments = np.repeat(spread, counts)
    if weights is not None:
        increments *= weights[arcs]
    # a zero receiver degree is stored as inf, so it receives 0.0
    increments /= graph.in_arc_degrees[arcs]
    np.add.at(residual, reverse.indices[arcs], increments)
    return total
