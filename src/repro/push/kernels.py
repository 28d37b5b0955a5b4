r"""Frontier-batch push kernels shared by every deterministic push.

All push algorithms in this package run as *synchronous frontier
sweeps*: each iteration selects the entire above-threshold frontier at
once, converts the α-share of every frontier residual into reserve,
and scatters the remaining ``(1-α)`` mass to the frontier's neighbours
over the shared CSR arrays.  The per-sweep scatter — the hot inner
loop — lives here: one ``np.add.at`` segment-scatter over the
concatenated CSR rows of all frontier nodes (PowerWalk-style
vertex-centric batching).

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

    ``counts`` must equal ``indptr[frontier + 1] - indptr[frontier]``
    (passed in because every caller already has it).  The result
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
    counts = indptr[frontier + 1] - indptr[frontier]
    edges = frontier_edges(indptr, frontier, counts)
    targets = indices[edges]
    if weights is None:
        shares = np.repeat((1.0 - alpha) * mass / degrees[frontier], counts)
    else:
        shares = (np.repeat((1.0 - alpha) * mass, counts) * weights[edges]
                  / np.repeat(degrees[frontier], counts))
    np.add.at(residual, targets, shares)
    return int(counts.sum())


def backward_scatter(indptr: np.ndarray, indices: np.ndarray,
                     weights: np.ndarray | None, degrees: np.ndarray,
                     frontier: np.ndarray, spread: np.ndarray,
                     residual: np.ndarray) -> int:
    """Scatter backward-push mass to the frontier's in-neighbours.

    ``indptr``/``indices``/``weights`` describe the *reverse* CSR (the
    in-edges of each frontier node) while ``degrees`` are the forward
    weighted out-degrees: in-neighbour ``z`` of ``u`` receives
    ``spread(u)·w_zu/d_z`` — the division is by the *receiver's*
    degree, the transpose of forward push.  ``spread`` is the driver's
    per-node outgoing mass (``(1-α)·r(u)``, or the dangling closed
    form).  Returns the number of edge traversals.
    """
    counts = indptr[frontier + 1] - indptr[frontier]
    edges = frontier_edges(indptr, frontier, counts)
    sources = indices[edges]
    edge_w = np.ones(sources.size) if weights is None else weights[edges]
    receiver_deg = degrees[sources]
    increments = np.zeros(sources.size)
    ok = receiver_deg > 0
    increments[ok] = (np.repeat(spread, counts)[ok] * edge_w[ok]
                      / receiver_deg[ok])
    np.add.at(residual, sources, increments)
    return int(counts.sum())
