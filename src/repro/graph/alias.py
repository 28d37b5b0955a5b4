"""Alias tables for O(1) weighted neighbour sampling.

An α-random walk on a weighted graph picks the next node with
probability ``w_uv / d_u``.  Inverse-CDF sampling via ``searchsorted``
costs ``O(log deg)`` per step; the Walker alias method costs O(1) and,
crucially, vectorises: a whole frontier of walkers draws its next
neighbours with three NumPy operations.

The table is laid out flat, parallel to the graph's CSR ``indices``
array: slot ``i`` of the table corresponds to edge slot ``i`` of the
graph, ``probability[i]`` is the acceptance probability of that slot,
and ``alias[i]`` is the *global* edge-slot index to use on rejection.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import GraphError
from repro.rng import ensure_rng

__all__ = ["AliasTable"]


class AliasTable:
    """Flat per-node alias tables over a graph's CSR edge slots.

    Parameters
    ----------
    graph:
        A weighted :class:`~repro.graph.csr.Graph`.  For unweighted
        graphs an alias table is unnecessary (uniform ``randint`` over
        the neighbour list is already O(1)); constructing one anyway is
        supported for uniformity of calling code.
    """

    def __init__(self, graph):
        # the CSR arrays the draws read, not the graph: the graph caches
        # its table, and a table → graph reference would make a cycle
        # that only the cyclic collector could free
        self._indptr = graph.indptr
        self._indices = graph.indices
        self._out_degrees = graph.out_degrees
        self.probability = np.ones(graph.num_arcs)
        self.alias = np.arange(graph.num_arcs, dtype=np.int64)
        if graph.is_weighted:
            self._build(graph)

    def _build(self, graph) -> None:
        indptr, weights = graph.indptr, graph.weights
        degrees = graph.degrees
        for node in range(graph.num_nodes):
            lo, hi = int(indptr[node]), int(indptr[node + 1])
            count = hi - lo
            if count == 0:
                continue
            # scaled[j] = count * P(slot j); alias splits slots into
            # donors (> 1) and receivers (< 1) in the classic way.
            scaled = weights[lo:hi] * (count / degrees[node])
            small = [j for j in range(count) if scaled[j] < 1.0]
            large = [j for j in range(count) if scaled[j] >= 1.0]
            scaled = scaled.copy()
            while small and large:
                receiver = small.pop()
                donor = large.pop()
                self.probability[lo + receiver] = scaled[receiver]
                self.alias[lo + receiver] = lo + donor
                scaled[donor] -= 1.0 - scaled[receiver]
                if scaled[donor] < 1.0:
                    small.append(donor)
                else:
                    large.append(donor)
            for j in large + small:  # numerical leftovers accept outright
                self.probability[lo + j] = 1.0
                self.alias[lo + j] = lo + j

    # ------------------------------------------------------------------
    def sample_neighbors(self, nodes: np.ndarray,
                         rng: np.random.Generator | int | None = None,
                         uniforms: tuple[np.ndarray, np.ndarray] | None = None,
                         ) -> np.ndarray:
        """Draw one weighted random neighbour for each node in ``nodes``.

        Parameters
        ----------
        nodes:
            Array of node ids; every node must have at least one
            neighbour.
        uniforms:
            Optional pre-drawn pair of uniform(0,1) arrays (slot pick,
            accept/reject) the same length as ``nodes``; used by walk
            kernels that draw randomness in blocks.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        out_degrees = self._out_degrees[nodes]
        if np.any(out_degrees == 0):
            raise GraphError("cannot sample a neighbour of an isolated node")
        if uniforms is None:
            generator = ensure_rng(rng)
            pick = generator.random(nodes.size)
            accept = generator.random(nodes.size)
        else:
            pick, accept = uniforms
        slots = self._indptr[nodes] + (pick * out_degrees).astype(np.int64)
        rejected = accept >= self.probability[slots]
        slots[rejected] = self.alias[slots[rejected]]
        return self._indices[slots]

    def expected_distribution(self, node: int) -> np.ndarray:
        """Exact per-neighbour probabilities encoded by the table.

        Used in tests to confirm the table reproduces ``w_uv / d_u``.
        """
        lo, hi = int(self._indptr[node]), int(self._indptr[node + 1])
        count = hi - lo
        result = np.zeros(count)
        for j in range(count):
            result[j] += self.probability[lo + j] / count
            result[self.alias[lo + j] - lo] += (1.0 - self.probability[lo + j]) / count
        return result
