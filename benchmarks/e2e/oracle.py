"""Exact PPR, written against scipy alone, to check the program's answers.

PPR with decay α on a row-stochastic ``P = D^-1 A`` satisfies
``π(s, ·) = α e_s^T (I - (1-α) P)^-1``.  One sparse LU factorisation
of ``M = I - (1-α) P`` answers every probe: a source row solves
``M^T x = α e_s`` and a target column solves ``M x = α e_t``.  A
node without out-edges keeps its walk in place (a unit self-loop),
the convention the program documents for dangling nodes.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


def adjacency(indptr, indices, weights, num_nodes: int) -> sp.csr_matrix:
    """The weighted adjacency matrix of a CSR graph (weights default 1)."""
    data = (np.ones(len(indices)) if weights is None
            else np.asarray(weights, dtype=np.float64))
    return sp.csr_matrix((data, np.asarray(indices), np.asarray(indptr)),
                         shape=(num_nodes, num_nodes))


def apply_upserts(matrix: sp.csr_matrix, upserts, *,
                  directed: bool = False) -> sp.csr_matrix:
    """``matrix`` after setting each ``(u, v, weight)`` edge in order
    (both arcs on an undirected graph)."""
    edited = matrix.tolil(copy=True)
    for u, v, weight in upserts:
        edited[u, v] = weight
        if not directed:
            edited[v, u] = weight
    return edited.tocsr()


class ExactPPR:
    """Exact single-source rows and single-target columns for one α."""

    def __init__(self, matrix: sp.csr_matrix, alpha: float):
        num_nodes = matrix.shape[0]
        degrees = np.asarray(matrix.sum(axis=1)).ravel()
        dangling = degrees == 0
        inverse = np.where(dangling, 0.0, 1.0 / np.where(dangling, 1.0,
                                                         degrees))
        transition = (sp.diags(inverse) @ matrix
                      + sp.diags(dangling.astype(np.float64)))
        self.alpha = float(alpha)
        self.num_nodes = num_nodes
        # M has the graph's (symmetric) sparsity pattern; an ordering
        # of A^T + A keeps the fill-in ~25x below scipy's default
        # COLAMD, which is the difference between 0.3 s and 6 s here
        self._lu = spla.splu(
            (sp.identity(num_nodes, format="csc")
             - (1.0 - alpha) * transition).tocsc(),
            permc_spec="MMD_AT_PLUS_A")

    def _unit(self, node: int) -> np.ndarray:
        vector = np.zeros(self.num_nodes)
        vector[node] = self.alpha
        return vector

    def source(self, node: int) -> np.ndarray:
        """``π(node, v)`` for every ``v``."""
        return self._lu.solve(self._unit(node), trans="T")

    def target(self, node: int) -> np.ndarray:
        """``π(v, node)`` for every ``v``."""
        return self._lu.solve(self._unit(node))


def probe_entries(oracle: ExactPPR, probe: dict, answer: dict
                  ) -> list[tuple[float, float]]:
    """``(estimate, exact)`` for every entry a probe answer reports.

    A ``/query`` answer lists ``[node, estimate]`` pairs for one source
    row or target column; a ``/pair`` answer holds one ``value``.
    """
    body = probe["body"]
    if "value" in answer:
        exact = oracle.source(int(body["source"]))[int(body["target"])]
        return [(float(answer["value"]), float(exact))]
    node = int(body["node"])
    exact = (oracle.source(node) if body["kind"] == "source"
             else oracle.target(node))
    return [(float(estimate), float(exact[int(other)]))
            for other, estimate in answer["top"]]


def relative_errors(entries, floor: float) -> list[float]:
    """``|estimate - exact| / exact`` over entries with exact ≥ ``floor``."""
    return [abs(estimate - exact) / exact for estimate, exact in entries
            if exact >= floor]
