"""Compressed-sparse-row graph storage.

:class:`Graph` is the single adjacency structure used across the
library.  It stores out-edges in CSR form; undirected graphs keep both
orientations of every edge so that "out-neighbours" are simply
"neighbours".  Instances are treated as immutable: every algorithm
reads the arrays but never writes them, and derived structures (the
scipy transition matrix, alias tables, cumulative weight arrays) are
built lazily and cached on the instance.

Conventions
-----------
- Node ids are the integers ``0..n-1``.
- ``weights is None`` means the graph is unweighted; algorithms treat
  every edge weight as ``1.0`` but use cheaper sampling paths.
- ``degrees[u]`` is the *weighted* out-degree (row sum of the adjacency
  matrix), matching the paper's ``d_u``.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sp

from repro.exceptions import GraphError

__all__ = ["Graph"]


class Graph:
    """An immutable CSR graph.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``n + 1``; row pointer of the CSR
        structure.
    indices:
        ``int64`` array of length ``indptr[-1]``; concatenated
        neighbour lists.
    weights:
        Optional ``float64`` array parallel to ``indices`` with
        strictly positive edge weights, or ``None`` for an unweighted
        graph.
    directed:
        Whether the stored arcs are one-directional.  Undirected graphs
        must store both orientations of each edge (builders in
        :mod:`repro.graph.build` do this automatically).
    validate:
        Run structural validation (bounds, sortedness is *not*
        required, weight positivity).  Disable only for trusted callers
        on hot paths.
    """

    __slots__ = (
        "indptr",
        "indices",
        "weights",
        "directed",
        "__dict__",  # for cached_property storage
    )

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 weights: np.ndarray | None = None, *,
                 directed: bool = False, validate: bool = True):
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.weights = (
            None if weights is None
            else np.ascontiguousarray(weights, dtype=np.float64)
        )
        self.directed = bool(directed)
        if validate:
            self._validate()

    # ------------------------------------------------------------------
    # Construction helpers / validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        if self.indptr.ndim != 1 or self.indptr.size < 1:
            raise GraphError("indptr must be a 1-D array of length n + 1 >= 1")
        if self.indptr[0] != 0:
            raise GraphError("indptr must start at 0")
        if np.any(np.diff(self.indptr) < 0):
            raise GraphError("indptr must be non-decreasing")
        if self.indptr[-1] != self.indices.size:
            raise GraphError(
                f"indptr[-1] ({int(self.indptr[-1])}) does not match the "
                f"number of stored arcs ({self.indices.size})")
        n = self.num_nodes
        if n == 0:
            raise GraphError("graphs must have at least one node")
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= n):
            raise GraphError("edge endpoint out of range")
        if self.weights is not None:
            if self.weights.shape != self.indices.shape:
                raise GraphError("weights must be parallel to indices")
            if self.indices.size and not np.all(self.weights > 0):
                raise GraphError("edge weights must be strictly positive")

    # ------------------------------------------------------------------
    # Basic size / degree queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""
        return self.indptr.size - 1

    @property
    def num_arcs(self) -> int:
        """Number of stored arcs (2m for an undirected graph)."""
        return self.indices.size

    @property
    def num_edges(self) -> int:
        """Number of edges ``m`` (arcs / 2 when undirected)."""
        return self.num_arcs if self.directed else self.num_arcs // 2

    @property
    def is_weighted(self) -> bool:
        """Whether explicit edge weights are stored."""
        return self.weights is not None

    @cached_property
    def out_degrees(self) -> np.ndarray:
        """Unweighted out-degree (neighbour count) per node."""
        return np.diff(self.indptr)

    @cached_property
    def degrees(self) -> np.ndarray:
        """Weighted out-degree ``d_u`` per node (row sums of ``A``)."""
        if self.weights is None:
            return self.out_degrees.astype(np.float64)
        # cumulative-sum differencing handles empty rows (including a
        # trailing isolated node, where reduceat would index past the end)
        running = np.concatenate(([0.0], np.cumsum(self.weights)))
        return running[self.indptr[1:]] - running[self.indptr[:-1]]

    @cached_property
    def has_dangling(self) -> bool:
        """Whether some node has no out-edge (cached); the push drivers
        skip their absorbing-node split when none does."""
        return bool((self.out_degrees == 0).any())

    @cached_property
    def total_weight(self) -> float:
        """Sum of ``d_u`` over all nodes (``2m`` for unweighted undirected)."""
        return float(self.degrees.sum())

    @property
    def average_degree(self) -> float:
        """Average unweighted degree ``2m/n`` (or ``m/n`` if directed)."""
        return self.num_arcs / self.num_nodes

    def degree(self, node: int) -> float:
        """Weighted degree of one node."""
        self._check_node(node)
        return float(self.degrees[node])

    def neighbors(self, node: int) -> np.ndarray:
        """Neighbour ids of ``node`` (a CSR slice view; do not mutate)."""
        self._check_node(node)
        return self.indices[self.indptr[node]:self.indptr[node + 1]]

    def edge_weights_of(self, node: int) -> np.ndarray:
        """Weights parallel to :meth:`neighbors` (ones if unweighted)."""
        self._check_node(node)
        lo, hi = self.indptr[node], self.indptr[node + 1]
        if self.weights is None:
            return np.ones(hi - lo)
        return self.weights[lo:hi]

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise GraphError(f"node {node} out of range [0, {self.num_nodes})")

    # ------------------------------------------------------------------
    # Derived structures (lazy, cached)
    # ------------------------------------------------------------------
    @cached_property
    def cumulative_weights(self) -> np.ndarray:
        """Per-row cumulative edge weights for inverse-CDF sampling.

        ``cumulative_weights[indptr[u]:indptr[u+1]]`` is the running sum
        of ``u``'s edge weights; the last entry equals ``d_u``.  Only
        meaningful for weighted graphs.
        """
        if self.weights is None:
            raise GraphError("cumulative_weights is only defined for weighted graphs")
        cum = np.cumsum(self.weights)
        # subtract, from every entry, the running total accumulated by
        # all earlier rows so each row restarts at its own first weight
        totals_before_row = np.concatenate(([0.0], cum))[self.indptr[:-1]]
        return cum - np.repeat(totals_before_row, self.out_degrees)

    @cached_property
    def alias_table(self):
        """Lazily built :class:`~repro.graph.alias.AliasTable` (cached).

        Used by every sampling kernel; on unweighted graphs it encodes
        the uniform distribution at zero extra cost.
        """
        from repro.graph.alias import AliasTable  # local import avoids a cycle
        return AliasTable(self)

    def to_scipy_adjacency(self) -> sp.csr_matrix:
        """Adjacency matrix ``A`` as ``scipy.sparse.csr_matrix``."""
        data = (np.ones(self.num_arcs) if self.weights is None
                else self.weights)
        n = self.num_nodes
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(n, n))

    @cached_property
    def transition_matrix(self) -> sp.csr_matrix:
        """Row-stochastic transition matrix ``P = D^-1 A`` (cached).

        Rows of isolated nodes are all-zero; the α-walk from an isolated
        node always stops in place, which every algorithm handles
        explicitly.
        """
        adjacency = self.to_scipy_adjacency()
        inv_deg = np.zeros(self.num_nodes)
        nonzero = self.degrees > 0
        inv_deg[nonzero] = 1.0 / self.degrees[nonzero]
        return sp.diags(inv_deg) @ adjacency

    @cached_property
    def transition_matrix_transpose(self) -> sp.csr_matrix:
        """``P^T`` in CSR form (cached), used by single-target solvers."""
        return self.transition_matrix.T.tocsr()

    def reverse(self) -> "Graph":
        """Graph with every arc reversed (cached).

        For undirected graphs this returns ``self`` (both orientations
        are already stored).  For directed graphs the CSR structure
        over the reversed arcs is built once and the same instance is
        returned on every later call.
        """
        if not self.directed:
            return self
        return self._reversed

    @cached_property
    def _reversed(self) -> "Graph":
        adjacency = self.to_scipy_adjacency().T.tocsr()
        weights = None if self.weights is None else adjacency.data.copy()
        return Graph(adjacency.indptr.astype(np.int64),
                     adjacency.indices.astype(np.int64),
                     weights, directed=True, validate=False)

    @cached_property
    def arc_rows(self) -> np.ndarray:
        """Row (tail node) of every stored arc, parallel to ``indices``."""
        return np.repeat(np.arange(self.num_nodes, dtype=np.int64),
                         self.out_degrees)

    @cached_property
    def in_arc_degrees(self) -> np.ndarray:
        """Receiver degree ``d_z`` of every in-arc ``z → u`` (cached).

        Parallel to ``reverse().indices``: entry ``i`` is the weighted
        out-degree of the in-neighbour ``reverse().indices[i]``, the
        divisor of backward push.  A zero degree is stored as ``inf``
        so that dividing by it yields ``0.0``.
        """
        receiver_deg = self.degrees[self.reverse().indices]
        return np.where(receiver_deg > 0, receiver_deg, np.inf)

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def has_edge(self, u: int, v: int) -> bool:
        """Whether the arc ``(u, v)`` is stored."""
        return bool(np.any(self.neighbors(u) == v))

    def edges(self) -> np.ndarray:
        """All stored arcs as an ``(num_arcs, 2)`` array of ``(u, v)``."""
        return np.column_stack((self.arc_rows, self.indices))

    @cached_property
    def connected_components(self) -> np.ndarray:
        """Component label per node (weakly connected if directed)."""
        n_comp, labels = sp.csgraph.connected_components(
            self.to_scipy_adjacency(), directed=self.directed,
            connection="weak")
        del n_comp
        return labels

    @property
    def is_connected(self) -> bool:
        """Whether the graph is (weakly) connected."""
        return int(self.connected_components.max(initial=0)) == 0

    def subgraph(self, nodes: np.ndarray) -> "Graph":
        """Induced subgraph on ``nodes`` with ids relabelled to 0..k-1."""
        nodes = np.unique(np.asarray(nodes, dtype=np.int64))
        if nodes.size == 0:
            raise GraphError("subgraph requires at least one node")
        if nodes.min() < 0 or nodes.max() >= self.num_nodes:
            raise GraphError("subgraph node id out of range")
        adjacency = self.to_scipy_adjacency()[nodes][:, nodes].tocsr()
        weights = None if self.weights is None else adjacency.data.astype(np.float64)
        return Graph(adjacency.indptr.astype(np.int64),
                     adjacency.indices.astype(np.int64),
                     weights, directed=self.directed, validate=False)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Serialise the graph to a compressed ``.npz`` file."""
        payload = {
            "indptr": self.indptr,
            "indices": self.indices,
            "directed": np.bool_(self.directed),
        }
        if self.weights is not None:
            payload["weights"] = self.weights
        np.savez_compressed(path, **payload)

    @classmethod
    def load(cls, path) -> "Graph":
        """Load a graph saved with :meth:`save`."""
        with np.load(path) as data:
            weights = data["weights"] if "weights" in data.files else None
            return cls(data["indptr"], data["indices"], weights,
                       directed=bool(data["directed"]), validate=True)

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.num_nodes

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        weight = "weighted" if self.is_weighted else "unweighted"
        return (f"Graph(n={self.num_nodes}, m={self.num_edges}, "
                f"{kind}, {weight})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if self.directed != other.directed:
            return False
        if not (np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices)):
            return False
        if (self.weights is None) != (other.weights is None):
            return False
        if self.weights is not None:
            return np.array_equal(self.weights, other.weights)
        return True

    __hash__ = None  # mutable ndarray members; identity hashing would mislead
