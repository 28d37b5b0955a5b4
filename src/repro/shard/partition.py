r"""Node partitioning for the sharded forest index.

A :class:`ShardMap` assigns every node of a
:class:`~repro.graph.csr.Graph` to exactly one shard and gives each
node a dense *local id* inside its shard (its rank among the shard's
owned nodes in ascending global order).  Two strategies live behind
the one interface:

- ``hash`` — Knuth multiplicative hashing of the node id.  Spreads
  consecutive ids (and therefore most degree skew) evenly across
  shards; the default for load balance.
- ``range`` — contiguous blocks of the node-id space, first
  ``n % S`` shards one node larger (``array_split`` semantics).
  Keeps locality for id-ordered graphs and makes the ownership test a
  single comparison.

Both strategies are **pure functions of** ``(num_nodes, num_shards)``,
so serializing a map costs three scalars (:meth:`ShardMap.to_dict`)
and any two processes that build a map from the same triple agree on
every assignment — the property the scatter-gather router and the
per-shard executor workers rely on.

The graph itself is never split: every shard pushes over the full
graph, and only the bank's fold rows are partitioned
(:meth:`~repro.montecarlo.forest_index.ForestIndex.restrict`).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigError

__all__ = ["STRATEGIES", "ShardMap"]

#: Recognised partitioning strategies.
STRATEGIES = ("hash", "range")

#: Knuth's multiplicative-hash constant (2^32 / φ), mixing consecutive
#: node ids so hash shards see near-uniform node counts.
_HASH_MULTIPLIER = np.uint64(2654435761)
_HASH_MASK = np.uint64(2**32 - 1)


class ShardMap:
    """The node ↔ (shard, local id) mapping for one partitioning.

    Deterministic in ``(num_nodes, num_shards, strategy)`` — no RNG,
    no graph inspection — so the map never needs its arrays
    serialized: :meth:`to_dict` / :meth:`from_dict` carry only the
    defining triple.
    """

    def __init__(self, num_nodes: int, num_shards: int,
                 strategy: str = "hash"):
        num_nodes = int(num_nodes)
        num_shards = int(num_shards)
        if num_nodes < 1:
            raise ConfigError(f"num_nodes must be >= 1, got {num_nodes}")
        if num_shards < 1:
            raise ConfigError(f"num_shards must be >= 1, got {num_shards}")
        if strategy not in STRATEGIES:
            raise ConfigError(
                f"strategy must be one of {STRATEGIES}, got {strategy!r}")
        self.num_nodes = num_nodes
        self.num_shards = num_shards
        self.strategy = str(strategy)
        nodes = np.arange(num_nodes, dtype=np.int64)
        if self.strategy == "hash":
            hashed = (nodes.astype(np.uint64) * _HASH_MULTIPLIER) \
                & _HASH_MASK
            self.shard_of = (hashed % np.uint64(num_shards)).astype(np.int64)
        else:  # range: contiguous blocks, array_split sizing
            sizes = np.full(num_shards, num_nodes // num_shards,
                            dtype=np.int64)
            sizes[:num_nodes % num_shards] += 1
            self.shard_of = np.repeat(np.arange(num_shards, dtype=np.int64),
                                      sizes)
        # group nodes by shard; the stable sort of an ascending id
        # stream keeps each shard's owned list ascending, which is the
        # local-id order every restricted bank uses
        order = np.argsort(self.shard_of, kind="stable")
        counts = np.bincount(self.shard_of, minlength=num_shards)
        starts = np.concatenate(([0], np.cumsum(counts)))
        self._order = order
        self._starts = starts
        self.shard_sizes = counts
        self.local_of = np.empty(num_nodes, dtype=np.int64)
        self.local_of[order] = (nodes
                                - np.repeat(starts[:-1], counts))

    # ------------------------------------------------------------------
    def local_nodes(self, shard: int) -> np.ndarray:
        """Global ids owned by ``shard``, ascending (local id order)."""
        if not 0 <= shard < self.num_shards:
            raise ConfigError(
                f"shard {shard} out of range [0, {self.num_shards})")
        return self._order[self._starts[shard]:self._starts[shard + 1]]

    def locate(self, node: int) -> tuple[int, int]:
        """``(shard, local id)`` of one global node."""
        node = int(node)
        if not 0 <= node < self.num_nodes:
            raise ConfigError(
                f"node {node} out of range [0, {self.num_nodes})")
        return int(self.shard_of[node]), int(self.local_of[node])

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The defining triple — all a peer needs to rebuild the map."""
        return {"strategy": self.strategy,
                "num_shards": self.num_shards,
                "num_nodes": self.num_nodes}

    @classmethod
    def from_dict(cls, payload: dict) -> "ShardMap":
        """Rebuild a map serialized by :meth:`to_dict`."""
        return cls(int(payload["num_nodes"]), int(payload["num_shards"]),
                   str(payload["strategy"]))

    def __eq__(self, other) -> bool:
        return (isinstance(other, ShardMap)
                and self.to_dict() == other.to_dict())

    def __repr__(self) -> str:
        return (f"ShardMap({self.num_nodes} nodes, "
                f"{self.num_shards} shard(s), {self.strategy!r})")
