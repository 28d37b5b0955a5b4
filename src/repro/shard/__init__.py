"""Sharded forest index: partitioning, partial results, routing.

- :mod:`repro.shard.partition` — deterministic node ↔ shard maps
  (hash / range strategies);
- :mod:`repro.shard.partial` — the per-shard partial result the
  scatter-gather protocol ships between workers and the router;
- :mod:`repro.shard.router` — :class:`~repro.shard.router.ShardRouter`,
  the executor-shaped scatter-gather front over one
  :class:`~repro.service.executor.ProcessExecutor` per shard (flat
  process serving is its one-shard case).

The router is exported lazily: it imports the service executor stack,
which itself imports the core batch solvers — and the batch solvers
import :mod:`repro.shard.partial` from here, so an eager import would
cycle.
"""

from repro.shard.partial import ShardPartial
from repro.shard.partition import STRATEGIES, ShardMap

__all__ = ["STRATEGIES", "ShardMap", "ShardPartial", "ShardRouter"]


def __getattr__(name: str):
    if name == "ShardRouter":
        from repro.shard.router import ShardRouter

        return ShardRouter
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
