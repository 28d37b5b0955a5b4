r"""Long-lived PPR query service (serving layer).

Everything one-shot in the library — CLI queries, the batch solvers —
rebuilds graphs and forest banks per invocation.  The paper's §5.3
index idea (forests are query-independent) is exactly what makes a
*resident* process the right architecture for heavy query traffic,
and this package is that process, dependency-free (stdlib + NumPy):

- :class:`~repro.service.index_manager.IndexManager` — forest-bank
  lifecycle: build/warm, per-(graph, α) keying, background refresh
  with atomic swap, memory accounting;
- :class:`~repro.service.scheduler.MicroBatchScheduler` — bounded
  admission queue, compatibility-grouped micro-batches with
  deadline-based flush and backpressure;
- :class:`~repro.service.cache.ResultCache` — ε-aware LRU (a tight
  answer serves any looser query) with hit/miss/eviction counters;
- :class:`~repro.service.metrics.ServiceMetrics` — work counters,
  fixed-bucket histograms (end-to-end, per-tenant, per-stage,
  per-shard latency and batch sizes), Prometheus text;
- :class:`~repro.service.executor.ProcessExecutor` — forked worker
  pool folding batches against shared-memory banks (zero-copy tasks,
  crash respawn, byte-identical answers to the in-process path);
- :class:`~repro.service.service.PPRService` — the embeddable facade
  composing the four;
- :mod:`repro.service.http` — the ``/query`` ``/topk``
  ``/multiseed`` ``/pair`` ``/healthz`` ``/metrics`` HTTP front end
  behind ``repro serve``;
- :mod:`repro.service.loadgen` — closed-loop load generator / CI
  smoke checker.

See docs/SERVING.md for architecture and tuning guidance.
"""

from repro.service.cache import ResultCache, cache_key
from repro.service.config import ServiceConfig
from repro.service.executor import ExecutorError, ProcessExecutor
from repro.service.index_manager import IndexManager, SharedIndexView
from repro.service.metrics import ServiceMetrics
from repro.service.scheduler import (
    MicroBatchScheduler,
    QueryRequest,
    SchedulerFull,
)
from repro.service.service import PPRService

__all__ = [
    "ExecutorError",
    "IndexManager",
    "MicroBatchScheduler",
    "PPRService",
    "ProcessExecutor",
    "QueryRequest",
    "ResultCache",
    "SchedulerFull",
    "ServiceConfig",
    "ServiceMetrics",
    "SharedIndexView",
    "cache_key",
]
