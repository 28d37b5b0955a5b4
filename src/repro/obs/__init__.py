r"""Dependency-free observability layer for the PPR serving stack.

Four pillars, threaded through every service component (see
docs/OBSERVABILITY.md for the full model):

- :mod:`repro.obs.tracing` — request ids, head-sampled per-request
  span trees with cross-process stitching over the executor's worker
  pipes, and a bounded ring of finished traces;
- :mod:`repro.obs.histogram` — the one fixed-bucket
  :class:`~repro.obs.histogram.Histogram` (since-boot counts plus an
  optional per-tick ring for rolling windows), rendered in Prometheus
  histogram text format;
- :mod:`repro.obs.slowlog` — a structured JSON-lines slow-query log
  (threshold-admitted, errors always sampled) carrying the span tree
  and work counters of each offending request;
- :mod:`repro.obs.profiler` — an opt-in sampling profiler dumping
  collapsed stacks for flamegraphs (``--profile``);
- :mod:`repro.obs.timeseries` — fixed-interval ring-buffer series
  (counters, gauges, and a registry of windowed histograms)
  answering "over the last N seconds" questions with bounded memory
  and no background threads;
- :mod:`repro.obs.slo` — declarative availability/latency SLOs
  evaluated with multi-window burn-rate alerting on top of the
  rolling series.

Everything is stdlib-only and safe to import before the executor
forks.  The disabled path (sample rate 0, no slow-log file, profiler
off) is engineered to be near-zero overhead: unsampled requests
thread a no-op :data:`~repro.obs.tracing.NULL_SPAN` through the exact
same code path as sampled ones.
"""

from repro.obs.histogram import (
    DEFAULT_BUCKETS,
    STAGES,
    Histogram,
    bucket_quantile,
    exact_quantile,
)
from repro.obs.profiler import SamplingProfiler
from repro.obs.slo import SLOEngine, SLOSpec, SLOTracker, default_specs
from repro.obs.slowlog import SlowLog, read_slowlog, summarize_entries
from repro.obs.timeseries import (
    RollingCounter,
    RollingGauge,
    TimeSeriesStore,
)
from repro.obs.tracing import (
    NULL_SPAN,
    NULL_TRACER,
    NullSpan,
    NullTracer,
    Span,
    Tracer,
    chrome_trace_events,
    new_request_id,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "Histogram",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullSpan",
    "NullTracer",
    "RollingCounter",
    "RollingGauge",
    "SamplingProfiler",
    "SLOEngine",
    "SLOSpec",
    "SLOTracker",
    "SlowLog",
    "STAGES",
    "Span",
    "TimeSeriesStore",
    "Tracer",
    "bucket_quantile",
    "chrome_trace_events",
    "default_specs",
    "exact_quantile",
    "new_request_id",
    "read_slowlog",
    "summarize_entries",
]
