"""Service metrics: latency histograms, work counters, Prometheus text.

The serving layer reports three kinds of numbers:

- machine-independent *work* — the same
  :class:`~repro.counters.WorkCounters` threaded through every sampler
  and push kernel, aggregated across scheduler batches under the
  registry lock (the counters themselves are deliberately
  unsynchronised, see :meth:`~repro.counters.WorkCounters.merge`);
- *serving* statistics — request/rejection totals, queue depth, batch
  sizes, and end-to-end request latency, for the whole service and
  per tenant;
- *stage latencies* — one histogram per pipeline stage (admission,
  cache lookup, batch wait, dispatch, fold, merge, serialize; see
  :data:`repro.obs.histogram.STAGES`), plus per-shard fold time.

Every bucketed number is a :class:`~repro.obs.histogram.Histogram`.
With a :class:`~repro.obs.timeseries.TimeSeriesStore` wired in, the
service, tenant and shard histograms come from the store, so the
since-boot counts behind ``/metrics`` and the tenant and shard tables
and the rolling windows behind ``/statusz`` are one object each: a
request's latency is observed exactly twice (service and tenant).

Everything is exposed in Prometheus text format (v0.0.4) by
:meth:`ServiceMetrics.render`, which is what the HTTP front end serves
at ``/metrics``.  Gauges owned by other components (queue depth, cache
stats, index footprint) are *pulled* at render time through registered
callables, so the registry never holds stale copies.

Tenant labels come from client input, so at most :data:`MAX_TENANTS`
distinct labels get their own row; later ones share
:data:`OVERFLOW_TENANT`, which keeps memory and the exposition bounded.

Consistency: every multi-field update (batch count + work counters +
batch-size histogram) happens under the registry lock, and
:meth:`snapshot` reads under the same lock — so ``/healthz`` and
``/metrics`` never observe a torn batch update.
"""

from __future__ import annotations

import re
import threading
from typing import Callable

from repro.counters import WorkCounters
from repro.obs.histogram import STAGES, Histogram

__all__ = ["ServiceMetrics", "clean_tenant", "DEFAULT_TENANT",
           "MAX_TENANTS", "OVERFLOW_TENANT"]

#: Upper bucket bounds for the batch-size histogram (plus +Inf).
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)

#: Label every request without an (acceptable) tenant lands under.
DEFAULT_TENANT = "default"

#: Distinct tenant labels tracked before new ones share
#: :data:`OVERFLOW_TENANT` (tenant labels come from client input).
MAX_TENANTS = 64

#: Label for every tenant past :data:`MAX_TENANTS`.
OVERFLOW_TENANT = "_overflow"

_TENANT_PATTERN = re.compile(r"[A-Za-z0-9_.:-]{1,64}")


def clean_tenant(raw) -> str:
    """Sanitize a client-supplied tenant label for metric use.

    Tenants come straight off an HTTP header or query parameter, and
    they end up inside Prometheus label values and JSON tables — so
    anything not matching a conservative charset (alnum plus
    ``_.:-``, at most 64 chars) collapses to :data:`DEFAULT_TENANT`
    rather than polluting the exposition.
    """
    if raw is None:
        return DEFAULT_TENANT
    text = str(raw).strip()
    if _TENANT_PATTERN.fullmatch(text):
        return text
    return DEFAULT_TENANT


class _TenantStats:
    """Per-tenant accounting: counters + a latency histogram.

    Counters are guarded by the owning registry's lock; the latency
    histogram has its own lock, so observations happen outside the
    registry lock like the service-wide one.
    """

    __slots__ = ("requests", "rejected", "errors", "work", "latency")

    def __init__(self, latency: Histogram):
        self.requests = 0
        self.rejected = 0
        self.errors = 0
        self.work = 0.0
        self.latency = latency


class ServiceMetrics:
    """Aggregation point for every number ``/metrics`` exposes.

    ``timeseries`` (a :class:`~repro.obs.timeseries.TimeSeriesStore`)
    and ``slo`` (a :class:`~repro.obs.slo.SLOEngine`) are optional:
    with a store, the service, tenant and shard histograms are the
    store's ring-carrying ones and request/rejection/error counts
    feed its rolling counters; with an engine, every request feeds
    the SLO good/bad streams.  All of it runs on the metrics path,
    strictly after the response payload is determined, so enabling
    them can never change a response byte.
    """

    def __init__(self, *, timeseries=None, slo=None):
        self.work = WorkCounters()
        self.timeseries = timeseries
        self.slo = slo
        #: end-to-end request latency (windowed with a store)
        self.latency = self._histogram("latency")
        #: per-stage latency histograms (admission … serialize)
        self.stages = {stage: Histogram() for stage in STAGES}
        self.batch_sizes = Histogram(BATCH_SIZE_BUCKETS)
        #: per-shard fold latency (sharded executor only), created
        #: lazily per shard label under the registry lock
        self._shard_folds: dict[int, Histogram] = {}
        self._lock = threading.Lock()
        self._requests: dict[str, int] = {}
        self._tenants: dict[str, _TenantStats] = {}
        self._straggler_folds: dict[int, int] = {}
        self._rejected = 0
        self._batches = 0
        self._errors = 0
        self._mutations = 0
        self._gauges: dict[str, Callable[[], dict | float]] = {}

    def _histogram(self, name: str) -> Histogram:
        """The store's windowed histogram ``name``, or a plain one."""
        if self.timeseries is None:
            return Histogram()
        return self.timeseries.histogram(name)

    def _tenant_locked(self, tenant: str) -> _TenantStats:
        stats = self._tenants.get(tenant)
        if stats is None:
            if len(self._tenants) >= MAX_TENANTS:
                tenant = OVERFLOW_TENANT
                stats = self._tenants.get(tenant)
            if stats is None:
                stats = _TenantStats(
                    self._histogram(f"tenant_latency.{tenant}"))
                self._tenants[tenant] = stats
        return stats

    # ------------------------------------------------------------------
    def record_request(self, endpoint: str, seconds: float,
                       tenant: str | None = None,
                       work: dict | None = None) -> None:
        """One completed request on ``endpoint`` taking ``seconds``.

        ``tenant`` attributes the request (and ``work``, the result's
        WorkCounters dict — zero on cache hits) to a per-tenant table.
        The latency is observed twice, into the service and the tenant
        histogram; the rolling store and SLO engine see the request as
        well.
        """
        tenant = clean_tenant(tenant)
        with self._lock:
            self._requests[endpoint] = self._requests.get(endpoint, 0) + 1
            stats = self._tenant_locked(tenant)
            stats.requests += 1
            if work:
                stats.work += float(work.get("total")
                                    or sum(work.values()))
        self.latency.observe(seconds)
        stats.latency.observe(seconds)
        if self.timeseries is not None:
            self.timeseries.counter("requests").add()
        if self.slo is not None:
            self.slo.observe_request(seconds)

    def record_rejection(self, tenant: str | None = None) -> None:
        """One request rejected by backpressure (bad for availability)."""
        tenant = clean_tenant(tenant)
        with self._lock:
            self._rejected += 1
            self._tenant_locked(tenant).rejected += 1
        if self.timeseries is not None:
            self.timeseries.counter("rejected").add()
        if self.slo is not None:
            self.slo.observe_rejection()

    def record_error(self) -> None:
        """One request that raised past the solver."""
        with self._lock:
            self._errors += 1

    def record_failure(self, tenant: str | None = None) -> None:
        """One failed *request* (as opposed to :meth:`record_error`'s
        per-batch counter): tenant attribution, the rolling error
        series, and an SLO bad event."""
        tenant = clean_tenant(tenant)
        with self._lock:
            self._tenant_locked(tenant).errors += 1
        if self.timeseries is not None:
            self.timeseries.counter("errors").add()
        if self.slo is not None:
            self.slo.observe_request(0.0, error=True)

    def record_batch(self, size: int, work: WorkCounters | dict) -> None:
        """One executed scheduler batch and the work it performed."""
        with self._lock:
            self.batch_sizes.observe(size)
            self._batches += 1
            self.work.merge(work)

    def record_mutation(self, work: WorkCounters | dict) -> None:
        """One applied graph mutation and the repair/rebuild work it
        cost (the ``repair_*`` counter fields land here)."""
        with self._lock:
            self._mutations += 1
            self.work.merge(work)

    def record_stage(self, stage: str, seconds: float) -> None:
        """One observation for a pipeline-stage latency histogram
        (an unknown stage raises ``KeyError``)."""
        self.stages[stage].observe(seconds)

    def record_fold(self, seconds: float) -> None:
        """Solver-fold wall time of one executed batch (compute only,
        no queueing) — the stage split executor sizing needs."""
        self.stages["fold"].observe(seconds)

    def record_shard_fold(self, shard: int, seconds: float) -> None:
        """One shard's fold wall time for one scatter-gathered batch.

        Feeds ``repro_service_shard_fold_seconds{shard="k"}`` so shard
        imbalance — one partition folding consistently slower than its
        peers — is visible straight from ``/metrics``.
        """
        shard = int(shard)
        histogram = self._shard_folds.get(shard)
        if histogram is None:
            with self._lock:
                histogram = self._shard_folds.get(shard)
                if histogram is None:
                    histogram = self._histogram(f"shard_fold.{shard}")
                    self._shard_folds[shard] = histogram
        histogram.observe(seconds)

    def record_straggler(self, shard: int) -> None:
        """One fold flagged by the straggler detector on ``shard``.

        Feeds ``repro_service_straggler_folds_total{shard="k"}`` and
        the rolling ``straggler_folds`` series ``/statusz`` windows.
        """
        shard = int(shard)
        with self._lock:
            self._straggler_folds[shard] = \
                self._straggler_folds.get(shard, 0) + 1
        if self.timeseries is not None:
            self.timeseries.counter("straggler_folds").add()

    def register_gauge(self, name: str, supplier: Callable) -> None:
        """Register a pull-at-render-time gauge.

        ``supplier`` returns either a float (one gauge line) or a
        ``{label_suffix: value}`` dict (one line per entry, the suffix
        appended to the metric name as-is, e.g. a ``{...}`` label set).
        """
        self._gauges[name] = supplier

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-dict summary (tests and ``/healthz`` read this).

        All counter fields are read under the registry lock, so the
        returned dict is a consistent point-in-time cut — request
        totals, batch totals and work counters all reflect the same set
        of completed updates.
        """
        with self._lock:
            requests = dict(self._requests)
            rejected, batches, errors = (self._rejected, self._batches,
                                         self._errors)
            mutations = self._mutations
            work = self.work.snapshot_dict()
            batch_size = self.batch_sizes.snapshot()
            stragglers = dict(self._straggler_folds)
        return {
            "requests": requests,
            "rejected": rejected,
            "batches": batches,
            "errors": errors,
            "mutations": mutations,
            "work": work,
            "fold_p50": self.stages["fold"].quantile(0.5),
            "fold_p99": self.stages["fold"].quantile(0.99),
            "batch_size": batch_size,
            "straggler_folds": stragglers,
        }

    def tenant_table(self) -> list[dict]:
        """Per-tenant attribution rows for ``/statusz`` and tests.

        One dict per tenant, sorted by tenant label, with since-boot
        request/rejection/error counts, attributed solver work, and
        bucket-resolution latency quantiles.  At most
        :data:`MAX_TENANTS` labels plus :data:`OVERFLOW_TENANT`.
        """
        with self._lock:
            tenants = sorted(self._tenants.items())
        return [{
            "tenant": tenant,
            "requests": stats.requests,
            "rejected": stats.rejected,
            "errors": stats.errors,
            "work": stats.work,
            "p50_seconds": stats.latency.quantile(0.50),
            "p99_seconds": stats.latency.quantile(0.99),
        } for tenant, stats in tenants]

    def shard_table(self) -> list[dict]:
        """Per-shard fold latency + straggler counts for ``/statusz``."""
        with self._lock:
            shards = sorted(self._shard_folds.items())
            stragglers = dict(self._straggler_folds)
        return [{
            "shard": shard,
            "folds": histogram.count(),
            "straggler_folds": stragglers.get(shard, 0),
            "fold_p50_seconds": histogram.quantile(0.50),
            "fold_p99_seconds": histogram.quantile(0.99),
        } for shard, histogram in shards]

    def window_snapshot(self, window_s: float,
                        now: float | None = None) -> dict | None:
        """Rolling-window view (``None`` without a time-series store)."""
        if self.timeseries is None:
            return None
        return self.timeseries.window_snapshot(window_s, now)

    def slo_report(self, now: float | None = None) -> list[dict]:
        """Evaluate every SLO alert state machine (empty = no engine)."""
        if self.slo is None:
            return []
        return self.slo.evaluate(now)

    def render(self) -> str:
        """Prometheus text-format (v0.0.4) exposition."""
        snap = self.snapshot()
        lines: list[str] = []

        def emit(name: str, kind: str, help_text: str, samples) -> None:
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            for suffix, value in samples:
                lines.append(f"{name}{suffix} {_fmt(value)}")

        def histogram_samples(snapshot: dict, labels: str = "") -> list:
            sep = "," if labels else ""
            samples = [(f'_bucket{{{labels}{sep}le="{le}"}}', count)
                       for le, count in snapshot["buckets"]]
            wrap = f"{{{labels}}}" if labels else ""
            samples.append((f"_sum{wrap}", snapshot["sum"]))
            samples.append((f"_count{wrap}", snapshot["count"]))
            return samples

        emit("repro_service_requests_total", "counter",
             "Completed requests by endpoint.",
             [(f'{{endpoint="{ep}"}}', count)
              for ep, count in sorted(snap["requests"].items())] or
             [('{endpoint="query"}', 0)])
        emit("repro_service_rejected_total", "counter",
             "Requests rejected by queue backpressure.",
             [("", snap["rejected"])])
        emit("repro_service_errors_total", "counter",
             "Requests that failed with an internal error.",
             [("", snap["errors"])])
        emit("repro_service_batches_total", "counter",
             "Micro-batches executed by the scheduler.",
             [("", snap["batches"])])
        emit("repro_service_mutations_total", "counter",
             "Graph mutations applied through /mutate.",
             [("", snap["mutations"])])

        emit("repro_service_batch_size", "histogram",
             "Requests grouped per executed micro-batch.",
             histogram_samples(snap["batch_size"]))

        emit("repro_service_latency_seconds", "histogram",
             "End-to-end request latency.",
             histogram_samples(self.latency.snapshot()))

        stage_samples: list = []
        for stage, histogram in self.stages.items():
            stage_samples.extend(histogram_samples(
                histogram.snapshot(), labels=f'stage="{stage}"'))
        emit("repro_service_stage_seconds", "histogram",
             "Per-stage pipeline latency "
             "(admission|cache_lookup|batch_wait|dispatch|fold|merge|"
             "serialize).",
             stage_samples)

        with self._lock:
            shard_folds = sorted(self._shard_folds.items())
            tenants = sorted(self._tenants.items())
            stragglers = sorted(self._straggler_folds.items())
        if shard_folds:
            shard_samples: list = []
            for shard, histogram in shard_folds:
                shard_samples.extend(histogram_samples(
                    histogram.snapshot(), labels=f'shard="{shard}"'))
            emit("repro_service_shard_fold_seconds", "histogram",
                 "Per-shard fold latency of scatter-gathered batches.",
                 shard_samples)
        if stragglers:
            emit("repro_service_straggler_folds_total", "counter",
                 "Shard folds flagged as stragglers (z-score above "
                 "threshold vs the rolling fold-time window).",
                 [(f'{{shard="{shard}"}}', count)
                  for shard, count in stragglers])
        if tenants:
            emit("repro_service_tenant_requests_total", "counter",
                 "Completed requests by tenant.",
                 [(f'{{tenant="{tenant}"}}', stats.requests)
                  for tenant, stats in tenants])
            emit("repro_service_tenant_rejected_total", "counter",
                 "Backpressure rejections by tenant.",
                 [(f'{{tenant="{tenant}"}}', stats.rejected)
                  for tenant, stats in tenants])
            emit("repro_service_tenant_errors_total", "counter",
                 "Failed requests by tenant.",
                 [(f'{{tenant="{tenant}"}}', stats.errors)
                  for tenant, stats in tenants])
            emit("repro_service_tenant_work_total", "counter",
                 "Attributed solver work (WorkCounters total) by "
                 "tenant.",
                 [(f'{{tenant="{tenant}"}}', stats.work)
                  for tenant, stats in tenants])
            tenant_samples: list = []
            for tenant, stats in tenants:
                tenant_samples.extend(histogram_samples(
                    stats.latency.snapshot(),
                    labels=f'tenant="{tenant}"'))
            emit("repro_service_tenant_latency_seconds", "histogram",
                 "End-to-end request latency by tenant.",
                 tenant_samples)

        for name, value in sorted(snap["work"].items()):
            if name == "total":
                continue
            emit(f"repro_service_work_{name}_total", "counter",
                 f"Aggregated WorkCounters field '{name}'.",
                 [("", value)])

        for name, supplier in sorted(self._gauges.items()):
            value = supplier()
            samples = (sorted(value.items()) if isinstance(value, dict)
                       else [("", value)])
            emit(name, "gauge", "Pulled at render time.", samples)

        return "\n".join(lines) + "\n"


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)
