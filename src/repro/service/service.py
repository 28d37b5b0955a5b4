"""The PPR query service facade: cache → scheduler → solvers.

:class:`PPRService` is the embeddable composition of the four serving
components — :class:`~repro.service.index_manager.IndexManager`,
:class:`~repro.service.scheduler.MicroBatchScheduler`,
:class:`~repro.service.cache.ResultCache`,
:class:`~repro.service.metrics.ServiceMetrics` — behind the query
endpoints :meth:`query`, :meth:`query_topk`, :meth:`query_multiseed`,
:meth:`pair`, the graph-mutation verb :meth:`mutate` and
:meth:`healthz` (plus :meth:`metrics_text` for Prometheus scrapes).  The HTTP front end in
:mod:`repro.service.http` is a thin JSON shim over exactly these
methods; benchmarks and tests drive the facade in-process to keep the
network out of the measurement.

All four query endpoints, and their raw accessors (:meth:`query_result`
and friends), run one request pipeline: root trace, admission, cache
lookup, scheduler submit, cache fill, serialization, slow log and the
``debug`` block.  A query kind supplies only what differs, as the
module-level ``_admit_*`` (validation and
:class:`~repro.service.scheduler.QueryRequest` fields) and
``*_payload`` functions; the cache policy is ε-dominance, plus
prefix-dominance for top-k.

Every answer is bit-identical to a direct
:class:`~repro.core.batch.BatchSourceSolver` /
:class:`~repro.core.batch.BatchTargetSolver` call against the same
bank — batching and caching change latency and throughput, never the
estimates.
"""

from __future__ import annotations

import time
from functools import partial

from repro.core.batch import normalize_seed_set
from repro.core.result import PPRResult
from repro.exceptions import ConfigError
from repro.graph.csr import Graph
from repro.graph.datasets import load_dataset
from repro.graph.delta import GraphDelta
from repro.obs.slo import SLOEngine, default_specs
from repro.obs.slowlog import SlowLog
from repro.obs.timeseries import TimeSeriesStore
from repro.obs.tracing import NULL_SPAN, Tracer, new_request_id
from repro.service.cache import ResultCache, cache_key
from repro.service.config import ServiceConfig
from repro.service.index_manager import IndexManager
from repro.service.metrics import ServiceMetrics
from repro.service.scheduler import (
    MicroBatchScheduler,
    QueryRequest,
    SchedulerFull,
)

__all__ = ["PPRService"]


class PPRService:
    """Long-lived serving layer over one (or more) registered graphs.

    Examples
    --------
    >>> from repro.graph.generators import erdos_renyi
    >>> from repro.service import PPRService, ServiceConfig
    >>> config = ServiceConfig(graph="demo", alpha=0.2, seed=7,
    ...                        max_wait_ms=1.0, budget_scale=0.05)
    >>> with PPRService(config, graph=erdos_renyi(40, 0.2, rng=7)) as svc:
    ...     payload = svc.query("source", 0, top=3)
    >>> payload["kind"], len(payload["top"])
    ('source', 3)
    """

    def __init__(self, config: ServiceConfig | None = None, *,
                 graph: Graph | None = None):
        self.config = config or ServiceConfig()
        if graph is None:
            graph = load_dataset(self.config.graph, scale=self.config.scale)
        self.tracer = Tracer(self.config.trace_sample_rate,
                             capacity=self.config.trace_buffer,
                             seed=self.config.seed)
        self.slowlog = SlowLog(
            self.config.slowlog_path,
            threshold_ms=self.config.slowlog_threshold_ms,
            max_bytes=self.config.slowlog_max_bytes)
        # continuous telemetry: rolling windows sized to cover the
        # longest SLO window plus the 300 s /statusz view, and the two
        # built-in burn-rate SLOs (availability + latency threshold)
        self.timeseries = TimeSeriesStore(
            interval=1.0,
            capacity=int(max(300.0, self.config.slo_slow_window_s)) + 60)
        self.slo = SLOEngine(default_specs(
            availability_objective=self.config.slo_availability_objective,
            latency_objective=self.config.slo_latency_objective,
            latency_threshold_ms=self.config.slo_latency_ms,
            fast_window_s=self.config.slo_fast_window_s,
            slow_window_s=self.config.slo_slow_window_s,
            burn_threshold=self.config.slo_burn_threshold))
        self.index_manager = IndexManager(
            self.config.ppr_config(), tracer=self.tracer,
            dynamic=self.config.dynamic, shards=self.config.shards,
            shard_strategy=self.config.shard_strategy,
            bank_dir=self.config.bank_dir)
        self.index_manager.register_graph(self.config.graph, graph)
        self.cache = ResultCache(self.config.cache_entries)
        self.metrics = ServiceMetrics(timeseries=self.timeseries,
                                      slo=self.slo)
        self.executor = None
        if self.config.executor == "process":
            # flat process serving is the one-shard router
            from repro.shard.router import ShardRouter

            self.executor = ShardRouter(
                self.index_manager,
                workers_per_shard=self.config.workers,
                metrics=self.metrics)
        self.scheduler = MicroBatchScheduler(
            self.index_manager,
            max_batch=self.config.max_batch,
            max_wait_ms=self.config.max_wait_ms,
            queue_capacity=self.config.queue_capacity,
            metrics=self.metrics,
            # one flush thread per worker so the pool actually fills
            executors=(self.executor.num_workers
                       if self.executor is not None else 1),
            executor=self.executor)
        self.metrics.register_gauge(
            "repro_service_queue_depth",
            lambda: float(self.scheduler.queue_depth))
        if self.executor is not None:
            self.metrics.register_gauge(
                "repro_service_executor_queue_depth",
                lambda: float(self.executor.in_flight))
            self.metrics.register_gauge(
                "repro_service_executor_utilization",
                lambda: {f'{{worker="{worker}"}}': value
                         for worker, value
                         in enumerate(self.executor.utilization())})
            self.metrics.register_gauge(
                "repro_service_executor_tasks",
                lambda: {f'{{worker="{worker}"}}': float(value)
                         for worker, value in enumerate(
                             self.executor.stats()["tasks_done"])})
        self.metrics.register_gauge(
            "repro_service_cache",
            lambda: {f'{{stat="{key}"}}': float(value)
                     for key, value in self.cache.stats().items()})
        self.metrics.register_gauge(
            "repro_service_index_bytes",
            lambda: {f'{{bank="{bank}"}}': float(entry["resident_bytes"])
                     for bank, entry
                     in self.index_manager.stats()["banks"].items()}
            or {"": 0.0})
        self._started_at = time.time()
        self._running = False

    # -- lifecycle -----------------------------------------------------
    def start(self, warm: bool = True) -> "PPRService":
        """Warm the default bank and start the scheduler; idempotent.

        In process-executor mode the worker pool forks here — before
        the scheduler threads start — and each worker warm-attaches
        the shared bank so the first real batch pays no attach cost.
        """
        if warm:
            self.index_manager.warm(self.config.graph, self.config.alpha)
        if self.executor is not None:
            self.executor.start()
            if warm:
                self.executor.warm(self.config.graph, self.config.alpha)
        self.scheduler.start()
        self._running = True
        return self

    def stop(self) -> None:
        """Drain the scheduler, stop the pool, unlink shared segments."""
        if self._running:
            self.scheduler.stop(drain=True)
            self._running = False
        if self.executor is not None:
            self.executor.shutdown()
        self.index_manager.close_shared()
        self.slowlog.close()

    def __enter__(self) -> "PPRService":
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.stop()
        return False

    # -- the request pipeline ------------------------------------------
    def _answer(self, kind: str, admit, *, alpha: float | None,
                epsilon: float | None, use_cache: bool, span,
                tenant: str | None = None):
        """Admission → cache lookup → scheduler → cache fill, for every
        query kind.

        ``admit(num_nodes, config)`` is the kind's validation; it
        returns the kind's
        :class:`~repro.service.scheduler.QueryRequest` fields.
        ``span`` is the request's root span (:data:`NULL_SPAN` when
        unsampled — every operation on it is then a free no-op, so
        this is also the uninstrumented fast path).  Returns
        ``(request, result, was_cache_hit, meta)`` where ``meta``
        carries how the request was served (batch size / disposition)
        for the slow log and debug responses.
        """
        started = time.perf_counter()
        with span.child("admission"):
            alpha = _number("alpha", alpha, self.config.alpha)
            epsilon = _number("epsilon", epsilon, self.config.epsilon)
            graph = self.index_manager.graph(self.config.graph)
            # validate before admission so one bad node can never
            # fail the whole micro-batch it would have joined
            request = QueryRequest(graph=self.config.graph, kind=kind,
                                   alpha=alpha, epsilon=epsilon,
                                   tenant=tenant,
                                   **admit(graph.num_nodes, self.config))
            # top-k caches under its source alone: by prefix-dominance
            # a stored deeper ranking serves any shallower k
            topk = kind == "topk"
            key = cache_key(self.config.graph, "batch", kind,
                            request.node if topk else request.payload_item,
                            alpha)
        self.metrics.record_stage("admission",
                                  time.perf_counter() - started)
        if use_cache:
            lookup_started = time.perf_counter()
            with span.child("cache_lookup"):
                cached = (self.cache.get_topk(key, epsilon, request.k)
                          if topk else self.cache.get(key, epsilon))
            self.metrics.record_stage(
                "cache_lookup", time.perf_counter() - lookup_started)
            if cached is not None:
                span.annotate(cached=True)
                self.metrics.record_request(kind,
                                            time.perf_counter() - started,
                                            tenant=tenant)
                return request, cached, True, {"batch_size": None,
                                               "disposition": "cache"}
        try:
            pending = self.scheduler.submit_nowait(request, span)
            result = pending.resolve(30.0)
        except SchedulerFull:
            self.metrics.record_rejection(tenant=tenant)
            raise
        if use_cache and topk:
            self.cache.put_topk(key, epsilon, result.k, result)
        elif use_cache:
            self.cache.put(key, epsilon, result)
        self.metrics.record_request(kind, time.perf_counter() - started,
                                    tenant=tenant,
                                    work=result.work.as_dict())
        return request, result, False, {"batch_size": pending.batch_size,
                                        "disposition": pending.disposition}

    def _endpoint(self, endpoint: str, kind: str, node: int, admit,
                  build, annotations: dict, *, alpha: float | None,
                  epsilon: float | None, use_cache: bool,
                  request_id: str | None, tenant: str | None,
                  debug: bool) -> dict:
        """One JSON endpoint: root trace → :meth:`_answer` → serialize
        → slow log (and the ``debug`` block).

        ``build(request, result, hit)`` makes the payload; ``node`` is
        what a failed request logs (a served one logs its request's
        anchor node)."""
        request_id = request_id or new_request_id()
        span = self.tracer.trace(endpoint, request_id, force=debug)
        span.annotate(endpoint=endpoint, **annotations)
        if tenant:
            span.annotate(tenant=tenant)
        started = time.perf_counter()
        try:
            request, result, hit, meta = self._answer(
                kind, admit, alpha=alpha, epsilon=epsilon,
                use_cache=use_cache, span=span, tenant=tenant)
        except BaseException as error:
            self._observe_failure(span, request_id, endpoint, kind, node,
                                  alpha, epsilon, started, error,
                                  tenant=tenant)
            raise
        with span.child("serialize"):
            serialize_started = time.perf_counter()
            payload = build(request, result, hit)
            self.metrics.record_stage(
                "serialize", time.perf_counter() - serialize_started)
        return self._finish(
            payload, span, started, meta, debug=debug,
            request_id=request_id, endpoint=endpoint, kind=kind,
            node=request.node,
            alpha=result.alpha, epsilon=result.epsilon, cached=hit,
            work=result.work.as_dict())

    def _finish(self, payload, span, started: float, meta: dict, *,
                debug: bool = False, **entry):
        """Shared tail of every endpoint, failures included: close the
        trace, write the slow-log ``entry`` (plus ``meta``) and, with
        ``debug``, inline the span tree and work counters in the
        payload."""
        seconds = time.perf_counter() - started
        tree = self.tracer.finish(span)
        self.slowlog.record(seconds=seconds, trace=tree, **entry, **meta)
        if debug:
            payload["debug"] = {
                "request_id": entry["request_id"],
                "trace": tree,
                **meta,
                "counters": self.metrics.snapshot()["work"],
            }
        return payload

    def _observe_failure(self, span, request_id: str, endpoint: str,
                         kind: str, node: int, alpha: float | None,
                         epsilon: float | None, started: float,
                         error: BaseException, *,
                         tenant: str | None = None) -> None:
        """Record a failed request: error-annotated trace + slow log
        (errors bypass the latency threshold).  An α or ε that is not
        a number is logged as the service default; the error text
        names the bad value."""
        text = f"{type(error).__name__}: {error}"
        if not isinstance(error, SchedulerFull):
            # rejections were already counted (once) on the submit
            # path; everything else is an availability-SLO failure
            self.metrics.record_failure(tenant=tenant)
        span.finish(error=text)
        logged = {}
        for field, value in (("alpha", alpha), ("epsilon", epsilon)):
            default = getattr(self.config, field)
            try:
                logged[field] = _number(field, value, default)
            except ConfigError:
                logged[field] = default
        self._finish(
            None, span, started, {}, request_id=request_id,
            endpoint=endpoint, kind=kind, node=node, error=text,
            **logged)

    # -- raw query paths (benchmarks / tests) --------------------------
    def query_result(self, kind: str, node: int, *,
                     alpha: float | None = None,
                     epsilon: float | None = None,
                     use_cache: bool = True) -> tuple[PPRResult, bool]:
        """Answer one query; returns ``(result, was_cache_hit)``.

        ``kind`` is ``"source"`` or ``"target"``; the richer kinds
        have their own raw accessors (:meth:`topk_result`,
        :meth:`multiseed_result`, :meth:`pair_result`).  The result is
        bit-identical to ``solver.query(node)`` on the corresponding
        batch solver.
        """
        return self._answer(kind, partial(_admit_node, kind, node),
                            alpha=alpha, epsilon=epsilon,
                            use_cache=use_cache, span=NULL_SPAN)[1:3]

    def topk_result(self, node: int, k: int, *,
                    alpha: float | None = None,
                    epsilon: float | None = None,
                    use_cache: bool = True):
        """One top-k query; returns ``(TopKQueryResult, was_cache_hit)``."""
        return self._answer("topk", partial(_admit_topk, node, k),
                            alpha=alpha, epsilon=epsilon,
                            use_cache=use_cache, span=NULL_SPAN)[1:3]

    def multiseed_result(self, seeds, weights=None, *,
                         alpha: float | None = None,
                         epsilon: float | None = None,
                         use_cache: bool = True):
        """One seed-set query; returns ``(PPRResult, was_cache_hit)``."""
        return self._answer("multiseed",
                            partial(_admit_multiseed, seeds, weights),
                            alpha=alpha, epsilon=epsilon,
                            use_cache=use_cache, span=NULL_SPAN)[1:3]

    def pair_result(self, source: int, target: int, *,
                    alpha: float | None = None,
                    epsilon: float | None = None,
                    use_cache: bool = True):
        """One pair query; returns ``(PairResult, was_cache_hit)``."""
        return self._answer("pair", partial(_admit_pair, source, target),
                            alpha=alpha, epsilon=epsilon,
                            use_cache=use_cache, span=NULL_SPAN)[1:3]

    # -- JSON-shaped endpoints -----------------------------------------
    def query(self, kind: str, node: int, *, alpha: float | None = None,
              epsilon: float | None = None, top: int = 10,
              use_cache: bool = True, request_id: str | None = None,
              tenant: str | None = None, debug: bool = False) -> dict:
        """``/query`` semantics: top-k answer plus provenance.

        ``request_id`` propagates the client's ``X-Request-Id`` (one
        is generated otherwise); ``tenant`` attributes the request in
        the per-tenant metrics tables without affecting the answer;
        ``debug=True`` forces a trace and adds a ``debug`` block (span
        tree + work counters) to the response.  Without ``debug``, the
        payload is byte-identical whether or not the request was
        sampled.  The other query endpoints take the same keywords.
        """
        return self._endpoint(
            "query", kind, node, partial(_admit_node, kind, node),
            partial(_vector_payload, top=top),
            {"kind": kind, "node": int(node)}, alpha=alpha,
            epsilon=epsilon, use_cache=use_cache, request_id=request_id,
            tenant=tenant, debug=debug)

    def query_topk(self, node: int, k: int, *,
                   alpha: float | None = None,
                   epsilon: float | None = None,
                   use_cache: bool = True, request_id: str | None = None,
                   tenant: str | None = None,
                   debug: bool = False) -> dict:
        """``/topk`` semantics: early-terminated ranked prefix.

        The answer set comes from the adaptive solver
        (:class:`~repro.core.topk.BatchTopKSolver`) — ``converged``
        and ``num_forests`` report how early the sequential stopping
        rule froze the ranking.  Cache hits follow prefix-dominance: a
        stored deeper ranking serves any shallower ``k``.
        """
        return self._endpoint(
            "topk", "topk", node, partial(_admit_topk, node, k),
            _topk_payload, {"node": int(node), "k": int(k)}, alpha=alpha,
            epsilon=epsilon, use_cache=use_cache, request_id=request_id,
            tenant=tenant, debug=debug)

    def query_multiseed(self, seeds, weights=None, *,
                        alpha: float | None = None,
                        epsilon: float | None = None, top: int = 10,
                        use_cache: bool = True,
                        request_id: str | None = None,
                        tenant: str | None = None,
                        debug: bool = False) -> dict:
        """``/multiseed`` semantics: weighted seed-set personalization.

        ``weights`` default to uniform and are normalised to sum to 1;
        the response echoes the canonical seed set.  The estimate is
        bit-identical to the weighted sum of the single-seed rows (see
        :class:`~repro.core.batch.BatchMultiSeedSolver`).
        """
        seeds = tuple(seeds)
        return self._endpoint(
            "multiseed", "multiseed", -1,
            partial(_admit_multiseed, seeds, weights),
            partial(_vector_payload, top=top),
            {"seeds": len(seeds)}, alpha=alpha, epsilon=epsilon,
            use_cache=use_cache, request_id=request_id, tenant=tenant,
            debug=debug)

    def pair(self, source: int, target: int, *,
             alpha: float | None = None, epsilon: float | None = None,
             use_cache: bool = True, request_id: str | None = None,
             tenant: str | None = None, debug: bool = False) -> dict:
        """``/pair`` semantics: one π(source, target) value.

        Served by the dedicated pair solver
        (:class:`~repro.core.batch.BatchPairSolver`): a backward push
        from the target plus a forest fold that gathers only the
        source entry — bit-identical to reading entry ``s`` of the
        full ``π(·, t)`` column at roughly half the fold cost.  Pairs
        batch with other pairs and cache under their own
        ``(source, target)`` key.
        """
        return self._endpoint(
            "pair", "pair", target, partial(_admit_pair, source, target),
            _pair_payload, {"source": int(source), "target": int(target)},
            alpha=alpha, epsilon=epsilon, use_cache=use_cache,
            request_id=request_id, tenant=tenant, debug=debug)

    # -- graph mutation ------------------------------------------------
    def mutate(self, ops, *, request_id: str | None = None,
               debug: bool = False) -> dict:
        """``/mutate`` semantics: stream edge updates into the served
        graph.

        ``ops`` is a list of edge-operation dicts (see
        :meth:`~repro.graph.delta.GraphDelta.from_dicts`) or an
        already-built :class:`~repro.graph.delta.GraphDelta`.  The
        delta is applied through
        :meth:`~repro.service.index_manager.IndexManager.mutate`:
        dynamic banks repair their forests incrementally, static banks
        rebuild, and either way the new generation swaps in atomically
        while in-flight queries finish on the old one.

        The result cache is cleared afterwards — unlike ``refresh``
        (which resamples the *same* graph, so cached answers stay
        valid), a mutation changes the graph itself and every cached
        estimate describes the old one.

        Mutations are rare, structural events, so they always record a
        full trace regardless of the sampling rate.
        """
        request_id = request_id or new_request_id()
        span = self.tracer.trace("mutate", request_id, force=True)
        started = time.perf_counter()
        try:
            delta = (ops if isinstance(ops, GraphDelta)
                     else GraphDelta.from_dicts(ops))
            span.annotate(endpoint="mutate", ops=len(delta))
            summary = self.index_manager.mutate(self.config.graph, delta)
            with span.child("cache_clear"):
                self.cache.clear()
        except BaseException as error:
            self._observe_failure(span, request_id, "mutate", "mutate",
                                  -1, None, None, started, error)
            raise
        self.metrics.record_mutation(summary["work"])
        payload = dict(summary)
        payload["request_id"] = request_id
        return self._finish(
            payload, span, started, {}, debug=debug, request_id=request_id,
            endpoint="mutate", kind="mutate", node=-1,
            alpha=self.config.alpha, epsilon=self.config.epsilon,
            work=summary["work"])

    # -- observability -------------------------------------------------
    def healthz(self) -> dict:
        """Liveness + readiness summary for ``/healthz``."""
        snap = self.metrics.snapshot()
        graph = self.index_manager.graph(self.config.graph)
        shard_map = self.index_manager.shard_map(self.config.graph)
        degrees = graph.out_degrees
        return {
            "status": "ok" if self._running else "stopped",
            "uptime_seconds": time.time() - self._started_at,
            "graph": self.config.graph,
            "num_nodes": graph.num_nodes,
            "alpha": self.config.alpha,
            "queue_depth": self.scheduler.queue_depth,
            "batches": snap["batches"],
            "requests": sum(snap["requests"].values()),
            "index": self.index_manager.stats(),
            "executor": (self.executor.stats()
                         if self.executor is not None
                         else {"mode": "thread", "workers": 0}),
            "shards": {
                "count": shard_map.num_shards,
                "strategy": shard_map.strategy,
                "per_shard": [
                    {"shard": shard,
                     "nodes": int(shard_map.shard_sizes[shard]),
                     "edges": int(degrees[
                         shard_map.local_nodes(shard)].sum())}
                    for shard in range(shard_map.num_shards)],
            },
            "observability": {
                "tracing": self.tracer.stats(),
                "slowlog": self.slowlog.stats(),
            },
        }

    def statusz(self, now: float | None = None) -> dict:
        """Operational dashboard snapshot for ``/statusz``.

        Everything ``repro top`` renders comes from this one JSON
        document: the 60 s / 300 s rolling windows out of the
        time-series store, the burn-rate state of both built-in SLOs,
        and the per-tenant / per-shard attribution tables, plus the
        straggler detector's view in process-executor mode.
        """
        now = time.monotonic() if now is None else float(now)
        snap = self.metrics.snapshot()
        payload = {
            "status": "ok" if self._running else "stopped",
            "uptime_seconds": time.time() - self._started_at,
            "graph": self.config.graph,
            "queue_depth": self.scheduler.queue_depth,
            "totals": {
                "requests": sum(snap["requests"].values()),
                "rejected": snap["rejected"],
                "errors": snap["errors"],
                "batches": snap["batches"],
                "straggler_folds": sum(
                    snap.get("straggler_folds", {}).values()),
            },
            "windows": {
                "60s": self.metrics.window_snapshot(60.0, now=now),
                "300s": self.metrics.window_snapshot(300.0, now=now),
            },
            "slo": self.metrics.slo_report(now=now),
            "tenants": self.metrics.tenant_table(),
            "shards": self.metrics.shard_table(),
        }
        if self.executor is not None:
            payload["stragglers"] = self.executor.straggler_stats()
        return payload

    def metrics_text(self) -> str:
        """Prometheus exposition for ``/metrics``."""
        return self.metrics.render()


def _number(field: str, value, default: float) -> float:
    """A request's α or ε as a float (``default`` when omitted); a
    value that is not a number is a :class:`ConfigError` naming
    ``field``."""
    if value is None:
        return default
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(
            f"{field} must be a number, got {value!r}") from None


# -- what each query kind supplies to the pipeline ----------------------
# admit(num_nodes, config) -> QueryRequest fields;
# build(request, result, hit) -> payload.
def _admit_node(kind, node, num_nodes: int, config: ServiceConfig):
    """``/query``: one source or target node."""
    if kind not in ("source", "target"):
        raise ConfigError(f"kind must be 'source' or 'target', "
                          f"got {kind!r}")
    if not 0 <= int(node) < num_nodes:
        raise ConfigError(f"{kind} node {node} out of range "
                          f"[0, {num_nodes})")
    return {"node": int(node)}


def _admit_topk(node, k, num_nodes: int, config: ServiceConfig):
    """``/topk``: a source and a ranking depth within the limit."""
    node, k = int(node), int(k)
    if not 0 <= node < num_nodes:
        raise ConfigError(f"source node {node} out of range "
                          f"[0, {num_nodes})")
    if not 1 <= k < num_nodes:
        raise ConfigError(f"k must lie in [1, {num_nodes})")
    if k > config.topk_max_k:
        raise ConfigError(f"k={k} exceeds the admission limit "
                          f"topk_max_k={config.topk_max_k}")
    return {"node": node, "k": k}


def _admit_multiseed(seeds, weights, num_nodes: int,
                     config: ServiceConfig):
    """``/multiseed``: the canonical seed set (see
    :func:`~repro.core.batch.normalize_seed_set`)."""
    seeds, weights = normalize_seed_set(seeds, weights, num_nodes)
    if len(seeds) > config.multiseed_max_seeds:
        raise ConfigError(f"{len(seeds)} seeds exceed the admission "
                          f"limit multiseed_max_seeds="
                          f"{config.multiseed_max_seeds}")
    return {"node": seeds[0], "seeds": seeds, "weights": weights}


def _admit_pair(source, target, num_nodes: int, config: ServiceConfig):
    """``/pair``: the target anchors the batch, the source is read."""
    source, target = int(source), int(target)
    if not 0 <= source < num_nodes:
        raise ConfigError(f"source {source} out of range "
                          f"[0, {num_nodes})")
    if not 0 <= target < num_nodes:
        raise ConfigError(f"target {target} out of range "
                          f"[0, {num_nodes})")
    return {"node": target, "source": source}


def _vector_payload(request: QueryRequest, result, hit: bool, *,
                    top: int) -> dict:
    """``/query`` and ``/multiseed``: the head of one PPR vector."""
    if request.kind == "multiseed":
        anchor = {"seeds": [int(seed) for seed in request.seeds],
                  "weights": [float(weight) for weight in request.weights]}
    else:
        anchor = {"node": request.node}
    return {
        "kind": request.kind,
        **anchor,
        "alpha": result.alpha,
        "epsilon": result.epsilon,
        "method": result.method,
        "total_mass": result.total_mass,
        "top": [[node_id, score] for node_id, score in result.top_k(top)],
        "cached": hit,
        "work": result.work.as_dict(),
    }


def _topk_payload(request: QueryRequest, result, hit: bool) -> dict:
    return {
        "kind": "topk",
        "node": request.node,
        "k": request.k,
        "alpha": result.alpha,
        "epsilon": result.epsilon,
        "converged": bool(result.converged),
        "num_forests": int(result.num_forests),
        "top": [[node_id, score] for node_id, score in result.as_pairs()],
        "cached": hit,
        "work": result.work.as_dict(),
    }


def _pair_payload(request: QueryRequest, result, hit: bool) -> dict:
    return {
        "source": request.source,
        "target": request.node,
        "alpha": result.alpha,
        "epsilon": result.epsilon,
        "value": float(result),
        "method": result.method,
        "cached": hit,
    }
