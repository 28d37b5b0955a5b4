r"""Micro-batching scheduler: group compatible queries, share the bank.

A forest bank answers any number of queries, but every solver call has
fixed per-call overhead (push setup, estimator fold dispatch) and —
more importantly for a service — every *naive per-request* path
resamples its forests from scratch.  The scheduler sits between the
front end and the batch solvers and

- admits requests into a **bounded queue** (total across groups);
  beyond ``queue_capacity`` it rejects with
  :class:`SchedulerFull` carrying a ``retry_after`` hint sized from
  the measured drain time (backpressure, surfaced as HTTP 429);
- groups requests by **compatibility key** ``(graph, kind, α, ε)`` —
  requests that can share one batch-solver call.  Incompatible
  configurations are never mixed: a group's batch binds exactly one
  solver;
- **flushes when free**: a flush thread with nothing to fold takes the
  oldest queued group at once, up to ``max_batch`` requests of it.
  Batches form on their own under load — requests that arrive while
  every flush thread is folding queue up behind the fold in flight and
  leave together as the next batch.  A lone request never waits for
  batch-mates that may not come.
- ``max_wait`` (default 0) is an opt-in **linger**: when positive, a
  group below ``max_batch`` is held until its oldest request has
  waited that long, trading latency for fuller batches.  A wake-up
  that finds the group already drained is a no-op, not an error.

Results are per-request result objects — full-vector
:class:`~repro.core.result.PPRResult`, pair
:class:`~repro.core.result.PairResult`, or top-k
:class:`~repro.core.topk.TopKQueryResult` — bit-identical to calling
the underlying solver directly, because a batch is exactly
``solver.run_items([r.payload_item for r in batch])`` against the
shared deterministic bank (or, for top-k, the shared deterministic
forest stream).  Batching changes *when* work happens, never *what*
is computed.
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass

from repro.exceptions import ConfigError, ReproError
from repro.obs.tracing import NULL_SPAN, Span
from repro.service.index_manager import IndexManager
from repro.service.metrics import ServiceMetrics

__all__ = ["QueryRequest", "SchedulerFull", "MicroBatchScheduler"]

#: lower bound, in seconds, of the back-off a 429 suggests (and the
#: whole hint until a batch has been timed)
RETRY_AFTER_FLOOR = 0.01


class SchedulerFull(ReproError):
    """Raised when the admission queue is at capacity.

    ``retry_after`` is the suggested client back-off in seconds: the
    time the queue ahead is expected to take to drain (see
    :meth:`MicroBatchScheduler.retry_after`).
    """

    def __init__(self, depth: int, retry_after: float):
        super().__init__(
            f"scheduler queue full ({depth} pending); "
            f"retry after {retry_after:.3f}s")
        self.depth = depth
        self.retry_after = retry_after


@dataclass(frozen=True)
class QueryRequest:
    """One admitted query.

    ``kind`` is one of ``"source"``, ``"target"``, ``"pair"``,
    ``"topk"`` or ``"multiseed"``.  Every kind batches *only* with its
    own kind (plus matching graph/α/ε): the full-vector folds, the
    pair gather fold, the early-terminating top-k stream and the
    seed-set fold are different solver calls with different cost
    shapes, so mixing them in one batch would serialize unlike work
    behind one latch.

    Per-kind extras: pairs carry ``source`` (``node`` is the target,
    matching the backward-push anchor), top-k carries ``k``, multiseed
    carries canonical ``seeds``/``weights`` tuples (see
    :func:`~repro.core.batch.normalize_seed_set`).

    ``tenant`` is attribution metadata only: it rides the request into
    the batch (per-tenant accounting, batch-span annotation) but is
    deliberately NOT part of :attr:`group_key` — requests from
    different tenants still share batches, so enabling tenant labels
    changes neither batching behaviour nor a single response byte.
    """

    graph: str
    kind: str
    node: int
    alpha: float
    epsilon: float
    source: int | None = None          # pair: the row to read out
    k: int | None = None               # topk: ranking depth
    seeds: tuple | None = None         # multiseed: seed nodes
    weights: tuple | None = None       # multiseed: normalized weights
    tenant: str | None = None          # attribution label (never keyed)

    def __post_init__(self):
        if self.kind not in ("source", "target", "pair", "topk",
                             "multiseed"):
            raise ConfigError(
                f"kind must be source/target/pair/topk/multiseed, "
                f"got {self.kind!r}")
        if self.kind == "pair" and self.source is None:
            raise ConfigError("pair requests need source=")
        if self.kind == "topk" and (self.k is None or self.k < 1):
            raise ConfigError("topk requests need k >= 1")
        if self.kind == "multiseed":
            if not self.seeds or self.weights is None:
                raise ConfigError(
                    "multiseed requests need seeds= and weights=")
            object.__setattr__(self, "seeds", tuple(self.seeds))
            object.__setattr__(self, "weights", tuple(self.weights))

    @property
    def solver_kind(self) -> str:
        """Which batch solver serves this request (the kind itself —
        every kind owns a solver and a batching group)."""
        return self.kind

    @property
    def payload_item(self):
        """The kind-specific item handed to ``solver.run_items``."""
        if self.kind == "pair":
            return (self.source, self.node)
        if self.kind == "topk":
            return (self.node, self.k)
        if self.kind == "multiseed":
            return (self.seeds, self.weights)
        return self.node

    @property
    def group_key(self) -> tuple:
        """Compatibility key — requests sharing it may share a batch."""
        return (self.graph, self.solver_kind, self.alpha, self.epsilon)


class _Pending:
    """A request waiting in the queue plus its completion latch.

    ``span`` is the caller's request span (:data:`NULL_SPAN` when the
    request is unsampled); the scheduler grafts the shared batch
    subtree onto it.  ``batch_size`` and ``disposition`` record how
    the request was ultimately served — the slow log reads them after
    :meth:`resolve` returns.
    """

    __slots__ = ("request", "event", "result", "error", "enqueued_at",
                 "span", "batch_size", "disposition")

    def __init__(self, request: QueryRequest, enqueued_at: float,
                 span=NULL_SPAN):
        self.request = request
        self.event = threading.Event()
        self.result = None
        self.error: BaseException | None = None
        self.enqueued_at = enqueued_at
        self.span = span
        self.batch_size: int | None = None
        self.disposition: str | None = None

    def resolve(self, timeout: float | None = None):
        if not self.event.wait(timeout):
            raise TimeoutError("scheduler did not answer in time")
        if self.error is not None:
            raise self.error
        return self.result


class MicroBatchScheduler:
    """Bounded, compatibility-grouped batcher that flushes as soon as
    a flush thread is free (or, with ``max_wait_ms > 0``, once a
    partial batch has lingered that long)."""

    def __init__(self, index_manager: IndexManager, *,
                 max_batch: int = 32, max_wait_ms: float = 0.0,
                 queue_capacity: int = 256,
                 metrics: ServiceMetrics | None = None,
                 executors: int = 1, executor=None):
        if max_batch < 1:
            raise ConfigError(f"max_batch must be >= 1, got {max_batch}")
        if queue_capacity < 1:
            raise ConfigError(
                f"queue_capacity must be >= 1, got {queue_capacity}")
        self.index_manager = index_manager
        self.max_batch = int(max_batch)
        self.max_wait = float(max_wait_ms) / 1000.0
        self.queue_capacity = int(queue_capacity)
        self.metrics = metrics
        #: optional ProcessExecutor; batches are folded in its worker
        #: pool, falling back inline on ExecutorError (same bytes
        #: either way, see repro.service.executor)
        self.executor = executor
        self.fallback_batches = 0
        #: wall time of the last completed batch (0 before the first);
        #: sizes the 429 back-off hint
        self.batch_seconds = 0.0
        self._groups: OrderedDict[tuple, deque[_Pending]] = OrderedDict()
        self._depth = 0
        self._cond = threading.Condition()
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(target=self._loop, daemon=True,
                             name=f"ppr-batch-{i}")
            for i in range(max(1, executors))]
        self._started = False
        self.batches_executed = 0

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "MicroBatchScheduler":
        """Start the executor thread(s); idempotent."""
        if not self._started:
            self._started = True
            for thread in self._threads:
                thread.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop the executors, optionally draining pending requests."""
        if drain:
            deadline = time.monotonic() + max(1.0, 50 * self.max_wait)
            with self._cond:
                while self._depth and time.monotonic() < deadline:
                    self._cond.wait(timeout=0.05)
        self._stop.set()
        with self._cond:
            self._cond.notify_all()
        for thread in self._threads:
            if thread.is_alive():
                thread.join(timeout=2.0)

    @property
    def queue_depth(self) -> int:
        """Requests admitted but not yet handed to a solver."""
        with self._cond:
            return self._depth

    # -- admission -----------------------------------------------------
    def submit_nowait(self, request: QueryRequest,
                      span=NULL_SPAN) -> _Pending:
        """Admit ``request``; raises :class:`SchedulerFull` at capacity.

        ``span`` (if sampled) receives the executed batch's span
        subtree — queue wait, dispatch, fold, merge — once the batch
        containing this request completes.
        """
        now = time.monotonic()
        with self._cond:
            if self._depth >= self.queue_capacity:
                raise SchedulerFull(self._depth,
                                    self.retry_after(self._depth))
            pending = _Pending(request, now, span)
            self._groups.setdefault(request.group_key,
                                    deque()).append(pending)
            self._depth += 1
            self._cond.notify()
            return pending

    def retry_after(self, depth: int) -> float:
        """Seconds until ``depth`` queued requests have likely drained:
        the last batch's time × the batches they fill, never below the
        linger or :data:`RETRY_AFTER_FLOOR`."""
        batches = math.ceil(depth / self.max_batch)
        return max(self.batch_seconds * batches, self.max_wait,
                   RETRY_AFTER_FLOOR)

    def submit(self, request: QueryRequest, timeout: float | None = 30.0):
        """Admit and block until the batch containing it executes.

        Returns the request's result object (see the module
        docstring for the type each kind answers with).
        """
        return self.submit_nowait(request).resolve(timeout)

    # -- executor loop -------------------------------------------------
    def _loop(self) -> None:
        while not self._stop.is_set():
            with self._cond:
                batch = self._collect_locked(time.monotonic())
                if batch is None:
                    self._cond.wait(timeout=self._next_wait_locked())
                    continue
            self._execute(batch)

    def _collect_locked(self, now: float) -> list[_Pending] | None:
        """Pop up to ``max_batch`` requests of the ready group with the
        oldest head, or ``None`` when nothing is due.

        Ready = a group at ``max_batch``, or any group whose oldest
        request has lingered ``max_wait`` — every queued group when
        ``max_wait`` is 0.  Groups drained by another flush thread
        simply no longer exist here — the empty-flush case is a silent
        no-op.
        """
        ready = [key for key, group in self._groups.items()
                 if len(group) >= self.max_batch
                 or now - group[0].enqueued_at >= self.max_wait]
        if not ready:
            return None
        key = min(ready, key=lambda k: self._groups[k][0].enqueued_at)
        group = self._groups[key]
        batch = [group.popleft()
                 for _ in range(min(self.max_batch, len(group)))]
        if not group:
            del self._groups[key]
        self._depth -= len(batch)
        self._cond.notify_all()
        return batch

    def _next_wait_locked(self) -> float | None:
        """Seconds until the earliest group's linger ends (None =
        idle)."""
        if not self._groups:
            return None
        now = time.monotonic()
        oldest = min(group[0].enqueued_at
                     for group in self._groups.values())
        return max(oldest + self.max_wait - now, 0.0)

    def _execute(self, batch: list[_Pending]) -> None:
        request = batch[0].request
        now = time.monotonic()
        if self.metrics is not None:
            for pending in batch:
                self.metrics.record_stage(
                    "batch_wait", max(now - pending.enqueued_at, 0.0))
        for pending in batch:
            pending.batch_size = len(batch)
        # one real span tree is shared by every sampled request in the
        # batch — the work happened once, so it is recorded once and
        # grafted (as a finished raw subtree) onto each sampled span
        traced = [pending for pending in batch if pending.span.enabled]
        batch_span = (Span("batch", size=len(batch),
                           kind=request.solver_kind)
                      if traced else NULL_SPAN)
        if traced:
            tenants = sorted({pending.request.tenant
                              for pending in batch
                              if pending.request.tenant})
            if tenants:
                batch_span.annotate(tenants=tenants)
        nodes = [pending.request.payload_item for pending in batch]
        work_sum = None
        stats: dict = {}
        started = time.perf_counter()
        try:
            results = self._fold(request, nodes, batch_span, stats)
        except BaseException as error:
            # a flushed batch counts once whichever stage failed; count
            # it before waking the waiters, then fail every one of them
            with self._cond:
                self.batches_executed += 1
            if self.metrics is not None:
                self.metrics.record_error()
                self.metrics.record_batch(len(batch), {})
            self._attach_batch_span(traced, batch_span, error=str(error))
            for pending in batch:
                pending.disposition = "error"
                pending.error = error
                pending.event.set()
            return
        total_seconds = time.perf_counter() - started
        # worker-reported compute time when the executor served us,
        # otherwise the inline fold IS the whole call
        fold_seconds = stats.get("fold_seconds", total_seconds)
        disposition = stats.get("disposition", "inline")
        merge_span = batch_span.child("merge")
        merge_started = time.perf_counter()
        for pending, result in zip(batch, results):
            work_sum = (result.work if work_sum is None
                        else work_sum.merge(result.work))
            pending.disposition = disposition
            pending.result = result
        merge_seconds = time.perf_counter() - merge_started
        merge_span.finish()
        self._attach_batch_span(traced, batch_span)
        # wake the waiters only after their spans are grafted —
        # resolve() reads pending.span/disposition immediately
        for pending in batch:
            pending.event.set()
        with self._cond:
            self.batches_executed += 1
            self.batch_seconds = total_seconds
        if self.metrics is not None:
            self.metrics.record_batch(
                len(batch), work_sum if work_sum is not None else {})
            self.metrics.record_fold(fold_seconds)
            self.metrics.record_stage("merge", merge_seconds)
            if disposition == "executor":
                self.metrics.record_stage("dispatch",
                                          max(total_seconds
                                              - fold_seconds, 0.0))

    @staticmethod
    def _attach_batch_span(traced: list[_Pending], batch_span,
                           error: str | None = None) -> None:
        """Finish the shared batch span and graft it onto every
        sampled request in the batch."""
        if not traced:
            return
        raw = batch_span.finish(error=error).to_raw()
        for pending in traced:
            pending.span.add_raw(raw)

    def _fold(self, request: QueryRequest, nodes: list, span,
              stats: dict):
        """Run one batch — in a worker process when an executor is
        attached (falling back inline on :class:`ExecutorError`),
        inline otherwise.  Both paths run the identical
        ``run_items`` code against the identical bank bytes, so the
        answers are byte-equal.  The inline path fetches its solver
        here, so a failed lookup fails the batch like a failed fold.

        ``span`` gets a ``dispatch`` child (worker round trip, with
        the worker's own attach/fold spans grafted inside) or an
        inline ``fold`` child; ``stats`` comes back with
        ``fold_seconds`` and ``disposition``
        (``executor``/``fallback``/``inline``)."""
        if self.executor is not None:
            from repro.service.executor import ExecutorError

            # cheap pre-validation so an unknown graph fails at the
            # same stage it would on the inline path
            self.index_manager.graph(request.graph)
            try:
                with span.child("dispatch") as dispatch:
                    results = self.executor.run_batch(
                        request.graph, request.solver_kind,
                        request.alpha, request.epsilon, nodes,
                        trace=span.enabled, stats=stats)
                    dispatch.add_raw(stats.pop("spans", None))
                    if stats.get("stragglers"):
                        # flag slow shards on the scatter-gather span
                        dispatch.annotate(
                            stragglers=stats["stragglers"])
                stats["disposition"] = "executor"
                return results
            except ExecutorError:
                with self._cond:
                    self.fallback_batches += 1
                stats.pop("fold_seconds", None)
                stats["disposition"] = "fallback"
        solver = self.index_manager.get_solver(
            request.graph, request.solver_kind,
            alpha=request.alpha, epsilon=request.epsilon)
        with span.child("fold"):
            started = time.perf_counter()
            results = solver.run_items(nodes)
            stats["fold_seconds"] = time.perf_counter() - started
        stats.setdefault("disposition", "inline")
        return results
