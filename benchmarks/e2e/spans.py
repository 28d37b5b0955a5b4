"""Spans recorded around each layer's public entry points, and the
per-layer numbers computed from them.

:func:`install` replaces entry points of the program's classes and
modules with timing wrappers owned by the benchmark; the program's
code is not edited.  A span holds a name, start, end, the span that
was open on the same thread when it began (its parent), the request id
it serves, and counts read from the call's arguments or result.  Spans
stay in memory until :meth:`Recorder.dump`.

Layers and their boundaries (module names):

- ``service``   ``PPRService.query/query_topk/query_multiseed/pair/mutate``
- ``cache``     ``ResultCache.get/get_topk/put/put_topk/clear``
- ``scheduler`` ``MicroBatchScheduler.submit_nowait`` until the returned
  request's ``resolve`` returns
- ``fold``      ``Batch{Source,Target,MultiSeed,Pair}Solver.run_items``
- ``push``      ``balanced_forward_push``/``backward_push`` as bound in
  ``repro.core.batch``, which imports them by name
- ``estimate``  ``ForestIndex.estimate_source_many/estimate_target_many/
  estimate_target_entries``
- ``dispatch``  ``ShardRouter.run_batch``
- ``index.build``  ``IndexManager.warm`` and ``ForestIndex.build``
- ``index.mutate`` ``IndexManager.mutate``

The fold runs on the scheduler's flush thread, not the request's, so a
fold is joined to the requests it served by its items and by lying
inside their scheduler spans.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict


def item_key(item) -> str:
    """A batch item (node id or tuple of them) as a comparable string."""
    return json.dumps(item)


class Recorder:
    """In-memory span store with one open-span stack per thread."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, rid: str | None = None) -> dict:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = {"id": next(self._ids), "name": name,
                "parent": parent["id"] if parent else None,
                "rid": rid if rid is not None
                else (parent["rid"] if parent else None),
                "start": time.perf_counter()}
        stack.append(span)
        return span

    def close(self, span: dict, end: float | None = None, **info) -> None:
        span["end"] = time.perf_counter() if end is None else end
        span.update(info)
        stack = self._stack()
        if span in stack:
            stack.remove(span)
        self.spans.append(span)

    def wrap(self, owner, attr: str, name: str, *, rid=None,
             info=None) -> None:
        """Time every call of ``owner.attr`` as a ``name`` span.

        ``rid(args, kwargs)`` gives the request id; ``info(args,
        kwargs, result)`` gives counts to store on the span.
        """
        # the attribute as stored, found along the MRO: a classmethod
        # object, a plain function, or a module-level function
        raw = inspect.getattr_static(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        function = raw.__func__ if is_classmethod else raw
        recorder = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span = recorder.open(name, rid(args, kwargs) if rid else None)
            try:
                result = function(*args, **kwargs)
            except BaseException:
                recorder.close(span, error=True)
                raise
            end = time.perf_counter()
            recorder.close(span, end,
                           **(info(args, kwargs, result) if info else {}))
            return result

        setattr(owner, attr,
                classmethod(wrapper) if is_classmethod else wrapper)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans}, handle)


class _TimedPending:
    """The scheduler's pending request, closing its span on resolve."""

    def __init__(self, pending, recorder: Recorder, span: dict):
        self._pending = pending
        self._recorder = recorder
        self._span = span

    def resolve(self, timeout=None):
        try:
            return self._pending.resolve(timeout)
        finally:
            self._recorder.close(self._span)

    def __getattr__(self, name):
        return getattr(self._pending, name)


def _wrap_submit(recorder: Recorder) -> None:
    from repro.service.scheduler import MicroBatchScheduler

    original = MicroBatchScheduler.submit_nowait

    @functools.wraps(original)
    def submit_nowait(self, request, *args, **kwargs):
        span = recorder.open("scheduler")
        span["item"] = item_key(request.payload_item)
        try:
            pending = original(self, request, *args, **kwargs)
        except BaseException:
            recorder.close(span, error=True)
            raise
        return _TimedPending(pending, recorder, span)

    MicroBatchScheduler.submit_nowait = submit_nowait


def _request_id(args, kwargs):
    return kwargs.get("request_id")


def _items(args, kwargs, result):
    items = list(args[1])
    return {"items": [item_key(item) for item in items],
            "size": len(items)}


def _dispatch(args, kwargs, result):
    stats = kwargs.get("stats") or {}
    items = list(args[5])
    return {"items": [item_key(item) for item in items], "size": len(items),
            "fold_seconds": stats.get("fold_seconds", 0.0),
            "per_shard": [entry["fold_seconds"]
                          for entry in stats.get("per_shard", [])]}


def _build_counts(args, kwargs, result):
    counts = result.build_counters.as_dict()
    return {"walk_steps": counts["walk_steps"],
            "cycle_pops": counts["cycle_pops"]}


def install(recorder: Recorder) -> None:
    """Wrap every layer boundary listed in the module docstring."""
    import repro.core.batch as batch
    from repro.montecarlo.forest_index import ForestIndex
    from repro.service.cache import ResultCache
    from repro.service.index_manager import IndexManager
    from repro.service.service import PPRService
    from repro.shard.router import ShardRouter

    for method in ("query", "query_topk", "query_multiseed", "pair",
                   "mutate"):
        recorder.wrap(PPRService, method, "service", rid=_request_id)
    for method in ("get", "get_topk"):
        recorder.wrap(ResultCache, method, "cache",
                      info=lambda a, k, result: {"hit": result is not None})
    for method in ("put", "put_topk", "clear"):
        recorder.wrap(ResultCache, method, "cache")
    _wrap_submit(recorder)
    for solver in (batch.BatchSourceSolver, batch.BatchTargetSolver,
                   batch.BatchMultiSeedSolver, batch.BatchPairSolver):
        recorder.wrap(solver, "run_items", "fold", info=_items)
    for function in ("balanced_forward_push", "backward_push"):
        recorder.wrap(batch, function, "push",
                      info=lambda a, k, result: {
                          "pushes": int(result.num_pushes)})
    for method in ("estimate_source_many", "estimate_target_many",
                   "estimate_target_entries"):
        recorder.wrap(ForestIndex, method, "estimate",
                      info=lambda a, k, result: {
                          "rows": int(a[1].shape[0])})
    recorder.wrap(ShardRouter, "run_batch", "dispatch", info=_dispatch)
    recorder.wrap(IndexManager, "warm", "index.build", info=_build_counts)
    recorder.wrap(ForestIndex, "build", "index.build", info=_build_counts)
    recorder.wrap(IndexManager, "mutate", "index.mutate",
                  info=lambda a, k, result: {
                      "repair_steps": result["work"]["repair_fresh_steps"]})


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def analyze(spans: list[dict], latencies: dict[str, float],
            window: tuple[float, float] | None = None) -> dict:
    """Per-layer numbers from one traced run.

    ``latencies`` maps each measured request id to its client latency
    in seconds; with no request ids (the offline workload) it maps a
    batch label to the batch's caller-side time, and ``window`` (in
    the span clock) selects the measured batches.  Times are
    milliseconds per call of the boundary, self time where the layer
    has child spans; ``closure`` is the time the layers account for
    divided by the time callers saw.
    """
    # a call that raised recorded no counts; its request failed and is
    # not among the measured latencies either
    spans = [span for span in spans if not span.get("error")]
    children: dict[int, list[dict]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)

    def duration(span: dict) -> float:
        return span["end"] - span["start"]

    def self_time(span: dict) -> float:
        return duration(span) - sum(duration(child)
                                    for child in children[span["id"]])

    service = {span["rid"]: span for span in spans
               if span["name"] == "service" and span["rid"] in latencies}
    if window is None and service:
        window = (min(span["start"] for span in service.values()),
                  max(span["end"] for span in service.values()))
    window = window or (float("-inf"), float("inf"))

    def measured(span: dict) -> bool:
        return window[0] <= span["start"] and span["end"] <= window[1]

    batches = [span for span in spans if span["parent"] is None
               and span["name"] in ("fold", "dispatch") and measured(span)]
    by_item: dict[str, list[dict]] = defaultdict(list)
    for span in batches:
        for item in span["items"]:
            by_item[item].append(span)

    http_self, service_self, cache_ms, waits = [], [], [], []
    writes = 0.0
    for rid, span in service.items():
        kids = children[span["id"]]
        http_self.append(latencies[rid] - duration(span))
        service_self.append(self_time(span))
        cache_ms.append(sum(duration(kid) for kid in kids
                            if kid["name"] == "cache"))
        writes += sum(duration(kid) for kid in kids
                      if kid["name"] == "index.mutate")
        for kid in kids:
            if kid["name"] == "scheduler":
                served = [batch for batch in by_item[kid["item"]]
                          if kid["start"] <= batch["start"]
                          and batch["end"] <= kid["end"]]
                waits.append(duration(kid)
                             - (duration(served[0]) if served else 0.0))
    if service:
        # every request of a batch waits for the whole batch, so a
        # batch accounts for its duration once per request it served
        accounted = (sum(batch["size"] * duration(batch)
                         for batch in batches)
                     + sum(http_self) + sum(service_self) + sum(cache_ms)
                     + sum(waits) + writes)
    else:
        accounted = sum(duration(batch) for batch in batches)
    total = sum(latencies.values())
    closure = accounted / total if total else 0.0

    def named(name: str) -> list[dict]:
        return [span for span in spans if span["name"] == name
                and measured(span)]

    folds = [batch for batch in batches if batch["name"] == "fold"]
    dispatches = [batch for batch in batches if batch["name"] == "dispatch"]
    gets = [span for span in named("cache") if "hit" in span]
    builds = [span for span in spans if span["name"] == "index.build"
              and span["parent"] is None]
    mutates = named("index.mutate")
    ms = 1000.0
    return {
        "http.self_ms": _mean(http_self) * ms,
        "service.self_ms": _mean(service_self) * ms,
        "cache.ms": _mean(cache_ms) * ms,
        "cache.hit_ratio": _mean(1.0 if span["hit"] else 0.0
                                 for span in gets),
        "scheduler.wait_ms": _mean(waits) * ms,
        "scheduler.batch_size": _mean(batch["size"] for batch in batches),
        "solver.fold_ms": _mean(self_time(span) for span in folds) * ms,
        "push.ms": _mean(duration(span) for span in named("push")) * ms,
        "push.pushes": _mean(span["pushes"] for span in named("push")),
        "estimate.ms": _mean(duration(span)
                             for span in named("estimate")) * ms,
        "estimate.rows": _mean(span["rows"] for span in named("estimate")),
        "dispatch.overhead_ms": _mean(
            duration(span) - span["fold_seconds"]
            for span in dispatches) * ms,
        "shard.fold_skew": _mean(
            max(span["per_shard"]) / _mean(span["per_shard"])
            for span in dispatches
            if span["per_shard"] and _mean(span["per_shard"]) > 0),
        "index.build_s": _mean(duration(span) for span in builds),
        "forests.walk_steps": _mean(span["walk_steps"] for span in builds),
        "forests.cycle_pops": _mean(span["cycle_pops"] for span in builds),
        "index.mutate_ms": _mean(duration(span) for span in mutates) * ms,
        "forests.repair_steps": _mean(span["repair_steps"]
                                      for span in mutates),
        "closure": closure,
    }
