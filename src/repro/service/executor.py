r"""Multiprocess query executor: fold micro-batches off the GIL.

The scheduler's batched estimator fold is two CSR × dense products —
pure compute that the ``ThreadingHTTPServer`` front end serializes on
the GIL, so a thread-mode service uses one core no matter how many the
box has.  :class:`ProcessExecutor` moves the fold into a pool of
forked worker processes:

- **zero-copy tasks** — a task stub carries only
  :class:`~repro.parallel.shared_bank.BankHandle` references (segment
  names + layout) to the graph CSR bank and the index operator bank
  published by :meth:`IndexManager.shared_view`, plus the resolved
  :class:`~repro.core.config.PPRConfig` and the node list; no array
  bytes are pickled;
- **warm attach** — each worker caches its attached graphs, indexes
  and solvers per handle, so after the first batch (or an explicit
  :meth:`warm`) a task costs zero attach work;
- **byte identity** — the worker runs the *identical*
  :class:`~repro.core.batch.BatchSourceSolver` /
  :class:`~repro.core.batch.BatchTargetSolver` ``query_many`` code
  path under the identical config against the identical (shared)
  bytes, so every estimate is bit-equal to the in-process path for
  any batch size and worker count;
- **bounded in-flight** — at most ``max_in_flight`` batches are
  admitted at once; further ``run_batch`` calls block, pushing
  backpressure up into the scheduler's own bounded queue;
- **crash isolation** — every worker talks over its *own* pipe pair
  (single reader, single writer per pipe), so a SIGKILLed worker can
  never poison a shared queue lock the way a shared
  ``SimpleQueue.get`` — which holds the reader lock while blocked —
  would.  The parent assigns tasks to workers itself, so on a death
  it knows exactly which task was in flight: the monitor respawns the
  worker on fresh pipes and re-dispatches that task.  A batch that
  still cannot complete times out into :class:`ExecutorError`, which
  the scheduler answers by folding inline — degraded throughput,
  identical answers;
- **graceful shutdown** — sentinel per worker, bounded join, then
  terminate; outstanding tasks fail with :class:`ExecutorError`.

Fork is the right start method here: spawn would re-import the world
per worker, while forked workers inherit the loaded modules and
attach segments *by name*, so they can bind banks created after the
fork (an index refresh mid-flight).
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
import time
from collections import deque
from multiprocessing import connection

# Workers are forked — possibly by the monitor thread while the
# dispatcher, collector, HTTP server and index-refresh threads are all
# live.  A forked child that then runs `import x` can inherit the
# parent's import lock mid-acquisition and deadlock before serving its
# first task, so everything the worker code path touches lazily must
# be fully imported HERE, at module import time, before any fork.
import scipy.sparse  # noqa: F401  (pre-fork: _BankOperators lazy import)

from repro.core.config import PPRConfig
from repro.exceptions import ReproError
from repro.montecarlo.forest_index import ForestIndex
from repro.obs.tracing import Span
from repro.parallel.pool import PARENT_ENDS, SPAWN_LOCK
from repro.parallel.shared_bank import BankHandle, attach_bank
from repro.parallel.shared_graph import graph_from_bank
from repro.service.index_manager import IndexManager, SOLVER_CLASSES

__all__ = ["ProcessExecutor", "ExecutorError"]



def _normalize_items(kind: str, items) -> tuple:
    """Canonical, picklable item tuples for one batch of ``kind``.

    Plain ints for full-vector kinds, ``(source, target)`` /
    ``(node, k)`` int pairs, and ``(seeds, weights)`` tuple pairs for
    multiseed — the same shapes ``run_items`` consumes, so the worker
    passes them through untouched.
    """
    if kind == "pair":
        return tuple((int(source), int(target)) for source, target in items)
    if kind == "topk":
        return tuple((int(node), int(k)) for node, k in items)
    if kind == "multiseed":
        return tuple((tuple(int(seed) for seed in seeds),
                      tuple(float(weight) for weight in weights))
                     for seeds, weights in items)
    return tuple(int(node) for node in items)


class ExecutorError(ReproError):
    """A batch could not be completed by the worker pool.

    The scheduler treats this as "fold inline instead" — the executor
    degrades to the single-process path rather than failing queries.
    """


class _Task:
    """Picklable work stub: handles + config + nodes, no array bytes.

    ``task_id`` is echoed back in the worker's reply so the collector
    can match replies to tasks: after a timeout the parent marks the
    worker idle while the worker is still computing, and the next task
    queues behind that computation on the same pipe — without the id a
    late reply for the timed-out task would be attributed to the new
    one, silently serving one batch's estimates to another's caller.
    """

    __slots__ = ("task_id", "graph_handle", "index_handle", "config",
                 "kind", "nodes", "trace")

    def __init__(self, task_id: int, graph_handle: BankHandle,
                 index_handle: BankHandle, config: PPRConfig, kind: str,
                 nodes: tuple[int, ...], trace: bool = False):
        self.task_id = task_id
        self.graph_handle = graph_handle
        self.index_handle = index_handle
        self.config = config
        self.kind = kind
        self.nodes = nodes
        self.trace = trace

    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state):
        for slot, value in state.items():
            setattr(self, slot, value)


class _TaskState:
    """Parent-side bookkeeping for one admitted batch."""

    __slots__ = ("task", "view", "event", "results", "error", "worker",
                 "pin", "done", "extra")

    def __init__(self, task: _Task, view, pin: int | None = None):
        self.task = task
        self.view = view
        self.event = threading.Event()
        self.results = None
        self.error: str | None = None
        self.worker: int | None = None  # assigned worker (while running)
        self.pin = pin                  # warm tasks target one worker
        self.done = False
        self.extra: dict | None = None  # worker-side timings/spans


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class _WorkerCache:
    """Per-worker warm-attach cache: handle → live attachment.

    Bounded FIFO (old generations are retired rarely); evicted
    attachments are closed so the worker does not pin unlinked
    segments forever.
    """

    def __init__(self, capacity: int = 8):
        self.capacity = capacity
        self.graphs: dict[BankHandle, tuple] = {}
        self.indexes: dict[tuple[BankHandle, BankHandle], tuple] = {}
        self.solvers: dict[tuple, object] = {}

    def graph_for(self, handle: BankHandle):
        entry = self.graphs.get(handle)
        if entry is None:
            bank = attach_bank(handle)
            entry = (graph_from_bank(bank.arrays, bank.meta), bank)
            self._evict_graphs()
            self.graphs[handle] = entry
        return entry[0]

    def index_for(self, graph_handle: BankHandle, index_handle: BankHandle):
        key = (graph_handle, index_handle)
        entry = self.indexes.get(key)
        if entry is None:
            graph = self.graph_for(graph_handle)
            bank = attach_bank(index_handle)
            index = ForestIndex.attach_bank(bank.arrays, bank.meta, graph)
            self._evict(self.indexes)
            entry = (index, bank)
            self.indexes[key] = entry
            self._drop_stale_solvers()
        return entry[0]

    def solver_for(self, task: _Task):
        key = (task.graph_handle, task.index_handle, task.config, task.kind)
        solver = self.solvers.get(key)
        if solver is None:
            graph = self.graph_for(task.graph_handle)
            cls = SOLVER_CLASSES[task.kind]
            if task.kind == "topk":
                # the top-k solver samples its own deterministic forest
                # stream; it needs the graph but borrows no bank
                solver = cls(graph, config=task.config)
            else:
                index = self.index_for(task.graph_handle,
                                       task.index_handle)
                solver = cls(graph, config=task.config, index=index)
            self._evict(self.solvers)
            self.solvers[key] = solver
        return solver

    def _evict(self, cache: dict) -> None:
        while len(cache) >= self.capacity:
            entry = cache.pop(next(iter(cache)))  # FIFO: oldest first
            if isinstance(entry, tuple) and len(entry) == 2:
                entry[1].close()

    def _evict_graphs(self) -> None:
        """Evict oldest graphs plus everything built on top of them.

        Indexes and solvers keyed on an evicted graph hold live views
        into its segments; dropping only the graph entry would keep
        those (possibly unlinked) segments mapped forever, defeating
        the eviction.
        """
        while len(self.graphs) >= self.capacity:
            handle = next(iter(self.graphs))  # FIFO: oldest first
            _, bank = self.graphs.pop(handle)
            for key in [k for k in self.indexes if k[0] == handle]:
                self.indexes.pop(key)[1].close()
            self._drop_stale_solvers()
            bank.close()

    def _drop_stale_solvers(self) -> None:
        for key in [k for k in self.solvers
                    if (k[0], k[1]) not in self.indexes]:
            del self.solvers[key]


def _worker_main(conn, inherited=()) -> None:
    """Worker loop: recv a task, attach warm, fold, reply; None exits.

    ``inherited`` are the parent-side pipe ends forked into this
    worker; they are closed before anything else (see
    :data:`~repro.parallel.pool.PARENT_ENDS`).

    Replies are ``(task_id, "done"|"error", payload, extra)`` where
    ``extra`` carries worker-side observability: the fold wall time
    (always — one subtraction) and, when ``task.trace`` is set, a raw
    span subtree (attach + fold under a ``worker`` root).  Monotonic
    timestamps are system-wide on Linux, so the parent grafts those
    spans straight into the request's tree (:meth:`Span.add_raw`).
    """
    for end in inherited:
        end.close()
    cache = _WorkerCache()
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        except KeyboardInterrupt:
            # a terminal Ctrl-C hits the whole process group; exit
            # quietly instead of spraying one traceback per worker
            return
        if task is None:
            return
        span = None
        fold_seconds = 0.0
        try:
            if task.nodes:
                if task.trace:
                    span = Span("worker", pid=os.getpid(),
                                batch=len(task.nodes))
                    with span.child("attach"):
                        solver = cache.solver_for(task)
                else:
                    solver = cache.solver_for(task)
                started = time.perf_counter()
                if span is not None:
                    with span.child("fold"):
                        answer = solver.run_items(list(task.nodes))
                else:
                    answer = solver.run_items(list(task.nodes))
                fold_seconds = time.perf_counter() - started
            else:  # warm-attach task: bind the bank, answer nothing
                cache.index_for(task.graph_handle, task.index_handle)
                answer = []
        except BaseException as error:
            reply = (task.task_id, "error",
                     f"{type(error).__name__}: {error}", None)
        else:
            extra = {"fold_seconds": fold_seconds,
                     "spans": (span.finish().to_raw()
                               if span is not None else None)}
            reply = (task.task_id, "done", answer, extra)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class ProcessExecutor:
    """Forked worker pool folding scheduler batches off-process.

    Parameters
    ----------
    index_manager:
        Source of shared-memory views (graphs + index operator banks).
    workers:
        Pool size; each worker is one fold at a time.
    max_in_flight:
        Bound on admitted-but-unfinished batches (default
        ``2 * workers``); :meth:`run_batch` blocks beyond it.
    task_timeout:
        Seconds one batch may stay unanswered (spanning respawns)
        before :meth:`run_batch` gives up with :class:`ExecutorError`.
    shard:
        Pin this pool to one shard of the manager's partitioning:
        every view it requests is the shard's *restricted* bank, so
        its workers fold only that shard's rows.  The
        :class:`~repro.shard.router.ShardRouter` runs one such pool
        per shard; ``None`` (default) serves the whole node space.
    """

    def __init__(self, index_manager: IndexManager, *, workers: int = 2,
                 max_in_flight: int | None = None,
                 task_timeout: float = 120.0,
                 shard: int | None = None):
        if workers < 1:
            raise ReproError(f"workers must be >= 1, got {workers}")
        self.index_manager = index_manager
        self.num_workers = int(workers)
        self.task_timeout = float(task_timeout)
        self.shard = None if shard is None else int(shard)
        self._ctx = multiprocessing.get_context("fork")
        self._sema = threading.BoundedSemaphore(
            max_in_flight or 2 * self.num_workers)
        self._cond = threading.Condition()
        self._pending: deque[_TaskState] = deque()
        self._procs: list[multiprocessing.Process | None] = \
            [None] * self.num_workers
        self._conns: list = [None] * self.num_workers  # parent pipe ends
        # Closing a Connection while another thread is mid-recv/send on
        # it is unsafe: os.close frees the fd number, a respawn's fresh
        # pipe can reuse it instantly, and the in-flight call then reads
        # or writes an unrelated pipe (stealing message bytes and
        # desynchronizing the new worker's stream).  So stale conns are
        # only ever closed ON the collector thread, between its recv
        # cycles (the collector is the sole reader), after passing
        # through this graveyard; sends are serialized against those
        # closes by per-worker locks.
        self._graveyard: list = []  # (worker_id, stale conn) pairs
        self._send_locks = [threading.Lock()
                            for _ in range(self.num_workers)]
        self._task_ids = itertools.count()  # GIL-atomic next()
        self._busy: list[_TaskState | None] = [None] * self.num_workers
        self._busy_since = [0.0] * self.num_workers
        self._busy_seconds = [0.0] * self.num_workers
        self._tasks_done = [0] * self.num_workers
        self._respawns = 0
        self._started = False
        self._stopping = threading.Event()
        self._started_at = time.monotonic()
        self._dispatcher: threading.Thread | None = None
        self._collector: threading.Thread | None = None
        self._monitor: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "ProcessExecutor":
        """Fork the workers and start the service threads; idempotent."""
        if self._started:
            return self
        self._started = True
        self._started_at = time.monotonic()
        for worker_id in range(self.num_workers):
            self._spawn(worker_id)
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="ppr-exec-dispatch",
            daemon=True)
        self._collector = threading.Thread(
            target=self._collect_loop, name="ppr-exec-collect", daemon=True)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="ppr-exec-monitor", daemon=True)
        self._dispatcher.start()
        self._collector.start()
        self._monitor.start()
        return self

    def _spawn(self, worker_id: int) -> None:
        """Fork one worker on a fresh pipe pair (caller holds no locks)."""
        with SPAWN_LOCK:
            parent_conn, child_conn = self._ctx.Pipe(duplex=True)
            PARENT_ENDS.add(parent_conn)
            process = self._ctx.Process(
                target=_worker_main,
                args=(child_conn, list(PARENT_ENDS)),
                name=f"ppr-exec-worker-{worker_id}", daemon=True)
            process.start()
            # the worker's end lives in the worker only
            child_conn.close()
        # publish the pair atomically: the dispatcher must never see a
        # live process next to a stale/absent pipe
        with self._cond:
            self._procs[worker_id] = process
            self._conns[worker_id] = parent_conn
            self._cond.notify_all()

    def shutdown(self, timeout: float = 5.0) -> None:
        """Graceful stop: sentinels, bounded join, terminate stragglers.

        Outstanding batches fail with :class:`ExecutorError` (the
        scheduler then folds them inline).  Idempotent.
        """
        if self._stopping.is_set():
            return
        self._stopping.set()
        with self._cond:
            self._cond.notify_all()
        if not self._started:
            return
        # stop the dispatcher first so nothing else writes task pipes
        # while the sentinels go out (Connection.send is not
        # thread-safe per connection)
        if self._dispatcher is not None and self._dispatcher.is_alive():
            self._dispatcher.join(timeout=2.0)
        for worker_id, conn in enumerate(self._conns):
            if conn is not None:
                try:
                    with self._send_locks[worker_id]:
                        conn.send(None)
                except (BrokenPipeError, OSError, TypeError, ValueError):
                    pass
        deadline = time.monotonic() + timeout
        for process in self._procs:
            if process is None:
                continue
            process.join(timeout=max(deadline - time.monotonic(), 0.1))
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        for thread in (self._dispatcher, self._collector, self._monitor):
            if thread is not None and thread.is_alive():
                thread.join(timeout=2.0)
        with self._cond:
            orphans = list(self._pending) + [state for state in self._busy
                                             if state is not None]
        for state in orphans:
            self._finish(state, error="executor shut down")
        with self._cond:
            graveyard, self._graveyard = self._graveyard, []
        for conn in ([conn for conn in self._conns if conn is not None]
                     + [conn for _, conn in graveyard]):
            try:
                conn.close()
            except OSError:
                pass

    def __enter__(self) -> "ProcessExecutor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- dispatch ------------------------------------------------------
    def run_batch(self, graph: str, kind: str, alpha: float,
                  epsilon: float, nodes, *,
                  pin: int | None = None,
                  timeout: float | None = None,
                  trace: bool = False,
                  stats: dict | None = None) -> list:
        """Fold one batch in a worker; blocks until the answer returns.

        ``nodes`` holds kind-specific items (plain node ids, or the
        pair/top-k/multiseed tuples of
        :attr:`~repro.service.scheduler.QueryRequest.payload_item`).
        Byte-identical to the in-process
        ``get_solver(...).run_items(items)`` for the same arguments.
        Raises :class:`ExecutorError` on worker failure, timeout, or
        shutdown — callers fall back to the inline fold.  ``timeout``
        overrides the pool-wide ``task_timeout`` for this call.

        ``trace=True`` asks the worker to record attach/fold spans;
        pass a ``stats`` dict to receive the worker-side extras
        (``fold_seconds`` always, ``spans`` when traced) — the result
        list itself is unchanged either way.
        """
        if not self._started or self._stopping.is_set():
            raise ExecutorError("executor is not running")
        view = self.index_manager.shared_view(graph, alpha,
                                              shard=self.shard)
        try:
            config = self.index_manager.solver_config(alpha, epsilon)
            task = _Task(next(self._task_ids), view.graph_handle,
                         view.index_handle, config, kind,
                         _normalize_items(kind, nodes),
                         trace=trace)
        except BaseException:
            view.release()
            raise
        state = _TaskState(task, view, pin=pin)
        self._sema.acquire()
        with self._cond:
            self._pending.append(state)
            self._cond.notify_all()
        wait = self.task_timeout if timeout is None else float(timeout)
        if not state.event.wait(wait):
            self._finish(state, error="task timed out")
        if state.error is not None:
            raise ExecutorError(f"worker batch failed: {state.error}")
        if stats is not None and state.extra is not None:
            stats.update(state.extra)
        return state.results

    def warm(self, graph: str, alpha: float | None = None,
             timeout: float = 30.0) -> int:
        """Per-worker warm attach of the ``(graph, alpha)`` bank.

        Dispatches one zero-node task *pinned to each worker* so every
        worker binds the graph + index segments before real traffic
        arrives (a sharded pool's view is pinned to ``self.shard``, so
        its warm attaches that shard's restricted bank and nothing
        else).  Returns how many workers completed the warm-up within
        ``timeout``: each pinned call carries the warm deadline as its
        own task timeout (not the pool-wide ``task_timeout``), so no
        warm thread outlives the deadline by more than a beat and the
        returned count is a settled total, not a snapshot a straggler
        could bump later.
        """
        alpha = (self.index_manager.config.alpha if alpha is None
                 else float(alpha))
        deadline = time.monotonic() + timeout
        completed_lock = threading.Lock()
        completed: list[int] = []

        def one(worker_id: int):
            try:
                self.run_batch(graph, "source", alpha,
                               self.index_manager.config.epsilon, (),
                               pin=worker_id,
                               timeout=max(deadline - time.monotonic(),
                                           0.05))
                with completed_lock:
                    completed.append(worker_id)
            except ExecutorError:
                pass

        threads = [threading.Thread(target=one, args=(worker_id,),
                                    daemon=True)
                   for worker_id in range(self.num_workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=max(deadline - time.monotonic(), 0.05)
                        + 0.5)
        with completed_lock:
            return len(completed)

    # -- completion plumbing -------------------------------------------
    def _finish(self, state: _TaskState, *, results=None,
                error: str | None = None,
                extra: dict | None = None) -> None:
        """Resolve a batch exactly once (idempotent against races)."""
        with self._cond:
            if state.done:
                return
            # results/error must be visible before done is: a racing
            # run_batch returns the moment it sees done and reads them
            state.results = results
            state.error = error
            state.extra = extra
            state.done = True
            try:
                self._pending.remove(state)
            except ValueError:
                pass
            if (state.worker is not None
                    and self._busy[state.worker] is state):
                self._busy[state.worker] = None
            self._cond.notify_all()
        state.view.release()
        self._sema.release()
        state.event.set()

    def _dispatch_loop(self) -> None:
        """Assign pending batches to idle workers over their own pipes."""
        while not self._stopping.is_set():
            with self._cond:
                assignment = self._pick_locked()
                if assignment is None:
                    self._cond.wait(timeout=0.1)
                    continue
                worker_id, state = assignment
                state.worker = worker_id
                self._busy[worker_id] = state
                self._busy_since[worker_id] = time.monotonic()
                conn = self._conns[worker_id]
            try:
                if conn is None:  # worker mid-respawn: treat as dead
                    raise BrokenPipeError
                with self._send_locks[worker_id]:
                    conn.send(state.task)
            # a conn the collector closed between our lookup and the
            # send surfaces as TypeError/ValueError from its nulled
            # handle, not just OSError
            except (BrokenPipeError, OSError, TypeError, ValueError):
                # worker just died; hand the task back, the monitor
                # respawns the worker
                with self._cond:
                    if self._busy[worker_id] is state:
                        self._busy[worker_id] = None
                    state.worker = None
                    if not state.done:
                        self._pending.appendleft(state)

    def _pick_locked(self):
        """First dispatchable (worker, task) pair, else ``None``."""
        for state in self._pending:
            candidates = ([state.pin] if state.pin is not None
                          else range(self.num_workers))
            for worker_id in candidates:
                process = self._procs[worker_id]
                if (self._busy[worker_id] is None and process is not None
                        and self._conns[worker_id] is not None
                        and process.is_alive()):
                    self._pending.remove(state)
                    return worker_id, state
        return None

    def _collect_loop(self) -> None:
        """Read completions; every pipe has exactly one reader (us).

        This thread is also the only place stale conns are *closed*
        (see ``_graveyard``): between recv cycles it cannot race its
        own reads, so a close can never redirect an in-flight recv
        onto a recycled fd.
        """
        while not self._stopping.is_set():
            with self._cond:
                graveyard, self._graveyard = self._graveyard, []
                live = [(worker_id, conn) for worker_id, conn
                        in enumerate(self._conns) if conn is not None]
            for worker_id, stale in graveyard:
                with self._send_locks[worker_id]:
                    try:
                        stale.close()
                    except OSError:
                        pass
            try:
                ready = connection.wait([conn for _, conn in live],
                                        timeout=0.1)
            except (OSError, ValueError):
                continue
            for worker_id, conn in live:
                if conn not in ready:
                    continue
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    # dead worker: retire its conn NOW so we do not
                    # spin on the EOF until the monitor notices, and
                    # so nobody re-reads it once the fd is recycled
                    with self._cond:
                        if self._conns[worker_id] is conn:
                            self._conns[worker_id] = None
                            self._graveyard.append((worker_id, conn))
                    continue
                now = time.monotonic()
                try:
                    task_id, kind, payload, extra = message
                except (TypeError, ValueError):
                    continue
                with self._cond:
                    state = self._busy[worker_id]
                    if state is None or state.task.task_id != task_id:
                        # stale reply for a task run_batch already timed
                        # out: the worker was marked idle mid-compute,
                        # so _busy may now hold the NEXT task, queued on
                        # the pipe behind the old one.  Attributing this
                        # payload to it would hand one batch's estimates
                        # to another batch's caller — drop it and leave
                        # _busy alone; the worker still owes a reply for
                        # whatever _busy holds.
                        state = None
                    else:
                        self._busy[worker_id] = None
                        self._busy_seconds[worker_id] += \
                            now - self._busy_since[worker_id]
                        self._tasks_done[worker_id] += 1
                if state is None:
                    continue
                if kind == "done":
                    self._finish(state, results=payload, extra=extra)
                else:
                    self._finish(state, error=payload)

    def _monitor_loop(self) -> None:
        """Respawn broken workers and re-dispatch their in-flight task.

        A worker is broken when its process died, or when the
        collector retired its pipe (EOF/IO error) — a live process
        without a pipe can never be dispatched to again, so it is
        replaced the same way.
        """
        while not self._stopping.wait(0.2):
            for worker_id, process in enumerate(self._procs):
                if process is None or self._stopping.is_set():
                    continue
                with self._cond:
                    conn_gone = self._conns[worker_id] is None
                if process.is_alive():
                    if not conn_gone:
                        continue
                    process.terminate()
                    process.join(timeout=1.0)
                exitcode = process.exitcode
                with self._cond:
                    self._respawns += 1
                    stale_conn = self._conns[worker_id]
                    self._conns[worker_id] = None
                    if stale_conn is not None:
                        # closed by the collector (sole safe closer),
                        # not here: the collector may be mid-recv
                        self._graveyard.append((worker_id, stale_conn))
                    lost = self._busy[worker_id]
                    self._busy[worker_id] = None
                    if lost is not None and not lost.done:
                        lost.worker = None
                        self._pending.appendleft(lost)
                    self._cond.notify_all()
                self._spawn(worker_id)
                print(f"[executor] worker {worker_id} died "
                      f"(exit {exitcode}); respawned"
                      + (", task re-dispatched" if lost is not None
                         else ""), flush=True)

    # -- observability -------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Admitted-but-unfinished batches (executor queue depth)."""
        with self._cond:
            return (len(self._pending)
                    + sum(1 for state in self._busy if state is not None))

    def utilization(self) -> list[float]:
        """Per-worker busy fraction since :meth:`start`."""
        now = time.monotonic()
        uptime = max(now - self._started_at, 1e-9)
        with self._cond:
            busy = []
            for worker_id in range(self.num_workers):
                seconds = self._busy_seconds[worker_id]
                if self._busy[worker_id] is not None:
                    seconds += now - self._busy_since[worker_id]
                busy.append(min(seconds / uptime, 1.0))
        return busy

    def stats(self) -> dict:
        """Point-in-time pool snapshot for ``/metrics`` and tests."""
        with self._cond:
            tasks_done = list(self._tasks_done)
            respawns = self._respawns
            alive = [process is not None and process.is_alive()
                     for process in self._procs]
            in_flight = (len(self._pending)
                         + sum(1 for state in self._busy
                               if state is not None))
        return {
            "mode": "process",
            "workers": self.num_workers,
            "shard": self.shard,
            "alive": alive,
            "in_flight": in_flight,
            "tasks_done": tasks_done,
            "respawns": respawns,
            "utilization": self.utilization(),
            "pid": os.getpid(),
        }
