"""A persistent pool of forked workers that run one function.

The engine (:mod:`repro.parallel.engine`) forks a pool per call, which
pays when one call samples many forests.  A batch solver's pushes recur
on every batch instead, and forking per batch would pay the fork and
the copy-on-write faults every time; :class:`ForkPool` forks its
workers once, on first use, and keeps them.

- **inherited runner** — the function a worker runs (with whatever it
  closes over, such as a graph) travels through the fork; only the
  small task tuples and the results are pickled;
- **results in task order** — tasks go one at a time to whichever
  worker is idle (``chunksize=1``) and each result lands at its task's
  position, so :meth:`ForkPool.map` returns exactly what
  ``[runner(task) for task in tasks]`` returns;
- **no orphans** — every worker talks over its own pipe and closes
  every parent-side pipe end it inherited (:data:`PARENT_ENDS`), so
  its ``recv`` sees EOF as soon as the parent dies, however it dies;
  :meth:`ForkPool.close` stops the workers, and so does the pool's
  collection or interpreter exit.

Fork, not spawn, as in the engine and the service executor: a spawned
worker would re-import the library and receive the graph pickled,
where a forked one shares its pages.  A fork copies only the thread
that forks, so everything a worker runs must already be imported and
no lock it takes may be held by another thread at fork time; the
runners here call NumPy push kernels that take none.
"""

from __future__ import annotations

import multiprocessing
import threading
import weakref
from multiprocessing import connection

__all__ = ["ForkPool", "PoolBroken", "PARENT_ENDS", "SPAWN_LOCK",
           "can_fork"]

#: Every parent-side pipe end this process holds, across all pools
#: (:class:`ForkPool` and the service's process executor alike).  A
#: forked worker inherits copies of them all — its own pipe's parent
#: end included — and closes them first thing: a worker's ``recv`` can
#: only see EOF when the parent dies if no other process still holds
#: that parent end.  :data:`SPAWN_LOCK` spans pipe creation and fork,
#: so no worker is forked between a pipe's birth and its registration.
PARENT_ENDS: weakref.WeakSet = weakref.WeakSet()
SPAWN_LOCK = threading.Lock()


class PoolBroken(RuntimeError):
    """A worker died mid-batch; the pool is closed and unusable."""


def can_fork() -> bool:
    """Whether this process may fork pool workers: the platform has
    the ``fork`` start method and the process is not itself a daemonic
    pool worker (those may not have children)."""
    return ("fork" in multiprocessing.get_all_start_methods()
            and not multiprocessing.current_process().daemon)


def _worker_main(conn, inherited, runner) -> None:
    """Run ``runner`` on each received ``(position, task)``; reply
    ``(position, ok, result_or_error)``.  ``None`` or EOF ends it."""
    for end in inherited:
        end.close()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if message is None:
            return
        position, task = message
        try:
            reply = (position, True, runner(task))
        except Exception as error:  # re-raised in the caller
            reply = (position, False, error)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return
        except Exception as error:  # an unpicklable result or error
            conn.send((position, False, RuntimeError(repr(error))))


def _stop(processes: list, conns: list) -> None:
    """Sentinel each worker, join briefly, terminate what remains."""
    for conn in conns:
        try:
            conn.send(None)
        except (BrokenPipeError, OSError):
            pass
    for process in processes:
        process.join(timeout=2.0)
        if process.is_alive():
            process.terminate()
            process.join(timeout=1.0)
    for conn in conns:
        conn.close()
    processes.clear()
    conns.clear()


class ForkPool:
    """Forked workers, each running ``runner`` on the tasks it is sent.

    Workers are forked lazily: :meth:`map` grows the pool to the
    ``processes`` it asks for and never shrinks it.  One :meth:`map`
    runs at a time; concurrent callers wait their turn.
    """

    def __init__(self, runner):
        self._runner = runner
        self._processes: list = []
        self._conns: list = []
        self._lock = threading.Lock()
        self._closed = False
        self._finalizer = weakref.finalize(self, _stop, self._processes,
                                           self._conns)

    def pids(self) -> list[int]:
        """Process ids of the live workers."""
        return [process.pid for process in self._processes]

    def _grow(self, processes: int) -> None:
        context = multiprocessing.get_context("fork")
        while len(self._processes) < processes:
            with SPAWN_LOCK:
                parent_conn, child_conn = context.Pipe(duplex=True)
                PARENT_ENDS.add(parent_conn)
                process = context.Process(
                    target=_worker_main,
                    args=(child_conn, list(PARENT_ENDS), self._runner),
                    name=f"repro-pool-{len(self._processes)}",
                    daemon=True)
                process.start()
                child_conn.close()
            self._processes.append(process)
            self._conns.append(parent_conn)

    def map(self, tasks: list, processes: int) -> list:
        """``[runner(task) for task in tasks]`` on ``processes`` workers.

        The first exception a task raises is re-raised here once every
        task already sent has replied.  A worker that cannot be forked
        or dies raises :class:`PoolBroken` and closes the pool.
        """
        with self._lock:
            if self._closed:
                raise PoolBroken("pool is closed")
            try:
                self._grow(processes)
            except OSError as exc:
                self._close_locked()
                raise PoolBroken("cannot fork a pool worker") from exc
            results: list = [None] * len(tasks)
            pending = list(enumerate(tasks))
            pending.reverse()
            idle = list(self._conns[:processes])
            busy: set = set()
            error = None
            while busy or (pending and error is None):
                try:
                    while idle and pending and error is None:
                        conn = idle.pop()
                        conn.send(pending.pop())
                        busy.add(conn)
                    ready = connection.wait(list(busy))
                    replies = [(conn, conn.recv()) for conn in ready]
                except (EOFError, OSError) as exc:
                    self._close_locked()
                    raise PoolBroken("a pool worker died mid-batch") from exc
                for conn, (position, ok, payload) in replies:
                    busy.discard(conn)
                    idle.append(conn)
                    if ok:
                        results[position] = payload
                    elif error is None:
                        error = payload
            if error is not None:
                raise error
            return results

    def close(self) -> None:
        """Stop every worker; idempotent."""
        with self._lock:
            self._close_locked()

    def _close_locked(self) -> None:
        self._closed = True
        self._finalizer()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` ran (or a worker died)."""
        return self._closed
