"""Multiprocess query executor: shared views, worker pool, fallback.

The executor's contract is *byte identity* — a batch folded in a
forked worker over shared-memory banks must return exactly the bytes
the in-process solver returns — plus liveness: crashed workers
respawn, retired segments outlive in-flight borrowers, shutdown never
leaks ``/dev/shm`` segments.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

import repro
from repro.core.batch import BatchSourceSolver
from repro.core.config import PPRConfig
from repro.exceptions import ConfigError, ReproError
from repro.graph.generators import erdos_renyi
from repro.service import (
    ExecutorError,
    IndexManager,
    MicroBatchScheduler,
    PPRService,
    ProcessExecutor,
    QueryRequest,
    ServiceConfig,
)

SEED = 2022
ALPHA = 0.2
EPSILON = 0.5


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(200, 0.03, rng=SEED)


def _manager(graph, **overrides):
    config = PPRConfig(alpha=ALPHA, epsilon=EPSILON, seed=SEED,
                       budget_scale=0.05, **overrides)
    manager = IndexManager(config, num_forests=4)
    manager.register_graph("test", graph)
    return manager


def _gone(pid: int) -> bool:
    """True once ``pid`` has exited (a zombie awaiting its reaper
    counts as exited)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] == "Z"
    except (FileNotFoundError, IndexError):
        return True


def _wait_until(predicate, timeout=20.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestSharedIndexView:
    def test_view_pins_both_banks(self, graph):
        manager = _manager(graph)
        view = manager.shared_view("test")
        try:
            assert view.generation == 0
            assert view.graph_handle.nbytes > 0
            assert view.index_handle.nbytes > 0
            meta = view.index_handle.meta_dict
            assert meta["kind"] == "forest-index"
            assert meta["num_nodes"] == graph.num_nodes
        finally:
            view.release()
        manager.close_shared()

    def test_views_reuse_banks_within_a_generation(self, graph):
        manager = _manager(graph)
        first = manager.shared_view("test")
        second = manager.shared_view("test")
        assert first.index_handle == second.index_handle
        assert first.graph_handle == second.graph_handle
        first.release()
        second.release()
        manager.close_shared()

    def test_refresh_retires_only_after_last_borrower(self, graph):
        from repro.parallel.shared_bank import attach_bank

        manager = _manager(graph)
        view = manager.shared_view("test")
        old_handle = view.index_handle
        manager.refresh("test", block=True)
        fresh = manager.shared_view("test")
        assert fresh.generation == 1
        assert fresh.index_handle != old_handle
        # the old segments are retired but must stay attachable while
        # the in-flight borrower (our view) holds them
        attached = attach_bank(old_handle)
        attached.close()
        view.release()
        # last borrower dropped -> the old generation is unlinked
        with pytest.raises(FileNotFoundError):
            attach_bank(old_handle)
        fresh.release()
        manager.close_shared()

    def test_close_shared_unlinks_everything(self, graph):
        from repro.parallel.shared_bank import attach_bank

        manager = _manager(graph)
        view = manager.shared_view("test")
        handles = (view.graph_handle, view.index_handle)
        view.release()
        manager.close_shared()
        for handle in handles:
            with pytest.raises(FileNotFoundError):
                attach_bank(handle)


class TestProcessExecutor:
    @pytest.fixture()
    def executor(self, graph):
        manager = _manager(graph)
        executor = ProcessExecutor(manager, workers=2, task_timeout=60.0)
        with executor:
            yield executor
        manager.close_shared()

    def test_workers_must_be_positive(self, graph):
        with pytest.raises(ReproError):
            ProcessExecutor(_manager(graph), workers=0)

    def test_batch_is_byte_identical_to_inline(self, graph, executor):
        manager = executor.index_manager
        nodes = [0, 5, 17, 5]
        for kind in ("source", "target"):
            remote = executor.run_batch("test", kind, ALPHA, EPSILON,
                                        nodes)
            inline = manager.get_solver("test", kind).query_many(nodes)
            assert len(remote) == len(inline)
            for ours, theirs in zip(remote, inline):
                assert np.array_equal(ours.estimates, theirs.estimates)
                assert ours.work.as_dict() == theirs.work.as_dict()

    def test_warm_reaches_every_worker(self, executor):
        assert executor.warm("test", ALPHA) == 2
        stats = executor.stats()
        assert all(stats["alive"])
        assert all(done >= 1 for done in stats["tasks_done"])

    def test_stats_shape(self, executor):
        executor.run_batch("test", "source", ALPHA, EPSILON, [3])
        stats = executor.stats()
        assert stats["mode"] == "process"
        assert stats["workers"] == 2
        assert stats["in_flight"] == 0
        assert stats["respawns"] == 0
        assert len(stats["utilization"]) == 2
        assert sum(stats["tasks_done"]) >= 1

    def test_unknown_graph_propagates_config_error(self, executor):
        with pytest.raises(ConfigError, match="unknown graph"):
            executor.run_batch("nope", "source", ALPHA, EPSILON, [0])

    def test_worker_error_raises_executor_error(self, executor):
        # an out-of-range node fails inside the worker's solver
        with pytest.raises(ExecutorError, match="worker batch failed"):
            executor.run_batch("test", "source", ALPHA, EPSILON,
                               [10**9])

    def test_crashed_worker_respawns_and_pool_recovers(self, graph,
                                                       executor):
        before = executor.run_batch("test", "source", ALPHA, EPSILON,
                                    [1, 2])
        victim = executor._procs[0].pid
        os.kill(victim, signal.SIGKILL)
        assert _wait_until(
            lambda: executor.stats()["respawns"] >= 1
            and all(executor.stats()["alive"]))
        after = executor.run_batch("test", "source", ALPHA, EPSILON,
                                   [1, 2])
        for ours, theirs in zip(before, after):
            assert np.array_equal(ours.estimates, theirs.estimates)

    def test_timed_out_reply_is_not_misattributed(self, graph,
                                                  monkeypatch):
        """A late reply for a timed-out task must never answer the next.

        After a timeout the parent marks the worker idle while the
        worker is still computing; the next batch queues on the same
        pipe behind it.  The worker's reply for the OLD task arrives
        first — without task-id matching it would be attributed to the
        NEW batch, silently serving one caller another's estimates.
        """
        slow_node = 13

        original = BatchSourceSolver.query_many

        def slow(self, nodes):
            if list(nodes) == [slow_node]:
                time.sleep(1.0)
            return original(self, nodes)

        # patched before start(): the forked worker inherits the patch
        monkeypatch.setattr(BatchSourceSolver, "query_many", slow)
        manager = _manager(graph)
        executor = ProcessExecutor(manager, workers=1).start()
        try:
            with pytest.raises(ExecutorError, match="timed out"):
                executor.run_batch("test", "source", ALPHA, EPSILON,
                                   [slow_node], timeout=0.2)
            fresh = executor.run_batch("test", "source", ALPHA, EPSILON,
                                       [7])
            solver = manager.get_solver("test", "source")
            assert len(fresh) == 1
            assert np.array_equal(fresh[0].estimates,
                                  solver.query_many([7])[0].estimates)
            assert not np.array_equal(
                fresh[0].estimates,
                solver.query_many([slow_node])[0].estimates)
        finally:
            executor.shutdown()
            manager.close_shared()

    def test_run_after_shutdown_raises(self, graph):
        manager = _manager(graph)
        executor = ProcessExecutor(manager, workers=1).start()
        executor.shutdown()
        with pytest.raises(ExecutorError, match="not running"):
            executor.run_batch("test", "source", ALPHA, EPSILON, [0])
        manager.close_shared()

    def test_workers_exit_when_the_parent_is_killed(self):
        """A parent killed without ``shutdown()`` must not leave its
        workers behind: each worker holds no copy of any parent-side
        pipe end, so its ``recv`` sees EOF and it exits."""
        script = textwrap.dedent(f"""
            import time
            from repro.core.config import PPRConfig
            from repro.graph.generators import erdos_renyi
            from repro.service import IndexManager, ProcessExecutor

            manager = IndexManager(
                PPRConfig(alpha={ALPHA}, epsilon={EPSILON}, seed={SEED},
                          budget_scale=0.05), num_forests=4)
            manager.register_graph("test", erdos_renyi(50, 0.1, rng=1))
            executor = ProcessExecutor(manager, workers=2).start()
            print(*(process.pid for process in executor._procs),
                  flush=True)
            time.sleep(600)
        """)
        # the child imports the same repro package this test does
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")])}
        parent = subprocess.Popen([sys.executable, "-c", script],
                                  stdout=subprocess.PIPE, text=True,
                                  env=env)
        workers: list[int] = []
        try:
            workers = [int(pid) for pid in parent.stdout.readline().split()]
            assert len(workers) == 2
            parent.send_signal(signal.SIGKILL)
            parent.wait(timeout=30)
            assert _wait_until(lambda: all(_gone(pid) for pid in workers),
                               timeout=30.0)
        finally:
            parent.kill()
            parent.wait(timeout=30)
            parent.stdout.close()
            for pid in workers:
                if not _gone(pid):
                    os.kill(pid, signal.SIGKILL)


class TestWorkerCacheEviction:
    def test_graph_eviction_drops_dependent_indexes_and_solvers(
            self, graph):
        """Evicting a graph must not strand index/solver views on it."""
        from repro.service.executor import _Task, _WorkerCache

        manager = _manager(graph)
        manager.register_graph("other", erdos_renyi(150, 0.03,
                                                    rng=SEED + 1))
        view_a = manager.shared_view("test")
        view_b = manager.shared_view("other")
        try:
            cache = _WorkerCache(capacity=1)
            task = _Task(0, view_a.graph_handle, view_a.index_handle,
                         manager.config, "source", (0,))
            cache.solver_for(task)
            assert set(cache.graphs) == {view_a.graph_handle}
            assert len(cache.indexes) == 1 and len(cache.solvers) == 1
            # a second graph evicts the first AND everything keyed on
            # it — otherwise those entries pin the evicted (possibly
            # unlinked) segments forever
            cache.graph_for(view_b.graph_handle)
            assert set(cache.graphs) == {view_b.graph_handle}
            assert not cache.indexes
            assert not cache.solvers
        finally:
            view_a.release()
            view_b.release()
            manager.close_shared()


class _FailingExecutor:
    """Stub that always refuses, to exercise the inline fallback."""

    def __init__(self):
        self.calls = 0

    def run_batch(self, *args, **kwargs):
        self.calls += 1
        raise ExecutorError("stub refuses")


class TestSchedulerFallback:
    def test_executor_failure_falls_back_inline(self, graph):
        manager = _manager(graph)
        failing = _FailingExecutor()
        scheduler = MicroBatchScheduler(manager, max_batch=4,
                                        max_wait_ms=2.0,
                                        executor=failing)
        scheduler.start()
        try:
            result = scheduler.submit(QueryRequest(
                graph="test", kind="source", node=7, alpha=ALPHA,
                epsilon=EPSILON))
        finally:
            scheduler.stop(drain=True)
        assert failing.calls == 1
        assert scheduler.fallback_batches == 1
        inline = manager.get_solver("test", "source").query(7)
        assert np.array_equal(result.estimates, inline.estimates)


class TestServiceByteIdentity:
    """Thread-mode and process-mode services answer identical bytes.

    Both configs use the parallel build path (``workers=0`` resolves
    to the engine, as does ``workers=2``), which is bit-identical for
    every worker count — the serial sampler (``workers=1``) draws a
    legitimately different bank.
    """

    NODES = (0, 3, 11, 42, 3)

    def _payloads(self, graph, **overrides):
        config = ServiceConfig(graph="test", alpha=ALPHA,
                               epsilon=EPSILON, budget_scale=0.05,
                               seed=SEED, max_batch=4, max_wait_ms=2.0,
                               cache_entries=0, port=0, **overrides)
        with PPRService(config, graph=graph) as svc:
            payloads = [svc.query(kind, node, top=5)
                        for kind in ("source", "target")
                        for node in self.NODES]
            payloads.append(svc.pair(1, 2))
            executor_stats = svc.healthz()["executor"]
        return payloads, executor_stats

    def test_process_executor_matches_thread_mode(self, graph):
        thread_payloads, thread_stats = self._payloads(
            graph, workers=0, executor="thread")
        process_payloads, process_stats = self._payloads(
            graph, workers=2, executor="process")
        assert thread_stats["mode"] == "thread"
        assert process_stats["mode"] == "process"
        assert sum(process_stats["tasks_done"]) >= 1
        assert thread_payloads == process_payloads

    def test_flat_process_healthz_keeps_the_pool_shape(self, graph):
        """Flat process serving runs through the one-shard router; its
        ``/healthz`` executor block keeps every key of a bare pool's
        snapshot, with the flat pool's values."""
        config = ServiceConfig(graph="test", alpha=ALPHA,
                               epsilon=EPSILON, budget_scale=0.05,
                               seed=SEED, max_wait_ms=2.0, port=0,
                               workers=2, executor="process")
        with PPRService(config, graph=graph) as svc:
            svc.query("source", 3)
            block = svc.healthz()["executor"]
            bare = ProcessExecutor(svc.index_manager, workers=2).stats()
            published = [key[2] for key in svc.index_manager._shared_indexes]
        assert set(bare) <= set(block)
        assert block["mode"] == "process"
        assert block["workers"] == 2
        assert block["shard"] is None
        assert len(block["alive"]) == 2 and all(block["alive"])
        assert sum(block["tasks_done"]) > 0
        # the flat pool reads the whole-space bank, no restriction
        assert published == [None]

    def test_no_leaked_segments_after_stop(self, graph):
        def segments():
            try:
                return {name for name in os.listdir("/dev/shm")
                        if name.startswith("psm_")}
            except FileNotFoundError:
                return set()

        before = segments()
        self._payloads(graph, workers=2, executor="process")
        leaked = segments() - before
        assert not leaked
