"""A batch's pushes on the persistent fork pool (``repro.core.batch``).

The load-bearing property is byte identity: a batch answered with its
pushes on the pool equals the serial batch byte for byte, for every
solver kind, on whole-space and shard-restricted banks, for any
``workers``.  The small test graph is far below the push crossover, so
the equivalence tests lower it to zero and widen the CPU cap
(``pool_forced``); ``TestPushPoolSize`` pins the rule itself with work
counts.  The lifecycle tests check that no pool worker outlives its
owner: ``close()``, collection, and the exit of a process that used it.
"""

import gc
import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

import repro.core.batch as batch
from repro.core.batch import (
    BatchMultiSeedSolver,
    BatchPairSolver,
    BatchSourceSolver,
    BatchTargetSolver,
    push_pool_size,
)
from repro.core.config import PPRConfig
from repro.graph.generators import chung_lu
from repro.montecarlo.forest_index import ForestIndex
from repro.parallel import engine
from repro.parallel.pool import ForkPool, PoolBroken
from repro.service import PPRService, ServiceConfig

ALPHA = 0.1
SEED = 2022

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the push pool needs the fork start method")


@pytest.fixture(scope="module")
def graph():
    degrees = 1.5 + 6.0 * (np.arange(600, dtype=np.float64) % 31) / 30.0
    return chung_lu(degrees, rng=SEED)


@pytest.fixture(scope="module")
def index(graph):
    return ForestIndex.build(graph, ALPHA, 8, rng=SEED)


@pytest.fixture
def pool_forced(monkeypatch):
    """Send every batch of two or more pushes to the pool, on any host."""
    monkeypatch.setattr(batch, "PUSH_POOL_MIN_WORK", 0)
    monkeypatch.setattr(batch, "PUSH_POOL_MIN_WORK_PER_NODE", 0.0)
    monkeypatch.setattr(batch, "usable_cpus", lambda: 4)
    monkeypatch.setattr(engine, "usable_cpus", lambda: 4)


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs (a zombie awaiting its reaper does not)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
    except OSError:  # no procfs: fall back to a signal probe
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True


def _pool_of(graph) -> ForkPool | None:
    entry = batch._PUSH_POOLS.get(id(graph))
    return None if entry is None else entry[0]


def _answers(results) -> list:
    """Every answer's bytes and its stats without wall-clock seconds."""
    rows = []
    for result in results:
        stats = {key: value for key, value in result.stats.items()
                 if not key.endswith("_seconds")}
        if hasattr(result, "value"):
            rows.append((result.source, result.target,
                         np.float64(result.value).tobytes(), stats))
        else:
            rows.append((result.query_node, result.estimates.tobytes(),
                         stats))
    return rows


SOURCES = [0, 3, 17, 42, 99, 250, 311, 598]
ITEMS = {
    BatchSourceSolver: SOURCES,
    BatchTargetSolver: SOURCES,
    # even sources: the shard bank below owns the even nodes
    BatchPairSolver: [(source - source % 2, target) for source, target
                      in zip(SOURCES, reversed(SOURCES))],
    BatchMultiSeedSolver: [((0, 3), (0.25, 0.75)), ((17, 42, 99), None),
                           ((250,), None), ((311, 598), (1.0, 2.0))],
}


def _run(graph, bank, cls, workers):
    config = PPRConfig(alpha=ALPHA, epsilon=0.5, budget_scale=0.05,
                       seed=SEED, workers=workers)
    with cls(graph, config=config, index=bank) as solver:
        # twice: the first batch decides from its first push, the
        # second from the solver's history
        return (_answers(solver.run_items(ITEMS[cls]))
                + _answers(solver.run_items(ITEMS[cls])))


@fork_only
@pytest.mark.usefixtures("pool_forced")
class TestPooledAnswersByteEqual:
    @pytest.mark.parametrize("cls", list(ITEMS), ids=lambda cls: cls.__name__)
    @pytest.mark.parametrize("restricted", [False, True],
                             ids=["whole", "shard"])
    def test_pooled_equals_serial(self, graph, index, cls, restricted,
                                  monkeypatch):
        bank = (index.restrict(np.arange(0, graph.num_nodes, 2),
                               shard_index=0, shard_count=2)
                if restricted else index)
        forks = []
        grow = ForkPool._grow
        monkeypatch.setattr(ForkPool, "_grow", lambda pool, processes: (
            forks.append(processes), grow(pool, processes))[1])
        runs = {workers: _run(graph, bank, cls, workers)
                for workers in (1, 2, None)}
        assert runs[1] == runs[2] == runs[None]
        # workers=1 never forks; 2 and None (4 patched CPUs) do
        assert forks and max(forks) >= 2
        assert _pool_of(graph) is None  # closed with its last solver

    def test_threads_sharing_one_pool(self, graph, index):
        # four threads, one solver each, all on one graph's pool: every
        # batch must still get its own pushes back
        expected = _run(graph, index, BatchSourceSolver, 1)
        answers, errors = [], []

        def work():
            try:
                answers.append(_run(graph, index, BatchSourceSolver, 2))
            except Exception as error:  # reported below
                errors.append(error)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors and answers == [expected] * 4

    def test_push_seconds_are_each_pushes_own(self, graph, index):
        with BatchSourceSolver(graph, alpha=ALPHA, index=index,
                               workers=2) as solver:
            results = solver.run_items(SOURCES)
        assert all(0.0 < result.stats["push_seconds"] < 5.0
                   for result in results)

    def test_push_error_reraised_and_pool_reusable(self, graph, index):
        with BatchSourceSolver(graph, alpha=ALPHA, index=index,
                               workers=2) as solver:
            expected = _answers(solver.run_items(SOURCES))
            with pytest.raises(Exception, match="out of range"):
                solver._push_all("source", [0, graph.num_nodes + 5, 1],
                                 1e-3)
            assert _answers(solver.run_items(SOURCES)) == expected

    def test_dead_worker_falls_back_to_serial(self, graph, index):
        with BatchSourceSolver(graph, alpha=ALPHA, index=index,
                               workers=2) as solver:
            expected = _answers(solver.run_items(SOURCES))
            pool = _pool_of(graph)
            for process in pool._processes:
                process.kill()
                process.join(timeout=5)
            assert _answers(solver.run_items(SOURCES)) == expected
            assert pool.closed
            # the next batch forks a fresh pool
            assert _answers(solver.run_items(SOURCES)) == expected
            assert _pool_of(graph) is not pool
            assert len(_pool_of(graph).pids()) == 2


class TestPushPoolSize:
    """The crossover rule, on machine-independent work counts."""

    N = 12_000

    def test_below_either_floor_runs_serially(self):
        per_node = batch.PUSH_POOL_MIN_WORK_PER_NODE * self.N
        assert push_pool_size(None, 32, per_node - 1, self.N) == 1
        small = 100
        assert batch.PUSH_POOL_MIN_WORK > (
            batch.PUSH_POOL_MIN_WORK_PER_NODE * small)
        assert push_pool_size(
            None, 32, batch.PUSH_POOL_MIN_WORK - 1, small) == 1

    @fork_only
    def test_above_capped_by_request_cpus_batch(self, monkeypatch):
        monkeypatch.setattr(batch, "usable_cpus", lambda: 2)
        monkeypatch.setattr(engine, "usable_cpus", lambda: 2)
        work = batch.PUSH_POOL_MIN_WORK_PER_NODE * self.N
        assert push_pool_size(None, 32, work, self.N) == 2
        assert push_pool_size(8, 32, work, self.N) == 2
        assert push_pool_size(1, 32, work, self.N) == 1
        assert push_pool_size(None, 1, work, self.N) == 1

    def test_index_offline_pushes_cross_it(self):
        # the 32-source batches of the in-process index workload push
        # ~1.0M edges each on the 12,000-node stand-in (α 0.01)
        assert 1_000_000 >= max(batch.PUSH_POOL_MIN_WORK,
                                batch.PUSH_POOL_MIN_WORK_PER_NODE * self.N)

    def test_small_batches_on_a_small_graph_stay_serial(self, graph, index,
                                                        monkeypatch):
        forks = []
        monkeypatch.setattr(ForkPool, "_grow",
                            lambda pool, processes: forks.append(processes))
        with BatchSourceSolver(graph, alpha=ALPHA, index=index,
                               workers=None) as solver:
            solver.run_items(SOURCES)
            solver.run_items(SOURCES)
            assert solver._push_edges / solver._queries_served < (
                batch.PUSH_POOL_MIN_WORK)
        assert forks == []

    def test_first_push_decides_before_any_history(self, graph, index,
                                                   monkeypatch):
        seen = []
        real = batch.push_pool_size

        def spy(workers, size, mean_work, num_nodes):
            seen.append((size, mean_work))
            return real(workers, size, mean_work, num_nodes)

        monkeypatch.setattr(batch, "push_pool_size", spy)
        with BatchSourceSolver(graph, alpha=ALPHA, index=index) as solver:
            first = solver.run_items(SOURCES)
            solver.run_items(SOURCES)
        # the first batch's decision reads its first push's work and
        # covers the other seven; the second reads all eight's mean
        assert seen[0] == (7, first[0].stats["push_work"])
        assert seen[1] == (8, sum(result.stats["push_work"]
                                  for result in first) / 8)


@fork_only
@pytest.mark.usefixtures("pool_forced")
class TestPoolLifecycle:
    def test_close_stops_workers(self, graph, index):
        solver = BatchSourceSolver(graph, alpha=ALPHA, index=index,
                                   workers=2)
        solver.run_items(SOURCES)
        pids = _pool_of(graph).pids()
        assert len(pids) == 2 and all(map(_alive, pids))
        solver.close()
        assert _pool_of(graph) is None
        assert not any(map(_alive, pids))

    def test_collection_stops_workers(self, graph, index):
        solver = BatchTargetSolver(graph, alpha=ALPHA, index=index,
                                   workers=2)
        solver.run_items(SOURCES)
        pids = _pool_of(graph).pids()
        del solver
        gc.collect()
        assert _pool_of(graph) is None
        assert not any(map(_alive, pids))

    def test_one_pool_per_graph_outlives_one_owner(self, graph, index):
        source = BatchSourceSolver(graph, alpha=ALPHA, index=index,
                                   workers=2)
        target = BatchTargetSolver(graph, alpha=ALPHA, index=index,
                                   workers=2)
        source.run_items(SOURCES)
        pool = _pool_of(graph)
        target.run_items(SOURCES)
        assert _pool_of(graph) is pool
        source.close()
        assert _pool_of(graph) is pool and not pool.closed
        target.run_items(SOURCES)
        target.close()
        assert pool.closed and _pool_of(graph) is None

    def test_closed_pool_refuses_work(self):
        pool = ForkPool(lambda task: task)
        pool.close()
        with pytest.raises(PoolBroken):
            pool.map([1, 2], 2)

    def test_no_worker_outlives_a_program_that_used_the_pool(self):
        # the pool's workers hold copies of the program's stdout; the
        # pipe reaches EOF only once every one of them has exited
        script = textwrap.dedent("""
            import numpy as np
            import repro.core.batch as batch
            from repro.core.batch import BatchSourceSolver
            from repro.graph.generators import chung_lu

            batch.PUSH_POOL_MIN_WORK = 0
            batch.PUSH_POOL_MIN_WORK_PER_NODE = 0.0
            batch.usable_cpus = lambda: 2
            graph = chung_lu(np.full(300, 4.0), rng=1)
            solver = BatchSourceSolver(graph, alpha=0.1, workers=2,
                                       num_forests=4, seed=1)
            solver.run_items([0, 1, 2, 3])
            print(*batch._PUSH_POOLS[id(graph)][0].pids(), flush=True)
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.abspath("src"), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert done.returncode == 0, done.stderr
        pids = [int(pid) for pid in done.stdout.split()]
        assert len(pids) == 2
        assert not any(map(_alive, pids))


@fork_only
@pytest.mark.usefixtures("pool_forced")
def test_thread_service_forks_no_push_pool(graph, monkeypatch):
    forks = []
    monkeypatch.setattr(ForkPool, "_grow",
                        lambda pool, processes: forks.append(processes))
    config = ServiceConfig(graph="test", alpha=ALPHA, epsilon=0.5,
                           budget_scale=0.05, seed=SEED, workers=2,
                           executor="thread", max_batch=8, max_wait_ms=5.0,
                           cache_entries=0, port=0)
    with PPRService(config, graph=graph) as service:
        for kind in ("source", "target"):
            for node in SOURCES:
                service.query(kind, node, use_cache=False)
        solver = service.index_manager.get_solver("test", "source")
        assert solver.config.workers == 1
    assert forks == []
