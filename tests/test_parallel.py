"""Parallel chunked forest-sampling engine tests.

The load-bearing property is the determinism contract: at a fixed seed
the engine's output is **bit-identical** for every worker count, so
``workers`` is a pure throughput knob.  The equivalence tests exercise
the real fork-pool path (workers > 1 with a multi-chunk plan) against
the serial path on a 2k-node Chung–Lu graph; that graph's jobs are below
the engine's serial crossover, so those tests lower it to zero and
widen the CPU cap (``pool_forced``).  ``TestPoolSize`` pins the rule
itself with forest × node counts.
"""

import multiprocessing

import numpy as np
import pytest

from repro.core import single_source, single_target
from repro.counters import WorkCounters
from repro.exceptions import ConfigError
from repro.graph.csr import Graph
from repro.graph.generators import chung_lu
from repro.parallel import (
    DEFAULT_CHUNK_SIZE,
    StageResult,
    engine,
    parallel_estimate_stage,
    plan_chunks,
    resolve_workers,
    sample_forests_parallel,
)

ALPHA = 0.15
SEED = 2022

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="engine falls back to serial without the fork start method")


@pytest.fixture(scope="module")
def graph():
    degrees = 1.5 + 6.0 * (np.arange(2000, dtype=np.float64) % 53) / 52.0
    return chung_lu(degrees, rng=SEED)


@pytest.fixture
def pool_forced(monkeypatch):
    """Send every multi-chunk job to the pool, on any host."""
    monkeypatch.setattr(engine, "MIN_POOL_FOREST_NODES", 0)
    monkeypatch.setattr(engine, "usable_cpus", lambda: 8)


@pytest.fixture(scope="module")
def residual(graph):
    vector = np.zeros(graph.num_nodes)
    vector[::97] = 1.0
    return vector / vector.sum()


class TestPlanChunks:
    def test_sums_to_count(self):
        for count in [0, 1, 7, 8, 9, 64, 100]:
            assert sum(plan_chunks(count)) == count

    def test_pure_function_of_count(self):
        assert plan_chunks(100) == plan_chunks(100)
        assert plan_chunks(100) == [DEFAULT_CHUNK_SIZE] * 12 + [4]

    def test_chunk_size_override(self):
        assert plan_chunks(10, chunk_size=4) == [4, 4, 2]
        assert plan_chunks(10, chunk_size=100) == [10]

    def test_every_chunk_positive(self):
        assert all(size > 0 for size in plan_chunks(33, chunk_size=5))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigError):
            plan_chunks(-1)
        with pytest.raises(ConfigError):
            plan_chunks(10, chunk_size=0)


class TestResolveWorkers:
    def test_explicit_value(self):
        assert resolve_workers(3) == 3

    def test_none_and_zero_mean_cpu_count(self):
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) == resolve_workers(None)

    def test_rejects_negative_and_non_int(self):
        with pytest.raises(ConfigError):
            resolve_workers(-2)
        with pytest.raises(ConfigError):
            resolve_workers(1.5)


class TestPoolSize:
    """The never-slower-than-serial rule, on forest × node counts."""

    def test_below_crossover_runs_serially(self):
        below = engine.MIN_POOL_FOREST_NODES - 1
        assert engine.pool_size(4, 8, below) == 1
        assert engine.pool_size(None, 8, below) == 1

    def test_above_crossover_capped_by_cpus_chunks_request(self,
                                                           monkeypatch):
        monkeypatch.setattr(engine, "usable_cpus", lambda: 2)
        at = engine.MIN_POOL_FOREST_NODES
        if "fork" not in multiprocessing.get_all_start_methods():
            assert engine.pool_size(4, 8, at) == 1
            return
        assert engine.pool_size(4, 8, at) == 2      # usable CPUs
        assert engine.pool_size(None, 8, at) == 2   # None → usable CPUs
        assert engine.pool_size(4, 1, at) == 1      # one chunk
        assert engine.pool_size(1, 8, at) == 1      # serial request

    def test_gate_jobs_run_serially(self, graph):
        # 16 forests on 4,000 nodes (the work-budget gate) and 20 on
        # this 2k-node graph are far below the crossover
        assert engine.pool_size(4, 2, 16 * 4_000) == 1
        assert 20 * graph.num_nodes < engine.MIN_POOL_FOREST_NODES

    def test_stage_reports_serial_below_crossover(self, graph, residual):
        stage = parallel_estimate_stage(graph, ALPHA, 20, residual,
                                        kind="source", improved=True,
                                        rng=SEED, workers=4)
        assert stage.workers_used == 1

    def test_rejects_bad_workers_below_crossover(self):
        with pytest.raises(ConfigError):
            engine.pool_size(-2, 8, 1)


@pytest.mark.usefixtures("pool_forced")
class TestSampleForestsParallel:
    @fork_only
    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("batch", [False, True])
    def test_identical_to_serial(self, graph, workers, batch):
        serial = sample_forests_parallel(graph, ALPHA, 24, rng=SEED,
                                         workers=1, batch=batch)
        parallel = sample_forests_parallel(graph, ALPHA, 24, rng=SEED,
                                           workers=workers, batch=batch)
        assert len(serial) == len(parallel) == 24
        for left, right in zip(serial, parallel):
            assert np.array_equal(left.roots, right.roots)
            assert np.array_equal(left.parents, right.parents)
            assert left.num_steps == right.num_steps

    def test_counters_accumulate(self, graph):
        work = WorkCounters()
        forests = sample_forests_parallel(graph, ALPHA, 10, rng=SEED,
                                          counters=work)
        assert work.forests_sampled == 10
        assert work.walk_steps == sum(f.num_steps for f in forests)
        assert work.cycle_pops == sum(f.num_pops for f in forests)

    def test_zero_count(self, graph):
        assert sample_forests_parallel(graph, ALPHA, 0, rng=SEED) == []

    def test_forests_are_valid(self, graph):
        for forest in sample_forests_parallel(graph, ALPHA, 3, rng=SEED):
            forest.validate()


@pytest.mark.usefixtures("pool_forced")
class TestParallelEstimateStage:
    @fork_only
    @pytest.mark.parametrize("kind,improved", [
        ("source", False), ("source", True),
        ("target", False), ("target", True)])
    def test_bit_identical_to_serial(self, graph, residual, kind, improved):
        serial = parallel_estimate_stage(graph, ALPHA, 20, residual,
                                         kind=kind, improved=improved,
                                         rng=SEED, workers=1,
                                         track_squares=True)
        parallel = parallel_estimate_stage(graph, ALPHA, 20, residual,
                                           kind=kind, improved=improved,
                                           rng=SEED, workers=3,
                                           track_squares=True)
        assert np.array_equal(serial.sums, parallel.sums)
        assert np.array_equal(serial.squares, parallel.squares)
        assert serial.drawn == parallel.drawn == 20
        assert serial.counters.as_dict() == parallel.counters.as_dict()
        assert parallel.workers_used > serial.workers_used

    @fork_only
    def test_chunk_size_changes_plan_not_samples_per_chunk_seed(self, graph,
                                                                residual):
        # the plan (and therefore the chunk seeds) depends on chunk_size,
        # so only identical chunking guarantees identical output
        same = [parallel_estimate_stage(graph, ALPHA, 16, residual,
                                        kind="source", improved=True,
                                        rng=SEED, workers=w, chunk_size=4)
                for w in (1, 4)]
        assert np.array_equal(same[0].sums, same[1].sums)
        assert same[0].num_chunks == same[1].num_chunks == 4

    def test_mean_and_stderr(self, graph, residual):
        stage = parallel_estimate_stage(graph, ALPHA, 12, residual,
                                        kind="source", improved=True,
                                        rng=SEED, track_squares=True)
        assert np.allclose(stage.mean, stage.sums / 12)
        stderr = stage.stderr()
        assert stderr is not None and np.all(stderr >= 0)
        # estimates a probability distribution: mass roughly sums to 1
        assert abs(stage.mean.sum() - 1.0) < 0.2

    def test_empty_stage(self, graph, residual):
        stage = parallel_estimate_stage(graph, ALPHA, 0, residual,
                                        kind="source", improved=False)
        assert stage.drawn == 0
        assert np.all(stage.mean == 0)
        assert stage.stderr() is None

    def test_rejects_bad_residual(self, graph):
        with pytest.raises(ConfigError):
            parallel_estimate_stage(graph, ALPHA, 4, np.zeros(3),
                                    kind="source", improved=False)

    def test_stage_result_no_squares(self):
        stage = StageResult(sums=np.ones(4), squares=None, drawn=2)
        assert stage.stderr() is None
        assert np.allclose(stage.mean, 0.5)


@fork_only
@pytest.mark.usefixtures("pool_forced")
class TestQueryWorkerInvariance:
    """End-to-end: full queries are bit-identical across worker counts."""

    def test_single_source_speedlv(self, graph):
        serial = single_source(graph, 5, method="speedlv", alpha=ALPHA,
                               budget_scale=0.05, seed=SEED, workers=1)
        parallel = single_source(graph, 5, method="speedlv", alpha=ALPHA,
                                 budget_scale=0.05, seed=SEED, workers=4)
        assert np.array_equal(serial.estimates, parallel.estimates)
        assert serial.work.as_dict() == parallel.work.as_dict()

    def test_single_target_backlv(self, graph):
        serial = single_target(graph, 7, method="backlv", alpha=ALPHA,
                               budget_scale=0.05, seed=SEED, workers=1)
        parallel = single_target(graph, 7, method="backlv", alpha=ALPHA,
                                 budget_scale=0.05, seed=SEED, workers=4)
        assert np.array_equal(serial.estimates, parallel.estimates)
        assert serial.work.as_dict() == parallel.work.as_dict()

    def test_stats_report_workers_used(self, graph):
        result = single_source(graph, 5, method="speedlv", alpha=ALPHA,
                               budget_scale=0.05, seed=SEED, workers=4)
        assert result.stats["mc_workers"] >= 1
        assert result.stats["mc_chunks"] >= 0
        assert result.stats["work_forests_sampled"] >= 1
