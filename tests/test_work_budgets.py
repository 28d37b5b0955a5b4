"""Machine-independent work budgets of the pinned kernels.

The paper prices the forest stage in walk steps (τ per forest) and the
deterministic stage in pushes, not in seconds.  Each kernel below runs
once on a fixed ~4k-node Chung–Lu graph at seed 2022, where its work
counters are bit-stable, and must stay within 1.25× the committed
figure: a change that makes any kernel do a quarter more work fails
here on any host.  An intended cost change re-pins the figure in the
same change and names the movement in CHANGELOG.md.

Two budgets are floors rather than ceilings: the stratified variance
discount must cut the flagship queries' walk steps by ≥25% against the
same queries in ``variance_mode="improved"``, and top-k early
termination must save ≥20% of its full-budget twin's walk steps while
agreeing with it on at least k−1 of the k returned nodes.

Nothing here is timed; wall clock is measured by ``benchmarks/e2e``
(medians and spreads over alternating runs) and the instrumentation
overhead by ``benchmarks/bench_service_throughput.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import single_source, single_target
from repro.core.batch import BatchSourceSolver
from repro.core.config import PPRConfig
from repro.core.topk import BatchTopKSolver
from repro.counters import WorkCounters
from repro.graph import GraphDelta
from repro.graph.generators import chung_lu
from repro.montecarlo import DynamicForestIndex
from repro.obs.slo import SLOEngine, default_specs
from repro.obs.timeseries import TimeSeriesStore
from repro.parallel import parallel_estimate_stage, sample_forests_parallel
from repro.push import backward_push, balanced_forward_push
from repro.service import IndexManager, ProcessExecutor
from repro.service.metrics import ServiceMetrics
from repro.shard.router import ShardRouter

SEED = 2022
ALPHA = 0.1
GRAPH_NODES = 4000
BATCH = list(range(16))
#: the edge upserted into the dynamic bank
REPAIR_EDGE = (1, 2000)
TOPK_K = 5

#: A kernel may do at most this multiple of its committed work.
HEADROOM = 1.25

#: Committed work per kernel: every positive counter of one run at
#: SEED.  A kernel missing from a run fails its budget.
WORK_BUDGETS = {
    "forest_sampling_serial": {
        "cycle_pops": 11722, "forests_sampled": 16, "walk_steps": 75722},
    "forest_sampling_parallel": {
        "cycle_pops": 11722, "forests_sampled": 16, "walk_steps": 75722},
    "estimate_stage_source_improved": {
        "cycle_pops": 23443, "forests_sampled": 32, "walk_steps": 151443},
    "forward_push_vectorized": {"push_sweeps": 60, "pushes": 43385},
    "backward_push_vectorized": {"push_sweeps": 32, "pushes": 10728},
    "speedlv_query": {
        "cycle_pops": 634, "forests_sampled": 1, "push_sweeps": 33,
        "pushes": 76334, "walk_steps": 4634},
    "backlv_query": {
        "cycle_pops": 20107, "forests_sampled": 28, "push_sweeps": 7,
        "pushes": 36, "strata": 8510, "walk_steps": 132107},
    "dynamic_repair_single_edge": {
        "repair_dirty_nodes": 32, "repair_fresh_steps": 42,
        "repair_replayed_steps": 215},
    "service_bank_16": {
        "cycle_pops": 11499, "forests_sampled": 16, "walk_steps": 75499},
    "service_query_many_16": {"push_sweeps": 219, "pushes": 10980},
    "service_query_many_16_mp": {"push_sweeps": 219, "pushes": 11010},
    "service_query_many_16_sharded": {"push_sweeps": 219, "pushes": 11010},
    "service_query_many_16_traced": {"push_sweeps": 219, "pushes": 11010},
    "service_topk_16": {
        "cycle_pops": 860690, "forests_sampled": 1184, "push_sweeps": 116,
        "pushes": 1036, "topk_min_overlap": 5, "walk_steps": 5596690},
    "service_topk_16_full": {
        "cycle_pops": 1492144, "forests_sampled": 2048, "push_sweeps": 116,
        "pushes": 1036, "walk_steps": 9684144},
}

#: The stratified flagship queries must use at least this fraction
#: fewer walk steps than the same queries in improved mode.
VARIANCE_WALK_REDUCTION_FLOOR = 0.25

#: Top-k early termination: minimum walk-step saving against the
#: full-budget twin, and the per-query top-k overlap both must share.
TOPK_REDUCTION_FLOOR = 0.20
TOPK_OVERLAP_FLOOR = TOPK_K - 1


def _pinned_graph():
    """The fixed workload graph (heavy-tailed, ~4k nodes)."""
    degrees = 2.0 + 8.0 * (np.arange(GRAPH_NODES, dtype=np.float64)
                           % 97) / 96.0
    return chung_lu(degrees, rng=SEED)


def _merged(results) -> dict:
    work = WorkCounters()
    for result in results:
        work.merge(result.work)
    return work.as_dict()


def _flagship(graph, variance_mode: str) -> dict[str, dict]:
    """The single-source and single-target flagship queries."""
    speedlv = single_source(graph, 0, method="speedlv", alpha=ALPHA,
                            budget_scale=0.05, seed=SEED,
                            variance_mode=variance_mode)
    backlv = single_target(graph, 1, method="backlv", alpha=ALPHA,
                           budget_scale=0.05, seed=SEED,
                           variance_mode=variance_mode)
    return {"speedlv_query": speedlv.work.as_dict(),
            "backlv_query": backlv.work.as_dict()}


@pytest.fixture(scope="module")
def graph():
    return _pinned_graph()


@pytest.fixture(scope="module")
def kernels(graph):
    """Run every pinned kernel once; ``{name: counters}``."""
    runs: dict[str, dict] = {}

    for name, workers in (("forest_sampling_serial", 1),
                          ("forest_sampling_parallel", 4)):
        work = WorkCounters()
        sample_forests_parallel(graph, ALPHA, 16, rng=SEED, workers=workers,
                                counters=work)
        runs[name] = work.as_dict()

    residual = np.zeros(graph.num_nodes)
    residual[:64] = 1.0 / 64.0
    stage = parallel_estimate_stage(graph, ALPHA, 32, residual,
                                    kind="source", improved=True,
                                    rng=SEED, workers=1)
    runs["estimate_stage_source_improved"] = stage.counters.as_dict()

    for name, push_fn in (("forward_push_vectorized", balanced_forward_push),
                          ("backward_push_vectorized", backward_push)):
        work = WorkCounters()
        work.record_push(push_fn(graph, 0, ALPHA, 5e-5))
        runs[name] = work.as_dict()

    # the flagship queries run stratified: ω is discounted by the
    # measured variance gain (the cut the variance floor checks)
    runs.update(_flagship(graph, "stratified"))

    # one edge written into a 16-forest dynamic bank: the repair
    # re-pops only the nodes whose consumed arrows reach the endpoints
    # (a full replay would read all ~75k recorded arrows)
    dynamic = DynamicForestIndex.build(graph, ALPHA, 16, rng=SEED)
    _, repair = dynamic.mutated(
        GraphDelta().upsert_edge(*REPAIR_EDGE, 1.0), rng=SEED)
    runs["dynamic_repair_single_edge"] = repair.as_dict()

    # the serving fold: one shared bank, a whole micro-batch; the bank
    # build is its own kernel, as it is paid once per running service
    # (the fold's counters are pushes only, so a bank of twice the
    # forests would pass every other budget)
    batch_solver = BatchSourceSolver(graph, alpha=ALPHA, epsilon=0.5,
                                     budget_scale=0.05, seed=SEED,
                                     num_forests=16)
    runs["service_bank_16"] = batch_solver.index.build_counters.as_dict()
    batch_solver.query_many([0])
    runs["service_query_many_16"] = _merged(batch_solver.query_many(BATCH))

    config = PPRConfig(alpha=ALPHA, epsilon=0.5, budget_scale=0.05,
                       seed=SEED, workers=0)
    mp_manager = IndexManager(config, num_forests=16)
    mp_manager.register_graph("gate", graph)
    shard_manager = IndexManager(config, num_forests=16, shards=2)
    shard_manager.register_graph("gate", graph)
    topk_items = [(node, TOPK_K) for node in BATCH]
    topk_early = BatchTopKSolver(graph, alpha=ALPHA, epsilon=0.5,
                                 budget_scale=0.05, seed=SEED,
                                 max_forests=128)
    topk_full = BatchTopKSolver(graph, alpha=ALPHA, epsilon=0.5,
                                budget_scale=0.05, seed=SEED,
                                max_forests=128, early_stop=False)
    mp_executor = shard_router = None
    try:
        mp_executor = ProcessExecutor(mp_manager, workers=2).start()
        mp_executor.warm("gate", ALPHA)
        runs["service_query_many_16_mp"] = _merged(
            mp_executor.run_batch("gate", "source", ALPHA, 0.5, BATCH))
        runs["service_query_many_16_traced"] = _merged(
            mp_executor.run_batch("gate", "source", ALPHA, 0.5, BATCH,
                                  trace=True, stats={}))
        # the full continuous-telemetry stack records every request
        metrics = ServiceMetrics(timeseries=TimeSeriesStore(),
                                 slo=SLOEngine(default_specs()))
        results = mp_executor.run_batch("gate", "source", ALPHA, 0.5, BATCH)
        for position, result in enumerate(results):
            metrics.record_request("source", 0.001,
                                   tenant=f"tenant{position % 4}",
                                   work=result.work.as_dict())
        runs["service_query_many_16_telemetry"] = _merged(results)

        shard_router = ShardRouter(shard_manager,
                                   workers_per_shard=1).start()
        shard_router.warm("gate", ALPHA)
        runs["service_query_many_16_sharded"] = _merged(
            shard_router.run_batch("gate", "source", ALPHA, 0.5, BATCH))

        early = topk_early.run_items(topk_items)
        full = topk_full.run_items(topk_items)
        runs["service_topk_16"] = _merged(early)
        runs["service_topk_16"]["topk_min_overlap"] = min(
            len(set(e.nodes.tolist()) & set(f.nodes.tolist()))
            for e, f in zip(early, full))
        runs["service_topk_16_full"] = _merged(full)
    finally:
        topk_early.close()
        topk_full.close()
        batch_solver.close()
        if shard_router is not None:
            shard_router.shutdown()
        shard_manager.close_shared()
        if mp_executor is not None:
            mp_executor.shutdown()
        mp_manager.close_shared()
    return runs


@pytest.mark.parametrize("kernel", sorted(WORK_BUDGETS))
def test_kernel_within_work_budget(kernels, kernel):
    assert kernel in kernels, f"kernel {kernel!r} did not run"
    over = {counter: (kernels[kernel].get(counter), committed)
            for counter, committed in WORK_BUDGETS[kernel].items()
            if kernels[kernel].get(counter, float("inf"))
            > HEADROOM * committed}
    assert not over, (f"{kernel} over {HEADROOM}x its committed work "
                      f"(current, committed): {over}")


def test_routing_and_instrumentation_do_no_work(kernels):
    """Sharding only re-routes the fold; tracing and telemetry only
    watch it, so every variant does exactly the flat pool's work."""
    flat = kernels["service_query_many_16_mp"]
    for variant in ("sharded", "traced", "telemetry"):
        assert kernels[f"service_query_many_16_{variant}"] == flat, variant


def test_stratified_queries_cut_walk_steps(graph, kernels):
    improved = _flagship(graph, "improved")
    for name, work in improved.items():
        reduction = 1.0 - kernels[name]["walk_steps"] / work["walk_steps"]
        assert reduction >= VARIANCE_WALK_REDUCTION_FLOOR, (
            f"{name}: stratified used {kernels[name]['walk_steps']} walk "
            f"steps vs {work['walk_steps']} improved ({reduction:.1%} cut, "
            f"floor {VARIANCE_WALK_REDUCTION_FLOOR:.0%})")


def test_topk_early_termination_saves_walk_steps(kernels):
    """Both top-k kernels replay one deterministic forest stream, so the
    ratio isolates what the stopping rule saves; the overlap guards
    against buying it with a worse ranking."""
    early = kernels["service_topk_16"]
    full = kernels["service_topk_16_full"]
    reduction = 1.0 - early["walk_steps"] / full["walk_steps"]
    assert reduction >= TOPK_REDUCTION_FLOOR, (
        f"early termination saved {reduction:.1%} walk steps "
        f"({early['walk_steps']} vs {full['walk_steps']}), floor "
        f"{TOPK_REDUCTION_FLOOR:.0%}")
    assert early["topk_min_overlap"] >= TOPK_OVERLAP_FLOOR
