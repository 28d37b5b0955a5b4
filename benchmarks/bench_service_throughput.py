"""Serving layer: micro-batched throughput + bit-identical answers.

Two claims are asserted on a 20k-node Chung–Lu graph with a Zipf(1.1)
source stream at batch size 32:

1. **Determinism** — every answer the service produces is
   byte-identical to a direct :class:`~repro.core.batch.BatchSourceSolver`
   call against an independently-built bank at the same seed (always
   asserted; micro-batching changes *when* work happens, never *what*
   is computed);
2. **Throughput** — closed-loop micro-batched serving beats the naive
   per-request ``single_source`` path by ≥3× (the naive path resamples
   its forests on every request; the service amortises one shared bank
   and folds whole batches in two sparse products).

The workload runs the in-process facade (:meth:`PPRService.query_result`)
so the measurement captures scheduling + batching + solving without
HTTP noise; the HTTP front end is exercised by the CI smoke job
instead.  The result cache is disabled — the claim is about batching,
not memoisation.

The file also holds the worker- and shard-scaling benches and the ≤5%
tracing/telemetry overhead budget (:func:`bench_instrumentation_overhead`).
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

from repro.core.api import single_source
from repro.graph.generators import chung_lu
from repro.service import PPRService, ServiceConfig
from repro.service.loadgen import zipf_nodes

ALPHA = 0.1
EPSILON = 0.5
BUDGET_SCALE = 0.05
NODES = 20_000
SEED = 2022
MAX_BATCH = 32
NAIVE_QUERIES = 16
SERVED_QUERIES = 256
CONCURRENCY = 32


def _bench_graph(nodes: int = NODES):
    degrees = 2.0 + 8.0 * (np.arange(nodes, dtype=np.float64) % 97) / 96.0
    return chung_lu(degrees, rng=SEED)


def _service_config() -> ServiceConfig:
    return ServiceConfig(graph="bench", alpha=ALPHA, epsilon=EPSILON,
                         budget_scale=BUDGET_SCALE, seed=SEED,
                         max_batch=MAX_BATCH, max_wait_ms=15.0,
                         queue_capacity=1024, cache_entries=0)


def _drive(service: PPRService, stream: np.ndarray) -> float:
    """Closed-loop load: CONCURRENCY clients, each its own node slice."""
    errors: list[BaseException] = []

    def client(chunk: np.ndarray) -> None:
        try:
            for node in chunk:
                service.query_result("source", int(node), use_cache=False)
        except BaseException as error:  # pragma: no cover - surfaced below
            errors.append(error)

    threads = [threading.Thread(target=client, args=(chunk,))
               for chunk in np.array_split(stream, CONCURRENCY)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    if errors:
        raise errors[0]
    return elapsed


def bench_service_throughput(benchmark, show_table):
    graph = _bench_graph()
    graph.alias_table  # shared one-time cost, exclude from both timings
    stream = zipf_nodes(NODES, SERVED_QUERIES, exponent=1.1, seed=7)

    def measure():
        started = time.perf_counter()
        for node in stream[:NAIVE_QUERIES]:
            single_source(graph, int(node), method="speedlv", alpha=ALPHA,
                          epsilon=EPSILON, budget_scale=BUDGET_SCALE,
                          seed=SEED)
        naive_per_query = (time.perf_counter() - started) / NAIVE_QUERIES

        config = _service_config()
        with PPRService(config, graph=graph) as service:
            service.query_result("source", 0, use_cache=False)  # warm bank
            elapsed = _drive(service, stream)
            snapshot = service.metrics.snapshot()
            # spot-check: the service's answers are byte-identical to a
            # *separately built* direct solver at the same configuration
            manager = PPRService(config, graph=graph).index_manager
            direct = manager.get_solver(config.graph, "source",
                                        alpha=ALPHA, epsilon=EPSILON)
            identical = all(
                np.array_equal(
                    service.query_result("source", int(node),
                                         use_cache=False)[0].estimates,
                    direct.query(int(node)).estimates)
                for node in stream[:8])

        served_per_query = elapsed / stream.size
        batches = max(snapshot["batches"], 1)
        return [{
            "path": "per-request single_source",
            "queries": NAIVE_QUERIES,
            "ms_per_query": 1000 * naive_per_query,
            "qps": 1.0 / naive_per_query,
        }, {
            "path": f"micro-batched service (max_batch={MAX_BATCH})",
            "queries": stream.size,
            "ms_per_query": 1000 * served_per_query,
            "qps": 1.0 / served_per_query,
            "batches": snapshot["batches"],
            "mean_batch": stream.size / batches,
            "identical_to_direct": identical,
            "speedup": naive_per_query / served_per_query,
        }]

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    show_table(f"Serving throughput on n={NODES} Chung-Lu "
               f"(Zipf(1.1) stream, alpha={ALPHA})", rows)

    service_row = rows[1]
    assert service_row["identical_to_direct"], \
        "micro-batched answers diverged from direct solver calls"
    assert service_row["mean_batch"] > 1.5, (
        f"scheduler failed to batch (mean batch "
        f"{service_row['mean_batch']:.2f})")
    assert service_row["speedup"] >= 3.0, (
        f"expected >=3x over per-request single_source, got "
        f"{service_row['speedup']:.2f}x")


SCALING_QUERIES = 192
SCALING_WORKERS = (1, 2, 4)


def bench_service_worker_scaling(benchmark, show_table):
    """Process-executor scaling: qps at 1/2/4 workers vs thread mode.

    The thread-mode fold serializes on the GIL, so adding front-end
    threads cannot add throughput; the process executor folds batches
    in forked workers over shared-memory banks.  On a box with >=4
    cores, 4 workers must deliver >=2x the thread-mode qps (the CSR
    folds are pure compute, so the pool's speedup is near-linear until
    the core count runs out).  Thread mode (``workers=0``) and the
    2/4-worker process modes all build through the parallel engine,
    whose output is bit-identical across worker counts — so those
    modes must serve byte-identical answers (``workers=1`` draws its
    bank from the serial sampler and is excluded from the digest
    check).
    """
    graph = _bench_graph()
    graph.alias_table
    stream = zipf_nodes(NODES, SCALING_QUERIES, exponent=1.1, seed=11)

    def run_mode(executor: str, workers: int) -> dict:
        config = ServiceConfig(graph="bench", alpha=ALPHA,
                               epsilon=EPSILON,
                               budget_scale=BUDGET_SCALE, seed=SEED,
                               max_batch=MAX_BATCH, max_wait_ms=15.0,
                               queue_capacity=1024, cache_entries=0,
                               workers=workers, executor=executor)
        with PPRService(config, graph=graph) as service:
            service.query_result("source", 0, use_cache=False)
            elapsed = _drive(service, stream)
            stats = service.healthz()["executor"]
            digest = service.query_result(
                "source", 1, use_cache=False)[0].estimates.tobytes()
        label = (f"process x{workers}" if executor == "process"
                 else "thread")
        return {
            "mode": label,
            "workers": workers,
            "qps": stream.size / elapsed,
            "ms_per_query": 1000 * elapsed / stream.size,
            "fallbacks": service.scheduler.fallback_batches,
            "respawns": stats.get("respawns", 0),
            "_digest": digest,
        }

    def measure():
        # workers=0 -> engine build, same bank bytes as process mode
        rows = [run_mode("thread", 0)]
        for workers in SCALING_WORKERS:
            rows.append(run_mode("process", workers))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    digests = set()
    for row in rows:
        digest = row.pop("_digest")
        if row["workers"] != 1:  # serial-sampler bank differs by design
            digests.add(digest)
    show_table(f"Executor scaling on n={NODES} Chung-Lu "
               f"({SCALING_QUERIES} queries, max_batch={MAX_BATCH})",
               rows)

    assert len(digests) == 1, \
        "executor modes returned different estimate bytes"
    assert all(row["fallbacks"] == 0 for row in rows[1:]), \
        "process executor fell back to inline folding"
    assert all(row["respawns"] == 0 for row in rows[1:]), \
        "workers crashed during the scaling run"
    cores = os.cpu_count() or 1
    thread_qps = rows[0]["qps"]
    four_worker_qps = rows[-1]["qps"]
    if cores >= 4:
        assert four_worker_qps >= 2.0 * thread_qps, (
            f"expected >=2x thread-mode qps with 4 workers on "
            f"{cores} cores, got {four_worker_qps / thread_qps:.2f}x")
    else:
        print(f"\n(cpu_count={cores}: scaling assertion skipped; "
              f"4-worker/thread ratio {four_worker_qps / thread_qps:.2f}x)")


SHARDED_ALPHA = 0.25
SHARDED_QUERIES = 192


def bench_service_sharded_scaling(benchmark, show_table):
    """Scatter-gather sharding: 4 shards x 1 worker vs 1 shard x 4.

    Both deployments spend four worker processes; the difference is
    where the parallelism lives.  The closed loop keeps roughly one
    micro-batch in flight (CONCURRENCY == MAX_BATCH), so the unsharded
    pool folds it on one worker while three idle — extra workers only
    help across *batches*.  The shard router splits every batch's fold
    across all four pools (each folds only its ~1/4 of the output
    rows), parallelising *within* the batch, which is the regime real
    low-concurrency serving sits in.  α is raised to 0.25 so the
    per-shard duplicated push stays cheap relative to the bank fold —
    the part sharding divides.  On >=4 cores the sharded deployment
    must deliver >=1.5x the single-pool qps; answers must stay
    byte-identical to a direct unsharded solver at the same seed.
    """
    graph = _bench_graph()
    graph.alias_table
    stream = zipf_nodes(NODES, SHARDED_QUERIES, exponent=1.1, seed=13)

    def run_mode(shards: int, workers: int) -> dict:
        config = ServiceConfig(graph="bench", alpha=SHARDED_ALPHA,
                               epsilon=EPSILON,
                               budget_scale=BUDGET_SCALE, seed=SEED,
                               max_batch=MAX_BATCH, max_wait_ms=15.0,
                               queue_capacity=1024, cache_entries=0,
                               workers=workers, executor="process",
                               shards=shards)
        with PPRService(config, graph=graph) as service:
            service.query_result("source", 0, use_cache=False)
            elapsed = _drive(service, stream)
            stats = service.healthz()["executor"]
            digest = service.query_result(
                "source", 1, use_cache=False)[0].estimates.tobytes()
        return {
            "mode": f"{shards} shard(s) x {workers} worker(s)",
            "qps": stream.size / elapsed,
            "ms_per_query": 1000 * elapsed / stream.size,
            "fallbacks": service.scheduler.fallback_batches,
            "respawns": stats.get("respawns", 0),
            "_digest": digest,
        }

    def measure():
        return [run_mode(1, 4), run_mode(4, 1)]

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    digests = [row.pop("_digest") for row in rows]
    show_table(f"Sharded scatter-gather on n={NODES} Chung-Lu "
               f"({SHARDED_QUERIES} queries, alpha={SHARDED_ALPHA})",
               rows)

    # bit-identity: the sharded deployment (serial-sampler bank, same
    # as a workers=1 build) must answer exactly like a direct solver
    # over an independently built unsharded bank at the same seed
    from repro.core.config import PPRConfig
    from repro.service import IndexManager

    manager = IndexManager(PPRConfig(
        alpha=SHARDED_ALPHA, epsilon=EPSILON, seed=SEED,
        budget_scale=BUDGET_SCALE, workers=1))
    manager.register_graph("bench", graph)
    direct = manager.get_solver("bench", "source", alpha=SHARDED_ALPHA,
                                epsilon=EPSILON)
    assert digests[1] == direct.query(1).estimates.tobytes(), \
        "sharded answers diverged from the unsharded direct solver"
    assert all(row["fallbacks"] == 0 for row in rows), \
        "a deployment fell back to inline folding"
    assert all(row["respawns"] == 0 for row in rows), \
        "workers crashed during the sharded run"

    cores = os.cpu_count() or 1
    ratio = rows[1]["qps"] / rows[0]["qps"]
    if cores >= 4:
        assert ratio >= 1.5, (
            f"expected >=1.5x qps from 4 shards x 1 worker over "
            f"1 shard x 4 workers on {cores} cores, got {ratio:.2f}x")
    else:
        print(f"\n(cpu_count={cores}: sharding assertion skipped; "
              f"sharded/pooled ratio {ratio:.2f}x)")


#: The instrumentation budget: a traced or telemetry-recording
#: micro-batch may be at most this much slower than its bare twin.
OVERHEAD_BUDGET = 0.05
OVERHEAD_NODES = 4000
OVERHEAD_REPEATS = 3


def bench_instrumentation_overhead(benchmark, show_table):
    """Tracing and telemetry cost at most 5% of a pooled micro-batch.

    One 16-source batch is folded by a warm 2-worker process executor
    over shared-memory banks (pool boot and warm attach stay outside
    the timing) three ways: bare; with full span collection
    (``trace=True``); and with the continuous-telemetry stack —
    rolling windows, burn-rate SLOs, tenant attribution — recording
    every request.  Each is timed best-of-3, so each ratio isolates
    one instrumentation cost.  Sub-millisecond batches are timer noise
    at 5%, so the budget is not asserted when the bare floor is under
    1 ms.
    """
    from repro.core.config import PPRConfig
    from repro.obs.slo import SLOEngine, default_specs
    from repro.obs.timeseries import TimeSeriesStore
    from repro.service import IndexManager, ProcessExecutor
    from repro.service.metrics import ServiceMetrics

    graph = _bench_graph(OVERHEAD_NODES)
    batch = list(range(16))
    manager = IndexManager(
        PPRConfig(alpha=ALPHA, epsilon=EPSILON, budget_scale=BUDGET_SCALE,
                  seed=SEED, workers=0), num_forests=16)
    manager.register_graph("bench", graph)
    metrics = ServiceMetrics(timeseries=TimeSeriesStore(),
                             slo=SLOEngine(default_specs()))

    def bare(executor):
        executor.run_batch("bench", "source", ALPHA, EPSILON, batch)

    def traced(executor):
        executor.run_batch("bench", "source", ALPHA, EPSILON, batch,
                           trace=True, stats={})

    def telemetry(executor):
        started = time.perf_counter()
        results = executor.run_batch("bench", "source", ALPHA, EPSILON,
                                     batch)
        seconds = (time.perf_counter() - started) / len(batch)
        for position, result in enumerate(results):
            metrics.record_request("source", seconds,
                                   tenant=f"tenant{position % 4}",
                                   work=result.work.as_dict())

    def best_of(kernel, executor) -> float:
        best = float("inf")
        for _ in range(OVERHEAD_REPEATS):
            started = time.perf_counter()
            kernel(executor)
            best = min(best, time.perf_counter() - started)
        return best

    def measure():
        executor = ProcessExecutor(manager, workers=2).start()
        try:
            executor.warm("bench", ALPHA)
            return {name: best_of(kernel, executor)
                    for name, kernel in (("bare", bare),
                                         ("tracing", traced),
                                         ("telemetry", telemetry))}
        finally:
            executor.shutdown()
            manager.close_shared()

    seconds = benchmark.pedantic(measure, rounds=1, iterations=1)
    base = seconds["bare"]
    overheads = {name: seconds[name] / base - 1.0
                 for name in ("tracing", "telemetry")}
    show_table(f"Instrumentation overhead on n={OVERHEAD_NODES} Chung-Lu "
               f"(16-source batch, 2 workers, best of {OVERHEAD_REPEATS})",
               [{"mode": name, "seconds": seconds[name],
                 "overhead": overheads.get(name, 0.0)}
                for name in seconds])
    if base < 1e-3:
        print(f"\n(bare floor {base * 1000:.2f} ms < 1 ms: "
              "overhead budget not asserted)")
        return
    for name, overhead in overheads.items():
        assert overhead <= OVERHEAD_BUDGET, (
            f"{name} overhead {overhead:+.1%} over the "
            f"{OVERHEAD_BUDGET:.0%} budget ({seconds[name]:.4f}s vs "
            f"{base:.4f}s bare)")
