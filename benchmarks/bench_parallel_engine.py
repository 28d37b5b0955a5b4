"""Parallel chunked forest-sampling engine: equivalence + speedup.

Two claims are asserted on a 20k-node Chung–Lu graph:

1. **Determinism** — with a fixed seed, the estimator stage run with 4
   workers is bit-identical to the serial run (always asserted);
2. **Throughput** — 4 workers beat serial by ≥2× on the batch
   estimator fold (asserted only when the host actually has ≥4 CPUs
   and the ``fork`` start method; a single-core CI runner cannot show
   a parallel speedup, only destroy it).

Two sweeps fit the crossovers below which a pool loses to the serial
path, and print them beside the library's constants (nothing is
asserted on the clock): ``bench_engine_crossover`` over forests × nodes
and ``bench_push_crossover`` over a batch's work per push × batch size.
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np

from repro.graph.generators import chung_lu
from repro.parallel import parallel_estimate_stage
from repro.parallel.engine import usable_cpus

ALPHA = 0.1
NODES = 20_000
FORESTS = 64
SEED = 2022


def _speedup_measurable() -> bool:
    return (usable_cpus() >= 4
            and "fork" in multiprocessing.get_all_start_methods())


def bench_parallel_engine(benchmark, show_table):
    degrees = 2.0 + 8.0 * (np.arange(NODES, dtype=np.float64) % 97) / 96.0
    graph = chung_lu(degrees, rng=SEED)
    graph.alias_table  # exclude one-time table build from both timings
    residual = np.zeros(graph.num_nodes)
    residual[:256] = 1.0 / 256.0

    def run(workers: int):
        started = time.perf_counter()
        stage = parallel_estimate_stage(graph, ALPHA, FORESTS, residual,
                                        kind="source", improved=True,
                                        rng=SEED, workers=workers)
        return stage, time.perf_counter() - started

    def measure():
        serial_stage, serial_seconds = run(1)
        parallel_stage, parallel_seconds = run(4)
        return [{
            "workers": 1, "seconds": serial_seconds,
            "forests": serial_stage.drawn,
            "walk_steps": serial_stage.counters.walk_steps,
            "chunks": serial_stage.num_chunks,
        }, {
            "workers": 4, "seconds": parallel_seconds,
            "forests": parallel_stage.drawn,
            "walk_steps": parallel_stage.counters.walk_steps,
            "chunks": parallel_stage.num_chunks,
            "identical_to_serial": bool(
                np.array_equal(serial_stage.sums, parallel_stage.sums)),
            "speedup": serial_seconds / max(parallel_seconds, 1e-12),
        }]

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    show_table(f"Parallel engine on n={NODES} Chung-Lu "
               f"({FORESTS} forests, alpha={ALPHA})", rows)

    parallel_row = rows[1]
    assert parallel_row["identical_to_serial"], \
        "workers=4 changed the estimates — determinism contract broken"
    assert rows[0]["walk_steps"] == parallel_row["walk_steps"]
    if _speedup_measurable():
        assert parallel_row["speedup"] >= 2.0, (
            f"expected >=2x at 4 workers on a >=4-core host, got "
            f"{parallel_row['speedup']:.2f}x")


# ----------------------------------------------------------------------
# Crossover sweeps: where a pool starts to beat the serial path.  Both
# time each configuration serial and pooled in alternation (median of
# ROUNDS) and report the ratio beside the machine-independent size the
# rule reads; the fitted thresholds are the library's constants
# (``MIN_POOL_FOREST_NODES``, ``PUSH_POOL_MIN_WORK_PER_NODE``).
# ----------------------------------------------------------------------
ROUNDS = 5


def _paired_medians(serial, pooled, rounds: int = ROUNDS):
    """Median seconds of ``serial()`` and ``pooled()``, run alternately."""
    times: dict[str, list[float]] = {"serial": [], "pooled": []}
    for round_index in range(rounds):
        order = (("serial", serial), ("pooled", pooled))
        for name, run in (order if round_index % 2 == 0 else order[::-1]):
            started = time.perf_counter()
            run()
            times[name].append(time.perf_counter() - started)
    return (float(np.median(times["serial"])),
            float(np.median(times["pooled"])))


def _fitted(rows, size_key: str) -> float | None:
    """Smallest ``size_key`` from which every larger row's pool won
    (``None`` if the largest lost)."""
    fitted = None
    for row in sorted(rows, key=lambda row: row[size_key], reverse=True):
        if row["ratio"] >= 1.0:
            break
        fitted = row[size_key]
    return fitted


def bench_engine_crossover(benchmark, show_table, monkeypatch, is_full):
    """Forest sampling serial vs a per-call pool over forests × nodes."""
    from repro.parallel import engine, sample_forests_parallel

    library = engine.MIN_POOL_FOREST_NODES
    monkeypatch.setattr(engine, "MIN_POOL_FOREST_NODES", 0)
    sizes = [(4_000, 16), (4_000, 64), (12_000, 32), (20_000, 32),
             (12_000, 64), (20_000, 64)]
    if is_full:
        sizes += [(60_000, 64)]

    def measure():
        rows = []
        for nodes, forests in sizes:
            degrees = 2.0 + 8.0 * (np.arange(nodes, dtype=np.float64)
                                   % 97) / 96.0
            graph = chung_lu(degrees, rng=SEED)
            graph.alias_table
            serial, pooled = _paired_medians(
                lambda: sample_forests_parallel(graph, ALPHA, forests,
                                                rng=SEED, workers=1),
                lambda: sample_forests_parallel(graph, ALPHA, forests,
                                                rng=SEED, workers=None))
            rows.append({"nodes": nodes, "forests": forests,
                         "forest_nodes": nodes * forests,
                         "workers": engine.resolve_workers(None),
                         "serial_s": serial, "pooled_s": pooled,
                         "ratio": pooled / serial})
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    show_table(f"Engine crossover (alpha={ALPHA}, pooled/serial; "
               f"fitted forest_nodes >= {_fitted(rows, 'forest_nodes')}, "
               f"library uses {library:,})",
               rows)


def bench_push_crossover(benchmark, show_table, monkeypatch, is_full):
    """A batch's pushes serial vs on the persistent pool, over work per
    push × batch size, on the youtube stand-in."""
    import repro.core.batch as batch
    from repro.core.batch import BatchSourceSolver
    from repro.graph.datasets import load_dataset
    from repro.montecarlo.forest_index import ForestIndex

    library = (batch.PUSH_POOL_MIN_WORK_PER_NODE, batch.PUSH_POOL_MIN_WORK)
    graph = load_dataset("youtube", scale=1.0)
    index = ForestIndex.build(graph, 0.1, 2, rng=SEED)
    configs = [(0.1, 1e-3), (0.1, 3e-4), (0.1, 1e-4), (0.01, 1e-3),
               (0.01, 3e-4), (0.01, 2.2e-4), (0.01, 1.6e-4)]
    batches = (2, 8, 32) if is_full else (2, 8)
    rng = np.random.default_rng(SEED)

    def measure():
        rows = []
        for alpha, r_max in configs:
            if abs(index.alpha - alpha) > 1e-12:
                index_alpha = ForestIndex.build(graph, alpha, 2, rng=SEED)
            else:
                index_alpha = index
            solver = BatchSourceSolver(graph, alpha=alpha, r_max=r_max,
                                       index=index_alpha, workers=None)
            for size in batches:
                nodes = [int(node) for node in
                         rng.integers(graph.num_nodes, size=size)]
                # pushes recorded as served: the pool decision then
                # reads their mean instead of pushing the first here
                warm = [push for push, _ in
                        solver._push_all("source", nodes, r_max)]
                for push in warm:
                    solver._record_query(push)
                work = sum(push.work for push in warm)

                def run(threshold):
                    def go():
                        for name in ("PUSH_POOL_MIN_WORK_PER_NODE",
                                     "PUSH_POOL_MIN_WORK"):
                            monkeypatch.setattr(batch, name, threshold)
                        solver._push_all("source", nodes, r_max)
                    return go

                serial, pooled = _paired_medians(run(np.inf), run(0.0))
                rows.append({"alpha": alpha, "r_max": r_max,
                             "batch": size,
                             "work_per_push": work // size,
                             "work_per_push_per_node": round(
                                 work / size / graph.num_nodes, 1),
                             "serial_ms": serial * 1e3,
                             "pooled_ms": pooled * 1e3,
                             "ratio": pooled / serial})
            solver.close()
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    wide = [row for row in rows if row["batch"] >= 8]
    show_table("Push crossover (n=12,000; pooled/serial; batches of 8+ "
               f"fitted work/push/node >= "
               f"{_fitted(wide, 'work_per_push_per_node')}; library uses "
               f"{library[0]} per node and at least {library[1]:,})", rows)
