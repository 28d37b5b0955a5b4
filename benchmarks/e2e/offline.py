"""The ``index_offline`` workload: the library used in-process.

    python benchmarks/e2e/offline.py --seed N --seconds S [--setups K]
        [--spans SPANS.json]

Loads the graph, builds a ``ForestIndex`` (α = 0.01, ω =
``recommended_size(ε = 0.1)``, one worker) and answers 32-node batches
of sources and 8-node batches of hub targets (one node per out-degree
stratum) through ``BatchSourceSolver``/``BatchTargetSolver(index=…)
.run_items`` in whole cycles of the batch mix, for at least ``S``
seconds; then it answers the accuracy probes.  Set-up (graph load, bank
build and one warm batch) is timed ``K`` times.  Memory is read after
``MEMORY_CYCLES`` cycles and at the end.  Prints one JSON object as its
last line; ``--spans`` installs the layer wrappers and writes the spans
there.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from common import require_program
from procs import pss_mib
from workloads import (
    BUDGET_SCALE,
    GRAPH,
    OFFLINE_ALPHA,
    OFFLINE_EPSILON,
    OFFLINE_CYCLE,
    PROBE_TOP,
    degree_order,
    hub_pool,
    offline_batches,
    probe_requests,
)

#: the seed the bank is sampled with; fixed, like the server's default,
#: so that ``--seed`` changes the queries and never the bank
BANK_SEED = 2022
#: cycles answered before memory is read: about 5 s of the phase
MEMORY_CYCLES = 2


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setups", type=int, default=3)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    require_program()
    recorder = None
    if args.spans:
        from spans import Recorder, install

        recorder = Recorder()
        install(recorder)
    from repro.core.batch import BatchSourceSolver, BatchTargetSolver
    from repro.core.config import PPRConfig
    from repro.graph.datasets import clear_dataset_cache, load_dataset
    from repro.montecarlo.forest_index import ForestIndex

    setups = []
    for _ in range(args.setups):
        clear_dataset_cache()
        started = time.perf_counter()
        graph = load_dataset(GRAPH, scale=1.0)
        index = ForestIndex.build(
            graph, OFFLINE_ALPHA,
            ForestIndex.recommended_size(graph, OFFLINE_EPSILON),
            rng=BANK_SEED, workers=1)
        config = PPRConfig(alpha=OFFLINE_ALPHA, epsilon=OFFLINE_EPSILON,
                           budget_scale=BUDGET_SCALE, seed=BANK_SEED)
        solvers = {"source": BatchSourceSolver(graph, config=config,
                                               index=index),
                   "target": BatchTargetSolver(graph, config=config,
                                               index=index)}
        order = degree_order(graph.out_degrees)
        kind, nodes = next(offline_batches(args.seed, "warmup", order))
        solvers[kind].run_items(nodes)
        setups.append(time.perf_counter() - started)

    stream = offline_batches(args.seed, "measure", order)
    batches = []
    mem_mb = None
    started = time.perf_counter()
    # whole cycles of source batches and one hub-target batch, so every
    # run measures the same mix
    while (time.perf_counter() < started + args.seconds
           or len(batches) % OFFLINE_CYCLE):
        kind, nodes = next(stream)
        sent = time.perf_counter()
        solvers[kind].run_items(nodes)
        batches.append({"kind": kind, "size": len(nodes),
                        "seconds": time.perf_counter() - sent})
        if len(batches) == MEMORY_CYCLES * OFFLINE_CYCLE:
            mem_mb = pss_mib([os.getpid()])
    window = [started, time.perf_counter()]
    end_mb = pss_mib([os.getpid()])

    probes = []
    for probe in probe_requests("index_offline", graph.num_nodes,
                                hub_pool(order), pairs=False):
        body = probe["body"]
        result = solvers[body["kind"]].run_items([body["node"]])[0]
        probes.append({"probe": probe,
                       "answer": {"top": result.top_k(PROBE_TOP)}})
    if recorder is not None:
        recorder.dump(args.spans)
    print(json.dumps({
        "setups": setups, "batches": batches, "window": window,
        "mem_mb": end_mb if mem_mb is None else mem_mb, "end_mb": end_mb,
        "probes": probes}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
