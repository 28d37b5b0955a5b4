"""Fig. 8 — single-target query cost, high-degree targets, α = 0.01.

Paper's shape: BACKLV achieves 1–3× speedups over BACK; RBACK is
no better than BACK (its per-push sampling overhead dominates).

The BACK-vs-BACKLV comparison is asserted on the machine-independent
work counters: with the vectorized push kernel a pure-push method's
wall clock rides NumPy's ~100×-cheaper-per-op constant factor, which
a compiled implementation would not see (the "counters over clocks"
rule of docs/BENCHMARKING.md).  RBACK stays a wall-clock assertion —
its overhead *is* per-push bookkeeping, visible only in time.
"""

from conftest import full_protocol, mean_of

from repro.bench import experiments

DATASETS = (experiments.UNWEIGHTED_DATASETS if full_protocol()
            else ("youtube", "pokec"))
EPSILONS = experiments.EPSILONS if full_protocol() else (0.3, 0.5)
# the paper draws targets from the top 10% at millions of nodes; the
# scaled stand-ins compress the degree range, so the pool narrows to
# keep the targets genuinely expensive (see workloads.high_degree_nodes)
TARGET_FRACTION = 0.02 if full_protocol() else 0.005


def bench_fig8(benchmark, show_table):
    rows = benchmark.pedantic(
        lambda: experiments.fig8_single_target_time(
            DATASETS, experiments.TARGET_METHODS, EPSILONS, alpha=0.01,
            target_fraction=TARGET_FRACTION),
        rounds=1, iterations=1)
    show_table("Fig 8: single-target query time (alpha=0.01, "
               "high-degree targets)", rows)

    # the paper reports 1-3x speedups "under most parameter settings";
    # the effect is decisive at the tighter error thresholds, where
    # BACK's additive threshold forces deep pushes
    tight = min(EPSILONS)
    for dataset in DATASETS:
        back_work = mean_of(rows, "mean_work", dataset=dataset,
                            method="back", epsilon=tight)
        backlv_work = mean_of(rows, "mean_work", dataset=dataset,
                              method="backlv", epsilon=tight)
        backlv_seconds = mean_of(rows, "mean_seconds", dataset=dataset,
                                 method="backlv", epsilon=tight)
        rback_seconds = mean_of(rows, "mean_seconds", dataset=dataset,
                                method="rback", epsilon=tight)
        assert backlv_work < back_work, (
            f"{dataset}: the two-stage method should out-work pure "
            f"backward push on high-degree targets at eps={tight}")
        assert rback_seconds > backlv_seconds
