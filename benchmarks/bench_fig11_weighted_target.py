"""Fig. 11 — single-target query cost on general weighted graphs.

Paper's shape: BACKLV achieves ~2× speedups over BACK at α = 0.01 —
asserted on the machine-independent work counters, since the
vectorized push kernel gives pure-push BACK a NumPy constant-factor
wall-clock advantage a compiled implementation would not see (the
"counters over clocks" rule of docs/BENCHMARKING.md).
"""

from conftest import full_protocol, mean_of

from repro.bench import experiments

DATASETS = (("dblp", "stackoverflow") if full_protocol() else ("dblp",))
EPSILONS = experiments.EPSILONS if full_protocol() else (0.3, 0.5)
TARGET_FRACTION = 0.02 if full_protocol() else 0.005


def bench_fig11(benchmark, show_table):
    rows = benchmark.pedantic(
        lambda: experiments.fig11_weighted_target_time(
            DATASETS, experiments.TARGET_METHODS, EPSILONS, alpha=0.01,
            target_fraction=TARGET_FRACTION),
        rounds=1, iterations=1)
    show_table("Fig 11: weighted-graph single-target cost (alpha=0.01)",
               rows)

    tight = min(EPSILONS)
    for dataset in DATASETS:
        back_work = mean_of(rows, "mean_work", dataset=dataset,
                            method="back", epsilon=tight)
        backlv_work = mean_of(rows, "mean_work", dataset=dataset,
                              method="backlv", epsilon=tight)
        assert backlv_work < back_work
