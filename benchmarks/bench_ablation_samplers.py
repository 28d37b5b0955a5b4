"""Ablation B — reference (Algorithm 1) vs vectorised cycle-popping
sampler: same τ, different constants.  Pins the α rule of
``sample_forest``: cycle popping wins at moderate α, Wilson below
``AUTO_SAMPLER_ALPHA_THRESHOLD``."""

from conftest import mean_of

from repro.bench import experiments
from repro.forests.sampling import AUTO_SAMPLER_ALPHA_THRESHOLD

SMALL_ALPHA = 1e-4


def bench_ablation_samplers(benchmark, show_table):
    rows = benchmark.pedantic(
        lambda: experiments.ablation_sampler_throughput(
            alphas=(0.2, 0.05, 0.01, SMALL_ALPHA), repetitions=3),
        rounds=1, iterations=1)
    show_table("Ablation: sampler throughput (wilson vs cycle_popping)",
               rows)

    # small-α step counts are too noisy over 3 repetitions to compare
    for alpha in (0.2, 0.05, 0.01):
        wilson_steps = mean_of(rows, "mean_steps", alpha=alpha,
                               sampler="wilson")
        popping_steps = mean_of(rows, "mean_steps", alpha=alpha,
                                sampler="cycle_popping")
        # both draw the same distribution, so step counts agree within
        # sampling noise
        assert abs(wilson_steps - popping_steps) < 0.5 * max(
            wilson_steps, popping_steps)
    # the vectorised sampler should win on wall clock at α = 0.01 ...
    assert mean_of(rows, "mean_seconds", alpha=0.01,
                   sampler="cycle_popping") < mean_of(
        rows, "mean_seconds", alpha=0.01, sampler="wilson")
    # ... and the sequential one below the auto threshold
    assert SMALL_ALPHA < AUTO_SAMPLER_ALPHA_THRESHOLD
    assert mean_of(rows, "mean_seconds", alpha=SMALL_ALPHA,
                   sampler="wilson") < mean_of(
        rows, "mean_seconds", alpha=SMALL_ALPHA, sampler="cycle_popping")
