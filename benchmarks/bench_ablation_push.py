"""Ablation C — classic vs balanced forward push (§5.2), and the
backward scatter's gather/dense crossover.

The balanced variant pays more push work for a uniform residual
ceiling — exactly the quantity ω = ⌈r_max·W⌉ depends on.
"""

import statistics
import time

import numpy as np

from repro.bench import experiments
from repro.graph.datasets import load_dataset
from repro.push import kernels

#: frontier shares of all in-arcs swept by the crossover bench
SHARES = (0.05, 0.1, 0.15, 0.2, 0.25, 0.35, 0.5, 0.75, 1.0)
#: timed scatters per strategy and share (median reported)
REPEATS = 15


def bench_ablation_push(benchmark, show_table):
    r_maxes = (0.01, 0.001)
    rows = benchmark.pedantic(
        lambda: experiments.ablation_push_variants(r_maxes=r_maxes),
        rounds=1, iterations=1)
    show_table("Ablation: classic vs balanced forward push", rows)

    for r_max in r_maxes:
        classic = next(r for r in rows if r["variant"] == "classic"
                       and r["r_max"] == r_max)
        balanced = next(r for r in rows if r["variant"] == "balanced"
                        and r["r_max"] == r_max)
        assert balanced["residual_ceiling"] <= r_max + 1e-12
        # the classic threshold is degree-scaled, so it stops earlier
        assert classic["pushes"] <= balanced["pushes"]


def _frontier_with_share(graph, share, rng):
    """Sorted random frontier whose rows hold about ``share`` of all
    in-arcs."""
    reverse = graph.reverse()
    in_counts = np.diff(reverse.indptr)
    order = rng.permutation(graph.num_nodes)
    covered = np.cumsum(in_counts[order])
    size = int(np.searchsorted(covered, share * reverse.num_arcs)) + 1
    return np.sort(order[:min(size, graph.num_nodes)])


def bench_backward_scatter_crossover(benchmark, show_table, monkeypatch):
    """Per-sweep time of the gather and dense backward scatters.

    One sweep's scatter on the youtube stand-in (12,000 nodes), for
    frontiers covering a growing share of the in-arcs; each strategy is
    forced through ``kernels.DENSE_SHARE`` and timed alternately, and
    the table reports medians over ``REPEATS``.  ``DENSE_SHARE`` cites
    the share where the dense column starts to win.  Only the shape and
    bit-identity are asserted: a shared host cannot resolve a timing
    budget.
    """
    graph = load_dataset("youtube", scale=1.0)
    rng = np.random.default_rng(2022)
    cut_over = kernels.DENSE_SHARE
    forced = {"gather": np.inf, "dense": 0.0}

    def sweep():
        rows = []
        for share in SHARES:
            frontier = _frontier_with_share(graph, share, rng)
            spread = rng.random(frontier.size)
            start = rng.random(graph.num_nodes)
            seconds = {name: [] for name in forced}
            outputs = {}
            for _ in range(REPEATS):
                for name, share_to_force in forced.items():
                    monkeypatch.setattr(kernels, "DENSE_SHARE",
                                        share_to_force)
                    residual = start.copy()
                    began = time.perf_counter()
                    arcs = kernels.backward_scatter(graph, frontier, spread,
                                                    residual)
                    seconds[name].append(time.perf_counter() - began)
                    outputs[name] = (arcs, residual)
            assert outputs["gather"][0] == outputs["dense"][0]
            assert np.array_equal(outputs["gather"][1], outputs["dense"][1])
            gather_ms = 1e3 * statistics.median(seconds["gather"])
            dense_ms = 1e3 * statistics.median(seconds["dense"])
            rows.append({"share": share,
                         "arc_share": round(outputs["dense"][0]
                                            / graph.num_arcs, 3),
                         "frontier": int(frontier.size),
                         "gather_ms": round(gather_ms, 3),
                         "dense_ms": round(dense_ms, 3),
                         "dense/gather": round(dense_ms / gather_ms, 2)})
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    show_table("Backward scatter: gather vs dense per sweep "
               f"(cut-over {cut_over})", rows)
    assert [row["share"] for row in rows] == list(SHARES)
    shares = [row["arc_share"] for row in rows]
    assert shares == sorted(shares) and shares[-1] == 1.0
    assert all(row["gather_ms"] > 0 and row["dense_ms"] > 0 for row in rows)
