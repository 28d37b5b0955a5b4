"""The CI benchmark-regression gate: ``python -m repro.bench.ci_gate``.

Runs a pinned quick-protocol subset of kernels — forest sampling
(serial and through the parallel engine), the estimator fold, the
forward/backward push sweeps, and the flagship
single-source/single-target queries — on a fixed Chung–Lu graph with
fixed seeds, and writes the result as JSON
(:func:`repro.bench.reporting.write_benchmark_json`).

With ``--baseline`` it compares against a committed run and exits
non-zero if any tracked kernel regressed beyond the threshold
(default 25%).  Wall clock is calibrated by a pure-NumPy reference
workload so runner speed differences don't trip the gate; the work
counters are machine-independent and compared raw.  See the "CI
protocol" section of docs/BENCHMARKING.md for the baseline-refresh
procedure.
"""

from __future__ import annotations

import argparse
import platform
import sys
import time

import numpy as np

from repro.bench.reporting import (
    compare_to_baseline,
    format_markdown_table,
    load_benchmark_json,
    write_benchmark_json,
)
from repro.core import single_source, single_target
from repro.graph.csr import Graph
from repro.graph.generators import chung_lu
from repro.parallel import parallel_estimate_stage, sample_forests_parallel
from repro.push import backward_push, balanced_forward_push

__all__ = ["main", "run_kernels", "calibration_seconds",
           "check_trace_overhead", "check_topk_early_termination",
           "check_variance_walk_steps"]

SEED = 2022
ALPHA = 0.1
GRAPH_NODES = 4000
TIMING_REPEATS = 3


def _pinned_graph() -> Graph:
    """The gate's fixed workload graph (heavy-tailed, ~4k nodes)."""
    degrees = 2.0 + 8.0 * (np.arange(GRAPH_NODES, dtype=np.float64)
                           % 97) / 96.0
    return chung_lu(degrees, rng=SEED)


def calibration_seconds() -> float:
    """Time a fixed pure-NumPy workload (best of 3).

    Scores the host's NumPy throughput on the mix the kernels use —
    dense arithmetic, bincount, argsort — so kernel seconds can be
    compared across machines as multiples of this figure.
    """
    rng = np.random.default_rng(SEED)
    values = rng.random(400_000)
    labels = rng.integers(0, 1_000, size=values.size)
    best = float("inf")
    for _ in range(TIMING_REPEATS):
        started = time.perf_counter()
        acc = np.zeros(1_000)
        for _ in range(10):
            acc += np.bincount(labels, weights=values, minlength=1_000)
            values = np.sqrt(values * values + 1e-9)
        np.argsort(acc)
        best = min(best, time.perf_counter() - started)
    return best


def _timed(func) -> tuple[float, dict]:
    """Best-of-N wall clock plus the counters of the last run."""
    best = float("inf")
    counters: dict = {}
    for _ in range(TIMING_REPEATS):
        started = time.perf_counter()
        counters = func()
        best = min(best, time.perf_counter() - started)
    return best, counters


def run_kernels(workers: int = 4) -> dict[str, dict]:
    """Run every tracked kernel; returns ``{name: {seconds, counters}}``."""
    graph = _pinned_graph()
    graph.alias_table  # build outside the timed regions
    residual = np.zeros(graph.num_nodes)
    residual[:64] = 1.0 / 64.0

    def forest_serial():
        from repro.counters import WorkCounters
        work = WorkCounters()
        sample_forests_parallel(graph, ALPHA, 16, rng=SEED, workers=1,
                                counters=work)
        return work.as_dict()

    def forest_parallel():
        from repro.counters import WorkCounters
        work = WorkCounters()
        sample_forests_parallel(graph, ALPHA, 16, rng=SEED, workers=workers,
                                counters=work)
        return work.as_dict()

    def estimate_stage():
        stage = parallel_estimate_stage(graph, ALPHA, 32, residual,
                                        kind="source", improved=True,
                                        rng=SEED, workers=1)
        return stage.counters.as_dict()

    def push_kernel(func, r_max=5e-5):
        def run():
            from repro.counters import WorkCounters
            push = func(graph, 0, ALPHA, r_max)
            work = WorkCounters()
            work.record_push(push)
            return work.as_dict()
        return run

    # the flagship queries run in stratified mode: the forest budget ω
    # is discounted by the measured variance gain, which is exactly the
    # walk-step cut check_variance_walk_steps gates on
    def speedlv_query():
        result = single_source(graph, 0, method="speedlv", alpha=ALPHA,
                               budget_scale=0.05, seed=SEED,
                               variance_mode="stratified")
        return result.work.as_dict()

    def backlv_query():
        result = single_target(graph, 1, method="backlv", alpha=ALPHA,
                               budget_scale=0.05, seed=SEED,
                               variance_mode="stratified")
        return result.work.as_dict()

    # the serving path: one shared bank, a whole micro-batch through the
    # sparse estimator fold (bank build cost is tracked by the
    # forest-sampling kernels, so it stays outside this timed region)
    from repro.core.batch import BatchSourceSolver
    from repro.counters import WorkCounters
    batch_solver = BatchSourceSolver(graph, alpha=ALPHA, epsilon=0.5,
                                     budget_scale=0.05, seed=SEED,
                                     num_forests=16)
    batch_solver.query_many([0])  # materialise the fold operators

    def service_query_many():
        results = batch_solver.query_many(list(range(16)))
        work = WorkCounters()
        for result in results:
            work.merge(result.work)
        return work.as_dict()

    # the same micro-batch through the multiprocess executor: shared
    # banks + a forked pool; pool boot and warm attach stay outside
    # the timed region, mirroring a running service
    from repro.core.config import PPRConfig
    from repro.service import IndexManager, ProcessExecutor

    mp_manager = IndexManager(
        PPRConfig(alpha=ALPHA, epsilon=0.5, budget_scale=0.05,
                  seed=SEED, workers=0), num_forests=16)
    mp_manager.register_graph("gate", graph)
    mp_executor = ProcessExecutor(mp_manager, workers=2).start()
    mp_executor.warm("gate", ALPHA)

    def service_query_many_mp():
        results = mp_executor.run_batch("gate", "source", ALPHA, 0.5,
                                        list(range(16)))
        work = WorkCounters()
        for result in results:
            work.merge(result.work)
        return work.as_dict()

    # the same micro-batch scatter-gathered across two shard worker
    # groups: each folds only its half of the output rows and the
    # router concatenates the partials (bit-identical to the flat
    # pool); pool boot and per-shard warm stay outside the timing
    from repro.shard.router import ShardRouter

    shard_manager = IndexManager(
        PPRConfig(alpha=ALPHA, epsilon=0.5, budget_scale=0.05,
                  seed=SEED, workers=0), num_forests=16, shards=2)
    shard_manager.register_graph("gate", graph)
    shard_router = ShardRouter(shard_manager,
                               workers_per_shard=1).start()
    shard_router.warm("gate", ALPHA)

    def service_query_many_sharded():
        results = shard_router.run_batch("gate", "source", ALPHA, 0.5,
                                         list(range(16)))
        work = WorkCounters()
        for result in results:
            work.merge(result.work)
        return work.as_dict()

    # same workload with full span collection enabled — the ci_gate
    # overhead check compares this against the untraced kernel above
    def service_query_many_mp_traced():
        results = mp_executor.run_batch("gate", "source", ALPHA, 0.5,
                                        list(range(16)), trace=True,
                                        stats={})
        work = WorkCounters()
        for result in results:
            work.merge(result.work)
        return work.as_dict()

    # and with the full continuous-telemetry stack recording every
    # request (rolling windows + burn-rate SLOs + tenant attribution)
    # — the same overhead budget gates this twin too
    from repro.obs.slo import SLOEngine, default_specs
    from repro.obs.timeseries import TimeSeriesStore
    from repro.service.metrics import ServiceMetrics

    telemetry_metrics = ServiceMetrics(
        timeseries=TimeSeriesStore(),
        slo=SLOEngine(default_specs()))

    def service_query_many_mp_telemetry():
        batch_started = time.perf_counter()
        results = mp_executor.run_batch("gate", "source", ALPHA, 0.5,
                                        list(range(16)))
        seconds = (time.perf_counter() - batch_started) / 16
        work = WorkCounters()
        for position, result in enumerate(results):
            work.merge(result.work)
            telemetry_metrics.record_request(
                "source", seconds, tenant=f"tenant{position % 4}",
                work=result.work.as_dict())
        return work.as_dict()

    # the top-k serving path: same 16-query micro-batch, once with the
    # variance-bound early-termination rule and once forced to the full
    # forest budget — check_topk_early_termination compares the two
    from repro.core.topk import BatchTopKSolver
    topk_items = [(node, TOPK_K) for node in range(16)]
    topk_early = BatchTopKSolver(graph, alpha=ALPHA, epsilon=0.5,
                                 budget_scale=0.05, seed=SEED,
                                 max_forests=128)
    topk_full = BatchTopKSolver(graph, alpha=ALPHA, epsilon=0.5,
                                budget_scale=0.05, seed=SEED,
                                max_forests=128, early_stop=False)

    def topk_kernel(solver):
        def run():
            results = solver.run_items(topk_items)
            work = WorkCounters()
            for result in results:
                work.merge(result.work)
            return work.as_dict()
        return run

    kernels = {}
    try:
        for name, func in [("forest_sampling_serial", forest_serial),
                           ("forest_sampling_parallel", forest_parallel),
                           ("estimate_stage_source_improved",
                            estimate_stage),
                           # names keep their "_vectorized" suffix so
                           # the committed baselines stay comparable
                           ("forward_push_vectorized",
                            push_kernel(balanced_forward_push)),
                           ("backward_push_vectorized",
                            push_kernel(backward_push)),
                           ("speedlv_query", speedlv_query),
                           ("backlv_query", backlv_query),
                           ("service_query_many_16", service_query_many),
                           ("service_query_many_16_mp",
                            service_query_many_mp),
                           ("service_query_many_16_sharded",
                            service_query_many_sharded),
                           ("service_query_many_16_traced",
                            service_query_many_mp_traced),
                           ("service_query_many_16_telemetry",
                            service_query_many_mp_telemetry),
                           ("service_topk_16", topk_kernel(topk_early)),
                           ("service_topk_16_full",
                            topk_kernel(topk_full))]:
            seconds, counters = _timed(func)
            kernels[name] = {"seconds": seconds, "counters": counters}
        # matched-accuracy side of the early-termination check: the
        # smallest per-query overlap between the early-stopped and
        # full-budget top-k sets (deterministic, so safe as a counter)
        early_sets = topk_early.run_items(topk_items)
        full_sets = topk_full.run_items(topk_items)
        kernels["service_topk_16"]["counters"]["topk_min_overlap"] = min(
            len(set(e.nodes.tolist()) & set(f.nodes.tolist()))
            for e, f in zip(early_sets, full_sets))
    finally:
        topk_early.close()
        topk_full.close()
        shard_router.shutdown()
        shard_manager.close_shared()
        mp_executor.shutdown()
        mp_manager.close_shared()
    return kernels


#: The tracing-overhead budget: the traced micro-batch kernel may be at
#: most this much slower than its untraced twin (fractional).
TRACE_OVERHEAD_BUDGET = 0.05

#: Top-k gate: ranking depth of the pinned top-k micro-batch, the
#: minimum fractional walk-step saving early termination must deliver
#: vs the full-budget twin, and the per-query top-k set overlap both
#: must agree on (matched accuracy: at least k-1 of k nodes shared).
TOPK_K = 5
TOPK_REDUCTION_FLOOR = 0.20
TOPK_OVERLAP_FLOOR = TOPK_K - 1

#: Variance-reduction gate: walk steps each flagship query consumed in
#: ``variance_mode="improved"`` at the same seed/flags (the pre-v3
#: committed baseline), and the minimum fractional cut the stratified
#: forest-budget discount must keep delivering against them.  The
#: accuracy side is covered by the test suite's unchanged assertions
#: on these exact queries.
IMPROVED_WALK_STEPS = {"speedlv_query": 9371, "backlv_query": 198006}
VARIANCE_WALK_REDUCTION_FLOOR = 0.25


def check_trace_overhead(kernels: dict[str, dict],
                         budget: float = TRACE_OVERHEAD_BUDGET
                         ) -> tuple[bool, str]:
    """Compare the instrumented micro-batch kernels to the bare one.

    Two instrumented twins share the one budget: full span collection
    (``_traced``) and the continuous-telemetry stack — rolling
    windows, burn-rate SLOs, tenant attribution (``_telemetry``).
    All are best-of-N on the same warm executor, so each ratio
    isolates its instrumentation cost.  Sub-millisecond kernels are
    pure timer noise at 5%, so the check is skipped (passes) when the
    bare floor is under 1 ms.
    """
    base = kernels["service_query_many_16_mp"]["seconds"]
    details = []
    ok = True
    for label, name in (("tracing", "service_query_many_16_traced"),
                        ("telemetry",
                         "service_query_many_16_telemetry")):
        instrumented = kernels[name]["seconds"]
        overhead = instrumented / base - 1.0 if base > 0 else 0.0
        ok = ok and overhead <= budget
        details.append(f"{label} {overhead:+.1%} "
                       f"({instrumented:.4f}s vs {base:.4f}s bare)")
    detail = (f"instrumentation overhead (budget {budget:.0%}): "
              + ", ".join(details))
    if base < 1e-3:
        return True, detail + " [skipped: bare floor < 1 ms]"
    return ok, detail


def check_topk_early_termination(kernels: dict[str, dict],
                                 floor: float = TOPK_REDUCTION_FLOOR
                                 ) -> tuple[bool, str]:
    """Early termination must cut walk steps at matched accuracy.

    Both top-k kernels replay the same deterministic forest stream, so
    the walk-step ratio isolates exactly what the variance-bound
    stopping rule saves; ``topk_min_overlap`` (the worst per-query
    agreement between the early-stopped and full-budget top-k sets)
    guards against buying that saving with a degraded ranking.
    """
    early = kernels["service_topk_16"]["counters"]
    full = kernels["service_topk_16_full"]["counters"]
    reduction = (1.0 - early["walk_steps"] / full["walk_steps"]
                 if full["walk_steps"] else 0.0)
    overlap = early["topk_min_overlap"]
    detail = (f"top-k early termination: {reduction:.1%} walk-step "
              f"saving ({early['walk_steps']} vs {full['walk_steps']} "
              f"steps, floor {floor:.0%}), min top-{TOPK_K} overlap "
              f"{overlap}/{TOPK_K} (floor {TOPK_OVERLAP_FLOOR})")
    return (reduction >= floor and overlap >= TOPK_OVERLAP_FLOOR), detail


def check_variance_walk_steps(kernels: dict[str, dict],
                              floor: float = VARIANCE_WALK_REDUCTION_FLOOR
                              ) -> tuple[bool, str]:
    """Stratified queries must stay under the tightened walk budget.

    :func:`compare_to_baseline` only flags counter *growth*, so the
    walk-step cut bought by the variance-gain discount needs its own
    floor: each flagship query kernel (now running stratified) must
    use at least ``floor`` fewer walk steps than its pinned
    improved-mode count (:data:`IMPROVED_WALK_STEPS`).  Both runs are
    deterministic at the gate's fixed seed, so this is a pure budget
    assertion, not a timing one.
    """
    details = []
    ok = True
    for name, improved_steps in IMPROVED_WALK_STEPS.items():
        steps = kernels[name]["counters"]["walk_steps"]
        reduction = 1.0 - steps / improved_steps
        ok = ok and reduction >= floor
        details.append(f"{name} {reduction:.1%} ({steps} vs "
                       f"{improved_steps} improved-mode steps)")
    return ok, ("stratified walk-step cut (floor "
                f"{floor:.0%}): " + ", ".join(details))


def main(argv: list[str] | None = None) -> int:
    """Run the gate; returns a process exit code (1 = regression)."""
    parser = argparse.ArgumentParser(
        prog="repro.bench.ci_gate",
        description="pinned benchmark subset + regression gate")
    parser.add_argument("--output", default="BENCH_PR.json",
                        help="where to write this run's JSON")
    parser.add_argument("--baseline", default=None,
                        help="baseline JSON to gate against "
                             "(omit to only record, e.g. when refreshing)")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed fractional regression (default 0.25)")
    parser.add_argument("--workers", type=int, default=4,
                        help="worker count for the parallel kernel")
    args = parser.parse_args(argv)

    calibration = calibration_seconds()
    kernels = run_kernels(workers=args.workers)
    meta = {
        "calibration_seconds": calibration,
        "seed": SEED,
        "alpha": ALPHA,
        "graph_nodes": GRAPH_NODES,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    write_benchmark_json(args.output, kernels, meta)

    rows = [{"kernel": name,
             "seconds": entry["seconds"],
             "x_calibration": entry["seconds"] / calibration,
             **entry["counters"]}
            for name, entry in kernels.items()]
    print(format_markdown_table(rows))
    print(f"\ncalibration: {calibration:.4f}s; wrote {args.output}")

    trace_ok, trace_detail = check_trace_overhead(kernels)
    print(trace_detail)
    if not trace_ok:
        print("TRACING OVERHEAD over budget "
              f"({TRACE_OVERHEAD_BUDGET:.0%})", file=sys.stderr)
        return 1

    topk_ok, topk_detail = check_topk_early_termination(kernels)
    print(topk_detail)
    if not topk_ok:
        print("TOP-K EARLY TERMINATION below floor "
              f"({TOPK_REDUCTION_FLOOR:.0%} saving at "
              f">={TOPK_OVERLAP_FLOOR}/{TOPK_K} overlap)",
              file=sys.stderr)
        return 1

    variance_ok, variance_detail = check_variance_walk_steps(kernels)
    print(variance_detail)
    if not variance_ok:
        print("STRATIFIED WALK-STEP CUT below floor "
              f"({VARIANCE_WALK_REDUCTION_FLOOR:.0%})", file=sys.stderr)
        return 1

    if args.baseline is None:
        return 0
    try:
        baseline = load_benchmark_json(args.baseline)
    except OSError as error:
        print(f"error: cannot read baseline {args.baseline!r}: {error}",
              file=sys.stderr)
        return 2
    regressions = compare_to_baseline(load_benchmark_json(args.output),
                                      baseline, threshold=args.threshold)
    if regressions:
        print("\nREGRESSIONS over "
              f"{args.threshold:.0%} vs {args.baseline}:", file=sys.stderr)
        print(format_markdown_table(regressions), file=sys.stderr)
        return 1
    print(f"gate passed: no kernel regressed >{args.threshold:.0%} "
          f"vs {args.baseline}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
