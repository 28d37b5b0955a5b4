"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
datasets
    Print the Table-1 stand-in registry with measured statistics.
query
    Run a single-source or single-target PPR query and print the
    top-k.  ``--top-k`` switches to the early-terminating top-k
    estimator, ``--seeds`` to a weighted multi-seed query, and
    ``--pair`` to a forest+push pairwise estimate — the same three
    query kinds the service exposes over HTTP.
pair
    Estimate one π(s, t) value.
cluster
    PPR sweep-cut local clustering around a seed node.
spectrum
    τ versus α for a dataset (the Fig-2 insensitivity check).
serve
    Long-lived PPR query service (micro-batching + index + cache),
    with opt-in request tracing / slow-query logging / profiling.
index
    Pre-build (``build``), edit (``mutate``, for ``--dynamic`` banks)
    or describe (``inspect``) an on-disk memmap-able forest-index
    bank.
trace
    Read a slow-query log: ``tail`` prints recent entries, one per
    line; ``summarize`` aggregates latency and span-stage statistics;
    ``export --format chrome`` converts the recorded span trees to
    Chrome trace-event JSON (loadable in Perfetto / chrome://tracing).
top
    Live terminal dashboard polling a running service's ``/statusz``:
    rolling request/error windows, SLO burn-rate state, per-tenant
    and per-shard tables.
obs
    Offline observability tooling: ``report`` renders a dumped
    ``/statusz`` JSON snapshot with the same layout ``top`` uses.

All stochastic commands accept ``--seed`` and are fully reproducible.
"""

from __future__ import annotations

import argparse
import signal
import sys

import numpy as np

from repro.applications import local_cluster
from repro.bench.reporting import format_markdown_table
from repro.core import single_source, single_target
from repro.core.pairwise import pair_ppr
from repro.exceptions import ReproError
from repro.core.config import VARIANCE_MODES
from repro.graph.datasets import load_dataset, table1_statistics

__all__ = ["main", "build_parser", "render_statusz"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Personalized PageRank via random spanning forests "
                    "(SIGMOD 2022 reproduction)")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("datasets", help="list the stand-in datasets")

    query = commands.add_parser("query", help="run a PPR query")
    query.add_argument("kind", choices=["source", "target"])
    query.add_argument("dataset", help="dataset name (see `datasets`)")
    query.add_argument("node", type=int, nargs="?", default=None,
                       help="query node id (optional with --seeds)")
    query.add_argument("--method", default=None,
                       help="algorithm (default speedlv / backlv)")
    query.add_argument("--top-k", type=int, default=None, metavar="K",
                       help="early-terminating top-k estimation from "
                            "NODE (source kind only): stops sampling "
                            "forests once the top-K order is stable "
                            "under the estimator's variance bound")
    query.add_argument("--seeds", default=None, metavar="IDS",
                       help="comma-separated seed set — runs a "
                            "multi-seed (personalization vector) "
                            "query instead of a single-seed one")
    query.add_argument("--weights", default=None, metavar="WS",
                       help="comma-separated weights for --seeds "
                            "(default: uniform; normalized to sum 1)")
    query.add_argument("--pair", type=int, default=None, metavar="T",
                       help="pairwise estimate of ppr(NODE, T) via the "
                            "forest-estimate + push meet-in-the-middle")
    query.add_argument("--alpha", type=float, default=0.01)
    query.add_argument("--epsilon", type=float, default=0.5)
    query.add_argument("--top", type=int, default=10)
    query.add_argument("--scale", type=float, default=0.25,
                       help="dataset scale factor")
    query.add_argument("--budget-scale", type=float, default=0.05)
    query.add_argument("--seed", type=int, default=2022)
    query.add_argument("--workers", type=int, default=1,
                       help="processes for the forest Monte-Carlo stage "
                            "(0 = cpu count); estimates are identical "
                            "for every value at a fixed seed")
    query.add_argument("--variance-mode", choices=list(VARIANCE_MODES),
                       default="improved",
                       help="forest-stage variance reduction: "
                            "stratified couples sampling chunks "
                            "through a Latin-hypercube grid (and "
                            "shrinks the forest budget by its measured "
                            "variance gain)")

    pair = commands.add_parser("pair", help="estimate one pi(s, t)")
    pair.add_argument("dataset")
    pair.add_argument("source", type=int)
    pair.add_argument("target", type=int)
    pair.add_argument("--alpha", type=float, default=0.01)
    pair.add_argument("--scale", type=float, default=0.25)
    pair.add_argument("--budget-scale", type=float, default=0.05)
    pair.add_argument("--seed", type=int, default=2022)

    cluster = commands.add_parser("cluster",
                                  help="PPR sweep-cut local clustering")
    cluster.add_argument("dataset")
    cluster.add_argument("seed_node", type=int)
    cluster.add_argument("--alpha", type=float, default=0.01)
    cluster.add_argument("--scale", type=float, default=0.25)
    cluster.add_argument("--budget-scale", type=float, default=0.05)
    cluster.add_argument("--max-size", type=int, default=None)
    cluster.add_argument("--seed", type=int, default=2022)

    spectrum = commands.add_parser("spectrum",
                                   help="tau vs alpha (Fig 2 check)")
    spectrum.add_argument("dataset")
    spectrum.add_argument("--alphas", type=float, nargs="+",
                          default=[0.1, 0.01, 0.001])
    spectrum.add_argument("--scale", type=float, default=0.25)
    spectrum.add_argument("--seed", type=int, default=2022)

    selfcheck = commands.add_parser(
        "selfcheck", help="quick statistical self-test of the install")
    selfcheck.add_argument("--seed", type=int, default=2022)
    selfcheck.add_argument("--workers", type=int, default=1,
                           help="worker processes for the sampling checks; "
                                "the printed report is identical for every "
                                "value at a fixed seed")

    serve = commands.add_parser(
        "serve", help="run the long-lived PPR query service")
    serve.add_argument("--graph", default="youtube",
                       help="dataset to load and warm (see `datasets`)")
    serve.add_argument("--scale", type=float, default=0.25)
    serve.add_argument("--alpha", type=float, default=0.01)
    serve.add_argument("--epsilon", type=float, default=0.5)
    serve.add_argument("--budget-scale", type=float, default=0.05)
    serve.add_argument("--seed", type=int, default=2022)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8471,
                       help="bind port (0 = let the OS pick)")
    serve.add_argument("--max-batch", type=int, default=32,
                       help="most requests grouped into one solver call")
    serve.add_argument("--max-wait-ms", type=float, default=0.0,
                       help="linger before a partial batch is flushed "
                            "(0 = flush as soon as a flush thread is "
                            "free)")
    serve.add_argument("--queue-capacity", type=int, default=256,
                       help="admission bound before 429 backpressure")
    serve.add_argument("--cache-entries", type=int, default=512,
                       help="result-cache capacity (0 disables)")
    serve.add_argument("--workers", type=int, default=1,
                       help="processes for index builds (0 = cpu count); "
                            "in process-executor mode also the size of "
                            "the query worker pool")
    serve.add_argument("--dynamic", action="store_true",
                       help="build repairable dynamic banks so POST "
                            "/mutate repairs forests incrementally "
                            "instead of rebuilding")
    serve.add_argument("--bank-dir", default=None, metavar="DIR",
                       help="preload generation 0 from a saved bank "
                            "(`repro index build` output) instead of "
                            "sampling at boot; the bank must match the "
                            "graph and --alpha")
    serve.add_argument("--executor", choices=["thread", "process"],
                       default="thread",
                       help="batch-fold execution: in-process threads "
                            "(default) or a forked worker pool attached "
                            "to shared-memory banks; answers are "
                            "byte-identical either way")
    serve.add_argument("--shards", type=int, default=1,
                       help="partition the node space across this many "
                            "worker pools of --workers processes each "
                            "and scatter-gather every query (needs "
                            "--executor process; answers stay "
                            "byte-identical to --shards 1)")
    serve.add_argument("--shard-strategy", choices=["hash", "range"],
                       default="hash",
                       help="node->shard assignment: multiplicative "
                            "hash (default, balances hubs) or "
                            "contiguous ranges (locality-friendly)")
    serve.add_argument("--trace-sample-rate", type=float, default=0.0,
                       help="fraction of requests recording a span tree "
                            "(head sampling; 0 disables tracing)")
    serve.add_argument("--trace-buffer", type=int, default=256,
                       help="finished traces kept in the in-memory ring")
    serve.add_argument("--slowlog", default=None, metavar="PATH",
                       help="JSON-lines slow-query log destination")
    serve.add_argument("--slowlog-threshold-ms", type=float,
                       default=250.0,
                       help="latency at/above which an ok request is "
                            "slow-logged (errors always are)")
    serve.add_argument("--slowlog-max-bytes", type=int, default=None,
                       metavar="N",
                       help="rotate the slow-log file once it would "
                            "exceed N bytes (previous generation kept "
                            "as PATH.1; default: never rotate)")
    serve.add_argument("--slo-availability-objective", type=float,
                       default=0.999, metavar="FRAC",
                       help="fraction of requests that must not fail "
                            "(availability SLO)")
    serve.add_argument("--slo-latency-objective", type=float,
                       default=0.99, metavar="FRAC",
                       help="fraction of requests that must finish "
                            "within --slo-latency-ms")
    serve.add_argument("--slo-latency-ms", type=float, default=250.0,
                       help="latency threshold of the latency SLO")
    serve.add_argument("--slo-fast-window-s", type=float, default=60.0,
                       help="fast burn-rate alerting window")
    serve.add_argument("--slo-slow-window-s", type=float, default=300.0,
                       help="slow burn-rate alerting window")
    serve.add_argument("--slo-burn-threshold", type=float, default=10.0,
                       help="burn rate both windows must exceed for an "
                            "alert to fire")
    serve.add_argument("--profile", default=None, metavar="PATH",
                       help="sample the whole process and write "
                            "collapsed stacks here on shutdown")
    serve.add_argument("--dry-run", action="store_true",
                       help="print the resolved service config and exit")

    index = commands.add_parser(
        "index", help="build or inspect an on-disk forest-index bank")
    index_actions = index.add_subparsers(dest="action", required=True)
    index_build = index_actions.add_parser(
        "build", help="sample a forest bank and save it memmap-able")
    index_build.add_argument("dataset", help="dataset name")
    index_build.add_argument("out_dir", help="output bank directory")
    index_build.add_argument("--scale", type=float, default=0.25)
    index_build.add_argument("--alpha", type=float, default=0.01)
    index_build.add_argument("--epsilon", type=float, default=0.5,
                             help="target relative error used to size "
                                  "the bank (see recommended_size)")
    index_build.add_argument("--num-forests", type=int, default=None,
                             help="explicit bank size (overrides "
                                  "--epsilon sizing)")
    index_build.add_argument("--seed", type=int, default=2022)
    index_build.add_argument("--dynamic", action="store_true",
                             help="store arrow records alongside the "
                                  "forests so `index mutate` can repair "
                                  "the bank incrementally")
    index_build.add_argument("--workers", type=int, default=1,
                             help="processes for the sampling stage "
                                  "(0 = cpu count)")
    index_build.add_argument("--shards", type=int, default=1,
                             help="also write per-shard restricted "
                                  "banks under OUT_DIR/shard-K plus a "
                                  "shards.json layout manifest")
    index_build.add_argument("--shard-strategy",
                             choices=["hash", "range"], default="hash",
                             help="node->shard assignment for --shards")
    index_build.add_argument("--variance-mode",
                             choices=list(VARIANCE_MODES),
                             default="improved",
                             help="sampling variance reduction; "
                                  "stratified couples the bank through "
                                  "a Latin-hypercube grid and shrinks "
                                  "the --epsilon sizing by its measured "
                                  "variance gain")
    index_build.add_argument("--bank-dtype",
                             choices=["float64", "float32"],
                             default="float64",
                             help="operator storage dtype; float32 "
                                  "halves the dominant bank arrays at "
                                  "a bounded (documented) accuracy "
                                  "cost")
    index_mutate = index_actions.add_parser(
        "mutate", help="apply edge updates to a dynamic bank")
    index_mutate.add_argument("bank_dir",
                              help="dynamic bank directory "
                                   "(from `index build --dynamic`)")
    index_mutate.add_argument("--add", action="append", default=[],
                              metavar="U:V[:W]",
                              help="insert an edge (repeatable)")
    index_mutate.add_argument("--remove", action="append", default=[],
                              metavar="U:V",
                              help="delete an edge (repeatable)")
    index_mutate.add_argument("--set-weight", dest="set_weight",
                              action="append", default=[],
                              metavar="U:V:W",
                              help="reweight an existing edge "
                                   "(repeatable)")
    index_mutate.add_argument("--upsert", action="append", default=[],
                              metavar="U:V:W",
                              help="insert-or-reweight an edge "
                                   "(repeatable)")
    index_mutate.add_argument("--out", default=None, metavar="DIR",
                              help="write the repaired bank here "
                                   "(default: update in place)")
    index_mutate.add_argument("--seed", type=int, default=2022,
                              help="seed for the fresh arrow draws")

    index_inspect = index_actions.add_parser(
        "inspect", help="describe a saved bank without loading arrays")
    index_inspect.add_argument("bank_dir", help="bank directory to read")

    experiment = commands.add_parser(
        "experiment", help="run one paper experiment and print its table")
    experiment.add_argument("name", nargs="?", default=None,
                            help="driver name, e.g. fig3 or table1 "
                                 "(omit or use --list to enumerate)")
    experiment.add_argument("--list", action="store_true", dest="list_all",
                            help="list available experiments and exit")

    trace = commands.add_parser(
        "trace", help="read a slow-query log (tail / summarize)")
    trace_actions = trace.add_subparsers(dest="action", required=True)
    trace_tail = trace_actions.add_parser(
        "tail", help="print the last entries, one line each")
    trace_tail.add_argument("slowlog", help="JSON-lines slow-log file")
    trace_tail.add_argument("-n", "--lines", type=int, default=20,
                            help="how many trailing entries to print")
    trace_summarize = trace_actions.add_parser(
        "summarize", help="aggregate latency + span-stage statistics")
    trace_summarize.add_argument("slowlog",
                                 help="JSON-lines slow-log file")
    trace_export = trace_actions.add_parser(
        "export", help="convert recorded span trees to a viewer format")
    trace_export.add_argument("slowlog", help="JSON-lines slow-log file")
    trace_export.add_argument("--format", choices=["chrome"],
                              default="chrome",
                              help="output format (chrome = trace-event "
                                   "JSON for Perfetto/chrome://tracing)")
    trace_export.add_argument("--out", default=None, metavar="PATH",
                              help="write here (default: stdout)")

    top = commands.add_parser(
        "top", help="live terminal dashboard over a service's /statusz")
    top.add_argument("--url", default="http://127.0.0.1:8471",
                     help="service base url")
    top.add_argument("--interval", type=float, default=2.0,
                     help="poll period in seconds")
    top.add_argument("--once", action="store_true",
                     help="print one snapshot and exit (no screen "
                          "clearing; what the tests drive)")

    obs = commands.add_parser(
        "obs", help="offline observability tooling")
    obs_actions = obs.add_subparsers(dest="action", required=True)
    obs_report = obs_actions.add_parser(
        "report", help="render a dumped /statusz JSON snapshot")
    obs_report.add_argument("snapshot",
                            help="path to a saved /statusz response")

    return parser


def _cmd_datasets(_: argparse.Namespace) -> int:
    print(format_markdown_table(table1_statistics(scale=0.25)))
    return 0


def _parse_int_list(text: str, label: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as error:
        raise ReproError(f"bad {label} list {text!r}: {error}") from None


def _cmd_query(args: argparse.Namespace) -> int:
    modes = [name for name, on in [("--top-k", args.top_k is not None),
                                   ("--seeds", args.seeds is not None),
                                   ("--pair", args.pair is not None)]
             if on]
    if len(modes) > 1:
        raise ReproError(f"{' and '.join(modes)} are mutually exclusive")
    if args.node is None and not args.seeds:
        raise ReproError("node id is required unless --seeds is given")
    graph = load_dataset(args.dataset, scale=args.scale)
    common = dict(alpha=args.alpha, epsilon=args.epsilon,
                  budget_scale=args.budget_scale, seed=args.seed,
                  workers=args.workers, variance_mode=args.variance_mode)

    if args.top_k is not None:
        if args.kind != "source":
            raise ReproError("--top-k only applies to source queries")
        from repro.core.topk import BatchTopKSolver
        with BatchTopKSolver(graph, **common) as solver:
            result = solver.query_topk(args.node, args.top_k)
        verdict = "converged" if result.converged else "budget-exhausted"
        print(f"top-{result.k} from node {result.node} "
              f"({verdict} after {result.num_forests} forests, "
              f"{result.stats['work_walk_steps']} walk steps)")
        for node, score in result.as_pairs():
            print(f"  {node:8d}  {score:.6f}")
        return 0

    if args.seeds is not None:
        from repro.core.batch import BatchMultiSeedSolver
        seeds = _parse_int_list(args.seeds, "--seeds")
        weights = (None if args.weights is None else
                   [float(part) for part in args.weights.split(",")
                    if part.strip()])
        with BatchMultiSeedSolver(graph, **common) as solver:
            result = solver.query_multiseed(seeds, weights)
        print(f"multiseed over {result.stats['num_seeds']} seeds "
              f"{list(result.stats['seeds'])} "
              f"weights {[round(w, 6) for w in result.stats['weights']]}")
        print(f"top {args.top}:")
        for node, score in result.top_k(args.top):
            print(f"  {node:8d}  {score:.6f}")
        return 0

    if args.pair is not None:
        from repro.core.batch import BatchPairSolver
        with BatchPairSolver(graph, **common) as solver:
            result = solver.query_pair(args.node, args.pair)
        print(f"pi({result.source}, {result.target}) ~= "
              f"{float(result):.8f}  [{result.method}]")
        return 0

    if args.kind == "source":
        result = single_source(graph, args.node,
                               method=args.method or "speedlv", **common)
    else:
        result = single_target(graph, args.node,
                               method=args.method or "backlv", **common)
    print(f"{result!r}")
    print(f"stats: { {k: v for k, v in result.stats.items()} }")
    print(f"top {args.top}:")
    for node, score in result.top_k(args.top):
        print(f"  {node:8d}  {score:.6f}")
    return 0


def _cmd_pair(args: argparse.Namespace) -> int:
    graph = load_dataset(args.dataset, scale=args.scale)
    value = pair_ppr(graph, args.source, args.target, alpha=args.alpha,
                     budget_scale=args.budget_scale, seed=args.seed)
    print(f"pi({args.source}, {args.target}) ~= {float(value):.8f}")
    print(f"stats: {value.stats}")
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    graph = load_dataset(args.dataset, scale=args.scale)
    result = local_cluster(graph, args.seed_node, alpha=args.alpha,
                           budget_scale=args.budget_scale, seed=args.seed,
                           max_cluster_size=args.max_size)
    print(f"cluster around {args.seed_node}: size {result.size}, "
          f"conductance {result.conductance:.5f}")
    print("members:", " ".join(map(str, result.members.tolist())))
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    from repro.forests import sample_forest
    from repro.linalg import estimate_spectral_density, tau_from_density

    graph = load_dataset(args.dataset, scale=args.scale)
    density = estimate_spectral_density(graph, rng=args.seed)
    rows = []
    for alpha in args.alphas:
        forest = sample_forest(graph, alpha, rng=args.seed)
        rows.append({
            "alpha": alpha,
            "tau_lemma44": round(tau_from_density(density, alpha), 1),
            "tau_sampled": forest.num_steps,
            "naive_n_over_alpha": round(graph.num_nodes / alpha, 1),
        })
    print(format_markdown_table(rows))
    return 0


def _cmd_selfcheck(args: argparse.Namespace) -> int:
    """Four fast end-to-end checks against exact ground truth.

    Exercises the theory-critical path (sampler law = PPR), the
    flagship query algorithm, the push invariant, and the parallel
    engine's worker-count invariance; exits non-zero on any failure so
    CI and users can gate on it.

    Every printed line — including the estimate digest — is identical
    for any ``--workers`` value at a fixed ``--seed``, so CI can diff
    two runs to verify the determinism contract.
    """
    import hashlib

    from repro.core import l1_error, single_source
    from repro.graph.generators import erdos_renyi
    from repro.linalg import exact_ppr_matrix
    from repro.parallel import sample_forests_parallel
    from repro.push import forward_push

    graph = erdos_renyi(12, 0.4, rng=args.seed)
    alpha = 0.2
    exact = exact_ppr_matrix(graph, alpha)
    failures = 0

    counts = np.zeros((12, 12))
    samples = 3000
    for forest in sample_forests_parallel(graph, alpha, samples,
                                          rng=args.seed, batch=True,
                                          workers=args.workers,
                                          chunk_size=256):
        counts[np.arange(12), forest.roots] += 1
    sampler_err = float(np.abs(counts / samples - exact).max())
    ok = sampler_err < 0.04
    failures += not ok
    print(f"[{'ok' if ok else 'FAIL'}] forest sampler law "
          f"(max dev {sampler_err:.4f} < 0.04)")

    result = single_source(graph, 0, method="speedlv", alpha=alpha,
                           seed=args.seed, workers=args.workers)
    query_err = l1_error(result, exact[0])
    ok = query_err < 0.1
    failures += not ok
    print(f"[{'ok' if ok else 'FAIL'}] speedlv query "
          f"(L1 {query_err:.4f} < 0.1)")

    push = forward_push(graph, 0, alpha, 0.01)
    invariant_err = float(np.abs(
        push.reserve + push.residual @ exact - exact[0]).max())
    ok = invariant_err < 1e-9
    failures += not ok
    print(f"[{'ok' if ok else 'FAIL'}] push invariant "
          f"(max dev {invariant_err:.2e} < 1e-9)")

    serial = single_source(graph, 0, method="speedlv", alpha=alpha,
                           seed=args.seed, workers=1)
    ok = np.array_equal(serial.estimates, result.estimates)
    failures += not ok
    digest = hashlib.sha256(result.estimates.tobytes()).hexdigest()[:16]
    print(f"[{'ok' if ok else 'FAIL'}] parallel engine determinism "
          f"(serial-equal estimates; digest {digest})")

    print("self-check " + ("passed" if failures == 0
                           else f"FAILED ({failures})"))
    return 0 if failures == 0 else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    """Boot the serving layer: warm the index, bind HTTP, run forever.

    ``--dry-run`` prints the resolved :class:`ServiceConfig` and exits
    without loading the graph — the golden-output tests pin this
    transcript so the flag plumbing stays byte-stable.  With
    ``--bank-dir`` it loads the graph and opens the bank exactly as
    boot does (:func:`~repro.service.index_manager.load_served_bank`),
    so a damaged, relabeled, graph- or α-mismatched bank fails the dry
    run with the same ``error:`` as the real boot.
    """
    from repro.service import PPRService, ServiceConfig
    from repro.service.http import make_server, serve_forever

    config = ServiceConfig(
        graph=args.graph, scale=args.scale, alpha=args.alpha,
        epsilon=args.epsilon, budget_scale=args.budget_scale,
        seed=args.seed, workers=args.workers, max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms, queue_capacity=args.queue_capacity,
        cache_entries=args.cache_entries, host=args.host, port=args.port,
        executor=args.executor, dynamic=args.dynamic,
        bank_dir=args.bank_dir,
        shards=args.shards, shard_strategy=args.shard_strategy,
        trace_sample_rate=args.trace_sample_rate,
        trace_buffer=args.trace_buffer,
        slowlog_path=args.slowlog,
        slowlog_threshold_ms=args.slowlog_threshold_ms,
        slowlog_max_bytes=args.slowlog_max_bytes,
        slo_availability_objective=args.slo_availability_objective,
        slo_latency_objective=args.slo_latency_objective,
        slo_latency_ms=args.slo_latency_ms,
        slo_fast_window_s=args.slo_fast_window_s,
        slo_slow_window_s=args.slo_slow_window_s,
        slo_burn_threshold=args.slo_burn_threshold)
    print(config.describe())
    if args.dry_run:
        if args.bank_dir is not None:
            from repro.service.index_manager import load_served_bank

            load_served_bank(args.bank_dir,
                             load_dataset(args.graph, scale=args.scale),
                             config.alpha)
        print("dry run: config ok, not starting the server")
        return 0

    profiler = None
    if args.profile:
        from repro.obs.profiler import SamplingProfiler

        profiler = SamplingProfiler()
        profiler.start()

    service = PPRService(config).start()
    server = make_server(service)
    banks = service.index_manager.stats()["banks"]
    for bank, entry in banks.items():
        print(f"warmed {bank}: {entry['num_forests']} forests, "
              f"{entry['resident_bytes'] / 2**20:.1f} MiB in "
              f"{entry['build_seconds']:.2f}s")
    print(f"serving on http://{server.server_address[0]}:"
          f"{server.server_port}", flush=True)
    # a shell without job control starts `repro serve &` with SIGINT
    # ignored, and Python then never raises KeyboardInterrupt
    signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        serve_forever(server)
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.server_close()
        service.stop()
        if profiler is not None:
            samples = profiler.stop().dump(args.profile)
            print(f"profile: {samples} samples -> {args.profile}")
    return 0


def _write_shard_banks(args: argparse.Namespace, graph, index) -> None:
    """Write per-shard restricted banks plus a ``shards.json`` layout.

    Each ``OUT_DIR/shard-K`` directory is a self-contained v2 bank
    whose fold operators cover only shard K's rows; ``shards.json``
    records the :class:`~repro.shard.partition.ShardMap` triple and
    per-shard node/edge counts so ``index inspect`` can print the
    layout without loading the graph.
    """
    import json
    import os

    from repro.parallel.shared_bank import bank_manifest
    from repro.shard.partition import ShardMap

    shard_map = ShardMap(graph.num_nodes, args.shards,
                         strategy=args.shard_strategy)
    degrees = graph.out_degrees
    entries = []
    print(f"  shards {shard_map.num_shards} ({shard_map.strategy})")
    for shard in range(shard_map.num_shards):
        local_nodes = shard_map.local_nodes(shard)
        restricted = index.restrict(
            local_nodes, shard_index=shard,
            shard_count=shard_map.num_shards,
            strategy=shard_map.strategy)
        shard_dir = os.path.join(args.out_dir, f"shard-{shard}")
        restricted.save_bank(shard_dir)
        shard_manifest = bank_manifest(shard_dir)
        shard_bytes = sum(spec["nbytes"]
                          for spec in shard_manifest["arrays"].values())
        nodes = int(local_nodes.size)
        edges = int(degrees[local_nodes].sum())
        entries.append({"shard": shard, "dir": f"shard-{shard}",
                        "nodes": nodes, "edges": edges})
        print(f"    shard-{shard}  {nodes} nodes  {edges} edges  "
              f"{shard_bytes} bank bytes")
    layout = {"version": 1, "shard_map": shard_map.to_dict(),
              "dataset": args.dataset, "scale": args.scale,
              "alpha": args.alpha, "shards": entries}
    with open(os.path.join(args.out_dir, "shards.json"), "w",
              encoding="utf-8") as handle:
        json.dump(layout, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _cmd_index(args: argparse.Namespace) -> int:
    """Build or inspect an on-disk forest-index bank.

    Every printed line is deterministic for fixed flags — no wall
    clock, no absolute paths — so the golden-output tests can pin the
    transcript byte-for-byte.
    """
    from repro.montecarlo.forest_index import ForestIndex
    from repro.parallel.shared_bank import bank_manifest

    if args.action == "build":
        from repro.exceptions import ConfigError

        if args.shards < 1:
            raise ConfigError(f"--shards must be >= 1, got {args.shards}")
        if args.shards > 1 and args.dynamic:
            raise ConfigError(
                "--shards does not combine with --dynamic banks; "
                "sharded dynamic repair lives in the service "
                "(`repro serve --shards N --dynamic`)")
        if args.dynamic and args.bank_dtype != "float64":
            raise ConfigError(
                "--bank-dtype does not combine with --dynamic banks: "
                "arrow records replay in full precision")
        graph = load_dataset(args.dataset, scale=args.scale)
        size = args.num_forests or ForestIndex.recommended_size(
            graph, args.epsilon, variance_mode=args.variance_mode)
        if args.dynamic:
            from repro.montecarlo.dynamic_index import DynamicForestIndex

            index = DynamicForestIndex.build(
                graph, args.alpha, size, rng=args.seed,
                variance_mode=args.variance_mode)
            index.save_dynamic_bank(args.out_dir)
        else:
            index = ForestIndex.build(graph, args.alpha, size,
                                      rng=args.seed,
                                      workers=args.workers,
                                      variance_mode=args.variance_mode)
            index.save_bank(args.out_dir, bank_dtype=args.bank_dtype)
        manifest = bank_manifest(args.out_dir)
        payload = sum(spec["nbytes"]
                      for spec in manifest["arrays"].values())
        kind = "dynamic bank" if args.dynamic else "bank"
        print(f"built {kind}: {args.dataset} (scale {args.scale:g}, "
              f"{graph.num_nodes} nodes, {graph.num_edges} edges)")
        print(f"  alpha {args.alpha:g}  forests {index.num_forests}  "
              f"steps {index.build_steps}")
        print(f"  variance {args.variance_mode}  "
              f"layout none/{args.bank_dtype}")  # rows are node ids
        print(f"  arrays {len(manifest['arrays'])}  "
              f"payload {payload} bytes  "
              f"format v{manifest['version']}")
        if args.shards > 1:
            _write_shard_banks(args, graph, index)
        return 0

    if args.action == "mutate":
        from repro.exceptions import ConfigError
        from repro.graph.delta import GraphDelta, parse_edge_spec
        from repro.montecarlo.dynamic_index import DynamicForestIndex

        ops = (
            [parse_edge_spec(spec, op="add") for spec in args.add]
            + [parse_edge_spec(spec, op="remove")
               for spec in args.remove]
            + [parse_edge_spec(spec, op="set_weight")
               for spec in args.set_weight]
            + [parse_edge_spec(spec, op="upsert")
               for spec in args.upsert])
        if not ops:
            raise ConfigError(
                "index mutate needs at least one of "
                "--add/--remove/--set-weight/--upsert")
        delta = GraphDelta(ops)
        index = DynamicForestIndex.load_dynamic_bank(args.bank_dir)
        new_index, work = index.mutated(delta, rng=args.seed)
        new_index.save_dynamic_bank(args.out or args.bank_dir)
        graph = new_index.graph
        print(f"mutated bank: {len(delta)} ops, "
              f"{delta.touched_nodes().size} dirty nodes")
        print(f"  graph {graph.num_nodes} nodes, "
              f"{graph.num_edges} edges")
        print(f"  forests {new_index.num_forests}  "
              f"fresh steps {work.repair_fresh_steps}  "
              f"replayed {work.repair_replayed_steps}")
        return 0

    import json
    import os

    shards_path = os.path.join(args.bank_dir, "shards.json")
    if os.path.exists(shards_path):
        with open(shards_path, encoding="utf-8") as handle:
            layout = json.load(handle)
        shard_map = layout["shard_map"]
        print(f"sharded bank, {len(layout['shards'])} shards")
        print(f"  {'strategy':16s} {shard_map['strategy']}")
        print(f"  {'num_nodes':16s} {shard_map['num_nodes']}")
        for entry in layout["shards"]:
            shard_dir = os.path.join(args.bank_dir, entry["dir"])
            shard_manifest = bank_manifest(shard_dir)
            shard_bytes = sum(
                spec["nbytes"]
                for spec in shard_manifest["arrays"].values())
            print(f"    {entry['dir']:10s} {entry['nodes']:>8d} nodes "
                  f"{entry['edges']:>8d} edges "
                  f"{shard_bytes:>10d} bank bytes  "
                  f"format v{shard_manifest['version']}")
        return 0

    manifest = bank_manifest(args.bank_dir)
    meta = manifest.get("meta", {})
    payload = sum(spec["nbytes"] for spec in manifest["arrays"].values())
    print(f"array bank, format v{manifest['version']}")
    # build_seconds is wall clock — everything printed here is stable.
    # bank_dtype / node_order / variance_mode are v3 keys; pre-v3 banks
    # carry the implied defaults (node_order is always "none" on a
    # bank that loads).
    for key in ("kind", "alpha", "num_nodes", "num_forests",
                "build_steps", "degree_checksum"):
        if key in meta:
            print(f"  {key:16s} {meta[key]}")
    print(f"  {'bank_dtype':16s} {meta.get('bank_dtype', 'float64')}")
    print(f"  {'node_order':16s} {meta.get('node_order', 'none')}")
    print(f"  {'variance_mode':16s} "
          f"{meta.get('variance_mode', 'improved')}")
    print(f"  {'arrays':16s} {len(manifest['arrays'])}")
    print(f"  {'payload_bytes':16s} {payload}")
    # per-operator rollup: the arrays each fold operator stores (in v4,
    # spread_target only its values: it shares spread_source's
    # pattern), so layout/dtype experiments can see where the bytes live
    from repro.montecarlo.forest_index import _OPERATOR_NAMES

    for op in _OPERATOR_NAMES:
        specs = [manifest["arrays"].get(f"{op}_{part}")
                 for part in ("indptr", "indices", "data")]
        if specs[-1] is not None:
            op_bytes = sum(spec["nbytes"] for spec in specs if spec)
            print(f"    operator {op:16s} {op_bytes:>12d} bytes")
    for name in sorted(manifest["arrays"]):
        spec = manifest["arrays"][name]
        shape = "x".join(map(str, spec["shape"])) or "scalar"
        print(f"    {name:24s} {spec['dtype']:10s} {shape:>12s}  "
              f"{spec['nbytes']} bytes")
    return 0


def _experiment_registry() -> dict:
    from repro.bench import experiments as drivers

    registry = {}
    for name in drivers.__all__:
        if name.startswith(("table", "fig", "ablation", "alpha")):
            registry[name] = getattr(drivers, name)
            short = name.split("_")[0]
            if name.startswith(("table", "fig")) and short not in registry:
                registry[short] = getattr(drivers, name)
    return registry


def _cmd_experiment(args: argparse.Namespace) -> int:
    registry = _experiment_registry()
    if args.list_all or args.name is None:
        for name in sorted(registry):
            print(f"{name:28s} {registry[name].__doc__.splitlines()[0]}")
        return 0
    key = args.name.lower()
    if key not in registry:
        print(f"error: unknown experiment {args.name!r}; try --list",
              file=sys.stderr)
        return 2
    rows = registry[key]()
    print(format_markdown_table(rows))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Read a slow-query log written by ``repro serve --slowlog``.

    ``tail`` prints the last entries one per line; ``summarize``
    aggregates latency and per-stage span time.  Both print only what
    the log contains — deterministic for a fixed file, so the golden
    tests can pin the ``summarize`` transcript.
    """
    from repro.obs.slowlog import (format_entry, read_slowlog,
                                   summarize_entries)

    try:
        entries = read_slowlog(args.slowlog)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.action == "tail":
        for entry in entries[-max(args.lines, 0):]:
            print(format_entry(entry))
        return 0

    if args.action == "export":
        import json

        from repro.obs.tracing import chrome_trace_events

        trees = [entry["trace"] for entry in entries
                 if entry.get("trace")]
        document = chrome_trace_events(trees)
        text = json.dumps(document, indent=2, sort_keys=True) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as sink:
                sink.write(text)
            print(f"exported {len(document['traceEvents'])} events "
                  f"from {len(trees)} traces -> {args.out}")
        else:
            print(text, end="")
        return 0

    summary = summarize_entries(entries)
    overview = summary["overview"]
    print(f"entries      {overview['entries']}")
    print(f"errors       {overview['errors']}")
    print(f"cached       {overview['cached']}")
    print(f"p50_seconds  {overview['p50_seconds']:.6f}")
    print(f"p95_seconds  {overview['p95_seconds']:.6f}")
    print(f"max_seconds  {overview['max_seconds']:.6f}")
    for name in sorted(overview["dispositions"]):
        print(f"  disposition {name:10s} {overview['dispositions'][name]}")
    if summary["stages"]:
        print(f"{'span':14s} {'count':>6s} {'total_ms':>10s} "
              f"{'mean_ms':>10s} {'max_ms':>10s}")
        for stage in summary["stages"]:
            print(f"{stage['span']:14s} {stage['count']:6d} "
                  f"{stage['total_ms']:10.3f} {stage['mean_ms']:10.3f} "
                  f"{stage['max_ms']:10.3f}")
    return 0


def render_statusz(payload: dict) -> str:
    """Deterministic text dashboard over one ``/statusz`` document.

    Shared by ``repro top`` (live polling) and ``repro obs report``
    (offline snapshot), and unit-tested on a fixed payload — so it
    never reads the clock or the terminal.
    """
    totals = payload.get("totals", {})
    lines = [
        f"repro service — {payload.get('status', '?')}   "
        f"graph {payload.get('graph', '?')}   "
        f"uptime {payload.get('uptime_seconds', 0.0):.0f}s",
        f"requests {totals.get('requests', 0)}   "
        f"rejected {totals.get('rejected', 0)}   "
        f"errors {totals.get('errors', 0)}   "
        f"queue {payload.get('queue_depth', 0)}   "
        f"straggler folds {totals.get('straggler_folds', 0)}",
    ]

    windows = payload.get("windows") or {}
    rows = []
    for label in sorted(windows, key=lambda item: float(item.rstrip("s"))):
        window = windows[label]
        if not window:
            continue
        counters = window.get("counters", {})
        latency = window.get("histograms", {}).get("latency", {})
        rows.append((label,
                     counters.get("requests", {}).get("total", 0.0),
                     counters.get("requests", {}).get("rate", 0.0),
                     counters.get("errors", {}).get("total", 0.0),
                     latency.get("p50", 0.0), latency.get("p99", 0.0)))
    if rows:
        lines.append("")
        lines.append(f"{'window':<8} {'requests':>9} {'rate/s':>8} "
                     f"{'errors':>7} {'p50_s':>9} {'p99_s':>9}")
        for label, total, rate, errors, p50, p99 in rows:
            lines.append(f"{label:<8} {total:>9.0f} {rate:>8.2f} "
                         f"{errors:>7.0f} {p50:>9.4f} {p99:>9.4f}")

    slo = payload.get("slo") or []
    if slo:
        lines.append("")
        lines.append(f"{'slo':<14} {'state':<8} {'fast_burn':>10} "
                     f"{'slow_burn':>10} {'objective':>10}")
        for report in slo:
            lines.append(f"{report.get('name', '?'):<14} "
                         f"{report.get('state', '?'):<8} "
                         f"{report.get('fast_burn', 0.0):>10.2f} "
                         f"{report.get('slow_burn', 0.0):>10.2f} "
                         f"{report.get('objective', 0.0):>10.4f}")

    tenants = payload.get("tenants") or []
    if tenants:
        lines.append("")
        lines.append(f"{'tenant':<16} {'requests':>9} {'rejected':>9} "
                     f"{'errors':>7} {'work':>10} {'p50_s':>9} "
                     f"{'p99_s':>9}")
        for row in tenants:
            lines.append(f"{row['tenant']:<16} {row['requests']:>9} "
                         f"{row['rejected']:>9} {row['errors']:>7} "
                         f"{row['work']:>10.0f} "
                         f"{row['p50_seconds']:>9.4f} "
                         f"{row['p99_seconds']:>9.4f}")

    shards = payload.get("shards") or []
    if shards:
        lines.append("")
        lines.append(f"{'shard':<7} {'folds':>7} {'stragglers':>11} "
                     f"{'fold_p50_s':>11} {'fold_p99_s':>11}")
        for row in shards:
            lines.append(f"{row['shard']:<7} {row['folds']:>7} "
                         f"{row['straggler_folds']:>11} "
                         f"{row['fold_p50_seconds']:>11.4f} "
                         f"{row['fold_p99_seconds']:>11.4f}")
    return "\n".join(lines)


def _cmd_top(args: argparse.Namespace) -> int:
    """Poll ``/statusz`` and render the dashboard (``--once`` = one
    shot, what tests and scripts use)."""
    import json
    import time
    import urllib.error
    import urllib.request

    def fetch() -> dict:
        with urllib.request.urlopen(f"{args.url}/statusz",
                                    timeout=10.0) as response:
            return json.loads(response.read())

    try:
        if args.once:
            print(render_statusz(fetch()))
            return 0
        while True:
            text = render_statusz(fetch())
            # clear + home, then the frame — a plain-ANSI poor man's top
            print(f"\x1b[2J\x1b[H{text}", flush=True)
            time.sleep(max(args.interval, 0.1))
    except KeyboardInterrupt:
        return 0
    except (urllib.error.URLError, OSError) as error:
        print(f"error: cannot reach {args.url}/statusz: {error}",
              file=sys.stderr)
        return 2


def _cmd_obs(args: argparse.Namespace) -> int:
    """Offline observability: render a saved ``/statusz`` snapshot."""
    import json

    try:
        with open(args.snapshot, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not isinstance(payload, dict):
        print("error: snapshot must be a JSON object", file=sys.stderr)
        return 2
    print(render_statusz(payload))
    return 0


_COMMANDS = {
    "datasets": _cmd_datasets,
    "query": _cmd_query,
    "pair": _cmd_pair,
    "cluster": _cmd_cluster,
    "spectrum": _cmd_spectrum,
    "selfcheck": _cmd_selfcheck,
    "serve": _cmd_serve,
    "index": _cmd_index,
    "experiment": _cmd_experiment,
    "trace": _cmd_trace,
    "top": _cmd_top,
    "obs": _cmd_obs,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader (e.g. `| head`) closed early; standard CLI etiquette
        return 0
