"""End-to-end benchmark of ``repro serve`` and the forest index.

    python benchmarks/e2e/run.py [--workload NAME] [--seed 2022]
        [--seconds S] [--trace [0|1]] [--smoke] [--out DIR]

Boots each workload's program in its own process, drives it from this
process (closed loop, two callers, one persistent HTTP/1.1 connection
each), checks every answer, prints every metric by name with its unit,
and writes a results JSON under ``--out``.  Without ``--workload`` all
five workloads run in turn.  ``--trace`` reruns with the benchmark's
layer wrappers installed and reports the per-layer metrics instead of
the end-to-end ones.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from common import (
    RESULTS_DIR,
    ROOT,
    load_spec,
    quantile,
    require_program,
    tail_percentile,
)
from workloads import (
    BUDGET_SCALE,
    CALLERS,
    GRAPH,
    HTTP_ALPHA,
    HTTP_EPSILON,
    LATENCY_LIMIT_MS,
    MEMORY_READINGS,
    OFFLINE_ALPHA,
    OFFLINE_EPSILON,
    SERVE_ARGS,
    WARMUP_REQUESTS,
    WORKLOADS,
    Workload,
    degree_order,
    hub_pool,
    probe_requests,
    request_stream,
)

HERE = os.path.dirname(os.path.abspath(__file__))
#: what a fresh interpreter imports before each workload can serve
IMPORTS = {"http": "repro.service.http",
           "offline": "repro.core.batch, repro.montecarlo.forest_index, "
                      "repro.graph.datasets"}


@dataclass(frozen=True)
class Plan:
    """How much of each phase one run does."""

    seconds: float
    warmup: int = WARMUP_REQUESTS
    #: counts of measured requests after which memory is read
    memory_at: tuple = MEMORY_READINGS
    #: boots timed for ``setup_s`` after the measured phase, besides the
    #: boot of the server that served it
    boots: int = 2
    offline_setups: int = 3
    import_repeats: int = 3

    @classmethod
    def smoke(cls, seconds: float) -> "Plan":
        return cls(seconds=max(0.5, 0.05 * seconds), warmup=10,
                   memory_at=(10,), boots=0, offline_setups=1,
                   import_repeats=1)


@dataclass
class Outcome:
    """One workload's result: metrics plus the failure bookkeeping."""

    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def count(self, records) -> None:
        for record in records:
            self.attempted += 1
            if not record.ok:
                self.fail(f"{record.rid} {record.path}: {record.error}")


class Inputs:
    """The served graph as the benchmark needs it: sizes for the
    streams and the adjacency for the exact oracle."""

    def __init__(self):
        from oracle import adjacency

        from repro.graph.datasets import load_dataset

        graph = load_dataset(GRAPH, scale=1.0)
        self.num_nodes = graph.num_nodes
        self.directed = graph.directed
        self.pool = hub_pool(degree_order(graph.out_degrees))
        self.adjacency = adjacency(graph.indptr, graph.indices,
                                   graph.weights, graph.num_nodes)


# -- helpers ---------------------------------------------------------------
def serve_argv(workload: Workload, spans: str | None = None) -> list[str]:
    args = [*SERVE_ARGS, *workload.serve_args]
    if spans is None:
        return [sys.executable, "-m", "repro", "serve", *args]
    return [sys.executable, os.path.join(HERE, "traced_serve.py"), spans,
            *args]


def import_seconds(kind: str, repeats: int) -> float:
    """Median time a fresh interpreter takes to import what the
    workload's program needs."""
    from procs import program_env

    code = ("import time; started = time.perf_counter(); "
            f"import {IMPORTS[kind]}; "
            "print(time.perf_counter() - started)")
    samples = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", code], check=True,
                              capture_output=True, text=True,
                              env=program_env(), timeout=120)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def check_probes(outcome: Outcome, oracle, probes, answers,
                 epsilon: float) -> list[float]:
    """Score each probe answer against the exact oracle.

    Returns the relative error of every entry with exact π ≥ 1/n (the
    paper's μ), which ``mean_rel_err`` averages.  A probe fails when an
    entry above μ / ``BUDGET_SCALE``, where the configured budget still
    buys the ε guarantee, is off by more than ε.
    """
    from oracle import probe_entries, relative_errors

    floor = 1.0 / oracle.num_nodes
    errors: list[float] = []
    for probe, answer in zip(probes, answers):
        if answer is None:
            continue
        entries = probe_entries(oracle, probe, answer)
        errors.extend(relative_errors(entries, floor))
        worst = max(relative_errors(entries, floor / BUDGET_SCALE),
                    default=0.0)
        if worst > epsilon:
            outcome.fail(f"probe {probe['body']}: relative error "
                         f"{worst:.3f} > {epsilon}")
    return errors


def streams(workload: Workload, seed: int, phase: str, inputs: Inputs):
    return [request_stream(workload.stream, seed, caller, phase,
                           inputs.num_nodes, inputs.pool)
            for caller in range(CALLERS)]


def latency_metrics(records, wall: float) -> dict:
    ok = [record for caller in records for record in caller if record.ok]
    reads = sorted(record.latency_ms for record in ok if record.is_read)
    return {"throughput_qps": len(ok) / wall if wall > 0 else 0.0,
            "p50_ms": quantile(reads, 0.50),
            "p95_ms": quantile(reads, 0.95),
            "p99_ms": quantile(reads, 0.99),
            "read_ms": reads,
            "tail_percentile": tail_percentile(len(reads))}


def end_to_end(setup_s: float, latency: dict, mem_mb: float,
               errors: list[float]) -> dict:
    """The end-to-end metrics of one untraced run."""
    return {"setup_s": setup_s,
            "throughput_qps": latency["throughput_qps"],
            "p50_ms": latency["p50_ms"],
            "p95_ms": latency["p95_ms"],
            "mem_mb": mem_mb,
            "mean_rel_err": statistics.fmean(errors) if errors else 0.0}


# -- HTTP workloads --------------------------------------------------------
class Session:
    """One booted server driven through warm-up and the measured phase."""

    def __init__(self, server, workload: Workload, seed: int, plan: Plan,
                 inputs: Inputs, outcome: Outcome, label: str):
        self.server = server
        self.workload = workload
        self.seed = seed
        self.plan = plan
        self.inputs = inputs
        self.outcome = outcome
        self.label = label
        self.mutations: list = []

    def drive(self) -> tuple[list, float, dict]:
        """Warm up, measure; returns measured records, wall time and
        the server tree's PSS in MiB: ``readings_mb``, read after each
        count in ``plan.memory_at`` of measured requests, ``mem_mb``,
        their median, and ``end_mb``, read at the end of the phase.

        Memory is read at fixed counts of requests, not at the end of
        the time-bounded phase, so that a faster server is not charged
        for the extra requests it had time to serve, while growth per
        request is still counted.  A single reading is not enough:
        churn_zipf's PSS steps up and down by 15-30 MiB within a run.
        A run too short to reach a count reads at the end.
        """
        from client import run_phase

        warm, _ = run_phase(self.server.port,
                            streams(self.workload, self.seed, "warmup",
                                    self.inputs),
                            f"{self.label}-warm", count=self.plan.warmup)
        readings: list[float] = []
        measured, wall = run_phase(
            self.server.port,
            streams(self.workload, self.seed, "measure", self.inputs),
            f"{self.label}-run", seconds=self.plan.seconds,
            checkpoints=(self.plan.memory_at,
                         lambda: readings.append(self.server.pss_mib())))
        end = self.server.pss_mib()
        memory = {"mem_mb": statistics.median(readings or [end]),
                  "readings_mb": readings, "end_mb": end}
        for records in (warm, measured):
            for caller in records:
                self.outcome.count(caller)
                self.mutations.extend(record for record in caller
                                      if record.ok and not record.is_read)
        return measured, wall, memory

    def probe(self) -> tuple[list[dict], list]:
        from client import send_probes

        probes = probe_requests(self.workload.stream, self.inputs.num_nodes,
                                self.inputs.pool)
        records = send_probes(self.server.port, probes, self.label)
        self.outcome.count(records)
        return probes, [record.payload if record.ok else None
                        for record in records]

    def stop(self) -> None:
        for problem in self.server.stop():
            self.outcome.fail(f"{self.label} teardown: {problem}")

    def check(self, probes: list[dict], answers) -> list[float]:
        """Check the probe answers against the exact oracle on the graph
        the server ended with."""
        from oracle import ExactPPR

        matrix = (final_graph(self.inputs, self.mutations, self.outcome)
                  if self.mutations else self.inputs.adjacency)
        return check_probes(self.outcome, ExactPPR(matrix, HTTP_ALPHA),
                            probes, answers, HTTP_EPSILON)


def final_graph(inputs: Inputs, mutations, outcome: Outcome):
    """The served graph after the acknowledged upserts, applied in the
    order of the bank generations their answers report."""
    from oracle import apply_upserts

    ordered = sorted(mutations, key=lambda record: max(
        bank["generation"] for bank in record.payload["banks"].values()))
    generations = [max(bank["generation"]
                       for bank in record.payload["banks"].values())
                   for record in ordered]
    if generations != list(range(1, len(ordered) + 1)):
        outcome.fail(f"mutations did not produce consecutive generations: "
                     f"{generations[:10]}...")
    upserts = [(op["u"], op["v"], op["weight"])
               for record in ordered
               for op in record.body["ops"]]
    return apply_upserts(inputs.adjacency, upserts,
                         directed=inputs.directed)


def boot(workload: Workload, label: str, run_dir: str,
         spans: str | None = None):
    from procs import Server

    server = Server(serve_argv(workload, spans),
                    log_path=Path(run_dir) / f"{label}.log")
    return server, server.boot()


def run_http(workload: Workload, seed: int, plan: Plan, trace: bool,
             inputs: Inputs, run_dir: str) -> Outcome:
    outcome = Outcome()
    if trace:
        return trace_http(workload, seed, plan, inputs, run_dir, outcome)
    server, first_boot = boot(workload, "run", run_dir)
    session = Session(server, workload, seed, plan, inputs, outcome, "run")
    try:
        measured, wall, memory = session.drive()
        probes, answers = session.probe()
    finally:
        session.stop()
    boots = [first_boot]
    for attempt in range(plan.boots):
        server, seconds = boot(workload, f"boot-{attempt}", run_dir)
        boots.append(seconds)
        for problem in server.stop():
            outcome.fail(f"boot {attempt} teardown: {problem}")
    latency = latency_metrics(measured, wall)
    if latency["p99_ms"] > LATENCY_LIMIT_MS:
        outcome.fail(f"p99 {latency['p99_ms']:.1f} ms exceeds the "
                     f"{LATENCY_LIMIT_MS:.0f} ms limit")
    errors = session.check(probes, answers)
    if workload.reference:
        compare_reference(workload, seed, plan, inputs, run_dir, outcome,
                          answers)
    outcome.metrics = end_to_end(statistics.median(boots), latency,
                                 memory["mem_mb"], errors)
    outcome.details = {"boots_s": boots,
                       "mem_readings_mb": memory["readings_mb"],
                       "mem_end_mb": memory["end_mb"],
                       "read_ms": latency["read_ms"],
                       "tail_percentile": latency["tail_percentile"],
                       "mutations": len(session.mutations),
                       "probe_entries": len(errors)}
    return outcome


def compare_reference(workload: Workload, seed: int, plan: Plan,
                      inputs: Inputs, run_dir: str, outcome: Outcome,
                      answers) -> None:
    """Probe a plain thread-executor server with the same bank seed and
    require byte-identical answers."""
    reference = Workload("reference", "http", workload.stream)
    server, _ = boot(reference, "reference", run_dir)
    session = Session(server, reference, seed, plan, inputs, outcome,
                      "reference")
    try:
        _, expected = session.probe()
    finally:
        session.stop()
    for index, (got, want) in enumerate(zip(answers, expected)):
        if got is None or want is None:
            continue
        key = "value" if "value" in want else "top"
        if json.dumps(got[key]) != json.dumps(want[key]):
            outcome.fail(f"probe {index}: answer differs from the "
                         f"thread-executor server's")


def trace_http(workload: Workload, seed: int, plan: Plan, inputs: Inputs,
               run_dir: str, outcome: Outcome) -> Outcome:
    from client import gaps_ms
    from spans import analyze

    server, _ = boot(workload, "untraced", run_dir)
    session = Session(server, workload, seed, plan, inputs, outcome,
                      "untraced")
    try:
        plain, plain_wall, _ = session.drive()
    finally:
        session.stop()
    untraced = latency_metrics(plain, plain_wall)
    writes = sorted(record.latency_ms for caller in plain
                    for record in caller if record.ok and not record.is_read)

    spans_path = os.path.join(run_dir, "spans.json")
    server, _ = boot(workload, "traced", run_dir, spans=spans_path)
    session = Session(server, workload, seed, plan, inputs, outcome,
                      "traced")
    try:
        measured, wall, _ = session.drive()
        probes, answers = session.probe()
    finally:
        session.stop()
    traced = latency_metrics(measured, wall)
    session.check(probes, answers)
    with open(spans_path, encoding="utf-8") as handle:
        spans = json.load(handle)["spans"]
    latencies = {record.rid: record.latency_ms / 1000.0
                 for caller in measured for record in caller if record.ok}
    metrics = analyze(spans, latencies)
    metrics.update(layer_extras(workload.kind, plan, untraced, traced,
                                gaps_ms(measured), writes))
    outcome.metrics = metrics
    return outcome


def layer_extras(kind: str, plan: Plan, untraced: dict, traced: dict,
                 gaps: list[float], writes: list[float]) -> dict:
    """Per-layer metrics measured outside the program's spans."""
    return {
        "setup.import_s": import_seconds(kind, plan.import_repeats),
        "loadgen.gap_ms": statistics.fmean(gaps) if gaps else 0.0,
        "trace_overhead": (1.0 - traced["throughput_qps"]
                           / untraced["throughput_qps"]
                           if untraced["throughput_qps"] else 0.0),
        "mutate_p50_ms": quantile(writes, 0.50) if writes else 0.0,
        "mutate_p90_ms": quantile(writes, 0.90) if writes else 0.0,
    }


# -- the offline workload --------------------------------------------------
def run_offline_child(seed: int, plan: Plan, setups: int,
                      spans: str | None = None) -> dict:
    """Run ``offline.py`` in its own process and return its report."""
    from procs import program_env

    argv = [sys.executable, os.path.join(HERE, "offline.py"),
            "--seed", str(seed), "--seconds", str(plan.seconds),
            "--setups", str(setups)]
    if spans:
        argv += ["--spans", spans]
    done = subprocess.run(argv, capture_output=True, text=True,
                          env=program_env(), timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"offline workload exited with "
                           f"{done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def offline_latency(report: dict) -> dict:
    """Throughput and latency of the offline batches.

    A query's latency is the ``run_items`` call that answered it, taken
    at the mean time of its kind's batches.  Every batch of a kind
    carries the same work by construction, so their differences are
    the machine's: its speed flips between two levels 1.5x apart every
    few seconds, and a median of batch times lands on either level.
    """
    batches = report["batches"]
    mean = {kind: statistics.fmean(batch["seconds"] for batch in batches
                                   if batch["kind"] == kind)
            for kind in {batch["kind"] for batch in batches}}
    items = [mean[batch["kind"]] * 1000.0 for batch in batches
             for _ in range(batch["size"])]
    return {"throughput_qps": len(items) / sum(batch["seconds"]
                                               for batch in batches),
            "p50_ms": quantile(items, 0.50),
            "p95_ms": quantile(items, 0.95),
            "tail_percentile": tail_percentile(len(batches))}


def run_offline(workload: Workload, seed: int, plan: Plan, trace: bool,
                inputs: Inputs, run_dir: str) -> Outcome:
    from oracle import ExactPPR
    from spans import analyze

    outcome = Outcome()
    spans_path = os.path.join(run_dir, "spans.json") if trace else None
    if trace:
        untraced = offline_latency(run_offline_child(seed, plan, 1))
    report = run_offline_child(seed, plan, 1 if trace else
                               plan.offline_setups, spans_path)
    latency = offline_latency(report)
    outcome.attempted += len(report["batches"]) + len(report["probes"])
    errors = check_probes(outcome, ExactPPR(inputs.adjacency, OFFLINE_ALPHA),
                          [entry["probe"] for entry in report["probes"]],
                          [entry["answer"] for entry in report["probes"]],
                          OFFLINE_EPSILON)
    if trace:
        with open(spans_path, encoding="utf-8") as handle:
            spans = json.load(handle)["spans"]
        latencies = {f"batch-{index}": batch["seconds"]
                     for index, batch in enumerate(report["batches"])}
        metrics = analyze(spans, latencies, window=tuple(report["window"]))
        metrics.update(layer_extras(workload.kind, plan, untraced, latency,
                                    [], []))
        outcome.metrics = metrics
        return outcome
    outcome.metrics = end_to_end(statistics.median(report["setups"]),
                                 latency, report["mem_mb"], errors)
    outcome.details = {"setups_s": report["setups"],
                       "mem_end_mb": report["end_mb"],
                       "batches": report["batches"],
                       "tail_percentile": latency["tail_percentile"],
                       "probe_entries": len(errors)}
    return outcome


# -- reporting -------------------------------------------------------------
def git_state() -> dict:
    def git(*args) -> str | None:
        try:
            done = subprocess.run(["git", *args], cwd=ROOT, timeout=30,
                                  capture_output=True, text=True)
        except OSError:
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    # a checkout that is not itself a repository has no SHA, even when
    # it lies inside another repository's tree
    top = git("rev-parse", "--show-toplevel")
    sha = git("rev-parse", "HEAD") if top == str(ROOT) else None
    status = git("status", "--porcelain") if sha else None
    return {"git_sha": sha, "dirty": None if status is None else bool(status)}


def loadavg() -> list[float] | None:
    try:
        with open("/proc/loadavg", encoding="ascii") as handle:
            return [float(value) for value in handle.read().split()[:3]]
    except OSError:
        return None


def stamp() -> dict:
    import numpy
    import scipy

    return {**git_state(), "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "loadavg_start": loadavg()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured-phase length (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="report per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="every phase at about 5%% of its size")
    parser.add_argument("--out", default=str(RESULTS_DIR),
                        help="directory for the results JSON")
    args = parser.parse_args(argv)
    # a terminated benchmark still stops the servers it started: the
    # SystemExit unwinds through every ``finally`` that stops one
    signal.signal(signal.SIGTERM,
                  lambda signum, frame: sys.exit(128 + signum))

    require_program()
    spec = load_spec()
    seconds = args.seconds or float(spec["run_seconds"])
    plan = Plan.smoke(seconds) if args.smoke else Plan(seconds=seconds)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    names = [args.workload] if args.workload else list(WORKLOADS)

    run_stamp = stamp()
    inputs = Inputs()
    os.makedirs(args.out, exist_ok=True)
    tag = (f"{time.strftime('%Y%m%d-%H%M%S')}-{args.workload or 'all'}"
           f"-seed{args.seed}-trace{args.trace}")
    outcomes: dict[str, Outcome] = {}
    for name in names:
        workload = WORKLOADS[name]
        run_dir = os.path.join(args.out, f"{tag}-{name}")
        os.makedirs(run_dir, exist_ok=True)
        runner = run_http if workload.kind == "http" else run_offline
        try:
            outcomes[name] = runner(workload, args.seed, plan,
                                    bool(args.trace), inputs, run_dir)
        except Exception as error:  # noqa: BLE001 - reported as failed
            traceback.print_exc()
            outcome = Outcome(attempted=1)
            outcome.fail(f"{type(error).__name__}: {error}")
            outcomes[name] = outcome
        for metric in units:
            outcomes[name].metrics.setdefault(metric, 0.0)
        for problem in outcomes[name].problems[:20]:
            print(f"FAIL {name}: {problem}", file=sys.stderr)
        for metric, unit in units.items():
            print(f"{name:24s} {metric:22s} "
                  f"{outcomes[name].metrics[metric]:14.6g} {unit}")
        sys.stdout.flush()
    run_stamp["loadavg_end"] = loadavg()

    attempted = sum(outcome.attempted for outcome in outcomes.values())
    failed = sum(outcome.failed for outcome in outcomes.values())
    with open(os.path.join(args.out, f"{tag}.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"stamp": run_stamp, "seed": args.seed,
                   "seconds": seconds, "trace": args.trace,
                   "smoke": args.smoke,
                   "workloads": {
                       name: {"metrics": outcome.metrics,
                              "attempted": outcome.attempted,
                              "failed": outcome.failed,
                              "problems": outcome.problems,
                              "details": outcome.details}
                       for name, outcome in outcomes.items()}},
                  handle, indent=1)

    def key(name: str, metric: str) -> str:
        return metric if len(outcomes) == 1 else f"{name}.{metric}"

    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {key(name, metric): {"value": outcome.metrics[metric],
                                        "unit": units[metric]}
                    for name, outcome in outcomes.items()
                    for metric in units}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
