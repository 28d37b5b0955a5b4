"""Tests of the benchmark harness itself (no server is booted).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

from common import (
    load_spec,
    quantile,
    require_program,
    tail_percentile,
)

require_program()

import compare  # noqa: E402
import run  # noqa: E402
from oracle import ExactPPR, adjacency, apply_upserts  # noqa: E402
from spans import analyze, item_key  # noqa: E402
from workloads import (  # noqa: E402
    CHURN_WRITE_EVERY,
    OFFLINE_BATCH,
    OFFLINE_TARGET_BATCH,
    WORKLOADS,
    hub_pool,
    offline_batches,
    probe_requests,
    request_stream,
)

NUM_NODES = 640
#: a stand-in out-degree order
ORDER = np.random.default_rng(0).permutation(NUM_NODES)
POOL = hub_pool(ORDER)


def take(stream, count: int = 200) -> list:
    return list(itertools.islice(stream, count))


@pytest.mark.parametrize("name", ["source_uniform", "mixed_zipf",
                                  "churn_zipf"])
@pytest.mark.parametrize("caller", [0, 1])
def test_request_streams_repeat_per_seed_and_differ_across_seeds(name,
                                                                 caller):
    def stream(seed: int, phase: str = "measure") -> list:
        return take(request_stream(name, seed, caller, phase, NUM_NODES,
                                   POOL))

    assert stream(7) == stream(7)
    assert stream(7) != stream(8)
    assert stream(7) != stream(7, "warmup")


def test_offline_batches_repeat_per_seed_and_cover_every_stratum():
    def batches(seed: int) -> list:
        return take(offline_batches(seed, "measure", ORDER), 32)

    assert batches(3) == batches(3) != batches(4)
    assert [index for index, (kind, _) in enumerate(batches(3))
            if kind == "target"] == list(range(3, 32, 4))
    rank = {int(node): position for position, node in enumerate(ORDER)}
    for kind, nodes in batches(3):
        span = NUM_NODES if kind == "source" else POOL.size
        size = OFFLINE_BATCH if kind == "source" else OFFLINE_TARGET_BATCH
        strata = [rank[node] * size // span for node in nodes]
        assert strata == list(range(size))


def test_offline_latency_takes_each_kind_at_its_mean_batch_time():
    report = {"batches": [
        {"kind": "source", "size": 32, "seconds": 0.3},
        {"kind": "source", "size": 32, "seconds": 0.5},
        {"kind": "source", "size": 32, "seconds": 0.4},
        {"kind": "target", "size": 8, "seconds": 1.0}]}
    latency = run.offline_latency(report)
    assert latency["throughput_qps"] == pytest.approx(104 / 2.2)
    assert latency["p50_ms"] == pytest.approx(400.0)
    assert latency["p95_ms"] == pytest.approx(1000.0)


def test_probes_are_fixed_and_drawn_from_their_pools():
    probes = probe_requests("mixed_zipf", NUM_NODES, POOL)
    assert probes == probe_requests("mixed_zipf", NUM_NODES, POOL)
    assert len(probes) == 24
    targets = [probe["body"]["target"] if "target" in probe["body"]
               else probe["body"]["node"] for probe in probes[8:]]
    assert set(targets) <= set(POOL.tolist())


def test_streams_have_their_documented_mix():
    mixed = take(request_stream("mixed_zipf", 1, 0, "measure", NUM_NODES,
                                POOL), 2000)
    paths = [request["path"] for request in mixed]
    assert 0.35 < paths.count("/query") / len(paths) < 0.65
    for path in ("/pair", "/multiseed"):
        assert 0.15 < paths.count(path) / len(paths) < 0.25
    targets = [request["body"]["node"] for request in mixed
               if request["body"].get("kind") == "target"]
    assert set(targets) <= set(POOL.tolist())
    writer = take(request_stream("churn_zipf", 1, 0, "measure", NUM_NODES,
                                 POOL), 40)
    assert [index for index, request in enumerate(writer)
            if request["path"] == "/mutate"] == list(
        range(CHURN_WRITE_EVERY - 1, 40, CHURN_WRITE_EVERY))
    reader = take(request_stream("churn_zipf", 1, 1, "measure", NUM_NODES,
                                 POOL), 40)
    assert all(request["path"] == "/query" for request in reader)


def test_load_generator_loops_closed_and_fires_each_checkpoint_once():
    import threading
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    from client import gaps_ms, run_phase

    class Answer(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def do_POST(self):
            self.rfile.read(int(self.headers["Content-Length"]))
            body = b'{"top": []}'
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Answer)
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    fired = []
    try:
        records, wall = run_phase(
            server.server_address[1],
            [iter([{"path": "/query", "body": {}}] * 30) for _ in range(2)],
            "test", count=40,
            checkpoints=((5, 25, 99), lambda: fired.append(1)))
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
    assert [len(caller) for caller in records] == [20, 20]
    assert all(record.ok for caller in records for record in caller)
    assert fired == [1, 1]
    assert wall > 0 and min(gaps_ms(records)) >= 0


@pytest.mark.parametrize("count, expected", [
    (10_000, 99.9), (1000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0),
    (100, 90.0), (40, 75.0), (20, 50.0), (19, None)])
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_quantile_interpolates_like_numpy():
    values = np.random.default_rng(0).random(101)
    for q in (0.0, 0.5, 0.9, 0.99, 1.0):
        assert quantile(values, q) == pytest.approx(np.quantile(values, q))


@pytest.fixture(scope="module")
def small_graph():
    from repro.graph.datasets import load_dataset

    return load_dataset("youtube", scale=0.03)


def matrix_of(graph):
    return adjacency(graph.indptr, graph.indices, graph.weights,
                     graph.num_nodes)


@pytest.mark.parametrize("alpha", [0.1, 0.01])
def test_oracle_matches_the_programs_exact_solver(small_graph, alpha):
    from repro.linalg.exact import ExactSolver

    ours = ExactPPR(matrix_of(small_graph), alpha)
    theirs = ExactSolver(small_graph, alpha)
    for node in (0, 17, small_graph.num_nodes - 1):
        np.testing.assert_allclose(ours.source(node),
                                   theirs.single_source(node),
                                   rtol=0, atol=1e-9)
        np.testing.assert_allclose(ours.target(node),
                                   theirs.single_target(node),
                                   rtol=0, atol=1e-9)


def test_oracle_applies_upserts_like_graph_delta(small_graph):
    from repro.graph.delta import GraphDelta
    from repro.linalg.exact import ExactSolver

    u = 3
    existing = int(small_graph.indices[small_graph.indptr[u]])
    fresh = next(v for v in range(small_graph.num_nodes - 1, 0, -1)
                 if v != u and v not in
                 small_graph.indices[small_graph.indptr[u]:
                                     small_graph.indptr[u + 1]])
    upserts = [(u, fresh, 1.0), (u, existing, 2.5), (fresh, u, 4.0)]
    delta = GraphDelta()
    for a, b, weight in upserts:
        delta.upsert_edge(a, b, weight)
    ours = ExactPPR(apply_upserts(matrix_of(small_graph), upserts), 0.1)
    theirs = ExactSolver(delta.apply(small_graph), 0.1)
    for node in (u, fresh, existing):
        np.testing.assert_allclose(ours.source(node),
                                   theirs.single_source(node),
                                   rtol=0, atol=1e-9)


def span(ident, name, start, end, parent=None, rid=None, **info):
    return {"id": ident, "name": name, "parent": parent, "rid": rid,
            "start": start, "end": end, **info}


def traced_request(base: int, rid: str, item: int, start: float) -> list:
    """One request: a 30 ms service span holding a 1 ms cache lookup and
    a 26 ms scheduler span; its item's 10 ms batch folds inside it."""
    return [
        span(base, "service", start, start + 0.030, rid=rid),
        span(base + 1, "cache", start + 0.001, start + 0.002, base, rid,
             hit=False),
        span(base + 2, "scheduler", start + 0.002, start + 0.028, base, rid,
             item=item_key(item)),
    ]


def batch(ident, items, start) -> list:
    return [
        span(ident, "fold", start, start + 0.010,
             items=[item_key(item) for item in items], size=len(items)),
        span(ident + 1, "push", start, start + 0.005, ident, pushes=7),
        span(ident + 2, "estimate", start + 0.005, start + 0.009, ident,
             rows=len(items)),
    ]


def test_closure_sums_layer_self_times():
    spans = (traced_request(1, "a", 5, 0.0) + traced_request(10, "b", 6, 0.0)
             + batch(20, [5, 6], 0.015))
    metrics = analyze(spans, {"a": 0.050, "b": 0.050})
    assert metrics["http.self_ms"] == pytest.approx(20.0)
    assert metrics["service.self_ms"] == pytest.approx(3.0)
    assert metrics["cache.ms"] == pytest.approx(1.0)
    assert metrics["cache.hit_ratio"] == 0.0
    assert metrics["scheduler.wait_ms"] == pytest.approx(16.0)
    assert metrics["scheduler.batch_size"] == 2
    assert metrics["solver.fold_ms"] == pytest.approx(1.0)
    assert metrics["push.ms"] == pytest.approx(5.0)
    assert metrics["estimate.ms"] == pytest.approx(4.0)
    assert metrics["closure"] == pytest.approx(1.0)


def test_closure_exposes_unattributed_and_double_counted_time():
    # request "b" left no service span: its 50 ms are unaccounted
    spans = traced_request(1, "a", 5, 0.0) + batch(20, [5, 6], 0.015)
    assert analyze(spans, {"a": 0.050, "b": 0.050})["closure"] \
        == pytest.approx((50.0 + 10.0) / 100.0)
    # a batch no scheduler span claims is counted on top of the waits
    spans = traced_request(1, "a", 5, 0.0) + batch(20, [9], 0.015)
    assert analyze(spans, {"a": 0.050})["closure"] \
        == pytest.approx(60.0 / 50.0)


def test_offline_closure_compares_batches_with_caller_time():
    spans = batch(1, [1, 2], 0.0) + batch(4, [3, 4], 0.020)
    metrics = analyze(spans, {"batch-0": 0.010, "batch-1": 0.0125},
                      window=(0.0, 1.0))
    assert metrics["closure"] == pytest.approx(0.020 / 0.0225)
    assert metrics["estimate.rows"] == 2


def test_declared_names_are_exactly_the_emitted_ones():
    spec = load_spec()
    assert [entry["name"] for entry in spec["workloads"]] == list(WORKLOADS)
    latency = {"throughput_qps": 1.0, "p50_ms": 1.0, "p95_ms": 1.0}
    emitted = run.end_to_end(1.0, latency, 1.0, [0.1])
    assert set(emitted) == {metric["name"]
                            for metric in spec["end_to_end"]}
    layers = analyze([], {})
    layers.update(run.layer_extras("offline",
                                   run.Plan(seconds=1.0, import_repeats=1),
                                   latency, latency, [], []))
    assert set(layers) == {metric["name"] for metric in spec["per_layer"]}


STEADY = [10, 10.1, 9.9, 10, 10.05]


@pytest.mark.parametrize("parent, change, expected", [
    (STEADY * 2, [8, 8.1, 7.9, 8, 8.05] * 2, "improved"),
    # a clear win over fewer than ten pairs is not yet a claim
    (STEADY, [8, 8.1, 7.9, 8, 8.05], "unchanged"),
    (STEADY, [12, 12.1, 11.9, 12, 12.05], "regressed"),
    (STEADY, [10.2, 10, 9.9, 10.1, 10], "unchanged"),
    ([10, 20, 5, 30, 12], [11, 21, 6, 29, 13], "unresolved"),
    # a median worse by more than the bound regresses however wide
    # the parent's spread
    ([10, 20, 5, 30, 12], [16, 26, 11, 36, 18], "regressed"),
])
def test_compare_verdicts(parent, change, expected):
    result, _ = compare.verdict(parent, change, list(zip(parent, change)),
                                "lower", 0.1)
    assert result == expected


def test_compare_refuses_results_from_another_machine(tmp_path):
    def write(name: str, python: str) -> str:
        path = tmp_path / name
        path.write_text(json.dumps({
            "stamp": {"nproc": 2, "python": python}, "seed": 1,
            "trace": 0, "smoke": False,
            "workloads": {"source_uniform": {
                "metrics": {}, "attempted": 1, "failed": 0}}}))
        return str(path)

    assert compare.main(["--parent", write("a.json", "3.11.7"),
                         "--change", write("b.json", "3.12.1")]) == 2
