"""DynamicForestIndex and the streaming-update serving path.

Covers the whole mutate stack above the repair kernel: index build
parity with the static bank, exact estimates after mutation, the
repairable on-disk artifact, the ``IndexManager.mutate`` lifecycle
verb (generation bump, solver drop, atomic graph swap), the service
endpoint (cache invalidation, metrics), the HTTP route, and the
loadgen churn scenario.  The repair-vs-rebuild work bound — the PR's
measurable acceptance criterion — is asserted at the index level and
again through the service counters.
"""

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.counters import WorkCounters
from repro.exceptions import ConfigError, GraphError
from repro.graph import GraphDelta
from repro.graph.generators import erdos_renyi
from repro.linalg import exact_ppr_matrix
from repro.montecarlo import DynamicForestIndex, ForestIndex
from repro.service import PPRService, ServiceConfig
from repro.service.http import make_server, serve_forever
from repro.service.index_manager import IndexManager
from repro.service.loadgen import build_requests, run_load, zipf_nodes

ALPHA = 0.2
SEED = 7


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(40, 0.2, rng=SEED)


@pytest.fixture(scope="module")
def graph10():
    return erdos_renyi(10, 0.5, rng=44)


class TestBuild:
    def test_forests_bit_identical_to_static_build(self, graph):
        static = ForestIndex.build(graph, ALPHA, 6, rng=11)
        dynamic = DynamicForestIndex.build(graph, ALPHA, 6, rng=11)
        for a, b in zip(static.forests, dynamic.forests):
            assert np.array_equal(a.roots, b.roots)
            assert np.array_equal(a.parents, b.parents)
        residual = np.zeros(graph.num_nodes)
        residual[0] = 1.0
        assert np.allclose(static.estimate_source(residual),
                           dynamic.estimate_source(residual))

    def test_workers_ignored_method_checked(self, graph):
        index = DynamicForestIndex.build(graph, ALPHA, 2, rng=0,
                                         workers=8)
        assert index.num_forests == 2
        with pytest.raises(ConfigError, match="positive"):
            DynamicForestIndex.build(graph, ALPHA, 0, rng=0)

    def test_records_must_match_forests(self, graph):
        index = DynamicForestIndex.build(graph, ALPHA, 3, rng=0)
        with pytest.raises(ConfigError, match="records"):
            DynamicForestIndex(graph, ALPHA, index.forests, 0.0,
                               records=index.records[:2])

    def test_record_arrows_accounted(self, graph):
        index = DynamicForestIndex.build(graph, ALPHA, 3, rng=0)
        assert index.record_arrows == sum(r.num_arrows
                                          for r in index.records)
        assert index.record_arrows > 0


class TestMutated:
    def test_returns_new_index_over_new_graph(self, graph):
        index = DynamicForestIndex.build(graph, ALPHA, 5, rng=1)
        delta = GraphDelta().upsert_edge(0, 20, 2.0)
        mutated, work = index.mutated(delta, rng=2)
        assert mutated is not index
        assert mutated.graph.num_edges in (graph.num_edges,
                                           graph.num_edges + 1)
        assert index.graph is graph  # the old index is untouched
        assert work.repair_fresh_steps > 0
        assert work.repair_dirty_nodes == 2 * index.num_forests
        for forest in mutated.forests:
            forest.validate()

    def test_mutated_estimates_match_exact_ppr(self, graph10):
        """The statistical acceptance check one level above the
        chi-square suite: a mutated bank's estimator is unbiased for
        the *new* graph's exact PPR."""
        index = DynamicForestIndex.build(graph10, 0.25, 3000, rng=11)
        delta = (GraphDelta().upsert_edge(0, 5, 3.0)
                 .upsert_edge(2, 9, 0.5))
        mutated, _ = index.mutated(delta, rng=13)
        exact = exact_ppr_matrix(mutated.graph, 0.25)
        rng = np.random.default_rng(5)
        residual = rng.random(10) / 10
        want = residual @ exact
        assert np.abs(mutated.estimate_source(residual) - want).max() \
            < 0.02

    def test_repair_work_bound_vs_rebuild(self, graph):
        """Acceptance criterion: a single-edge mutate pays a small
        fraction of a full rebuild's sampling work."""
        index = DynamicForestIndex.build(graph, ALPHA, 8, rng=1)
        delta = GraphDelta().upsert_edge(0, 30, 2.0)
        _, work = index.mutated(delta, rng=3)
        rebuild = ForestIndex.build(delta.apply(graph), ALPHA, 8, rng=3)
        assert work.repair_fresh_steps * 5 \
            < rebuild.build_counters.walk_steps, (
                f"repair paid {work.repair_fresh_steps} fresh steps; "
                f"rebuild pays "
                f"{rebuild.build_counters.walk_steps} walk steps")

    def test_build_counters_accumulate_across_mutations(self, graph):
        index = DynamicForestIndex.build(graph, ALPHA, 3, rng=1)
        base_steps = index.build_counters.walk_steps
        mutated, work = index.mutated(
            GraphDelta().upsert_edge(1, 2, 2.0), rng=2)
        assert mutated.build_counters.walk_steps == base_steps
        assert mutated.build_counters.repair_fresh_steps == \
            work.repair_fresh_steps


class TestDynamicBank:
    def test_round_trip(self, graph, tmp_path):
        index = DynamicForestIndex.build(graph, ALPHA, 4, rng=9)
        path = tmp_path / "bank"
        index.save_dynamic_bank(path)
        loaded = DynamicForestIndex.load_dynamic_bank(path)
        assert loaded.alpha == ALPHA
        assert np.array_equal(loaded.graph.indptr, graph.indptr)
        assert np.array_equal(loaded.graph.indices, graph.indices)
        for a, b in zip(index.forests, loaded.forests):
            assert np.array_equal(a.roots, b.roots)
            assert np.array_equal(a.parents, b.parents)
        for a, b in zip(index.records, loaded.records):
            for mine, theirs in zip(a.csr(), b.csr()):
                assert np.array_equal(mine, theirs)
            assert np.array_equal(a.consumed, b.consumed)

    def test_round_trip_keeps_consumed_counts(self, graph, tmp_path):
        """After repairs a record's rows run past its consumed counts;
        the artifact carries both."""
        index = DynamicForestIndex.build(graph, ALPHA, 4, rng=9)
        for step in range(6):
            index, _ = index.mutated(
                GraphDelta().upsert_edge(step, 39 - step, 2.0), rng=step)
        assert any((record.lengths > record.consumed).any()
                   for record in index.records)
        index.save_dynamic_bank(tmp_path / "bank")
        loaded = DynamicForestIndex.load_dynamic_bank(tmp_path / "bank")
        for a, b in zip(index.records, loaded.records):
            for mine, theirs in zip(a.csr(), b.csr()):
                assert np.array_equal(mine, theirs)
            assert np.array_equal(a.consumed, b.consumed)
        for a, b in zip(index.forests, loaded.forests):
            assert np.array_equal(a.roots, b.roots)

    @staticmethod
    def _without_consumed(path):
        """Rewrite a saved bank in the layout used before consumed
        counts were stored."""
        from repro.parallel.shared_bank import (
            load_array_bank,
            save_array_bank,
        )

        arrays, meta = load_array_bank(path, mmap=False)
        del arrays["record_consumed"]
        save_array_bank(path, arrays, meta)

    def test_bank_without_consumed_counts_loads_and_repairs(
            self, graph, tmp_path):
        index = DynamicForestIndex.build(graph, ALPHA, 4, rng=9)
        for step in range(6):
            index, _ = index.mutated(
                GraphDelta().upsert_edge(step, 39 - step, 2.0), rng=step)
        path = tmp_path / "bank"
        index.save_dynamic_bank(path)
        self._without_consumed(path)
        loaded = DynamicForestIndex.load_dynamic_bank(path)
        for record in loaded.records:
            assert np.array_equal(record.consumed, record.lengths)
        delta = GraphDelta().upsert_edge(3, 17, 1.5)
        mutated, work = loaded.mutated(delta, rng=4)
        assert work.repair_fresh_steps > 0
        for forest in mutated.forests:
            forest.validate()
            for node, parent in enumerate(forest.parents):
                if parent >= 0:
                    lo = mutated.graph.indptr[node]
                    hi = mutated.graph.indptr[node + 1]
                    assert parent in mutated.graph.indices[lo:hi]

    def test_cli_mutates_bank_without_consumed_counts(self, graph,
                                                      tmp_path, capsys):
        from repro.cli import main

        index = DynamicForestIndex.build(graph, ALPHA, 3, rng=9)
        path = tmp_path / "bank"
        index.save_dynamic_bank(path)
        self._without_consumed(path)
        assert main(["index", "mutate", str(path), "--add", "0:21"]) == 0
        assert "mutated bank: 1 ops" in capsys.readouterr().out
        again = DynamicForestIndex.load_dynamic_bank(path)
        assert again.graph.num_edges == graph.num_edges + 1

    def test_loaded_bank_still_mutates(self, graph, tmp_path):
        index = DynamicForestIndex.build(graph, ALPHA, 4, rng=9)
        path = tmp_path / "bank"
        index.save_dynamic_bank(path)
        loaded = DynamicForestIndex.load_dynamic_bank(path)
        delta = GraphDelta().upsert_edge(0, 13, 1.5)
        mutated, work = loaded.mutated(delta, rng=4)
        assert work.repair_fresh_steps > 0
        for forest in mutated.forests:
            forest.validate()
        # the mutated graph travels with the re-saved artifact
        mutated.save_dynamic_bank(path)
        again = DynamicForestIndex.load_dynamic_bank(path)
        assert np.array_equal(again.graph.indptr, mutated.graph.indptr)

    def test_rejects_static_bank(self, graph, tmp_path):
        static = ForestIndex.build(graph, ALPHA, 2, rng=0)
        path = tmp_path / "static"
        static.save_bank(path)
        with pytest.raises(ConfigError, match="not a dynamic"):
            DynamicForestIndex.load_dynamic_bank(path)


class TestIndexManagerMutate:
    def _manager(self, graph, dynamic):
        config = ServiceConfig(graph="g", alpha=ALPHA, seed=SEED,
                               budget_scale=0.05).ppr_config()
        manager = IndexManager(config, num_forests=6, dynamic=dynamic)
        manager.register_graph("g", graph)
        manager.warm("g", ALPHA)
        return manager

    def test_dynamic_manager_repairs(self, graph):
        manager = self._manager(graph, dynamic=True)
        before = manager.stats()["banks"]["g@0.2"]["generation"]
        summary = manager.mutate(
            "g", GraphDelta().upsert_edge(0, 20, 2.0))
        bank = summary["banks"]["g@0.2"]
        assert bank["repaired"] is True
        assert bank["generation"] == before + 1
        assert summary["dirty_nodes"] == [0, 20]
        assert summary["work"]["repair_fresh_steps"] > 0
        assert summary["work"]["walk_steps"] == 0
        # the registered graph was swapped
        new_graph = manager.graph("g")
        assert new_graph is not graph

    def test_repair_span_carries_closure_size(self, graph):
        from repro.obs.tracing import Tracer

        config = ServiceConfig(graph="g", alpha=ALPHA, seed=SEED,
                               budget_scale=0.05).ppr_config()
        tracer = Tracer(0.0)
        manager = IndexManager(config, num_forests=6, dynamic=True,
                               tracer=tracer)
        manager.register_graph("g", graph)
        manager.warm("g", ALPHA)
        manager.mutate("g", GraphDelta().upsert_edge(0, 20, 2.0))
        tree = tracer.traces()[-1]
        assert tree["name"] == "index_mutate"
        repair = [child for child in tree["children"]
                  if child["name"] == "repair"]
        assert len(repair) == 1
        repaired = repair[0]["attrs"]["repaired_nodes"]
        index = manager.get_index("g", ALPHA)
        assert repaired == index.repaired_nodes
        # both endpoints in each of the 6 forests, far from all nodes
        assert 12 <= repaired < 6 * graph.num_nodes

    def test_static_manager_rebuilds(self, graph):
        manager = self._manager(graph, dynamic=False)
        summary = manager.mutate(
            "g", GraphDelta().upsert_edge(0, 20, 2.0))
        bank = summary["banks"]["g@0.2"]
        assert bank["repaired"] is False
        assert summary["work"]["walk_steps"] > 0

    def test_static_rebuild_keeps_the_bank_variance_mode(self, graph,
                                                          tmp_path):
        # a stratified bank preloaded from disk: its ω was discounted by
        # the stratified gain, so the rebuild must stay stratified
        bank = ForestIndex.build(graph, ALPHA, 20, rng=3,
                                 variance_mode="stratified")
        bank.save_bank(tmp_path / "bank")
        config = ServiceConfig(graph="g", alpha=ALPHA, seed=SEED,
                               budget_scale=0.05).ppr_config()
        manager = IndexManager(config, bank_dir=str(tmp_path / "bank"))
        manager.register_graph("g", graph)
        assert manager.warm("g", ALPHA).variance_mode == "stratified"
        manager.mutate("g", GraphDelta().upsert_edge(0, 20, 2.0))
        rebuilt = manager.get_index("g", ALPHA)
        assert rebuilt.num_forests == 20
        assert rebuilt.variance_mode == "stratified"
        assert rebuilt.build_counters.strata > 0

    def test_solvers_rebind_to_new_graph(self, graph):
        manager = self._manager(graph, dynamic=True)
        solver = manager.get_solver("g", "source", ALPHA, 0.5)
        manager.mutate("g", GraphDelta().upsert_edge(0, 20, 2.0))
        rebound = manager.get_solver("g", "source", ALPHA, 0.5)
        assert rebound is not solver  # old solver was dropped

    @pytest.mark.parametrize("dynamic", [True, False])
    def test_repaired_bank_shares_the_registered_graph(self, graph,
                                                       dynamic):
        # the delta is applied once: the bank folds over the very graph
        # object the manager serves pushes on (one alias table, one
        # reverse graph, one degree vector per generation)
        manager = self._manager(graph, dynamic=dynamic)
        manager.mutate("g", GraphDelta().upsert_edge(0, 20, 2.0))
        assert manager.get_index("g", ALPHA).graph is manager.graph("g")

    def test_mutated_with_a_given_graph_matches_applying_the_delta(
            self, graph):
        index = DynamicForestIndex.build(graph, ALPHA, 3, rng=SEED)
        delta = GraphDelta().upsert_edge(0, 20, 2.0)
        new_graph = delta.apply(graph)
        handed, _ = index.mutated(delta, rng=5, graph=new_graph)
        applied, _ = index.mutated(delta, rng=5)
        assert handed.graph is new_graph
        for left, right in zip(handed.forests, applied.forests):
            assert np.array_equal(left.roots, right.roots)
            assert np.array_equal(left.parents, right.parents)


class TestPublishedBanksAreFoldReady:
    """Every generation the manager publishes carries its fold
    operators, so no read after a boot, refresh or write builds them."""

    @pytest.fixture(params=["static", "dynamic", "bank_dir"])
    def manager(self, request, graph, tmp_path):
        config = ServiceConfig(graph="g", alpha=ALPHA, seed=SEED,
                               budget_scale=0.05).ppr_config()
        if request.param == "bank_dir":
            ForestIndex.build(graph, ALPHA, 6, rng=3).save_bank(
                tmp_path / "bank")
            manager = IndexManager(config, bank_dir=str(tmp_path / "bank"))
        else:
            manager = IndexManager(config, num_forests=6,
                                   dynamic=request.param == "dynamic")
        manager.register_graph("g", graph)
        return manager

    @staticmethod
    def _published(manager):
        # the resident bank: get_index builds nothing once it exists
        return manager.get_index("g", ALPHA)

    def test_boot(self, manager):
        manager.warm("g", ALPHA)
        assert self._published(manager)._operators_cache is not None

    def test_refresh(self, manager):
        manager.warm("g", ALPHA)
        manager.refresh("g", ALPHA)
        assert manager.generation("g", ALPHA) == 1
        assert self._published(manager)._operators_cache is not None

    def test_mutate(self, manager):
        manager.warm("g", ALPHA)
        manager.mutate("g", GraphDelta().upsert_edge(0, 20, 2.0))
        assert manager.generation("g", ALPHA) == 1
        assert self._published(manager)._operators_cache is not None


@pytest.fixture(scope="module")
def dynamic_service(graph):
    config = ServiceConfig(graph="dyn", alpha=ALPHA, epsilon=0.5,
                           budget_scale=0.05, seed=SEED, max_batch=8,
                           max_wait_ms=2.0, cache_entries=16,
                           dynamic=True, port=0)
    with PPRService(config, graph=graph) as svc:
        yield svc


class TestServiceMutate:
    def test_payload_shape_and_cache_invalidation(self, dynamic_service):
        svc = dynamic_service
        svc.query("source", 0, top=3)
        _, hit = svc.query_result("source", 0)
        assert hit
        payload = svc.mutate(
            [{"op": "upsert", "u": 0, "v": 20, "weight": 2.0}])
        assert payload["graph"] == "dyn"
        assert payload["ops"] == 1
        assert payload["banks"]["dyn@0.2"]["repaired"] is True
        assert payload["work"]["repair_fresh_steps"] > 0
        assert "request_id" in payload
        # cached answers describe the old graph: they must be gone
        _, hit = svc.query_result("source", 0)
        assert not hit

    def test_mutation_metrics(self, dynamic_service):
        svc = dynamic_service
        before = svc.metrics.snapshot()["mutations"]
        svc.mutate([{"op": "upsert", "u": 1, "v": 2, "weight": 1.5}])
        snap = svc.metrics.snapshot()
        assert snap["mutations"] == before + 1
        assert snap["work"]["repair_fresh_steps"] > 0
        assert f"repro_service_mutations_total {before + 1}" \
            in svc.metrics_text()

    def test_bad_ops_rejected(self, dynamic_service):
        with pytest.raises(GraphError):
            dynamic_service.mutate([])
        with pytest.raises(GraphError):
            dynamic_service.mutate([{"op": "nope", "u": 0, "v": 1}])

    def test_queries_keep_working_after_mutate(self, dynamic_service):
        svc = dynamic_service
        before = svc.query("source", 3, top=5, use_cache=False)
        svc.mutate([{"op": "upsert", "u": 3, "v": 17, "weight": 5.0}])
        after = svc.query("source", 3, top=5, use_cache=False)
        assert after["total_mass"] == pytest.approx(1.0, abs=1e-9)
        assert before["top"] != after["top"]  # the graph really changed


class TestHTTPMutate:
    @pytest.fixture(scope="class")
    def base_url(self, dynamic_service):
        server = make_server(dynamic_service, port=0)
        serve_forever(server, in_thread=True)
        yield f"http://127.0.0.1:{server.server_port}"
        server.shutdown()
        server.server_close()

    def _post(self, url, body):
        request = urllib.request.Request(
            url, data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=30) as response:
            return (response.status, json.loads(response.read()),
                    dict(response.headers))

    def test_mutate_roundtrip(self, base_url):
        status, payload, headers = self._post(
            f"{base_url}/mutate",
            {"ops": [{"op": "upsert", "u": 5, "v": 9, "weight": 2.0}]})
        assert status == 200
        assert payload["ops"] == 1
        assert payload["banks"]["dyn@0.2"]["repaired"] is True
        assert headers.get("X-Request-Id")

    def test_mutate_bad_body_is_400(self, base_url):
        for body in ({"ops": []},
                     {"ops": [{"op": "nope", "u": 0, "v": 1}]},
                     {"ops": [{"op": "add", "u": 0, "v": 0}]},
                     {}):
            with pytest.raises(urllib.error.HTTPError) as info:
                self._post(f"{base_url}/mutate", body)
            assert info.value.code == 400

    def test_churn_load_scenario(self, base_url, dynamic_service):
        summary = run_load(base_url, requests=12, concurrency=3,
                           num_nodes=40, kind="churn", mutate_every=4,
                           seed=3)
        assert summary["failed"] == 0
        assert dynamic_service.metrics.snapshot()["mutations"] >= 3


class TestChurnPlans:
    def test_mutation_cadence_and_validity(self):
        plans = build_requests("churn", zipf_nodes(40, 20, seed=5), 40,
                               mutate_every=5, seed=5)
        mutations = [body for path, body, ok in plans
                     if path == "/mutate"]
        assert len(mutations) == 4
        for body in mutations:
            (op,) = body["ops"]
            assert op["op"] == "upsert"  # valid under any interleaving
            assert 0 <= op["u"] < 40 and 0 <= op["v"] < 40
            assert op["u"] != op["v"]
            assert op["weight"] > 0

    def test_single_node_graph_never_mutates(self):
        plans = build_requests("churn", [0] * 8, 1, mutate_every=2,
                               seed=1)
        assert all(path == "/query" for path, _, _ in plans)

    def test_deterministic_in_seed(self):
        nodes = zipf_nodes(40, 16, seed=9)
        first = build_requests("churn", nodes, 40, seed=9)
        second = build_requests("churn", nodes, 40, seed=9)
        assert first == second
