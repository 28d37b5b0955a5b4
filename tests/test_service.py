"""Serving layer: cache, metrics, scheduler, index lifecycle, HTTP."""

from __future__ import annotations

import http.client
import json
import os
import re
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.batch import BatchSourceSolver, BatchTargetSolver
from repro.core.config import PPRConfig
from repro.exceptions import ConfigError
from repro.graph.generators import erdos_renyi
from repro.montecarlo.forest_index import ForestIndex
from repro.obs.exposition import check_exposition
from repro.obs.histogram import Histogram
from repro.obs.timeseries import TimeSeriesStore
from repro.service import (
    IndexManager,
    MicroBatchScheduler,
    PPRService,
    QueryRequest,
    ResultCache,
    SchedulerFull,
    ServiceConfig,
    ServiceMetrics,
    cache_key,
)
from repro.service.http import make_server, serve_forever
from repro.service.metrics import (
    BATCH_SIZE_BUCKETS,
    DEFAULT_TENANT,
    MAX_TENANTS,
    OVERFLOW_TENANT,
    clean_tenant,
)
from repro.service.scheduler import RETRY_AFTER_FLOOR

SEED = 2022
ALPHA = 0.2
EPSILON = 0.5


def assert_prometheus_exposition(text: str) -> None:
    """Strict Prometheus text-format (v0.0.4) structural checks.

    Every sample must be preceded by its family's ``# HELP`` and
    ``# TYPE`` lines and must parse against the exposition grammar;
    histogram bucket series must be cumulative (non-decreasing in
    emission order), terminate with ``le="+Inf"``, and the ``+Inf``
    bucket must equal the family's ``_count`` for the same label set.
    """
    sample_re = re.compile(
        r'^([a-zA-Z_:][a-zA-Z0-9_:]*)'
        r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'
        r'(?:,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?'
        r" (\S+)$")
    le_re = re.compile(r'(?:\{|,)le="([^"]+)"')
    helped: set[str] = set()
    types: dict[str, str] = {}
    buckets: dict[tuple[str, str], list[tuple[str, float]]] = {}
    counts: dict[tuple[str, str], float] = {}

    def family(name: str) -> str:
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[:-len(suffix)] in types:
                return name[:-len(suffix)]
        return name

    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            helped.add(line.split()[2])
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            assert parts[3] in ("counter", "gauge", "histogram"), line
            types[parts[2]] = parts[3]
            continue
        match = sample_re.match(line)
        assert match, f"unparseable sample line: {line!r}"
        name, labels, value_text = match.groups()
        value = float(value_text)  # grammar: value must parse
        base = family(name)
        assert base in types, f"sample before its TYPE line: {line!r}"
        assert base in helped, f"sample before its HELP line: {line!r}"
        if types[base] == "histogram" and name.endswith("_bucket"):
            le = le_re.search(labels or "")
            assert le, f"histogram bucket without le label: {line!r}"
            rest = re.sub(r'(\{|,)le="[^"]*",?', r"\1", labels)
            rest = rest.replace("{,", "{").replace(",}", "}")
            buckets.setdefault((base, rest), []).append(
                (le.group(1), value))
        elif types[base] == "histogram" and name.endswith("_count"):
            counts[(base, labels or "{}")] = value
    assert buckets, "no histogram series in exposition"
    for (base, labels), series in buckets.items():
        values = [value for _, value in series]
        assert values == sorted(values), (
            f"non-cumulative buckets for {base}{labels}: {series}")
        assert series[-1][0] == "+Inf", (
            f"{base}{labels} bucket series does not end with +Inf")
        assert (base, labels) in counts, (
            f"histogram {base}{labels} has no _count sample")
        assert series[-1][1] == counts[(base, labels)], (
            f"{base}{labels}: +Inf bucket {series[-1][1]} != "
            f"_count {counts[(base, labels)]}")


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(300, 0.02, rng=SEED)


@pytest.fixture(scope="module")
def service_config():
    return ServiceConfig(graph="test", alpha=ALPHA, epsilon=EPSILON,
                         budget_scale=0.05, seed=SEED, max_batch=8,
                         max_wait_ms=5.0, queue_capacity=64,
                         cache_entries=16, port=0)


@pytest.fixture(scope="module")
def service(graph, service_config):
    with PPRService(service_config, graph=graph) as svc:
        yield svc


class TestResultCache:
    def test_epsilon_dominance(self):
        cache = ResultCache(capacity=4)
        key = cache_key("g", "batch", "source", 1, 0.1)
        cache.put(key, epsilon=0.25, value="tight")
        assert cache.get(key, epsilon=0.25) == "tight"
        assert cache.get(key, epsilon=0.5) == "tight"   # looser query OK
        assert cache.get(key, epsilon=0.1) is None      # tighter: miss

    def test_put_never_loosens(self):
        cache = ResultCache(capacity=4)
        key = cache_key("g", "batch", "source", 1, 0.1)
        cache.put(key, epsilon=0.2, value="tight")
        cache.put(key, epsilon=0.9, value="loose")
        assert cache.get(key, epsilon=0.2) == "tight"
        cache.put(key, epsilon=0.05, value="tighter")
        assert cache.get(key, epsilon=0.1) == "tighter"

    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        keys = [cache_key("g", "batch", "source", n, 0.1) for n in range(3)]
        cache.put(keys[0], 0.5, "a")
        cache.put(keys[1], 0.5, "b")
        assert cache.get(keys[0], 0.5) == "a"   # refresh key 0
        cache.put(keys[2], 0.5, "c")            # evicts key 1, not key 0
        assert cache.get(keys[0], 0.5) == "a"
        assert cache.get(keys[1], 0.5) is None
        assert cache.stats()["evictions"] == 1

    def test_capacity_zero_disables(self):
        cache = ResultCache(capacity=0)
        key = cache_key("g", "batch", "source", 1, 0.1)
        cache.put(key, 0.5, "value")
        assert cache.get(key, 0.5) is None
        assert len(cache) == 0

    def test_stats_counters(self):
        cache = ResultCache(capacity=4)
        key = cache_key("g", "batch", "source", 1, 0.1)
        assert cache.get(key, 0.5) is None
        cache.put(key, 0.5, "v")
        assert cache.get(key, 0.5) == "v"
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["size"] == 1
        assert stats["hit_rate"] == 0.5

    def test_epsilon_excluded_from_key(self):
        tight = cache_key("g", "batch", "source", 1, 0.1)
        assert tight == cache_key("g", "batch", "source", 1, 0.1)
        assert tight != cache_key("g", "batch", "target", 1, 0.1)
        assert tight != cache_key("g", "batch", "source", 1, 0.2)


class TestMetrics:
    def test_batch_histogram_buckets(self):
        hist = Histogram(bounds=BATCH_SIZE_BUCKETS)
        for size in (1, 3, 8, 200):
            hist.observe(size)
        snap = hist.snapshot()
        buckets = dict(snap["buckets"])
        assert buckets["1"] == 1
        assert buckets["4"] == 2
        assert buckets["8"] == 3
        assert buckets["+Inf"] == 4
        assert snap["sum"] == 212
        assert snap["count"] == 4

    def test_render_exposes_required_series(self):
        metrics = ServiceMetrics()
        metrics.record_request("query", 0.012)
        metrics.record_batch(4, {"walk_steps": 10, "pushes": 3})
        metrics.record_rejection()
        metrics.register_gauge("repro_service_queue_depth", lambda: 2.0)
        metrics.register_gauge(
            "repro_service_cache",
            lambda: {'{stat="hit_rate"}': 0.25, '{stat="size"}': 3.0})
        text = metrics.render()
        assert 'repro_service_requests_total{endpoint="query"} 1' in text
        assert "repro_service_rejected_total 1" in text
        assert "repro_service_batches_total 1" in text
        assert 'repro_service_batch_size_bucket{le="4"} 1' in text
        assert "repro_service_batch_size_count 1" in text
        assert 'repro_service_latency_seconds_bucket{le="0.025"} 1' in text
        assert "repro_service_latency_seconds_count 1" in text
        assert ('repro_service_stage_seconds_bucket{stage="fold",'
                in text)
        assert "repro_service_work_walk_steps_total 10" in text
        assert "repro_service_work_pushes_total 3" in text
        assert "repro_service_queue_depth 2.0" in text
        assert 'repro_service_cache{stat="hit_rate"} 0.25' in text

    def test_snapshot_work_is_detached(self):
        metrics = ServiceMetrics()
        metrics.record_batch(1, {"walk_steps": 5})
        snap = metrics.snapshot()
        metrics.record_batch(1, {"walk_steps": 5})
        assert snap["work"]["walk_steps"] == 5
        assert metrics.snapshot()["work"]["walk_steps"] == 10

    def test_stage_histograms_feed_snapshot_quantiles(self):
        metrics = ServiceMetrics()
        for seconds in (0.001, 0.002, 0.2):
            metrics.record_fold(seconds)
        metrics.record_stage("serialize", 0.0001)
        snap = metrics.snapshot()
        assert snap["fold_p50"] > 0
        assert snap["fold_p99"] >= snap["fold_p50"]

    def test_exposition_is_strictly_well_formed(self):
        metrics = ServiceMetrics()
        metrics.record_request("query", 0.012)
        metrics.record_request("pair", 3.5)
        metrics.record_stage("admission", 1e-6)
        metrics.record_fold(0.02)
        metrics.record_batch(3, {"pushes": 1})
        metrics.register_gauge("repro_service_queue_depth", lambda: 0.0)
        assert_prometheus_exposition(metrics.render())

    def test_tenant_sanitization(self):
        assert clean_tenant("acme-prod_1.eu:a") == "acme-prod_1.eu:a"
        assert clean_tenant(None) == DEFAULT_TENANT
        assert clean_tenant("") == DEFAULT_TENANT
        assert clean_tenant('evil"} 1\n') == DEFAULT_TENANT
        assert clean_tenant("x" * 65) == DEFAULT_TENANT
        assert clean_tenant("  spaced  ") == "spaced"

    def test_tenant_attribution_table_and_render(self):
        metrics = ServiceMetrics()
        metrics.record_request("query", 0.010, tenant="acme",
                               work={"pushes": 5})
        metrics.record_request("query", 0.020, tenant="acme",
                               work={"pushes": 7})
        metrics.record_request("query", 0.030)  # default tenant
        metrics.record_rejection(tenant="acme")
        metrics.record_failure(tenant="beta")
        rows = {row["tenant"]: row for row in metrics.tenant_table()}
        assert rows["acme"]["requests"] == 2
        assert rows["acme"]["rejected"] == 1
        assert rows["acme"]["work"] == 12
        assert rows["acme"]["p99_seconds"] > 0
        assert rows["beta"]["errors"] == 1
        assert rows["default"]["requests"] == 1
        text = metrics.render()
        assert ('repro_service_tenant_requests_total{tenant="acme"} 2'
                in text)
        assert ('repro_service_tenant_rejected_total{tenant="acme"} 1'
                in text)
        assert ('repro_service_tenant_errors_total{tenant="beta"} 1'
                in text)
        assert ('repro_service_tenant_work_total{tenant="acme"} 12'
                in text)
        assert ('repro_service_tenant_latency_seconds_count'
                '{tenant="acme"} 2') in text
        assert_prometheus_exposition(text)

    def test_tenant_cardinality_is_capped(self):
        metrics = ServiceMetrics(timeseries=TimeSeriesStore())
        for index in range(1000):
            metrics.record_request("query", 0.001, tenant=f"t{index}")
        rows = {row["tenant"]: row for row in metrics.tenant_table()}
        assert len(rows) <= MAX_TENANTS + 1
        assert clean_tenant(OVERFLOW_TENANT) == OVERFLOW_TENANT
        assert rows[OVERFLOW_TENANT]["requests"] == 1000 - MAX_TENANTS
        assert len(metrics.window_snapshot(60.0)["histograms"]) \
            == MAX_TENANTS + 2  # + service latency + overflow
        assert check_exposition(metrics.render()) == []

    def test_straggler_and_shard_tables(self):
        metrics = ServiceMetrics()
        metrics.record_shard_fold(0, 0.001)
        metrics.record_shard_fold(1, 0.5)
        metrics.record_straggler(1)
        rows = {row["shard"]: row for row in metrics.shard_table()}
        assert rows[0]["straggler_folds"] == 0
        assert rows[1]["straggler_folds"] == 1
        assert rows[1]["fold_p99_seconds"] >= rows[0]["fold_p50_seconds"]
        assert metrics.snapshot()["straggler_folds"] == {1: 1}
        text = metrics.render()
        assert ('repro_service_straggler_folds_total{shard="1"} 1'
                in text)

    def test_window_snapshot_and_slo_report_require_wiring(self):
        from repro.obs.slo import SLOEngine, default_specs
        bare = ServiceMetrics()
        assert bare.window_snapshot(60.0) is None
        assert bare.slo_report() == []
        wired = ServiceMetrics(timeseries=TimeSeriesStore(),
                               slo=SLOEngine(default_specs()))
        wired.record_request("query", 0.012, tenant="acme")
        wired.record_rejection()
        snapshot = wired.window_snapshot(60.0)
        assert snapshot["counters"]["requests"]["total"] == 1.0
        assert snapshot["counters"]["rejected"]["total"] == 1.0
        assert snapshot["histograms"]["latency"]["count"] == 1
        names = {report["name"] for report in wired.slo_report()}
        assert names == {"availability", "latency"}


class TestIndexManager:
    def _manager(self, graph, **overrides):
        config = PPRConfig(alpha=ALPHA, epsilon=EPSILON, seed=SEED,
                           budget_scale=0.05, **overrides)
        manager = IndexManager(config, num_forests=6)
        manager.register_graph("test", graph)
        return manager

    def test_build_once_per_graph_alpha(self, graph):
        manager = self._manager(graph)
        first = manager.get_index("test")
        assert manager.get_index("test") is first
        assert manager.stats()["builds"] == 1
        other_alpha = manager.get_index("test", alpha=0.5)
        assert other_alpha is not first
        assert manager.stats()["builds"] == 2

    def test_unknown_graph_raises(self, graph):
        manager = self._manager(graph)
        with pytest.raises(ConfigError, match="unknown graph"):
            manager.get_index("nope")

    def test_solvers_share_one_bank_across_epsilon(self, graph):
        manager = self._manager(graph)
        tight = manager.get_solver("test", "source", epsilon=0.25)
        loose = manager.get_solver("test", "source", epsilon=0.5)
        assert tight is not loose
        assert tight.index is loose.index          # shared bank
        assert manager.stats()["builds"] == 1      # epsilon never rebuilds
        assert not tight._owns_index
        assert manager.get_solver("test", "source", epsilon=0.25) is tight

    def test_refresh_swaps_generation_and_drops_solvers(self, graph):
        manager = self._manager(graph)
        before = manager.get_index("test")
        solver = manager.get_solver("test", "source")
        assert manager.generation("test") == 0
        manager.refresh("test", block=True)
        after = manager.get_index("test")
        assert manager.generation("test") == 1
        assert after is not before
        # old bank object is untouched for in-flight holders
        assert before.num_forests == after.num_forests
        assert manager.get_solver("test", "source") is not solver
        # refreshed bank is deterministically different (new seed)
        assert not all(
            np.array_equal(a.roots, b.roots)
            for a, b in zip(before.forests, after.forests))

    def test_drop_and_memory_accounting(self, graph):
        manager = self._manager(graph)
        manager.warm("test")
        assert manager.memory_bytes() > 0
        stats = manager.stats()
        assert stats["memory_bytes"] == manager.memory_bytes()
        (bank_stats,) = stats["banks"].values()
        assert bank_stats["num_forests"] == 6
        assert bank_stats["resident_bytes"] == manager.memory_bytes()
        manager.drop("test")
        assert manager.memory_bytes() == 0
        assert manager.stats()["banks"] == {}


    def test_memory_counts_operators_forests_and_records(self, graph):
        # a built bank holds its fold operators and its forests, beyond
        # the Fig-6 footprint (roots + tree degree masses)
        manager = self._manager(graph)
        index = manager.warm("test")
        operators = {id(array): array.nbytes for array
                     in index._operators.to_arrays().values()}
        forests = sum(forest.roots.nbytes + forest.parents.nbytes
                      for forest in index.forests)
        assert manager.memory_bytes() >= sum(operators.values()) + forests
        assert manager.memory_bytes() > index.size_bytes
        # a dynamic bank adds its arrow records on top
        dynamic = IndexManager(manager.config, num_forests=6,
                               dynamic=True)
        dynamic.register_graph("test", graph)
        repairable = dynamic.warm("test")
        records = sum(record.nbytes for record in repairable.records)
        assert records > 0
        assert dynamic.memory_bytes() == (
            ForestIndex.resident_bytes.fget(repairable) + records)


class TestIndexManagerBankDir:
    """Generation-0 preload from a saved bank directory."""

    def _saved_bank(self, graph, tmp_path, **save_kwargs):
        index = ForestIndex.build(graph, ALPHA, 6, rng=SEED)
        index.save_bank(tmp_path / "bank", **save_kwargs)
        return index, str(tmp_path / "bank")

    def _manager(self, graph, bank_dir=None, **config_overrides):
        config = PPRConfig(alpha=ALPHA, epsilon=EPSILON, seed=SEED,
                           budget_scale=0.05, **config_overrides)
        manager = IndexManager(config, num_forests=6, bank_dir=bank_dir)
        manager.register_graph("test", graph)
        return manager

    def test_preload_skips_sampling_and_matches_the_saved_bank(
            self, graph, tmp_path):
        saved, bank_dir = self._saved_bank(graph, tmp_path)
        manager = self._manager(graph, bank_dir=bank_dir)
        index = manager.get_index("test")
        assert manager.stats()["builds"] == 1
        residuals = np.random.default_rng(1).random((2, graph.num_nodes))
        assert np.array_equal(saved.estimate_source_many(residuals),
                              index.estimate_source_many(residuals))

    def test_relabeled_bank_refused(self, graph, tmp_path):
        from tests.test_bank_layout import save_relabeled

        saved, _ = self._saved_bank(graph, tmp_path)
        save_relabeled(*saved.bank_arrays(), tmp_path / "relabeled")
        manager = self._manager(graph,
                                bank_dir=str(tmp_path / "relabeled"))
        with pytest.raises(ConfigError, match="repro index build"):
            manager.get_index("test")

    def test_refresh_resamples_instead_of_reloading(self, graph,
                                                    tmp_path):
        _, bank_dir = self._saved_bank(graph, tmp_path)
        manager = self._manager(graph, bank_dir=bank_dir)
        before = manager.get_index("test")
        manager.refresh("test", block=True)
        after = manager.get_index("test")
        assert after is not before
        assert after.forests  # sampled, not attached

    def test_alpha_mismatch_refused(self, graph, tmp_path):
        _, bank_dir = self._saved_bank(graph, tmp_path)
        manager = self._manager(graph, bank_dir=bank_dir)
        with pytest.raises(ConfigError, match="alpha"):
            manager.get_index("test", alpha=0.5)

    def test_graph_mismatch_refused(self, graph, tmp_path):
        # same node count, different edges: the degree checksum differs
        _, bank_dir = self._saved_bank(graph, tmp_path)
        other = erdos_renyi(graph.num_nodes, 0.02, rng=SEED + 1)
        manager = self._manager(other, bank_dir=bank_dir)
        with pytest.raises(ConfigError, match="different graph"):
            manager.get_index("test")

    def test_memory_is_the_attached_manifest_payload(self, graph,
                                                     tmp_path):
        from repro.parallel.shared_bank import bank_manifest

        _, bank_dir = self._saved_bank(graph, tmp_path)
        manager = self._manager(graph, bank_dir=bank_dir)
        manager.warm("test")
        payload = sum(spec["nbytes"] for spec
                      in bank_manifest(bank_dir)["arrays"].values())
        assert manager.memory_bytes() == payload
        (bank_stats,) = manager.stats()["banks"].values()
        assert bank_stats["resident_bytes"] == payload

    def test_bank_dir_rejects_dynamic(self, graph, tmp_path):
        _, bank_dir = self._saved_bank(graph, tmp_path)
        with pytest.raises(ConfigError, match="dynamic"):
            IndexManager(PPRConfig(alpha=ALPHA, seed=SEED),
                         dynamic=True, bank_dir=bank_dir)
        with pytest.raises(ConfigError, match="dynamic"):
            ServiceConfig(bank_dir=bank_dir, dynamic=True)


class TestBatchSolverLifecycle:
    def test_context_manager_and_close_idempotent(self, graph):
        with BatchSourceSolver(graph, alpha=ALPHA, epsilon=EPSILON,
                               seed=SEED, budget_scale=0.05,
                               num_forests=4) as solver:
            solver.query(0)
            assert not solver.closed
        assert solver.closed
        solver.close()  # idempotent
        with pytest.raises(ConfigError, match="closed"):
            solver.query(0)

    def test_injected_index_not_rebuilt_and_kept_open(self, graph):
        index = ForestIndex.build(graph, ALPHA, 4, rng=SEED)
        forests_before = list(index.forests)
        solver = BatchSourceSolver(graph, alpha=ALPHA, epsilon=EPSILON,
                                   seed=SEED, budget_scale=0.05,
                                   index=index)
        assert solver.index is index
        assert solver.stats()["owns_index"] is False
        solver.close()
        # borrowed bank survives the borrower
        assert index.forests == forests_before

    def test_injected_index_validation(self, graph):
        index = ForestIndex.build(graph, ALPHA, 2, rng=SEED)
        with pytest.raises(ConfigError, match="alpha"):
            BatchSourceSolver(graph, alpha=0.5, index=index)
        small = erdos_renyi(10, 0.3, rng=1)
        with pytest.raises(ConfigError, match="nodes"):
            BatchSourceSolver(small, alpha=ALPHA, index=index)

    def test_stats_track_queries(self, graph):
        with BatchTargetSolver(graph, alpha=ALPHA, epsilon=EPSILON,
                               seed=SEED, budget_scale=0.05,
                               num_forests=4) as solver:
            solver.query_many([0, 1, 2])
            stats = solver.stats()
            assert stats["queries_served"] == 3
            assert stats["push_work"] > 0
            assert stats["push_work_per_query"] == stats["push_work"] / 3
            assert stats["index_size_bytes"] > 0

    def test_query_is_query_many_of_one(self, graph):
        with BatchSourceSolver(graph, alpha=ALPHA, epsilon=EPSILON,
                               seed=SEED, budget_scale=0.05,
                               num_forests=4) as solver:
            alone = solver.query(3)
            batched = solver.query_many([3, 7, 11])[0]
            assert np.array_equal(alone.estimates, batched.estimates)


class TestScheduler:
    def _scheduler(self, graph, **overrides):
        manager = IndexManager(
            PPRConfig(alpha=ALPHA, epsilon=EPSILON, seed=SEED,
                      budget_scale=0.05), num_forests=4)
        manager.register_graph("test", graph)
        defaults = dict(max_batch=8, max_wait_ms=5.0, queue_capacity=8)
        defaults.update(overrides)
        return MicroBatchScheduler(manager, **defaults)

    def test_empty_deadline_flush_is_noop(self, graph):
        scheduler = self._scheduler(graph, max_wait_ms=1.0)
        scheduler.start()
        try:
            time.sleep(0.05)  # several empty deadline windows pass
            assert scheduler.batches_executed == 0
            assert scheduler.queue_depth == 0
            result = scheduler.submit(QueryRequest(
                graph="test", kind="source", node=0,
                alpha=ALPHA, epsilon=EPSILON))
            assert result.query_node == 0
        finally:
            scheduler.stop()

    def test_full_queue_rejects_with_retry_after(self, graph):
        scheduler = self._scheduler(graph, queue_capacity=2)
        # not started: admissions accumulate
        for node in (0, 1):
            scheduler.submit_nowait(QueryRequest(
                graph="test", kind="source", node=node,
                alpha=ALPHA, epsilon=EPSILON))
        with pytest.raises(SchedulerFull) as excinfo:
            scheduler.submit_nowait(QueryRequest(
                graph="test", kind="source", node=2,
                alpha=ALPHA, epsilon=EPSILON))
        assert excinfo.value.depth == 2
        assert excinfo.value.retry_after > 0
        assert scheduler.queue_depth == 2

    def test_retry_after_is_the_drain_time_without_linger(self, graph):
        """With no linger the 429 hint comes from the measured batch
        time and the queue ahead, never from ``max_wait`` alone — it
        must not collapse to ~0 s while the queue is full."""
        scheduler = self._scheduler(graph, max_wait_ms=0.0, max_batch=1,
                                    queue_capacity=2)
        assert scheduler.retry_after(2) == RETRY_AFTER_FLOOR
        scheduler.start()
        try:
            scheduler.submit(QueryRequest(
                graph="test", kind="source", node=0,
                alpha=ALPHA, epsilon=EPSILON), timeout=30.0)
        finally:
            scheduler.stop()
        batch_seconds = scheduler.batch_seconds
        assert batch_seconds > 0
        # stopped: admissions accumulate up to capacity
        for node in (1, 2):
            scheduler.submit_nowait(QueryRequest(
                graph="test", kind="source", node=node,
                alpha=ALPHA, epsilon=EPSILON))
        with pytest.raises(SchedulerFull) as excinfo:
            scheduler.submit_nowait(QueryRequest(
                graph="test", kind="source", node=3,
                alpha=ALPHA, epsilon=EPSILON))
        # two queued batches of one request each drain before a retry
        assert excinfo.value.retry_after == max(2 * batch_seconds,
                                                RETRY_AFTER_FLOOR)

    def test_flushes_when_free_and_lingers_only_on_request(self, graph):
        request = QueryRequest(graph="test", kind="source", node=0,
                               alpha=ALPHA, epsilon=EPSILON)
        default_wait = ServiceConfig().max_wait_ms
        assert default_wait == 0
        eager = self._scheduler(graph, max_wait_ms=default_wait)
        # a lone request is due the instant it is queued
        pending = eager.submit_nowait(request)
        with eager._cond:
            assert eager._collect_locked(pending.enqueued_at) == [pending]
        eager.start()
        try:
            assert eager.submit(request, timeout=30.0).query_node == 0
        finally:
            eager.stop()
        # an opt-in linger holds a partial batch for batch-mates
        lingering = self._scheduler(graph, max_wait_ms=60_000).start()
        try:
            pending = lingering.submit_nowait(request)
            assert not pending.event.wait(0.5)
            assert lingering.queue_depth == 1
            assert lingering.batches_executed == 0
        finally:
            lingering.stop(drain=False)

    def test_mixed_epsilon_never_shares_a_batch(self, graph):
        scheduler = self._scheduler(graph, max_batch=16, max_wait_ms=20.0)
        pendings = []
        for node in range(4):
            pendings.append(scheduler.submit_nowait(QueryRequest(
                graph="test", kind="source", node=node,
                alpha=ALPHA, epsilon=0.5)))
        for node in range(3):
            pendings.append(scheduler.submit_nowait(QueryRequest(
                graph="test", kind="source", node=node,
                alpha=ALPHA, epsilon=0.25)))
        assert len({p.request.group_key for p in pendings}) == 2
        scheduler.start()
        try:
            results = [p.resolve(timeout=30.0) for p in pendings]
        finally:
            scheduler.stop()
        # each answer was solved at its own epsilon, in exactly 2 batches
        assert [r.epsilon for r in results] == [0.5] * 4 + [0.25] * 3
        assert scheduler.batches_executed == 2

    def test_each_kind_batches_separately(self):
        """Top-k and pairwise queries have their own batching rules:
        every kind groups only with itself (same graph/α/ε)."""
        requests = {
            "source": QueryRequest(graph="g", kind="source", node=5,
                                   alpha=0.1, epsilon=0.5),
            "target": QueryRequest(graph="g", kind="target", node=5,
                                   alpha=0.1, epsilon=0.5),
            "pair": QueryRequest(graph="g", kind="pair", node=5,
                                 alpha=0.1, epsilon=0.5, source=2),
            "topk": QueryRequest(graph="g", kind="topk", node=5,
                                 alpha=0.1, epsilon=0.5, k=3),
            "multiseed": QueryRequest(graph="g", kind="multiseed",
                                      node=5, alpha=0.1, epsilon=0.5,
                                      seeds=[5, 7], weights=[0.5, 0.5]),
        }
        for kind, request in requests.items():
            assert request.solver_kind == kind
        keys = {request.group_key for request in requests.values()}
        assert len(keys) == len(requests)
        with pytest.raises(ConfigError, match="source="):
            QueryRequest(graph="g", kind="pair", node=5, alpha=0.1,
                         epsilon=0.5)
        with pytest.raises(ConfigError, match="k"):
            QueryRequest(graph="g", kind="topk", node=5, alpha=0.1,
                         epsilon=0.5)
        with pytest.raises(ConfigError, match="seeds"):
            QueryRequest(graph="g", kind="multiseed", node=5, alpha=0.1,
                         epsilon=0.5)

    def test_payload_items_per_kind(self):
        pair = QueryRequest(graph="g", kind="pair", node=5, alpha=0.1,
                            epsilon=0.5, source=2)
        topk = QueryRequest(graph="g", kind="topk", node=5, alpha=0.1,
                            epsilon=0.5, k=3)
        multi = QueryRequest(graph="g", kind="multiseed", node=5,
                             alpha=0.1, epsilon=0.5, seeds=[5, 7],
                             weights=[0.25, 0.75])
        plain = QueryRequest(graph="g", kind="source", node=5,
                             alpha=0.1, epsilon=0.5)
        assert pair.payload_item == (2, 5)
        assert topk.payload_item == (5, 3)
        assert multi.payload_item == ((5, 7), (0.25, 0.75))
        assert plain.payload_item == 5

    def test_failed_batch_counts_once_whichever_stage_failed(
            self, graph, monkeypatch):
        """A flushed batch that fails is counted once — in
        ``batches_executed`` and the batch metrics — whether the solver
        lookup or the fold raised, and every waiter gets the error."""
        metrics = ServiceMetrics()
        scheduler = self._scheduler(graph, max_wait_ms=1.0,
                                    metrics=metrics)
        solver = scheduler.index_manager.get_solver(
            "test", "source", alpha=ALPHA, epsilon=EPSILON)

        def broken_fold(items):
            raise RuntimeError("fold failed")

        monkeypatch.setattr(solver, "run_items", broken_fold)
        scheduler.start()
        try:
            lookup = scheduler.submit_nowait(QueryRequest(
                graph="nope", kind="source", node=0, alpha=ALPHA,
                epsilon=EPSILON))
            with pytest.raises(ConfigError, match="unknown graph"):
                lookup.resolve(timeout=30.0)
            assert lookup.disposition == "error"
            assert scheduler.batches_executed == 1
            fold = scheduler.submit_nowait(QueryRequest(
                graph="test", kind="source", node=0, alpha=ALPHA,
                epsilon=EPSILON))
            with pytest.raises(RuntimeError, match="fold failed"):
                fold.resolve(timeout=30.0)
            assert fold.disposition == "error"
            assert scheduler.batches_executed == 2
        finally:
            scheduler.stop()
        snapshot = metrics.snapshot()
        assert snapshot["batches"] == 2
        assert snapshot["errors"] == 2

    def test_batched_results_match_direct_solver(self, graph):
        scheduler = self._scheduler(graph, max_batch=4, max_wait_ms=2.0)
        scheduler.start()
        try:
            results = [scheduler.submit(QueryRequest(
                graph="test", kind="source", node=node,
                alpha=ALPHA, epsilon=EPSILON)) for node in range(5)]
        finally:
            scheduler.stop()
        direct = scheduler.index_manager.get_solver(
            "test", "source", alpha=ALPHA, epsilon=EPSILON)
        for node, result in enumerate(results):
            assert np.array_equal(result.estimates,
                                  direct.query(node).estimates)


class TestPPRService:
    def test_query_caches_and_is_deterministic(self, service):
        first, hit_first = service.query_result("source", 5)
        again, hit_again = service.query_result("source", 5)
        assert not hit_first and hit_again
        assert np.array_equal(first.estimates, again.estimates)

    def test_node_validation_before_admission(self, service):
        with pytest.raises(ConfigError, match="out of range"):
            service.query_result("source", 10_000)
        with pytest.raises(ConfigError, match="kind"):
            service.query_result("walks", 0)

    def test_query_payload_shape(self, service):
        payload = service.query("source", 3, top=5)
        assert payload["kind"] == "source"
        assert payload["alpha"] == ALPHA
        assert len(payload["top"]) == 5
        assert payload["top"] == sorted(payload["top"], key=lambda kv: -kv[1])
        assert payload["work"]["pushes"] >= 0

    def test_pair_matches_target_column(self, service):
        payload = service.pair(2, 9)
        target_result, _ = service.query_result("target", 9)
        assert payload["value"] == target_result[2]
        with pytest.raises(ConfigError, match="source"):
            service.pair(10_000, 9)

    def test_healthz_and_metrics_populated(self, service):
        service.query("source", 1)
        health = service.healthz()
        assert health["status"] == "ok"
        assert health["graph"] == "test"
        assert health["num_nodes"] == 300
        assert health["requests"] >= 1
        assert health["batches"] >= 1
        assert health["index"]["builds"] >= 1
        text = service.metrics_text()
        assert "repro_service_queue_depth 0.0" in text
        assert 'repro_service_cache{stat="hits"}' in text
        assert 'repro_service_index_bytes{bank="test@0.2"}' in text
        assert health["observability"]["tracing"]["sample_rate"] == 0.0
        assert health["observability"]["slowlog"]["written"] >= 0

    def test_results_match_standalone_manager(self, graph, service,
                                              service_config):
        """Service answers == direct solver calls from a fresh manager."""
        fresh = PPRService(service_config, graph=graph).index_manager
        direct = fresh.get_solver("test", "source", alpha=ALPHA,
                                  epsilon=EPSILON)
        for node in (0, 5, 17):
            served, _ = service.query_result("source", node,
                                             use_cache=False)
            assert np.array_equal(served.estimates,
                                  direct.query(node).estimates)


class TestFailureObservation:
    @pytest.mark.parametrize("field", ["alpha", "epsilon"])
    def test_non_numeric_alpha_epsilon_logged_once(self, field):
        """A non-numeric α/ε is refused at admission with a ConfigError
        naming the field, and the failure reaches both the tenant
        table and the slow log exactly once."""
        config = ServiceConfig(graph="tiny", alpha=ALPHA, seed=SEED,
                               budget_scale=0.05, max_wait_ms=1.0,
                               port=0)
        with PPRService(config, graph=erdos_renyi(40, 0.2, rng=7)) as svc:
            with pytest.raises(ConfigError, match=field):
                svc.query("source", 1, **{field: "x"})
            errors = [entry for entry in svc.slowlog.recent()
                      if entry.get("error")]
            assert len(errors) == 1
            assert field in errors[0]["error"]
            assert errors[0][field] == getattr(config, field)
            assert [row["errors"] for row in svc.metrics.tenant_table()] \
                == [1]


class TestQuerySurface:
    """The three first-class query kinds, end to end through the
    service facade: scheduler batching, cache policy, and the
    estimator identities each kind is built on."""

    def test_multiseed_is_weighted_sum_bit_identical(self, service):
        seeds, weights = [0, 5, 17], [0.2, 0.3, 0.5]
        combined, _ = service.multiseed_result(seeds, weights,
                                               use_cache=False)
        manual = np.zeros(300)
        for seed, weight in zip(seeds, weights):
            row, _ = service.query_result("source", seed, use_cache=False)
            manual += weight * row.estimates
        assert np.array_equal(combined.estimates, manual)

    def test_topk_is_prefix_of_full_vector_ranking(self, service):
        """At a fixed seed the early-terminating answer agrees with
        the full-budget ranking over the same forest stream, and the
        full-budget rankings are exact prefixes of each other."""
        from repro.core.topk import BatchTopKSolver
        served, _ = service.topk_result(3, 5, use_cache=False)
        solver = service.index_manager.get_solver(
            "test", "topk", alpha=ALPHA, epsilon=EPSILON)
        full = BatchTopKSolver(service.index_manager.graph("test"),
                               config=solver.config, early_stop=False,
                               max_forests=solver.max_forests)
        try:
            full10 = full.query_topk(3, 10)
            full5 = full.query_topk(3, 5)
        finally:
            full.close()
        # deeper full-budget rankings extend shallower ones exactly
        assert full5.nodes.tolist() == full10.nodes.tolist()[:5]
        # the early-stopped set matches the full-budget set at k
        overlap = len(set(served.nodes.tolist())
                      & set(full5.nodes.tolist()))
        assert overlap >= 4
        if not served.converged:
            assert served.nodes.tolist() == full5.nodes.tolist()

    def test_pair_agrees_with_full_vector_entry(self, service):
        result, _ = service.pair_result(2, 9, use_cache=False)
        column, _ = service.query_result("target", 9, use_cache=False)
        assert float(result) == column[2]
        assert result.method == "batch-pair"

    def test_topk_cache_prefix_dominance(self, service):
        node = 11
        deep, hit_deep = service.topk_result(node, 8)
        shallow, hit_shallow = service.topk_result(node, 5)
        assert not hit_deep and hit_shallow
        # the shallow hit is served as an exact prefix of the deep entry
        assert shallow.nodes.tolist() == deep.nodes.tolist()[:5]
        assert np.array_equal(shallow.estimates, deep.estimates[:5])
        # a deeper request than any cached entry must miss
        deeper, hit_deeper = service.topk_result(node, 10)
        assert not hit_deeper
        assert deeper.k == 10

    def test_topk_and_multiseed_payload_shapes(self, service):
        topk = service.query_topk(4, 3)
        assert topk["kind"] == "topk"
        assert topk["k"] == 3
        assert len(topk["top"]) == 3
        assert isinstance(topk["converged"], bool)
        assert topk["num_forests"] >= 1
        assert topk["work"]["forests_sampled"] >= 1
        multi = service.query_multiseed([4, 9], top=5)
        assert multi["kind"] == "multiseed"
        assert multi["seeds"] == [4, 9]
        assert multi["weights"] == [0.5, 0.5]
        assert len(multi["top"]) == 5
        assert multi["total_mass"] == pytest.approx(1.0, abs=1e-9)

    def test_multiseed_accepts_any_iterable_of_seeds(self, service):
        from_list = service.query_multiseed([4, 9], top=5)
        from_iterator = service.query_multiseed(iter([4, 9]), top=5)
        assert from_iterator["seeds"] == [4, 9]
        assert from_iterator["top"] == from_list["top"]

    def test_admission_guards(self, service):
        with pytest.raises(ConfigError, match="topk_max_k"):
            service.query_topk(0, service.config.topk_max_k + 1)
        with pytest.raises(ConfigError, match="multiseed_max_seeds"):
            service.query_multiseed(
                list(range(service.config.multiseed_max_seeds + 1)))
        with pytest.raises(ConfigError):
            service.query_topk(10_000, 3)
        with pytest.raises(ConfigError):
            service.query_multiseed([0, 10_000])

    def test_per_kind_request_counters(self, service):
        service.query_topk(6, 3)
        service.query_multiseed([6, 8])
        service.pair(6, 8)
        text = service.metrics_text()
        for kind in ("topk", "multiseed", "pair"):
            assert (f'repro_service_requests_total{{endpoint="{kind}"}}'
                    in text)
        assert_prometheus_exposition(text)


class TestHTTP:
    @pytest.fixture(scope="class")
    def base_url(self, service):
        server = make_server(service, port=0)
        serve_forever(server, in_thread=True)
        yield f"http://127.0.0.1:{server.server_port}"
        server.shutdown()
        server.server_close()

    def _get(self, url):
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, response.read()

    def _post(self, url, payload):
        body = json.dumps(payload).encode()
        request = urllib.request.Request(
            url, data=body, headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())

    def test_healthz(self, base_url):
        status, body = self._get(f"{base_url}/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"

    def test_query_roundtrip(self, base_url):
        status, payload = self._post(f"{base_url}/query",
                                     {"kind": "source", "node": 4, "top": 3})
        assert status == 200
        assert payload["node"] == 4
        assert len(payload["top"]) == 3

    def test_pair_roundtrip(self, base_url):
        status, payload = self._post(f"{base_url}/pair",
                                     {"source": 1, "target": 6})
        assert status == 200
        assert isinstance(payload["value"], float)

    def test_topk_roundtrip(self, base_url):
        status, payload = self._post(f"{base_url}/topk",
                                     {"node": 4, "k": 3})
        assert status == 200
        assert payload["kind"] == "topk"
        assert len(payload["top"]) == 3
        assert isinstance(payload["converged"], bool)

    def test_multiseed_roundtrip(self, base_url):
        status, payload = self._post(
            f"{base_url}/multiseed",
            {"seeds": [1, 6], "weights": [0.25, 0.75], "top": 4})
        assert status == 200
        assert payload["kind"] == "multiseed"
        assert payload["seeds"] == [1, 6]
        assert payload["weights"] == [0.25, 0.75]
        assert len(payload["top"]) == 4

    def _error_code(self, call, *args) -> int:
        """The HTTP status of a request that fails; the error response
        (and its socket) is closed before returning."""
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            call(*args)
        with excinfo.value:
            return excinfo.value.code

    def test_bad_requests(self, base_url):
        assert self._error_code(self._post, f"{base_url}/query",
                                {"kind": "source"}) == 400  # no node
        assert self._error_code(self._post, f"{base_url}/query",
                                {"kind": "source", "node": 10_000}) == 400
        assert self._error_code(self._post, f"{base_url}/topk",
                                {"node": 4}) == 400  # no k
        assert self._error_code(self._post, f"{base_url}/multiseed",
                                {"seeds": []}) == 400
        assert self._error_code(self._get, f"{base_url}/nope") == 404

    def test_metrics_endpoint(self, base_url):
        self._post(f"{base_url}/query", {"kind": "source", "node": 2})
        status, body = self._get(f"{base_url}/metrics")
        assert status == 200
        text = body.decode()
        assert "repro_service_batches_total" in text
        assert "repro_service_latency_seconds_bucket" in text
        assert 'repro_service_stage_seconds_bucket{stage="batch_wait"' \
            in text
        assert_prometheus_exposition(text)

    def test_tenant_attribution_over_http(self, base_url):
        body = json.dumps({"kind": "source", "node": 9}).encode()
        request = urllib.request.Request(
            f"{base_url}/query", data=body,
            headers={"Content-Type": "application/json",
                     "X-Tenant": "acme"})
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.status == 200
        # a tenant query argument works too (header wins when both)
        self._post(f"{base_url}/query?tenant=beta",
                   {"kind": "source", "node": 10})
        _, metrics_body = self._get(f"{base_url}/metrics")
        text = metrics_body.decode()
        for tenant in ("acme", "beta"):
            assert (f'repro_service_tenant_requests_total'
                    f'{{tenant="{tenant}"}}') in text
            assert (f'repro_service_tenant_latency_seconds_count'
                    f'{{tenant="{tenant}"}}') in text
        assert_prometheus_exposition(text)

    def test_statusz_endpoint(self, base_url):
        self._post(f"{base_url}/query?tenant=acme",
                   {"kind": "source", "node": 11})
        status, body = self._get(f"{base_url}/statusz")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["graph"] == "test"
        assert payload["totals"]["requests"] >= 1
        assert set(payload["windows"]) == {"60s", "300s"}
        assert payload["windows"]["60s"]["counters"]["requests"][
            "total"] >= 1
        slo_states = {report["name"]: report["state"]
                      for report in payload["slo"]}
        assert set(slo_states) == {"availability", "latency"}
        tenants = {row["tenant"] for row in payload["tenants"]}
        assert "acme" in tenants

    def test_request_id_echoed_on_get_and_errors(self, base_url):
        with urllib.request.urlopen(f"{base_url}/healthz",
                                    timeout=10) as response:
            assert response.headers["X-Request-Id"]  # minted
        for url, data in ((f"{base_url}/nope", None),
                          (f"{base_url}/nope", b"{}"),
                          (f"{base_url}/query", b'{"kind": "source"}')):
            request = urllib.request.Request(
                url, data=data,
                headers={"Content-Type": "application/json",
                         "X-Request-Id": "rid-err-1"})
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            with excinfo.value as error:
                assert error.code in (400, 404)
                assert error.headers["X-Request-Id"] == "rid-err-1"

    def test_request_id_echoed_and_propagated(self, base_url):
        body = json.dumps({"kind": "source", "node": 7}).encode()
        request = urllib.request.Request(
            f"{base_url}/query?debug=1", data=body,
            headers={"Content-Type": "application/json",
                     "X-Request-Id": "trace-me-42"})
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.headers["X-Request-Id"] == "trace-me-42"
            payload = json.loads(response.read())
        debug = payload["debug"]
        assert debug["request_id"] == "trace-me-42"
        assert debug["trace"]["name"] == "query"
        assert debug["trace"]["attrs"]["request_id"] == "trace-me-42"
        # a minted id comes back when the client sends none
        request = urllib.request.Request(
            f"{base_url}/query", data=body,
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.headers["X-Request-Id"]
            payload = json.loads(response.read())
        assert "debug" not in payload


def test_http_front_end_imports_without_scipy_stats():
    """``scipy.stats`` is about half the server's import time and the
    front end needs none of it (top-k takes its z from
    ``scipy.special.ndtri``); a fresh interpreter proves it."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, repro.service.http; "
            "print('scipy.stats' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    assert done.stdout.strip() == "False"


class TestOneLatencyHistogram:
    def test_statusz_tenant_table_and_metrics_agree_on_p99(self, graph):
        config = ServiceConfig(
            graph="test", alpha=ALPHA, epsilon=EPSILON,
            budget_scale=0.05, seed=SEED, max_batch=8,
            max_wait_ms=2.0, cache_entries=16, port=0)
        with PPRService(config, graph=graph) as service:
            for node in (0, 1, 2, 3, 0, 1, 4, 5, 6, 0, 7, 8):
                service.query("source", node, top=3, tenant="acme")
            window = service.statusz()["windows"]["60s"]["histograms"]
            (row,) = service.metrics.tenant_table()
            text = service.metrics_text()
        buckets = [(le, int(count)) for le, count in re.findall(
            r'^repro_service_latency_seconds_bucket\{le="([^"]+)"\} '
            r'(\d+)$', text, flags=re.MULTILINE)]
        total = buckets[-1][1]
        from_buckets = next(float(le) for le, cumulative in buckets
                            if cumulative >= 0.99 * total)
        assert total == window["latency"]["count"] == row["requests"] == 12
        assert window["latency"]["p99"] == row["p99_seconds"] \
            == from_buckets

    def test_loadgen_shard_report_matches_shard_table(self, monkeypatch):
        from repro.service import loadgen
        metrics = ServiceMetrics()
        for seconds in (0.001, 0.002, 0.004, 0.3):
            metrics.record_shard_fold(0, seconds)
        metrics.record_shard_fold(1, 20.0)  # overflow bucket
        monkeypatch.setattr(loadgen, "_get",
                            lambda url: metrics.render())
        rows, failures = loadgen.shard_fold_report("http://unused", 3)
        assert failures == ["shard 2 fold histogram missing or zero"]
        for scraped, served in zip(rows, metrics.shard_table()):
            assert scraped["count"] == served["folds"]
            assert scraped["p50_seconds"] == served["fold_p50_seconds"]
            assert scraped["p99_seconds"] == served["fold_p99_seconds"]


class TestSLOIntegration:
    """A burn-rate alert fires under injected latency pressure and
    clears once the fast window recovers."""

    def test_latency_alert_fires_and_clears(self, graph):
        config = ServiceConfig(
            graph="test", alpha=ALPHA, epsilon=EPSILON,
            budget_scale=0.05, seed=SEED, max_batch=8,
            max_wait_ms=2.0, cache_entries=0, port=0,
            # hair-trigger latency SLO: every request breaches
            slo_latency_ms=0.001, slo_fast_window_s=1.0,
            slo_slow_window_s=5.0, slo_burn_threshold=1.0)
        with PPRService(config, graph=graph) as service:
            for node in range(10):
                service.query("source", node, top=3, tenant="acme")
            fired = {report["name"]: report
                     for report in service.statusz()["slo"]}
            assert fired["latency"]["state"] == "firing"
            assert fired["latency"]["fast_burn"] >= 1.0
            # no errors: availability stays healthy throughout
            assert fired["availability"]["state"] == "ok"
            # evaluate past the windows: the bad events age out and
            # the state machine transitions back to ok
            later = time.monotonic() + 30.0
            cleared = {report["name"]: report
                       for report in service.statusz(now=later)["slo"]}
            assert cleared["latency"]["state"] == "ok"
            transitions = [entry["state"] for entry
                           in cleared["latency"]["transitions"]]
            assert transitions[-2:] == ["firing", "ok"]


class TestKeepAliveDesync:
    """A POST answered before its body is read must close the
    connection: the unread body would otherwise be parsed as the next
    request line on the same keep-alive socket."""

    @pytest.fixture(scope="class")
    def address(self, service):
        server = make_server(service, port=0)
        serve_forever(server, in_thread=True)
        yield "127.0.0.1", server.server_port
        server.shutdown()
        server.server_close()

    @staticmethod
    def _read_response(sock) -> tuple[int, dict, bytes]:
        """Read one HTTP/1.1 response (status, headers, body)."""
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = sock.recv(65536)
            assert chunk, f"connection closed mid-headers: {data!r}"
            data += chunk
        head, body = data.split(b"\r\n\r\n", 1)
        status_line, *header_lines = head.decode("latin-1").split("\r\n")
        headers = {}
        for line in header_lines:
            name, value = line.split(":", 1)
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0))
        while len(body) < length:
            chunk = sock.recv(65536)
            assert chunk, "connection closed mid-body"
            body += chunk
        return int(status_line.split()[1]), headers, body[:length]

    @staticmethod
    def _rest_of_stream(sock) -> bytes:
        """Everything the server sends until it closes (a reset after
        the close counts as closed)."""
        received = b""
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    return received
                received += chunk
        except ConnectionResetError:
            return received

    @staticmethod
    def _request(path: str, body: bytes, request_id: str,
                 length: int | None = None) -> bytes:
        return (f"POST {path} HTTP/1.1\r\nHost: localhost\r\n"
                f"Content-Type: application/json\r\n"
                f"X-Request-Id: {request_id}\r\n"
                f"Content-Length: "
                f"{len(body) if length is None else length}\r\n\r\n"
                ).encode() + body

    def test_unknown_path_closes_instead_of_desyncing(self, address):
        body = json.dumps({"kind": "source", "node": 1}).encode()
        with socket.create_connection(address, timeout=10) as sock:
            sock.sendall(self._request("/bogus", body, "ka-404"))
            status, headers, _ = self._read_response(sock)
            assert status == 404
            assert headers["x-request-id"] == "ka-404"
            assert headers.get("connection") == "close"
            try:
                sock.sendall(self._request("/query", body, "ka-next"))
            except (BrokenPipeError, ConnectionResetError):
                return
            # never an HTML 400 built from the unread body
            assert self._rest_of_stream(sock) == b""

    def test_oversize_body_gets_json_400_then_close(self, address):
        from repro.service.http import _MAX_BODY_BYTES

        with socket.create_connection(address, timeout=10) as sock:
            sock.sendall(self._request("/query", b"{", "ka-big",
                                       length=_MAX_BODY_BYTES + 1))
            status, headers, payload = self._read_response(sock)
            assert status == 400
            assert headers["content-type"] == "application/json"
            assert headers["x-request-id"] == "ka-big"
            assert headers.get("connection") == "close"
            assert "body length" in json.loads(payload)["error"]
            assert self._rest_of_stream(sock) == b""

    def test_consumed_body_keeps_the_connection_open(self, address):
        connection = http.client.HTTPConnection(*address, timeout=30)
        try:
            for node in (1, 2):
                connection.request(
                    "POST", "/query",
                    body=json.dumps({"kind": "source", "node": node}),
                    headers={"Content-Type": "application/json"})
                response = connection.getresponse()
                assert response.status == 200
                assert response.getheader("Connection") is None
                assert json.loads(response.read())["node"] == node
        finally:
            connection.close()


class TestRequestPathGolden:
    """Byte golden of every POST route: HTTP status, body bytes and
    the slow-log entry of each request (``seconds``, ``ts`` and
    ``trace`` stripped).  Regenerate with ``REPRO_UPDATE_GOLDEN=1``
    only after an intended change to a payload or a log field."""

    GOLDEN = Path(__file__).parent / "golden" / "service_payloads.jsonl"

    CASES = (
        ("query_source", "/query", {"kind": "source", "node": 3}),
        ("query_target", "/query", {"kind": "target", "node": 5,
                                    "top": 4}),
        ("topk", "/topk", {"node": 2, "k": 5}),
        ("multiseed", "/multiseed", {"seeds": [6, 1],
                                     "weights": [3.0, 1.0], "top": 4}),
        ("pair", "/pair", {"source": 1, "target": 9}),
        ("query_source_cached", "/query", {"kind": "source", "node": 3}),
        ("topk_cached_prefix", "/topk", {"node": 2, "k": 3}),
        ("query_out_of_range", "/query", {"kind": "source", "node": 40}),
        ("topk_out_of_range", "/topk", {"node": 40, "k": 3}),
        ("multiseed_out_of_range", "/multiseed", {"seeds": [1, 40]}),
        ("pair_out_of_range", "/pair", {"source": 1, "target": 40}),
        ("unknown_path", "/nope", {"node": 1}),
    )

    @staticmethod
    def serve(**overrides) -> PPRService:
        """The started golden service, ``overrides`` applied to its
        config (answers are the same for every topology)."""
        config = ServiceConfig(graph="golden", alpha=0.2, seed=7,
                               budget_scale=0.05, max_wait_ms=1.0,
                               slowlog_threshold_ms=0, port=0,
                               **overrides)
        return PPRService(config,
                          graph=erdos_renyi(40, 0.2, rng=7)).start()

    @classmethod
    def replay(cls, service: PPRService) -> list[dict]:
        """POST every case to ``service`` over real HTTP, in order, on
        one keep-alive connection; one ``{case, status, body}`` record
        per case."""
        server = make_server(service, port=0)
        serve_forever(server, in_thread=True)
        records = []
        try:
            connection = http.client.HTTPConnection(
                "127.0.0.1", server.server_port, timeout=30)
            for name, path, body in cls.CASES:
                connection.request(
                    "POST", path, body=json.dumps(body),
                    headers={"Content-Type": "application/json",
                             "X-Request-Id": f"golden-{name}"})
                response = connection.getresponse()
                payload = response.read()
                if response.will_close:
                    connection.close()
                assert response.getheader("X-Request-Id") \
                    == f"golden-{name}"
                records.append({"case": name, "status": response.status,
                                "body": payload.decode()})
            connection.close()
        finally:
            server.shutdown()
            server.server_close()
        return records

    def _record(self) -> list[dict]:
        service = self.serve()
        try:
            records = self.replay(service)
        finally:
            service.stop()
        logged = {entry["request_id"]: entry
                  for entry in service.slowlog.recent()}
        for record in records:
            entry = logged.pop(f"golden-{record['case']}", None)
            record["slowlog"] = (None if entry is None else
                                 {key: value for key, value
                                  in sorted(entry.items())
                                  if key not in ("seconds", "ts",
                                                 "trace")})
        assert not logged, f"unexpected slow-log entries: {list(logged)}"
        return records

    def test_payloads_match_golden(self):
        lines = [json.dumps(record, sort_keys=True) + "\n"
                 for record in self._record()]
        if os.environ.get("REPRO_UPDATE_GOLDEN"):
            self.GOLDEN.write_text("".join(lines))
            return
        assert self.GOLDEN.exists(), (
            f"missing golden file {self.GOLDEN}; regenerate with "
            f"REPRO_UPDATE_GOLDEN=1")
        expected = self.GOLDEN.read_text().splitlines(keepends=True)
        assert len(lines) == len(expected)
        for line, golden in zip(lines, expected):
            assert line == golden
