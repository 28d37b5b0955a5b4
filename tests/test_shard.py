"""Sharding subsystem: partition round-trips, restriction identity,
scatter-gather routing, and the sharded index lifecycle.

The load-bearing contract is *bit identity*: a sharded deployment must
return exactly the bytes an unsharded one returns at the same seed,
for every query kind.  The tests here enforce that at three layers —
the restricted fold operators, the router over real forked worker
pools, and the service facade — plus the exact-partition guarantee of
the graph partitioner and the per-shard repair accounting of the
dynamic lifecycle.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle

import numpy as np
import pytest

from repro.core.config import PPRConfig
from repro.exceptions import ConfigError
from repro.graph.delta import GraphDelta, parse_edge_spec
from repro.graph.generators import erdos_renyi
from repro.linalg import exact_ppr_matrix
from repro.montecarlo.forest_index import ForestIndex
from repro.parallel.shared_bank import (
    BANK_FORMAT_VERSION,
    attach_bank,
    bank_manifest,
)
from repro.service import (
    IndexManager,
    PPRService,
    ProcessExecutor,
    ServiceConfig,
)
from repro.shard import STRATEGIES, ShardMap
from repro.shard.router import (
    SLOWDOWN_ENV,
    ShardRouter,
    StragglerDetector,
)

SEED = 2022
ALPHA = 0.2
EPSILON = 0.5


# ---------------------------------------------------------------------
class TestShardMap:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_partitions_the_node_space(self, strategy):
        shard_map = ShardMap(101, 4, strategy)
        assert shard_map.shard_of.shape == (101,)
        assert shard_map.shard_of.min() >= 0
        assert shard_map.shard_of.max() < 4
        assert int(shard_map.shard_sizes.sum()) == 101
        owned = np.concatenate([shard_map.local_nodes(shard)
                                for shard in range(4)])
        assert np.array_equal(np.sort(owned), np.arange(101))

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_locate_inverts_local_nodes(self, strategy):
        shard_map = ShardMap(57, 3, strategy)
        for shard in range(3):
            for local, node in enumerate(shard_map.local_nodes(shard)):
                assert shard_map.locate(int(node)) == (shard, local)

    def test_local_nodes_ascending(self):
        shard_map = ShardMap(200, 5, "hash")
        for shard in range(5):
            owned = shard_map.local_nodes(shard)
            assert np.all(np.diff(owned) > 0)

    def test_range_strategy_is_contiguous(self):
        shard_map = ShardMap(10, 3, "range")
        blocks = [shard_map.local_nodes(shard).tolist()
                  for shard in range(3)]
        assert blocks == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]

    def test_dict_round_trip_and_determinism(self):
        shard_map = ShardMap(64, 4, "hash")
        rebuilt = ShardMap.from_dict(shard_map.to_dict())
        assert rebuilt == shard_map
        assert np.array_equal(rebuilt.shard_of, shard_map.shard_of)
        assert np.array_equal(rebuilt.local_of, shard_map.local_of)

    def test_validation(self):
        with pytest.raises(ConfigError, match="num_shards"):
            ShardMap(10, 0)
        with pytest.raises(ConfigError, match="strategy"):
            ShardMap(10, 2, "modulo")
        with pytest.raises(ConfigError, match="out of range"):
            ShardMap(10, 2).locate(10)
        with pytest.raises(ConfigError, match="out of range"):
            ShardMap(10, 2).local_nodes(2)


# ---------------------------------------------------------------------
@pytest.fixture(scope="module")
def graph30():
    return erdos_renyi(30, 0.2, rng=7)


@pytest.fixture(scope="module")
def index30(graph30):
    return ForestIndex.build(graph30, ALPHA, 64, rng=SEED)


class TestRestrictionIdentity:
    """A shard bank's fold must equal the full bank's rows, bitwise."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_source_and_target_rows(self, graph30, index30, strategy):
        shard_map = ShardMap(graph30.num_nodes, 3, strategy)
        rng = np.random.default_rng(5)
        residuals = rng.random((4, graph30.num_nodes))
        full_source = index30.estimate_source_many(residuals)
        full_target = index30.estimate_target_many(residuals)
        for shard in range(3):
            local = shard_map.local_nodes(shard)
            restricted = index30.restrict(local, shard_index=shard,
                                          shard_count=3,
                                          strategy=strategy)
            assert np.array_equal(
                restricted.estimate_source_many(residuals),
                full_source[:, local])
            assert np.array_equal(
                restricted.estimate_target_many(residuals),
                full_target[:, local])

    def test_merged_shards_match_full_and_oracle(self, graph30):
        """Shard-merged estimates == whole-bank estimates bitwise, and
        the whole bank tracks the exact operator (the oracle check the
        cut-edge handling is accountable to)."""
        index = ForestIndex.build(graph30, ALPHA, 800, rng=SEED)
        shard_map = ShardMap(graph30.num_nodes, 3, "hash")
        sources = np.arange(5)
        residuals = np.eye(graph30.num_nodes)[sources]
        full = index.estimate_source_many(residuals)
        merged = np.empty_like(full)
        for shard in range(3):
            local = shard_map.local_nodes(shard)
            restricted = index.restrict(local, shard_index=shard,
                                        shard_count=3)
            merged[:, local] = restricted.estimate_source_many(residuals)
        assert np.array_equal(merged, full)
        exact = exact_ppr_matrix(graph30, ALPHA)[sources]
        assert float(np.abs(merged - exact).max()) < 0.08

    def test_target_entries_on_shard(self, graph30, index30):
        shard_map = ShardMap(graph30.num_nodes, 3, "hash")
        local = shard_map.local_nodes(1)
        restricted = index30.restrict(local, shard_index=1, shard_count=3)
        entries = local[[0, 2, 2]]
        rng = np.random.default_rng(9)
        residuals = rng.random((3, graph30.num_nodes))
        full_rows = index30.estimate_target_many(residuals)
        expected = full_rows[np.arange(3), entries]
        got = restricted.estimate_target_entries(residuals, entries)
        assert np.array_equal(got, expected)

    def test_target_entries_reject_foreign_nodes(self, graph30, index30):
        shard_map = ShardMap(graph30.num_nodes, 3, "hash")
        local = shard_map.local_nodes(1)
        restricted = index30.restrict(local, shard_index=1, shard_count=3)
        foreign = shard_map.local_nodes(0)[:1]
        residuals = np.random.default_rng(9).random(
            (1, graph30.num_nodes))
        with pytest.raises(ConfigError, match="not owned"):
            restricted.estimate_target_entries(residuals, foreign)

    def test_double_restriction_rejected(self, graph30, index30):
        shard_map = ShardMap(graph30.num_nodes, 2, "hash")
        restricted = index30.restrict(shard_map.local_nodes(0),
                                      shard_index=0, shard_count=2)
        with pytest.raises(ConfigError):
            restricted.restrict(shard_map.local_nodes(0)[:1])


class TestShardBankFormat:
    def test_restricted_bank_round_trip(self, tmp_path, graph30,
                                        index30):
        shard_map = ShardMap(graph30.num_nodes, 3, "hash")
        local = shard_map.local_nodes(2)
        restricted = index30.restrict(local, shard_index=2,
                                      shard_count=3)
        bank_dir = tmp_path / "shard-2"
        restricted.save_bank(bank_dir)
        manifest = bank_manifest(bank_dir)
        assert manifest["version"] == BANK_FORMAT_VERSION
        assert manifest["meta"]["shard_index"] == 2
        assert manifest["meta"]["shard_count"] == 3
        loaded = ForestIndex.load_bank(bank_dir, graph30)
        assert np.array_equal(loaded.local_nodes, local)
        residuals = np.random.default_rng(4).random(
            (2, graph30.num_nodes))
        assert np.array_equal(
            loaded.estimate_source_many(residuals),
            restricted.estimate_source_many(residuals))

    def test_restricted_bank_keeps_the_build_provenance(self, graph30):
        index = ForestIndex.build(graph30, ALPHA, 4, rng=SEED,
                                  variance_mode="stratified")
        restricted = index.restrict(np.arange(5), shard_index=0,
                                    shard_count=2)
        assert restricted.build_counters == index.build_counters
        _, meta = restricted.bank_arrays()
        assert meta["variance_mode"] == "stratified"
        assert meta["shard_index"] == 0

    def test_older_manifest_versions_still_load(self, tmp_path,
                                                graph30, index30):
        bank_dir = tmp_path / "bank"
        index30.save_bank(bank_dir)
        manifest_path = bank_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = 1
        manifest_path.write_text(json.dumps(manifest))
        assert bank_manifest(bank_dir)["version"] == 1
        loaded = ForestIndex.load_bank(bank_dir, graph30)
        assert loaded.num_forests == index30.num_forests

    def test_newer_manifest_versions_rejected(self, tmp_path, graph30,
                                              index30):
        bank_dir = tmp_path / "bank"
        index30.save_bank(bank_dir)
        manifest_path = bank_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ConfigError, match="version"):
            bank_manifest(bank_dir)


# ---------------------------------------------------------------------
class TestStragglerDetector:
    def test_min_samples_guard(self):
        detector = StragglerDetector(min_samples=8)
        # even absurd folds go unflagged until the window can
        # estimate a distribution
        for index in range(8):
            assert detector.observe(index % 2, 10.0) is None

    def test_flags_outlier_after_honest_warmup(self):
        detector = StragglerDetector(min_samples=8, z_threshold=3.0)
        for index in range(20):
            jitter = (index % 3) * 0.001
            assert detector.observe(index % 2, 0.010 + jitter) is None
        z = detector.observe(2, 1.0)
        assert z is not None and z >= 3.0
        stats = detector.stats()
        rows = {row["shard"]: row for row in stats["per_shard"]}
        assert rows[2]["straggler_folds"] == 1
        assert rows[2]["folds"] == 1
        assert rows[0]["straggler_folds"] == 0
        assert rows[2]["last_z"] >= 3.0
        assert stats["window"] == 21
        assert stats["z_threshold"] == 3.0

    def test_sigma_floor_suppresses_microsecond_jitter(self):
        detector = StragglerDetector(min_samples=4, min_sigma=1e-3)
        for _ in range(10):
            detector.observe(0, 0.005)
        # 0.2 ms above a perfectly flat baseline: sigma is floored,
        # so tiny absolute jitter never alerts
        assert detector.observe(1, 0.0052) is None

    def test_outlier_judged_against_window_before_it_joins(self):
        detector = StragglerDetector(min_samples=4)
        for _ in range(8):
            detector.observe(0, 0.01)
        # the slow fold cannot dilute its own baseline
        assert detector.observe(1, 0.5) is not None

    def test_small_absolute_slowdown_not_flagged(self):
        detector = StragglerDetector()
        for index in range(40):
            # near-constant 1 ms folds: the spread is microseconds
            detector.observe(index % 2, 0.001 + (index % 5) * 1e-6)
        # 0.4 ms of scheduling noise is a large z-score against such a
        # tight window, but far below the minimum slowdown ratio
        assert detector.observe(0, 0.0014) is None
        z = detector.observe(1, 0.001 + 0.75)
        assert z is not None and z >= detector.z_threshold
        rows = {row["shard"]: row
                for row in detector.stats()["per_shard"]}
        assert rows[0]["straggler_folds"] == 0
        assert rows[1]["straggler_folds"] == 1

    def test_validation(self):
        with pytest.raises(ConfigError, match="window"):
            StragglerDetector(window=1)
        with pytest.raises(ConfigError, match="min_samples"):
            StragglerDetector(min_samples=1)
        with pytest.raises(ConfigError, match="z_threshold"):
            StragglerDetector(z_threshold=0.0)


class TestStragglerInjection:
    def test_forced_slow_shard_flagged_end_to_end(self, router_setup,
                                                  monkeypatch):
        _, _, router = router_setup
        monkeypatch.delenv(SLOWDOWN_ENV, raising=False)
        # honest warmup fills the cross-shard baseline window
        for node in range(6):
            router.run_batch("test", "source", ALPHA, EPSILON, (node,))
        monkeypatch.setenv(SLOWDOWN_ENV, "1:0.75")
        stats: dict = {}
        router.run_batch("test", "source", ALPHA, EPSILON, (50,),
                         stats=stats)
        flagged = {entry["shard"] for entry in stats["stragglers"]}
        assert flagged == {1}
        (entry,) = stats["stragglers"]
        assert entry["fold_seconds"] >= 0.75
        assert entry["z"] >= 3.0
        rows = {row["shard"]: row
                for row in router.straggler_stats()["per_shard"]}
        assert rows[1]["straggler_folds"] >= 1


class TestShardedServiceConfig:
    def test_validation(self):
        with pytest.raises(ConfigError, match="shards"):
            ServiceConfig(shards=0)
        with pytest.raises(ConfigError, match="shard_strategy"):
            ServiceConfig(shard_strategy="modulo")
        with pytest.raises(ConfigError, match="executor='process'"):
            ServiceConfig(shards=2, executor="thread")
        config = ServiceConfig(shards=2, executor="process", workers=1)
        assert "shards          2 (hash)" in config.describe()


# ---------------------------------------------------------------------
@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(200, 0.03, rng=SEED)


def _without_timings(results) -> list:
    """Results with their wall-clock ``*_seconds`` stats dropped — the
    only fields two runs of one batch may differ in."""
    return [dataclasses.replace(result, stats={
        key: value for key, value in result.stats.items()
        if not key.endswith("_seconds")}) for result in results]


def _manager(graph, **overrides):
    config = PPRConfig(alpha=ALPHA, epsilon=EPSILON, seed=SEED,
                       budget_scale=0.05)
    manager = IndexManager(config, num_forests=4, **overrides)
    manager.register_graph("test", graph)
    return manager


@pytest.fixture(scope="module")
def router_setup(graph):
    """One manager serving both a flat pool and a 3-shard router."""
    manager = _manager(graph, shards=3)
    flat = ProcessExecutor(manager, workers=1).start()
    router = ShardRouter(manager, workers_per_shard=1).start()
    yield manager, flat, router
    router.shutdown()
    flat.shutdown()
    manager.close_shared()


class TestShardedManager:
    def test_shared_view_publishes_restrictions(self, graph):
        manager = _manager(graph, shards=2)
        try:
            view = manager.shared_view("test", shard=1)
            try:
                meta = view.index_handle.meta_dict
                assert meta["shard_index"] == 1
                assert meta["shard_count"] == 2
            finally:
                view.release()
            with pytest.raises(ConfigError, match="shard"):
                manager.shared_view("test", shard=2)
        finally:
            manager.close_shared()

    def test_shared_view_keeps_no_heap_copy(self, graph, monkeypatch):
        """The restricted index is sliced to publish a shard bank and
        dies once the shared-memory bank has copied it."""
        import gc
        import weakref

        made = []
        restrict = ForestIndex.restrict

        def recording(self, *args, **kwargs):
            restricted = restrict(self, *args, **kwargs)
            made.append(weakref.ref(restricted))
            return restricted

        monkeypatch.setattr(ForestIndex, "restrict", recording)
        manager = _manager(graph, shards=2)
        try:
            manager.shared_view("test", shard=0).release()
            assert len(made) == 1
            gc.collect()
            assert made[0]() is None
            # the published generation is reused, not sliced again
            manager.shared_view("test", shard=0).release()
            assert len(made) == 1
        finally:
            manager.close_shared()

    @pytest.mark.parametrize("change", ["refresh", "mutate"])
    def test_shard_bank_republished_at_new_generation(self, graph, change):
        manager = _manager(graph, shards=2)
        try:
            view = manager.shared_view("test", shard=1)
            old_handle = view.index_handle
            view.release()
            if change == "refresh":
                manager.refresh("test", block=True)
            else:
                manager.mutate("test", GraphDelta().upsert_edge(0, 9, 2.0))
            view = manager.shared_view("test", shard=1)
            try:
                assert view.generation == 1
                assert view.index_handle != old_handle
                assert view.index_handle.meta_dict["shard_index"] == 1
                # the new shard bank is the new generation's rows
                index = manager.get_index("test")
                want, _ = index.restrict(
                    manager.shard_map("test").local_nodes(1),
                    shard_index=1, shard_count=2).bank_arrays()
                with attach_bank(view.index_handle) as attached:
                    for name, array in want.items():
                        assert np.array_equal(attached.arrays[name], array)
            finally:
                view.release()
        finally:
            manager.close_shared()

    def test_shard_map_matches_strategy(self, graph):
        manager = _manager(graph, shards=4, shard_strategy="range")
        shard_map = manager.shard_map("test")
        assert shard_map == ShardMap(graph.num_nodes, 4, "range")
        assert manager.stats()["shards"] == 4
        assert manager.stats()["shard_strategy"] == "range"

    def test_mutate_attributes_repair_to_owning_shards(self, graph):
        """Acceptance: dirty nodes confined to one shard leave every
        other shard's repair counter exactly zero."""
        manager = _manager(graph, shards=4, dynamic=True)
        manager.get_index("test")
        shard_map = manager.shard_map("test")
        owned = shard_map.local_nodes(2)
        u, v = int(owned[0]), int(owned[1])
        delta = GraphDelta([parse_edge_spec(f"{u}:{v}:1.5",
                                            op="upsert")])
        summary = manager.mutate("test", delta)
        assert sorted(summary["dirty_nodes"]) == sorted([u, v])
        per_shard = {entry["shard"]: entry
                     for entry in summary["shards"]}
        assert set(per_shard) == {0, 1, 2, 3}
        assert per_shard[2]["dirty_nodes"] == 2
        for shard in (0, 1, 3):
            assert per_shard[shard]["dirty_nodes"] == 0
            assert per_shard[shard]["repair_dirty_nodes"] == 0
        total = sum(entry["repair_dirty_nodes"]
                    for entry in summary["shards"])
        assert total == summary["work"]["repair_dirty_nodes"]
        assert per_shard[2]["repair_dirty_nodes"] == total


class TestShardRouter:
    def test_one_shard_is_the_flat_pool(self, graph, monkeypatch):
        """Flat process serving is the 1-shard router: its one pool
        attaches the whole-space bank (no restriction is published),
        answers every kind byte-equal to a bare pool, reports the flat
        pool's executor shape, and flags no straggler — a lone shard
        has no peers to be slow against."""
        manager = _manager(graph)
        flat = ProcessExecutor(manager, workers=1).start()
        router = ShardRouter(manager, workers_per_shard=1).start()
        try:
            assert router.warm("test", ALPHA) == 1
            for kind, items in (
                    ("source", (0, 5, 17, 150)),
                    ("target", (3, 42)),
                    ("multiseed", (((1, 2, 5), (0.2, 0.3, 0.5)),)),
                    ("topk", ((3, 5), (42, 3))),
                    ("pair", ((1, 7), (150, 11)))):
                expected = flat.run_batch("test", kind, ALPHA, EPSILON,
                                          items)
                routed = router.run_batch("test", kind, ALPHA, EPSILON,
                                          items)
                assert pickle.dumps(_without_timings(routed)) \
                    == pickle.dumps(_without_timings(expected)), kind
            # one shard publishes the whole-space bank, no restriction
            assert [key[2] for key in manager._shared_indexes] == [None]
            stats = router.stats()
            assert stats["mode"] == "process"
            assert stats["shard"] is None
            assert stats["workers"] == 1
            monkeypatch.delenv(SLOWDOWN_ENV, raising=False)
            for node in range(10):
                router.run_batch("test", "source", ALPHA, EPSILON,
                                 (node,))
            monkeypatch.setenv(SLOWDOWN_ENV, "0:0.75")
            extra: dict = {}
            router.run_batch("test", "source", ALPHA, EPSILON, (50,),
                             stats=extra)
            assert extra["per_shard"][0]["fold_seconds"] >= 0.75
            assert "stragglers" not in extra
            assert all(row["straggler_folds"] == 0 for row
                       in router.straggler_stats()["per_shard"])
        finally:
            router.shutdown()
            flat.shutdown()
            manager.close_shared()

    def test_warm_covers_every_shard(self, router_setup):
        _, _, router = router_setup
        assert router.warm("test", ALPHA) == 3
        stats = router.stats()
        assert stats["mode"] == "sharded"
        assert stats["shards"] == 3
        assert stats["workers"] == 3
        assert len(stats["per_shard"]) == 3

    @pytest.mark.parametrize("kind", ["source", "target"])
    def test_vector_kinds_bit_identical(self, router_setup, kind):
        _, flat, router = router_setup
        items = (0, 5, 17, 150)
        flat_results = flat.run_batch("test", kind, ALPHA, EPSILON,
                                      items)
        routed = router.run_batch("test", kind, ALPHA, EPSILON, items)
        for one, other in zip(flat_results, routed):
            assert np.array_equal(one.estimates, other.estimates)
            # stats match except wall-clock timings, which are real
            # measurements on both paths
            deterministic = {key: value
                             for key, value in one.stats.items()
                             if not key.endswith("_seconds")}
            assert deterministic == {
                key: value for key, value in other.stats.items()
                if not key.endswith("_seconds")}

    def test_multiseed_bit_identical(self, router_setup):
        _, flat, router = router_setup
        items = (((1, 2, 5), (0.2, 0.3, 0.5)), ((0, 9), (0.5, 0.5)))
        flat_results = flat.run_batch("test", "multiseed", ALPHA,
                                      EPSILON, items)
        routed = router.run_batch("test", "multiseed", ALPHA, EPSILON,
                                  items)
        for one, other in zip(flat_results, routed):
            assert np.array_equal(one.estimates, other.estimates)

    def test_topk_bit_identical(self, router_setup):
        _, flat, router = router_setup
        items = ((3, 5), (42, 3))
        flat_results = flat.run_batch("test", "topk", ALPHA, EPSILON,
                                      items)
        routed = router.run_batch("test", "topk", ALPHA, EPSILON, items)
        for one, other in zip(flat_results, routed):
            assert np.array_equal(one.nodes, other.nodes)
            assert np.array_equal(one.estimates, other.estimates)
            assert one.converged == other.converged

    def test_pair_bit_identical_across_groups(self, router_setup):
        manager, flat, router = router_setup
        shard_map = manager.shard_map("test")
        # pick sources owned by three different shards so the router
        # has to scatter the batch and reassemble it in order
        sources = [int(shard_map.local_nodes(shard)[0])
                   for shard in range(3)]
        items = tuple((source, (source + 7) % 200)
                      for source in sources) + ((sources[0], 11),)
        assert len({shard_map.shard_of[s] for s, _ in items}) == 3
        flat_results = flat.run_batch("test", "pair", ALPHA, EPSILON,
                                      items)
        stats: dict = {}
        routed = router.run_batch("test", "pair", ALPHA, EPSILON,
                                  items, stats=stats)
        for one, other in zip(flat_results, routed):
            assert float(one) == float(other)
            assert one.source == other.source
            assert one.target == other.target
        assert len(stats["per_shard"]) == 3

    def test_scatter_reports_per_shard_folds(self, router_setup):
        _, _, router = router_setup
        stats: dict = {}
        router.run_batch("test", "source", ALPHA, EPSILON, (1,),
                         stats=stats)
        shards = [entry["shard"] for entry in stats["per_shard"]]
        assert shards == [0, 1, 2]
        assert stats["fold_seconds"] >= max(
            0.0, *(entry["fold_seconds"]
                   for entry in stats["per_shard"]))


# ---------------------------------------------------------------------
@pytest.fixture(scope="module")
def sharded_service(graph):
    config = ServiceConfig(graph="test", alpha=ALPHA, epsilon=EPSILON,
                           budget_scale=0.05, seed=SEED, max_batch=8,
                           max_wait_ms=5.0, queue_capacity=64,
                           cache_entries=16, port=0,
                           executor="process", workers=1, shards=2)
    with PPRService(config, graph=graph) as svc:
        yield svc


class TestShardedService:
    def test_healthz_reports_shard_layout(self, graph, sharded_service):
        health = sharded_service.healthz()
        block = health["shards"]
        assert block["count"] == 2
        assert block["strategy"] == "hash"
        assert sum(entry["nodes"] for entry in block["per_shard"]) \
            == graph.num_nodes
        assert sum(entry["edges"] for entry in block["per_shard"]) \
            == graph.indices.size

    def test_answers_match_unsharded_solver(self, graph,
                                            sharded_service):
        # same config => same recommended bank size as the service
        fresh = IndexManager(PPRConfig(alpha=ALPHA, epsilon=EPSILON,
                                       seed=SEED, budget_scale=0.05))
        fresh.register_graph("test", graph)
        try:
            direct = fresh.get_solver("test", "source", alpha=ALPHA,
                                      epsilon=EPSILON)
            for node in (0, 5, 17):
                served, _ = sharded_service.query_result(
                    "source", node, use_cache=False)
                assert np.array_equal(served.estimates,
                                      direct.query(node).estimates)
        finally:
            fresh.close_shared()

    def test_shard_fold_histograms_exposed(self, sharded_service):
        sharded_service.query("source", 3)
        text = sharded_service.metrics_text()
        assert 'repro_service_shard_fold_seconds_bucket{shard="0"' \
            in text
        assert 'repro_service_shard_fold_seconds_bucket{shard="1"' \
            in text

    def test_forced_slow_shard_attributed_in_statusz(
            self, sharded_service, monkeypatch):
        """Acceptance: a forced-slow shard is flagged and attributed
        per-shard in ``/statusz``."""
        monkeypatch.delenv(SLOWDOWN_ENV, raising=False)
        for node in range(20, 28):  # honest warmup, no cache hits
            sharded_service.query("source", node)
        monkeypatch.setenv(SLOWDOWN_ENV, "1:0.75")
        sharded_service.query("source", 99)
        payload = sharded_service.statusz()
        detector = payload["stragglers"]
        rows = {row["shard"]: row for row in detector["per_shard"]}
        assert rows[1]["straggler_folds"] >= 1
        assert rows[0]["straggler_folds"] == 0
        assert rows[1]["last_z"] >= detector["z_threshold"]
        # the metrics-side attribution agrees with the detector
        shard_rows = {row["shard"]: row for row in payload["shards"]}
        assert shard_rows[1]["straggler_folds"] >= 1
        assert shard_rows[0]["straggler_folds"] == 0
        text = sharded_service.metrics_text()
        assert 'repro_service_straggler_folds_total{shard="1"}' in text
