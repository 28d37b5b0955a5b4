"""WalkIndex / ForestIndex tests (§5.3)."""

import numpy as np
import pytest

from repro.exceptions import ConfigError
from repro.linalg import exact_ppr_matrix
from repro.montecarlo import ForestIndex, WalkIndex
from repro.graph.generators import erdos_renyi
from tests.bank_operators_oracle import serial_bank_forests


@pytest.fixture
def graph10():
    return erdos_renyi(10, 0.5, rng=44)


class TestWalkIndexBuild:
    def test_counts_respected(self, graph10):
        counts = np.arange(10, dtype=np.int64)
        index = WalkIndex.build(graph10, 0.2, counts, rng=0)
        assert index.num_walks == counts.sum()
        for node in range(10):
            assert index.walks_of(node).size == counts[node]

    def test_fora_plus_sizing(self, graph10):
        index = WalkIndex.build_fora_plus(graph10, 0.2, epsilon=0.5, rng=0)
        want = np.ceil(graph10.degrees / 0.5)
        assert index.num_walks == int(want.sum())

    def test_speedppr_plus_sizing(self, graph10):
        index = WalkIndex.build_speedppr_plus(graph10, 0.2, rng=0)
        assert index.num_walks == int(np.ceil(graph10.degrees).sum())

    def test_cap(self, graph10):
        index = WalkIndex.build_fora_plus(graph10, 0.2, epsilon=0.01, rng=0,
                                          cap=3)
        assert index.num_walks <= 30

    def test_build_metadata(self, graph10):
        index = WalkIndex.build_speedppr_plus(graph10, 0.2, rng=0)
        assert index.build_seconds > 0
        assert index.build_steps > 0
        assert index.size_bytes > 0

    def test_count_validation(self, graph10):
        with pytest.raises(ConfigError):
            WalkIndex.build(graph10, 0.2, np.array([1, 2]))
        with pytest.raises(ConfigError):
            WalkIndex.build(graph10, 0.2, -np.ones(10, dtype=np.int64))


class TestWalkIndexEstimate:
    def test_unbiased_against_exact(self, graph10):
        """Index estimate of sum_u r(u) pi(u, .) averaged over builds."""
        alpha = 0.25
        exact = exact_ppr_matrix(graph10, alpha)
        rng = np.random.default_rng(3)
        residual = rng.random(10) / 10
        want = residual @ exact
        total = np.zeros(10)
        trials = 300
        for seed in range(trials):
            index = WalkIndex.build(graph10, alpha,
                                    np.full(10, 20, dtype=np.int64),
                                    rng=seed)
            total += index.estimate_from_residual(residual, scale=1000.0)
        assert np.abs(total / trials - want).max() < 0.02

    def test_zero_residual(self, graph10):
        index = WalkIndex.build_speedppr_plus(graph10, 0.2, rng=0)
        estimate = index.estimate_from_residual(np.zeros(10), 100.0)
        assert np.all(estimate == 0.0)

    def test_estimate_mass_conserved(self, graph10):
        """Every consumed endpoint carries weight r(u)/count, so the
        estimate's total equals the residual mass exactly."""
        index = WalkIndex.build_speedppr_plus(graph10, 0.2, rng=0)
        residual = np.linspace(0, 0.5, 10)
        estimate = index.estimate_from_residual(residual, 50.0)
        assert estimate.sum() == pytest.approx(residual.sum())

    def test_validation(self, graph10):
        index = WalkIndex.build_speedppr_plus(graph10, 0.2, rng=0)
        with pytest.raises(ConfigError):
            index.estimate_from_residual(np.zeros(4), 10.0)
        with pytest.raises(ConfigError):
            index.estimate_from_residual(np.zeros(10), 0.0)


class TestForestIndex:
    def test_build(self, graph10):
        index = ForestIndex.build(graph10, 0.2, 5, rng=0)
        assert index.num_forests == 5
        assert index.build_seconds > 0
        assert index.build_steps > 0
        assert index.size_bytes > 0

    def test_recommended_size(self, graph10):
        base = ForestIndex.recommended_size(graph10)
        assert base >= 1
        assert ForestIndex.recommended_size(graph10, epsilon=0.1) >= base

    def test_estimate_matches_manual_average(self, graph10):
        alpha = 0.2
        index = ForestIndex.build(graph10, alpha, 4, rng=7)
        rng = np.random.default_rng(1)
        residual = rng.random(10)
        from repro.forests.estimators import source_estimate_improved
        manual = np.mean([
            source_estimate_improved(forest, residual, graph10.degrees)
            for forest in serial_bank_forests(graph10, alpha, 4, 7)],
            axis=0)
        assert np.allclose(index.estimate_source_many(residual)[0], manual)

    def test_estimate_unbiased(self, graph10):
        alpha = 0.25
        exact = exact_ppr_matrix(graph10, alpha)
        rng = np.random.default_rng(5)
        residual = rng.random(10) / 10
        want_source = residual @ exact
        want_target = exact @ residual
        index = ForestIndex.build(graph10, alpha, 3000, rng=11)
        assert np.abs(index.estimate_source_many(residual)[0]
                      - want_source).max() < 0.02
        assert np.abs(index.estimate_target_many(residual)[0]
                      - want_target).max() < 0.02

    def test_basic_vs_improved_switch(self, graph10):
        index = ForestIndex.build(graph10, 0.2, 5, rng=3)
        residual = np.ones(10) / 10
        basic = index.estimate_source_many(residual, improved=False)[0]
        improved = index.estimate_source_many(residual, improved=True)[0]
        assert not np.allclose(basic, improved)
        # both conserve residual mass
        assert basic.sum() == pytest.approx(1.0)
        assert improved.sum() == pytest.approx(1.0)

    def test_build_validation(self, graph10):
        with pytest.raises(ConfigError):
            ForestIndex.build(graph10, 0.2, 0)

    def test_holds_only_its_fold_operators(self, graph10):
        index = ForestIndex.build(graph10, 0.2, 5, rng=3)
        assert not hasattr(index, "forests")
        assert index.resident_bytes == sum(
            {id(array): array.nbytes
             for array in index._operators.to_arrays().values()}.values())

    def test_worker_counts_draw_two_banks(self):
        """``workers=1`` draws one serial stream; every other worker
        count goes through the chunked engine and draws the same bank,
        which is not the serial one."""
        graph = erdos_renyi(120, 0.05, rng=7)

        def bank_bytes(workers):
            arrays, _ = ForestIndex.build(graph, 0.1, 16, rng=7,
                                          workers=workers).bank_arrays()
            return {name: array.tobytes() for name, array in arrays.items()}

        serial, two, three = bank_bytes(1), bank_bytes(2), bank_bytes(3)
        assert two == three
        assert serial != two


class TestPersistence:
    def test_walk_index_round_trip(self, graph10, tmp_path):
        index = WalkIndex.build_speedppr_plus(graph10, 0.2, rng=0)
        path = tmp_path / "walks.npz"
        index.save(path)
        loaded = WalkIndex.load(path, graph10)
        assert loaded.alpha == index.alpha
        assert np.array_equal(loaded.endpoints, index.endpoints)
        assert np.array_equal(loaded.offsets, index.offsets)
        residual = np.linspace(0, 0.5, 10)
        assert np.allclose(loaded.estimate_from_residual(residual, 50.0),
                           index.estimate_from_residual(residual, 50.0))

    def test_forest_index_round_trip(self, graph10, tmp_path):
        index = ForestIndex.build(graph10, 0.2, 6, rng=1)
        path = tmp_path / "bank"
        index.save_bank(path)
        loaded = ForestIndex.load_bank(path, graph10)
        assert loaded.num_forests == 6
        assert loaded.alpha == index.alpha
        residual = np.linspace(0, 0.5, 10)
        for improved in (True, False):
            assert np.array_equal(
                loaded.estimate_source_many(residual, improved=improved),
                index.estimate_source_many(residual, improved=improved))
            assert np.array_equal(
                loaded.estimate_target_many(residual, improved=improved),
                index.estimate_target_many(residual, improved=improved))

    def test_wrong_graph_rejected(self, graph10, tmp_path):
        from repro.graph.generators import complete_graph
        index = ForestIndex.build(graph10, 0.2, 3, rng=2)
        path = tmp_path / "bank"
        index.save_bank(path)
        with pytest.raises(ConfigError):
            ForestIndex.load_bank(path, complete_graph(4))
        walk_index = WalkIndex.build_speedppr_plus(graph10, 0.2, rng=3)
        walk_path = tmp_path / "walks.npz"
        walk_index.save(walk_path)
        with pytest.raises(ConfigError):
            WalkIndex.load(walk_path, complete_graph(4))
