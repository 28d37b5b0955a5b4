"""Edge cases for the whole-bank fold operators and their array-bank
(de)hydration (:class:`repro.montecarlo.forest_index._BankOperators`).

The serving tier rebuilds these operators over memmap / shared-memory
arrays, so degenerate banks — degree-0 singleton trees, a bank of one
forest, an all-singleton forest — must fold identically on both the
freshly-built and the rehydrated path.
"""

import numpy as np
import pytest

from repro.exceptions import ConfigError
from repro.graph import from_edges
from repro.graph.generators import erdos_renyi
from repro.montecarlo.forest_index import (
    ForestIndex,
    _BankOperators,
    degree_checksum,
)


def _rehydrate(index):
    """Round-trip an index through its array-bank representation."""
    arrays, meta = index.bank_arrays()
    return ForestIndex.attach_bank(arrays, meta, index.graph)


def _assert_same_estimates(index, attached, residuals):
    for improved in (True, False):
        assert np.array_equal(
            index.estimate_source_many(residuals, improved=improved),
            attached.estimate_source_many(residuals, improved=improved))
        assert np.array_equal(
            index.estimate_target_many(residuals, improved=improved),
            attached.estimate_target_many(residuals, improved=improved))


@pytest.fixture
def residuals5():
    rng = np.random.default_rng(5)
    return rng.random((3, 5))


class TestDegreeZeroSingletons:
    """Isolated nodes form zero-degree-mass singleton trees."""

    @pytest.fixture
    def graph(self):
        # triangle + edge + isolated node 5 (degree 0)
        return from_edges([(0, 1), (1, 2), (0, 2), (3, 4)], num_nodes=6)

    def test_operators_guard_zero_mass_trees(self, graph):
        index = ForestIndex.build(graph, 0.3, 4, rng=9)
        ops = index._operators
        assert np.array_equal(ops.degree_zero, [5])
        # the zero-mass guard must keep every weight finite
        assert np.isfinite(ops.spread_source.data).all()
        assert np.isfinite(ops.spread_target.data).all()
        assert (ops.segment_degree > 0).all()

    def test_isolated_node_keeps_its_own_residual(self, graph):
        index = ForestIndex.build(graph, 0.3, 4, rng=9)
        residuals = np.zeros((2, 6))
        residuals[0, 5] = 0.7
        residuals[1, 0] = 0.4
        source = index.estimate_source_many(residuals)
        target = index.estimate_target_many(residuals)
        # an isolated node's PPR is a point mass on itself
        assert source[0, 5] == 0.7 and target[0, 5] == 0.7
        assert source[1, 5] == 0.0 and target[1, 5] == 0.0

    def test_rehydrated_bank_matches(self, graph):
        index = ForestIndex.build(graph, 0.3, 4, rng=9)
        rng = np.random.default_rng(1)
        _assert_same_estimates(index, _rehydrate(index),
                               rng.random((4, 6)))


class TestSingleForestBank:
    def test_fold_equals_the_one_forest_estimator(self, residuals5):
        graph = erdos_renyi(5, 0.7, rng=3)
        index = ForestIndex.build(graph, 0.25, 1, rng=7)
        assert index.num_forests == 1
        for improved in (True, False):
            batched = index.estimate_source_many(residuals5,
                                                 improved=improved)
            for row, residual in zip(batched, residuals5):
                assert np.allclose(row, index.estimate_source(
                    residual, improved=improved))

    def test_rehydrated_bank_matches(self, residuals5):
        graph = erdos_renyi(5, 0.7, rng=3)
        index = ForestIndex.build(graph, 0.25, 1, rng=7)
        _assert_same_estimates(index, _rehydrate(index), residuals5)


class TestAllSingletonForest:
    """An edgeless graph: every forest is n singleton trees."""

    @pytest.fixture
    def graph(self):
        return from_edges([], num_nodes=4)

    def test_estimates_are_the_residual_itself(self, graph):
        index = ForestIndex.build(graph, 0.5, 3, rng=2)
        residuals = np.random.default_rng(0).random((2, 4))
        # improved estimators pin degree-0 nodes exactly; the basic
        # fold computes (F·x)/F, which can round in the last ulp
        assert np.array_equal(
            index.estimate_source_many(residuals), residuals)
        assert np.array_equal(
            index.estimate_target_many(residuals), residuals)
        for improved in (True, False):
            assert np.allclose(
                index.estimate_source_many(residuals, improved=improved),
                residuals, rtol=1e-15)
            assert np.allclose(
                index.estimate_target_many(residuals, improved=improved),
                residuals, rtol=1e-15)

    def test_segment_space_is_maximal(self, graph):
        index = ForestIndex.build(graph, 0.5, 3, rng=2)
        ops = index._operators
        # every node is its own root in every forest
        assert ops.segment_root.size == 3 * 4
        assert np.array_equal(ops.degree_zero, np.arange(4))

    def test_rehydrated_bank_matches(self, graph):
        index = ForestIndex.build(graph, 0.5, 3, rng=2)
        _assert_same_estimates(index, _rehydrate(index),
                               np.random.default_rng(8).random((3, 4)))


class TestArrayRoundTrip:
    def test_to_from_arrays_is_byte_identical(self):
        graph = erdos_renyi(12, 0.3, rng=21)
        index = ForestIndex.build(graph, 0.15, 5, rng=21)
        ops = index._operators
        rebuilt = _BankOperators.from_arrays(
            ops.to_arrays(), num_nodes=12, num_forests=5)
        for name in ("tree_sum", "spread_source", "scatter_root",
                     "spread_target", "gather_root"):
            original, copy = getattr(ops, name), getattr(rebuilt, name)
            assert original.shape == copy.shape
            assert np.array_equal(original.indptr, copy.indptr)
            assert np.array_equal(original.indices, copy.indices)
            assert np.array_equal(original.data, copy.data)

    def test_from_arrays_does_not_copy(self):
        graph = erdos_renyi(6, 0.5, rng=4)
        index = ForestIndex.build(graph, 0.2, 2, rng=4)
        arrays = index._operators.to_arrays()
        rebuilt = _BankOperators.from_arrays(arrays, num_nodes=6,
                                             num_forests=2)
        assert rebuilt.tree_sum.data is arrays["tree_sum_data"]
        assert rebuilt.segment_root is not None
        assert np.shares_memory(rebuilt.gather_root.indices,
                                arrays["gather_root_indices"])

    def test_attached_index_refuses_forest_apis(self, tmp_path):
        graph = erdos_renyi(6, 0.5, rng=4)
        index = ForestIndex.build(graph, 0.2, 2, rng=4)
        index.save_bank(tmp_path / "bank")
        attached = ForestIndex.load_bank(tmp_path / "bank", graph)
        assert attached.num_forests == 2
        assert attached.build_steps == index.build_steps
        assert attached.size_bytes > 0
        with pytest.raises(ConfigError, match="operator-only"):
            attached.estimate_source(np.zeros(6))
        with pytest.raises(ConfigError, match="operator-only"):
            attached.save(tmp_path / "again.npz")


class TestGraphValidation:
    """Same node count, different edges → checksum must refuse."""

    def test_degree_checksum_distinguishes_same_size_graphs(self):
        a = erdos_renyi(10, 0.4, rng=1)
        b = erdos_renyi(10, 0.4, rng=2)
        assert degree_checksum(a) != degree_checksum(b)
        assert degree_checksum(a) == degree_checksum(a)

    def test_npz_roundtrip_mismatch(self, tmp_path):
        a = erdos_renyi(10, 0.4, rng=1)
        b = erdos_renyi(10, 0.4, rng=2)
        index = ForestIndex.build(a, 0.2, 3, rng=0)
        index.save(tmp_path / "index.npz")
        with pytest.raises(ConfigError, match="degree checksum"):
            ForestIndex.load(tmp_path / "index.npz", b)
        loaded = ForestIndex.load(tmp_path / "index.npz", a)
        assert loaded.num_forests == 3

    def test_bank_roundtrip_mismatch(self, tmp_path):
        a = erdos_renyi(10, 0.4, rng=1)
        b = erdos_renyi(10, 0.4, rng=2)
        ForestIndex.build(a, 0.2, 3, rng=0).save_bank(tmp_path / "bank")
        with pytest.raises(ConfigError, match="degree checksum"):
            ForestIndex.load_bank(tmp_path / "bank", b)
        with pytest.raises(ConfigError, match="nodes"):
            ForestIndex.load_bank(tmp_path / "bank",
                                  erdos_renyi(11, 0.4, rng=1))

    def test_bank_kind_validated(self, tmp_path):
        from repro.parallel.shared_bank import save_array_bank

        graph = erdos_renyi(10, 0.4, rng=1)
        save_array_bank(tmp_path / "bank", {"x": np.zeros(3)},
                        {"kind": "something-else"})
        with pytest.raises(ConfigError, match="not a forest index"):
            ForestIndex.load_bank(tmp_path / "bank", graph)


class TestCOOOracle:
    """The direct CSR build against the COO-built oracle
    (``tests/bank_operators_oracle.py``): every operator's ``indptr``,
    ``indices`` and ``data`` byte-equal, dtypes and shapes included,
    and so for every layout derived from them."""

    @staticmethod
    def _bank(kind):
        from repro.graph.generators import with_random_weights

        undirected = erdos_renyi(80, 0.06, rng=21)
        if kind == "weighted":
            weighted = with_random_weights(
                erdos_renyi(60, 0.08, rng=22), low=0.5, high=4.0,
                integer=False, rng=23)
            return ForestIndex.build(weighted, 0.05, 5, rng=2)
        if kind == "directed_sink":
            # node 5 has no out-arcs (a sink), node 6 no arcs at all
            directed = from_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4),
                                   (4, 5), (1, 5), (3, 1)],
                                  directed=True, num_nodes=7)
            return ForestIndex.build(directed, 0.2, 8, rng=3)
        if kind == "one_forest":
            return ForestIndex.build(undirected, 0.3, 1, rng=4)
        return ForestIndex.build(undirected, 0.1, 6, rng=1,
                                 variance_mode=kind)

    @staticmethod
    def _assert_byte_equal(left, right):
        left_arrays, right_arrays = left.to_arrays(), right.to_arrays()
        assert left_arrays.keys() == right_arrays.keys()
        for name, array in left_arrays.items():
            other = right_arrays[name]
            assert array.dtype == other.dtype, name
            assert array.shape == other.shape, name
            assert array.tobytes() == other.tobytes(), name
        for name in ("tree_sum", "spread_source", "scatter_root",
                     "spread_target", "gather_root"):
            assert getattr(left, name).shape == getattr(right, name).shape
        assert left.num_forests == right.num_forests
        assert np.array_equal(left.degree_zero_nodes,
                              right.degree_zero_nodes)

    @pytest.mark.parametrize("kind", ["improved", "stratified", "weighted",
                                      "directed_sink", "one_forest"])
    def test_build_and_derived_layouts_match(self, kind):
        from tests.bank_operators_oracle import coo_bank_operators

        index = self._bank(kind)
        degrees = index.graph.degrees
        built = _BankOperators(index.forests, degrees)
        oracle = coo_bank_operators(index.forests, degrees)
        self._assert_byte_equal(built, oracle)
        for owned in (np.arange(0, index.graph.num_nodes, 2),
                      np.arange(3), np.empty(0, dtype=np.int64)):
            self._assert_byte_equal(
                _BankOperators.restricted(built, owned),
                _BankOperators.restricted(oracle, owned))
