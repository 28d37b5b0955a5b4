"""Edge cases for the whole-bank fold operators and their array-bank
(de)hydration (:class:`repro.montecarlo.forest_index._BankOperators`).

The serving tier rebuilds these operators over memmap / shared-memory
arrays, so degenerate banks — degree-0 singleton trees, a bank of one
forest, an all-singleton forest — must fold identically on both the
freshly-built and the rehydrated path.
"""

import json

import numpy as np
import pytest

import repro
from repro.core.config import PPRConfig
from repro.exceptions import ConfigError
from repro.graph import from_edges
from repro.graph.generators import erdos_renyi
from repro.montecarlo.forest_index import (
    _BANK_ARRAYS,
    _OPERATOR_NAMES,
    ForestIndex,
    _BankOperators,
    degree_checksum,
)
from tests.bank_operators_oracle import (
    PerForestIndex,
    coo_bank_operators,
    root_operators,
    serial_bank_forests,
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


def _directed_sink_graph():
    # node 5 has no out-arcs (a sink), node 6 no arcs at all
    return from_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5),
                       (1, 5), (3, 1)], directed=True, num_nodes=7)


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
        oracle = PerForestIndex(graph, 0.25,
                                serial_bank_forests(graph, 0.25, 1, 7))
        for improved in (True, False):
            assert np.allclose(
                index.estimate_source_many(residuals5, improved=improved),
                oracle.estimate_source_many(residuals5, improved=improved))

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
        for name in _OPERATOR_NAMES:
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
        # spread_target is folded over spread_source's pattern
        assert rebuilt.spread_target.indices is \
            arrays["spread_source_indices"]
        assert rebuilt.spread_target.indptr is arrays["spread_source_indptr"]

    def test_whole_space_bank_holds_each_array_once(self):
        graph = erdos_renyi(12, 0.3, rng=21)
        arrays, _ = ForestIndex.build(graph, 0.15, 5, rng=21).bank_arrays()
        assert sorted(arrays) == sorted(_BANK_ARRAYS)
        assert len(arrays) == 10
        contents = [array.tobytes() for array in arrays.values()]
        assert len(set(contents)) == len(contents)

    def test_attached_index_is_the_saved_index(self, tmp_path):
        graph = erdos_renyi(6, 0.5, rng=4)
        index = ForestIndex.build(graph, 0.2, 2, rng=4)
        index.save_bank(tmp_path / "bank")
        attached = ForestIndex.load_bank(tmp_path / "bank", graph)
        assert type(attached) is type(index)
        assert not hasattr(attached, "forests")
        assert attached.num_forests == 2
        assert attached.build_steps == index.build_steps
        assert attached.build_counters == index.build_counters
        assert attached.size_bytes == index.size_bytes


class TestGraphValidation:
    """Same node count, different edges → checksum must refuse."""

    def test_degree_checksum_distinguishes_same_size_graphs(self):
        a = erdos_renyi(10, 0.4, rng=1)
        b = erdos_renyi(10, 0.4, rng=2)
        assert degree_checksum(a) != degree_checksum(b)
        assert degree_checksum(a) == degree_checksum(a)

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

    def test_missing_member_is_named(self, tmp_path):
        graph = erdos_renyi(10, 0.4, rng=1)
        bank = tmp_path / "bank"
        ForestIndex.build(graph, 0.2, 3, rng=0).save_bank(bank)
        manifest = json.loads((bank / "manifest.json").read_text())
        del manifest["arrays"]["spread_target_data"]
        (bank / "manifest.json").write_text(json.dumps(manifest))
        (bank / "spread_target_data.npy").unlink()
        with pytest.raises(ConfigError,
                           match="missing array.*spread_target_data"):
            ForestIndex.load_bank(bank, graph)


class TestCOOOracle:
    """The direct CSR build against the COO-built oracle
    (``tests/bank_operators_oracle.py``): every operator's ``indptr``,
    ``indices`` and ``data`` byte-equal, dtypes and shapes included,
    and so for every layout derived from them."""

    @staticmethod
    def _bank(kind):
        """A ``workers=1`` index and the forests it folded."""
        from repro.graph.generators import with_random_weights

        undirected = erdos_renyi(80, 0.06, rng=21)
        mode = "improved"
        if kind == "weighted":
            graph = with_random_weights(
                erdos_renyi(60, 0.08, rng=22), low=0.5, high=4.0,
                integer=False, rng=23)
            alpha, count, seed = 0.05, 5, 2
        elif kind == "directed_sink":
            graph = _directed_sink_graph()
            alpha, count, seed = 0.2, 8, 3
        elif kind == "one_forest":
            graph, alpha, count, seed = undirected, 0.3, 1, 4
        else:
            graph, alpha, count, seed = undirected, 0.1, 6, 1
            mode = kind
        return (ForestIndex.build(graph, alpha, count, rng=seed,
                                  variance_mode=mode),
                serial_bank_forests(graph, alpha, count, seed, mode))

    @staticmethod
    def _assert_byte_equal(left, right):
        left_arrays, right_arrays = left.to_arrays(), right.to_arrays()
        assert left_arrays.keys() == right_arrays.keys()
        for name, array in left_arrays.items():
            other = right_arrays[name]
            assert array.dtype == other.dtype, name
            assert array.shape == other.shape, name
            assert array.tobytes() == other.tobytes(), name
        for name in _OPERATOR_NAMES:
            assert getattr(left, name).shape == getattr(right, name).shape
        # one pattern: spread_target's is spread_source's on both sides
        for ops in (left, right):
            assert ops.spread_target.indptr.tobytes() == \
                ops.spread_source.indptr.tobytes()
            assert ops.spread_target.indices.tobytes() == \
                ops.spread_source.indices.tobytes()
        assert left.num_forests == right.num_forests
        assert np.array_equal(left.degree_zero_nodes,
                              right.degree_zero_nodes)

    @pytest.mark.parametrize("kind", ["improved", "stratified", "weighted",
                                      "directed_sink", "one_forest"])
    def test_build_and_derived_layouts_match(self, kind):
        index, forests = self._bank(kind)
        degrees = index.graph.degrees
        built = _BankOperators(forests, degrees)
        # the index folds exactly the operators of its serial draw
        self._assert_byte_equal(index._operators, built)
        oracle = coo_bank_operators(forests, degrees)
        self._assert_byte_equal(built, oracle)
        for owned in (np.arange(0, index.graph.num_nodes, 2),
                      np.arange(3), np.empty(0, dtype=np.int64)):
            self._assert_byte_equal(
                _BankOperators.restricted(built, owned),
                _BankOperators.restricted(oracle, owned))


class TestSavedBankAnswersIndexedMethods:
    """A bank that went through ``save_bank`` / ``load_bank`` answers
    every indexed method, matching the mean of its forests' own
    estimates (:class:`tests.bank_operators_oracle.PerForestIndex`) —
    improved estimates, or basic ones on the directed graph."""

    ALPHA = 0.2
    FORESTS = 12
    SEED = 5

    @pytest.fixture(params=["undirected", "directed", "degree_zero"])
    def graph(self, request):
        if request.param == "undirected":
            return erdos_renyi(40, 0.12, rng=31)
        if request.param == "directed":
            return _directed_sink_graph()
        # triangle + edge + isolated node 5
        return from_edges([(0, 1), (1, 2), (0, 2), (3, 4)], num_nodes=6)

    def _banks(self, graph, tmp_path):
        ForestIndex.build(graph, self.ALPHA, self.FORESTS,
                          rng=self.SEED).save_bank(tmp_path / "bank")
        loaded = ForestIndex.load_bank(tmp_path / "bank", graph)
        oracle = PerForestIndex(graph, self.ALPHA, serial_bank_forests(
            graph, self.ALPHA, self.FORESTS, self.SEED))
        return loaded, oracle

    @pytest.mark.parametrize("method", ["speedlv+", "foralv+", "backlv+"])
    def test_matches_the_per_forest_mean(self, graph, tmp_path, method):
        loaded, oracle = self._banks(graph, tmp_path)
        config = PPRConfig(alpha=self.ALPHA, epsilon=0.5, seed=3)
        query = (repro.single_target if method == "backlv+"
                 else repro.single_source)
        for node in range(graph.num_nodes):
            got = query(graph, node, method=method, config=config,
                        index=loaded)
            want = query(graph, node, method=method, config=config,
                         index=oracle)
            np.testing.assert_allclose(got.estimates, want.estimates,
                                       rtol=1e-12, atol=0)
            assert got.estimates.sum() == pytest.approx(
                want.estimates.sum(), rel=1e-12)

    @pytest.mark.parametrize("method", ["speedlv+", "foralv+", "backlv+"])
    def test_shard_restriction_refused(self, graph, tmp_path, method):
        loaded, _ = self._banks(graph, tmp_path)
        shard = loaded.restrict(np.arange(3), shard_index=0, shard_count=2)
        query = (repro.single_target if method == "backlv+"
                 else repro.single_source)
        with pytest.raises(ConfigError, match="shard"):
            query(graph, 0, method=method, alpha=self.ALPHA, index=shard)


class TestFootprint:
    def test_size_bytes_is_the_fig6_footprint(self):
        """Roots plus tree degree masses of every forest — the figure
        the build reported while it still held its forests."""
        graph = erdos_renyi(30, 0.15, rng=8)
        index = ForestIndex.build(graph, 0.15, 7, rng=8)
        forests = serial_bank_forests(graph, 0.15, 7, 8)
        assert index.size_bytes == sum(
            forest.roots.nbytes
            + forest.component_degree_mass(graph.degrees).nbytes
            for forest in forests)
        assert index.resident_bytes == sum(
            {id(array): array.nbytes
             for array in index._operators.to_arrays().values()}.values())


class TestBasicFolds:
    """The basic folds read Q's pattern and the segment roots; the root
    operators bank formats v1–v3 stored for them
    (:func:`tests.bank_operators_oracle.root_operators`) are the
    reference: the source fold byte for byte, the target fold (which
    now sums each node's roots in forest order instead of by distinct
    root) within rounding."""

    @pytest.fixture(params=["directed", "undirected"])
    def bank(self, request):
        if request.param == "directed":
            graph, alpha, count, seed = _directed_sink_graph(), 0.2, 8, 3
        else:
            graph, alpha, count, seed = erdos_renyi(80, 0.06, rng=21), \
                0.1, 6, 1
        index = ForestIndex.build(graph, alpha, count, rng=seed)
        forests = serial_bank_forests(graph, alpha, count, seed)
        residuals = np.random.default_rng(4).random((5, graph.num_nodes))
        return index, forests, residuals

    def test_source_is_the_root_operator_fold(self, bank):
        index, forests, residuals = bank
        n = index.graph.num_nodes
        scatter_root, _ = root_operators(forests, n)
        tree_sums = index._operators.tree_sum @ residuals.T
        want = (scatter_root @ tree_sums) / len(forests)
        got = index.estimate_source_many(residuals, improved=False)
        assert got.tobytes() == np.ascontiguousarray(want.T).tobytes()
        owned = np.arange(0, n, 2)
        shard = index.restrict(owned)
        got = shard.estimate_source_many(residuals, improved=False)
        assert got.tobytes() == \
            np.ascontiguousarray(want[owned].T).tobytes()

    def test_target_is_the_root_operator_fold(self, bank):
        index, forests, residuals = bank
        n = index.graph.num_nodes
        _, gather_root = root_operators(forests, n)
        want = (gather_root @ residuals.T).T / len(forests)
        got = index.estimate_target_many(residuals, improved=False)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
        owned = np.arange(1, n, 3)
        shard = index.restrict(owned)
        np.testing.assert_allclose(
            shard.estimate_target_many(residuals, improved=False),
            want[:, owned], rtol=1e-14, atol=0)

    def test_pair_is_the_target_fold_entry(self, bank):
        index, _, residuals = bank
        n = index.graph.num_nodes
        entries = np.arange(residuals.shape[0]) * 3 % n
        full = index.estimate_target_many(residuals, improved=False)
        got = index.estimate_target_entries(residuals, entries,
                                            improved=False)
        rows = np.arange(entries.size)
        assert got.tobytes() == full[rows, entries].tobytes()
        shard = index.restrict(np.unique(entries))
        assert shard.estimate_target_entries(
            residuals, entries, improved=False).tobytes() == got.tobytes()


class TestImprovedNeedsUndirected:
    """The improved estimators are biased on a directed graph, and the
    operator fold pins in-tree sinks differently from the per-forest
    estimators, so a directed index refuses to fold them."""

    @pytest.mark.parametrize("fold", ["source", "target", "entries"])
    def test_directed_index_refuses_improved(self, fold):
        graph = _directed_sink_graph()
        index = ForestIndex.build(graph, 0.2, 4, rng=3)
        residuals = np.random.default_rng(0).random((2, 7))
        call = {
            "source": lambda improved: index.estimate_source_many(
                residuals, improved=improved),
            "target": lambda improved: index.estimate_target_many(
                residuals, improved=improved),
            "entries": lambda improved: index.estimate_target_entries(
                residuals, np.array([5, 0]), improved=improved),
        }[fold]
        with pytest.raises(ConfigError, match="undirected"):
            call(True)
        assert np.isfinite(call(False)).all()
