"""Unit tests for the CSR Graph class."""

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.graph import Graph, from_edges
from repro.graph.validation import check_graph_invariants


class TestConstruction:
    def test_basic_sizes(self, k5):
        assert k5.num_nodes == 5
        assert k5.num_edges == 10
        assert k5.num_arcs == 20
        assert len(k5) == 5

    def test_single_node_graph(self):
        graph = Graph(np.array([0, 0]), np.array([], dtype=np.int64))
        assert graph.num_nodes == 1
        assert graph.num_edges == 0

    def test_indptr_must_start_at_zero(self):
        with pytest.raises(GraphError):
            Graph(np.array([1, 2]), np.array([0], dtype=np.int64))

    def test_indptr_must_be_monotone(self):
        with pytest.raises(GraphError):
            Graph(np.array([0, 2, 1]), np.array([1, 0], dtype=np.int64))

    def test_indptr_tail_must_match_indices(self):
        with pytest.raises(GraphError):
            Graph(np.array([0, 3]), np.array([0], dtype=np.int64))

    def test_empty_vertex_set_rejected(self):
        with pytest.raises(GraphError):
            Graph(np.array([0]), np.array([], dtype=np.int64))

    def test_endpoint_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            Graph(np.array([0, 1]), np.array([5], dtype=np.int64))

    def test_negative_weights_rejected(self):
        with pytest.raises(GraphError):
            Graph(np.array([0, 1, 2]), np.array([1, 0], dtype=np.int64),
                  np.array([1.0, -1.0]))

    def test_zero_weights_rejected(self):
        with pytest.raises(GraphError):
            Graph(np.array([0, 1, 2]), np.array([1, 0], dtype=np.int64),
                  np.array([1.0, 0.0]))

    def test_weight_shape_mismatch_rejected(self):
        with pytest.raises(GraphError):
            Graph(np.array([0, 1, 2]), np.array([1, 0], dtype=np.int64),
                  np.array([1.0]))


class TestDegrees:
    def test_unweighted_degrees(self, star4):
        assert star4.degree(0) == 4.0
        assert star4.degree(1) == 1.0
        assert star4.total_weight == 8.0

    def test_weighted_degrees(self, weighted_triangle):
        # node 0: edges (0,1)=1 and (0,2)=3
        assert weighted_triangle.degree(0) == pytest.approx(4.0)
        assert weighted_triangle.degree(1) == pytest.approx(3.0)
        assert weighted_triangle.degree(2) == pytest.approx(5.0)

    def test_out_degrees_vs_degrees_unweighted(self, k5):
        assert np.array_equal(k5.out_degrees.astype(float), k5.degrees)

    def test_average_degree(self, k5):
        assert k5.average_degree == pytest.approx(4.0)

    def test_degree_out_of_range(self, k5):
        with pytest.raises(GraphError):
            k5.degree(5)

    def test_weighted_trailing_isolated_node(self):
        """Regression: weighted degrees with an isolated last node
        (reduceat used to index past the weights array)."""
        graph = from_edges([(0, 1)], num_nodes=3, weights=[2.5])
        assert graph.degrees.tolist() == [2.5, 2.5, 0.0]


class TestNeighbors:
    def test_neighbors_of_hub(self, star4):
        assert sorted(star4.neighbors(0).tolist()) == [1, 2, 3, 4]

    def test_neighbors_of_leaf(self, star4):
        assert star4.neighbors(1).tolist() == [0]

    def test_edge_weights_of_unweighted(self, k5):
        assert np.all(k5.edge_weights_of(0) == 1.0)

    def test_edge_weights_of_weighted(self, weighted_triangle):
        weights = dict(zip(weighted_triangle.neighbors(0).tolist(),
                           weighted_triangle.edge_weights_of(0).tolist()))
        assert weights == {1: 1.0, 2: 3.0}

    def test_has_edge(self, path4):
        assert path4.has_edge(0, 1)
        assert path4.has_edge(1, 0)
        assert not path4.has_edge(0, 3)

    def test_edges_shape(self, k5):
        arcs = k5.edges()
        assert arcs.shape == (20, 2)


class TestDerivedStructures:
    def test_transition_matrix_rows_sum_to_one(self, weighted_small):
        sums = np.asarray(weighted_small.transition_matrix.sum(axis=1)).ravel()
        assert np.allclose(sums, 1.0)

    def test_transition_matrix_isolated_row_zero(self, disconnected):
        sums = np.asarray(disconnected.transition_matrix.sum(axis=1)).ravel()
        assert sums[5] == 0.0

    def test_transition_transpose(self, weighted_small):
        direct = weighted_small.transition_matrix.toarray()
        transposed = weighted_small.transition_matrix_transpose.toarray()
        assert np.allclose(direct.T, transposed)

    def test_cumulative_weights_last_is_degree(self, weighted_small):
        cum = weighted_small.cumulative_weights
        for node in range(weighted_small.num_nodes):
            hi = weighted_small.indptr[node + 1]
            lo = weighted_small.indptr[node]
            if hi > lo:
                assert cum[hi - 1] == pytest.approx(
                    weighted_small.degree(node))

    def test_cumulative_weights_requires_weighted(self, k5):
        with pytest.raises(GraphError):
            _ = k5.cumulative_weights

    def test_adjacency_round_trip(self, weighted_triangle):
        dense = weighted_triangle.to_scipy_adjacency().toarray()
        assert dense[0, 1] == 1.0
        assert dense[1, 2] == 2.0
        assert dense[0, 2] == 3.0
        assert np.allclose(dense, dense.T)


class TestStructure:
    def test_connected_components(self, disconnected):
        labels = disconnected.connected_components
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4]
        assert labels[0] != labels[3]
        assert len({labels[0], labels[3], labels[5]}) == 3

    def test_is_connected(self, k5, disconnected):
        assert k5.is_connected
        assert not disconnected.is_connected

    def test_subgraph_relabels(self, k5):
        sub = k5.subgraph(np.array([1, 3, 4]))
        assert sub.num_nodes == 3
        assert sub.num_edges == 3  # triangle within K5

    def test_subgraph_empty_rejected(self, k5):
        with pytest.raises(GraphError):
            k5.subgraph(np.array([], dtype=np.int64))

    def test_subgraph_out_of_range(self, k5):
        with pytest.raises(GraphError):
            k5.subgraph(np.array([7]))

    def test_reverse_undirected_is_self(self, k5):
        assert k5.reverse() is k5

    def test_reverse_directed(self, directed_line):
        reverse = directed_line.reverse()
        assert reverse.has_edge(1, 0)
        assert reverse.has_edge(2, 1)
        assert not reverse.has_edge(0, 1)

    def test_double_reverse_restores(self, directed_line):
        twice = directed_line.reverse().reverse()
        assert twice == directed_line

    def test_reverse_directed_is_cached(self, directed_line):
        assert directed_line.reverse() is directed_line.reverse()

    def test_arc_rows(self, directed_line, k5):
        for graph in (directed_line, k5):
            assert np.array_equal(graph.arc_rows, graph.edges()[:, 0])

    def test_in_arc_degrees(self, directed_line):
        # in-arcs 0 -> 1 and 1 -> 2: receivers 0 and 1, each degree 1
        reverse = directed_line.reverse()
        assert np.array_equal(reverse.indices, [0, 1])
        assert np.array_equal(directed_line.in_arc_degrees, [1.0, 1.0])


class TestDunder:
    def test_equality(self, k5):
        from repro.graph import complete_graph
        assert k5 == complete_graph(5)
        assert k5 != complete_graph(4)

    def test_equality_weight_sensitivity(self, weighted_triangle):
        other = from_edges([(0, 1), (1, 2), (0, 2)],
                           weights=[1.0, 2.0, 4.0])
        assert weighted_triangle != other

    def test_repr_mentions_sizes(self, weighted_triangle):
        text = repr(weighted_triangle)
        assert "n=3" in text and "weighted" in text

    def test_invariants_hold_for_fixtures(self, k5, weighted_small,
                                          disconnected, grid3x3):
        for graph in (k5, weighted_small, disconnected, grid3x3):
            check_graph_invariants(graph)


class TestPersistence:
    def test_round_trip_unweighted(self, k5, tmp_path):
        path = tmp_path / "k5.npz"
        k5.save(path)
        assert Graph.load(path) == k5

    def test_round_trip_weighted_directed(self, tmp_path):
        graph = from_edges([(0, 1), (2, 1)], weights=[0.5, 2.0],
                           directed=True)
        path = tmp_path / "wd.npz"
        graph.save(path)
        loaded = Graph.load(path)
        assert loaded == graph
        assert loaded.directed

    def test_dataset_disk_cache(self, tmp_path):
        from repro.graph.datasets import clear_dataset_cache, load_dataset
        clear_dataset_cache()
        first = load_dataset("youtube", scale=0.05,
                             cache_dir=str(tmp_path))
        files = list(tmp_path.glob("*.npz"))
        assert len(files) == 1
        clear_dataset_cache()
        second = load_dataset("youtube", scale=0.05,
                              cache_dir=str(tmp_path))
        assert first == second
