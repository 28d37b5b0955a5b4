"""Alias-table correctness: exact encoded distribution + sampling."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError
from repro.graph import AliasTable, from_edges
from repro.graph.generators import erdos_renyi, with_random_weights


class TestEncodedDistribution:
    def test_unweighted_is_uniform(self, k5):
        table = AliasTable(k5)
        for node in range(5):
            assert np.allclose(table.expected_distribution(node), 0.25)

    def test_weighted_matches_edge_weights(self, weighted_small):
        table = AliasTable(weighted_small)
        for node in range(weighted_small.num_nodes):
            want = (weighted_small.edge_weights_of(node)
                    / weighted_small.degree(node))
            assert np.allclose(table.expected_distribution(node), want,
                               atol=1e-12)

    @given(weights=st.lists(st.floats(0.01, 100.0), min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_any_weight_vector_encoded_exactly(self, weights):
        # star graph: hub 0 with one weighted edge per leaf
        edges = [(0, i + 1) for i in range(len(weights))]
        graph = from_edges(edges, weights=weights)
        table = AliasTable(graph)
        want = np.asarray(weights) / np.sum(weights)
        assert np.allclose(table.expected_distribution(0), want, atol=1e-9)


class TestSampling:
    def test_empirical_frequencies(self, weighted_small, rng):
        table = AliasTable(weighted_small)
        node = 2
        draws = table.sample_neighbors(np.full(20000, node), rng=rng)
        want = dict(zip(weighted_small.neighbors(node).tolist(),
                        (weighted_small.edge_weights_of(node)
                         / weighted_small.degree(node)).tolist()))
        for neighbor, probability in want.items():
            frequency = np.mean(draws == neighbor)
            assert frequency == pytest.approx(probability, abs=0.02)

    def test_mixed_frontier(self, weighted_small, rng):
        table = AliasTable(weighted_small)
        nodes = np.array([0, 1, 2, 3, 4] * 100)
        neighbors = table.sample_neighbors(nodes, rng=rng)
        # every sample must be an actual neighbour of its start node
        for start, neighbor in zip(nodes, neighbors):
            assert neighbor in weighted_small.neighbors(start)

    def test_isolated_node_rejected(self, disconnected):
        table = AliasTable(disconnected)
        with pytest.raises(GraphError):
            table.sample_neighbors(np.array([5]), rng=0)

    def test_precomputed_uniforms_path(self, k5, rng):
        table = AliasTable(k5)
        nodes = np.zeros(100, dtype=np.int64)
        uniforms = (rng.random(100), rng.random(100))
        neighbors = table.sample_neighbors(nodes, uniforms=uniforms)
        assert np.all(np.isin(neighbors, k5.neighbors(0)))

    def test_cached_on_graph(self, k5):
        assert k5.alias_table is k5.alias_table


class TestRandomWeightedGraphs:
    def test_distribution_on_random_graph(self):
        graph = with_random_weights(erdos_renyi(15, 0.4, rng=1), rng=2)
        table = AliasTable(graph)
        for node in range(graph.num_nodes):
            if graph.out_degrees[node] == 0:
                continue
            want = graph.edge_weights_of(node) / graph.degree(node)
            assert np.allclose(table.expected_distribution(node), want,
                               atol=1e-9)


class TestLifetime:
    def test_graph_with_cached_table_freed_without_cyclic_collector(self):
        # the graph caches its table; a table that held the graph back
        # would make a cycle only the cyclic collector frees
        graph = with_random_weights(erdos_renyi(50, 0.1, rng=3), rng=3)
        table = weakref.ref(graph.alias_table)
        degrees = weakref.ref(graph.degrees)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del graph
            assert table() is None
            assert degrees() is None
        finally:
            if enabled:
                gc.enable()
