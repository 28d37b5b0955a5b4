"""Edge-case and branch-coverage tests across the stack."""

import numpy as np
import pytest

from repro.core import PPRConfig, l1_error
from repro.core.single_source import fora, speedlv
from repro.exceptions import ConfigError, ConvergenceError, ReproError
from repro.forests.sampling import (
    AUTO_SAMPLER_ALPHA_THRESHOLD,
    sample_forest,
    sample_forests,
)
from repro.graph import from_edges
from repro.graph.generators import erdos_renyi, path_graph, star_graph
from repro.linalg import exact_single_source
from repro.montecarlo import WalkIndex
from repro.parallel.engine import sample_forests_parallel


class TestExceptionHierarchy:
    def test_all_derive_from_repro_error(self):
        from repro.exceptions import ConfigError as CE
        from repro.exceptions import GraphError as GE
        assert issubclass(CE, ReproError)
        assert issubclass(GE, ReproError)
        assert issubclass(ConvergenceError, ReproError)

    def test_convergence_error_payload(self):
        error = ConvergenceError("nope", iterations=5, residual=0.25)
        assert error.iterations == 5
        assert error.residual == 0.25
        assert "nope" in str(error)


class TestAutoSamplerSelection:
    def test_threshold_boundary(self, k5):
        above = sample_forest(k5, AUTO_SAMPLER_ALPHA_THRESHOLD, rng=0,
                              method="auto")
        below = sample_forest(k5, AUTO_SAMPLER_ALPHA_THRESHOLD / 2, rng=0,
                              method="auto")
        assert above.method == "cycle_popping"
        assert below.method == "wilson"

    @pytest.mark.parametrize("alpha, expected", [
        (AUTO_SAMPLER_ALPHA_THRESHOLD / 2, "wilson"),
        (AUTO_SAMPLER_ALPHA_THRESHOLD, "cycle_popping"),
    ])
    def test_every_entry_point_follows_the_rule(self, k5, alpha, expected):
        # the threshold in sample_forest is the one place the sampler
        # is chosen; index builds (serial: sample_forests, otherwise
        # the chunked engine) inherit it
        banks = [
            list(sample_forests(k5, alpha, 3, rng=0, method="auto")),
            sample_forests_parallel(k5, alpha, 3, rng=0, workers=2),
        ]
        for forests in banks:
            assert [f.method for f in forests] == [expected] * 3


class TestWalkStageThinning:
    def test_max_walks_cap_respected(self):
        graph = erdos_renyi(60, 0.1, rng=801)
        config = PPRConfig(alpha=0.2, epsilon=0.5, seed=1, max_walks=50)
        result = fora(graph, 0, config)
        assert result.stats["num_walks"] <= 60  # cap + 1-per-node floor
        # still a sane estimate
        exact = exact_single_source(graph, 0, 0.2)
        assert l1_error(result, exact) < 1.5

    def test_max_forests_cap_respected(self):
        graph = erdos_renyi(60, 0.1, rng=801)
        config = PPRConfig(alpha=0.2, epsilon=0.01, seed=1, max_forests=3)
        result = speedlv(graph, 0, config)
        assert result.stats["num_forests"] <= 3


class TestWalkIndexClamping:
    def test_demand_beyond_stored_reuses_full_set(self):
        graph = erdos_renyi(20, 0.3, rng=802)
        index = WalkIndex.build(graph, 0.2,
                                np.full(20, 2, dtype=np.int64), rng=0)
        residual = np.full(20, 0.9)
        # scale demands ~ 0.9 * 1e6 walks per node, only 2 stored
        estimate = index.estimate_from_residual(residual, 1e6)
        assert estimate.sum() == pytest.approx(residual.sum())

    def test_nodes_without_stored_walks_skipped(self):
        graph = erdos_renyi(20, 0.3, rng=803)
        counts = np.zeros(20, dtype=np.int64)
        counts[:10] = 5
        index = WalkIndex.build(graph, 0.2, counts, rng=1)
        residual = np.zeros(20)
        residual[15] = 1.0  # only a node with no stored walks
        estimate = index.estimate_from_residual(residual, 100.0)
        assert np.all(estimate == 0.0)


class TestDegenerateGraphs:
    def test_single_node_everything(self):
        graph = from_edges([], num_nodes=1)
        exact = exact_single_source(graph, 0, 0.3)
        assert exact[0] == pytest.approx(1.0)
        forest = sample_forest(graph, 0.3, rng=0)
        assert forest.roots.tolist() == [0]
        result = speedlv(graph, 0, PPRConfig(alpha=0.3, seed=1))
        assert result.estimates[0] == pytest.approx(1.0, abs=1e-9)

    def test_two_node_path_closed_form(self):
        # P2: pi(0,0) = solve by hand: pi00 = a + (1-a) pi10,
        # pi10 = a*0 + (1-a) pi00 => pi00 = a/(1-(1-a)^2)... verify vs LU
        graph = path_graph(2)
        alpha = 0.4
        expected_00 = alpha / (1.0 - (1.0 - alpha) ** 2)
        assert exact_single_source(graph, 0, alpha)[0] == pytest.approx(
            expected_00)

    def test_star_hub_symmetry(self):
        graph = star_graph(6)
        vector = exact_single_source(graph, 0, 0.2)
        # all leaves identical by symmetry
        assert np.allclose(vector[1:], vector[1])

    def test_query_on_tiny_graph_all_methods(self, k5):
        from repro.core import SINGLE_SOURCE_METHODS, SINGLE_TARGET_METHODS
        from repro.core import single_source, single_target
        exact = exact_single_source(k5, 0, 0.3)
        for method in SINGLE_SOURCE_METHODS:
            result = single_source(k5, 0, method=method, alpha=0.3, seed=2)
            assert l1_error(result, exact) < 0.6
        for method in SINGLE_TARGET_METHODS:
            single_target(k5, 0, method=method, alpha=0.3, seed=2)


class TestNumericalRobustness:
    def test_extreme_alpha_values(self, random_graph):
        for alpha in (1e-6, 1 - 1e-6):
            exact = exact_single_source(random_graph, 0, alpha)
            assert exact.sum() == pytest.approx(1.0)

    def test_huge_weight_ratio(self):
        graph = from_edges([(0, 1), (1, 2)], weights=[1e-6, 1e6])
        exact = exact_single_source(graph, 0, 0.2)
        assert exact.sum() == pytest.approx(1.0)
        forest = sample_forest(graph, 0.2, rng=0)
        forest.validate()

    def test_speedlv_on_extreme_weights(self):
        graph = from_edges([(0, 1), (1, 2), (0, 2)],
                           weights=[1e-6, 1e6, 1.0])
        exact = exact_single_source(graph, 0, 0.2)
        result = speedlv(graph, 0, PPRConfig(alpha=0.2, seed=3))
        assert l1_error(result, exact) < 0.2
