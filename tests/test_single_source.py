"""Integration tests of the six online single-source algorithms and
their indexed variants: accuracy against exact ground truth, metadata,
determinism and error handling."""

import numpy as np
import pytest

from repro.core import PPRConfig, l1_error
from repro.core.single_source import (
    fora,
    fora_plus,
    foral,
    foralv,
    foralv_plus,
    speedl,
    speedlv,
    speedlv_plus,
    speedppr,
    speedppr_plus,
)
from repro.exceptions import ConfigError
from repro.graph.generators import erdos_renyi, with_random_weights
from repro.linalg import exact_single_source
from repro.montecarlo import ForestIndex, WalkIndex

ONLINE = [fora, foral, foralv, speedppr, speedl, speedlv]


@pytest.fixture(scope="module")
def medium_graph():
    return erdos_renyi(150, 0.06, rng=101)


@pytest.fixture(scope="module")
def medium_weighted():
    return with_random_weights(erdos_renyi(120, 0.08, rng=103), rng=9)


def _config(**kwargs):
    defaults = dict(alpha=0.1, epsilon=0.5, seed=11)
    defaults.update(kwargs)
    return PPRConfig(**defaults)


class TestAccuracy:
    @pytest.mark.parametrize("algorithm", ONLINE)
    def test_close_to_exact(self, medium_graph, algorithm):
        exact = exact_single_source(medium_graph, 0, 0.1)
        result = algorithm(medium_graph, 0, _config())
        # basic estimators (foral/speedl) are intentionally noisier —
        # the paper's Fig. 4 shows the same ordering
        bound = 0.6 if algorithm in (foral, speedl) else 0.35
        assert l1_error(result, exact) < bound

    @pytest.mark.parametrize("algorithm", [foralv, speedlv])
    def test_improved_estimators_tight(self, medium_graph, algorithm):
        exact = exact_single_source(medium_graph, 0, 0.1)
        result = algorithm(medium_graph, 0, _config())
        assert l1_error(result, exact) < 0.15

    @pytest.mark.parametrize("algorithm", ONLINE)
    def test_mass_close_to_one(self, medium_graph, algorithm):
        result = algorithm(medium_graph, 0, _config())
        assert result.total_mass == pytest.approx(1.0, abs=0.15)

    @pytest.mark.parametrize("algorithm", [fora, foralv, speedlv])
    def test_weighted_graphs(self, medium_weighted, algorithm):
        exact = exact_single_source(medium_weighted, 5, 0.1)
        result = algorithm(medium_weighted, 5, _config())
        assert l1_error(result, exact) < 0.35

    @pytest.mark.parametrize("algorithm", [foralv, speedlv])
    def test_small_alpha(self, medium_graph, algorithm):
        exact = exact_single_source(medium_graph, 3, 0.01)
        result = algorithm(medium_graph, 3, _config(alpha=0.01))
        assert l1_error(result, exact) < 0.2

    def test_accuracy_improves_with_epsilon(self, medium_graph):
        exact = exact_single_source(medium_graph, 0, 0.1)
        errors = []
        for epsilon in (1.0, 0.1):
            per_seed = [l1_error(foralv(medium_graph, 0,
                                        _config(epsilon=epsilon, seed=s)),
                                 exact) for s in range(5)]
            errors.append(np.mean(per_seed))
        assert errors[1] < errors[0]


class TestMetadata:
    @pytest.mark.parametrize("algorithm,name", [
        (fora, "fora"), (foral, "foral"), (foralv, "foralv"),
        (speedppr, "speedppr"), (speedl, "speedl"), (speedlv, "speedlv")])
    def test_method_name_and_kind(self, medium_graph, algorithm, name):
        result = algorithm(medium_graph, 2, _config())
        assert result.method == name
        assert result.kind == "source"
        assert result.query_node == 2

    def test_forest_algorithms_record_forest_stats(self, medium_graph):
        result = foralv(medium_graph, 0, _config())
        assert result.stats["num_forests"] >= 1
        assert result.stats["forest_steps"] > 0
        assert "push_seconds" in result.stats

    def test_walk_algorithms_record_walk_stats(self, medium_graph):
        result = fora(medium_graph, 0, _config())
        assert result.stats["num_walks"] > 0

    def test_deterministic_under_seed(self, medium_graph):
        first = speedlv(medium_graph, 0, _config(seed=42))
        second = speedlv(medium_graph, 0, _config(seed=42))
        assert np.allclose(first.estimates, second.estimates)

    def test_r_max_override(self, medium_graph):
        result = foralv(medium_graph, 0, _config(r_max=0.02))
        assert result.stats["r_max"] == 0.02

    def test_source_out_of_range(self, medium_graph):
        with pytest.raises(ConfigError):
            foralv(medium_graph, 10**6, _config())


class TestIndexedVariants:
    def test_fora_plus(self, medium_graph):
        index = WalkIndex.build_fora_plus(medium_graph, 0.1, 0.5, rng=1)
        exact = exact_single_source(medium_graph, 0, 0.1)
        result = fora_plus(medium_graph, 0, index, _config())
        assert result.method == "fora+"
        assert l1_error(result, exact) < 0.4

    def test_speedppr_plus(self, medium_graph):
        index = WalkIndex.build_speedppr_plus(medium_graph, 0.1, rng=2)
        exact = exact_single_source(medium_graph, 0, 0.1)
        result = speedppr_plus(medium_graph, 0, index, _config())
        assert result.method == "speedppr+"
        assert l1_error(result, exact) < 0.4

    def test_foralv_plus(self, medium_graph):
        index = ForestIndex.build(medium_graph, 0.1, 30, rng=3)
        exact = exact_single_source(medium_graph, 0, 0.1)
        result = foralv_plus(medium_graph, 0, index, _config())
        assert result.method == "foralv+"
        assert l1_error(result, exact) < 0.3

    def test_speedlv_plus(self, medium_graph):
        index = ForestIndex.build(medium_graph, 0.1, 30, rng=4)
        exact = exact_single_source(medium_graph, 0, 0.1)
        result = speedlv_plus(medium_graph, 0, index, _config())
        assert result.method == "speedlv+"
        assert l1_error(result, exact) < 0.3

    def test_wrong_index_type_rejected(self, medium_graph):
        walk_index = WalkIndex.build_speedppr_plus(medium_graph, 0.1, rng=5)
        with pytest.raises(ConfigError):
            foralv_plus(medium_graph, 0, walk_index, _config())

    def test_alpha_mismatch_rejected(self, medium_graph):
        index = ForestIndex.build(medium_graph, 0.2, 5, rng=6)
        with pytest.raises(ConfigError):
            speedlv_plus(medium_graph, 0, index, _config(alpha=0.1))

    def test_wrong_graph_rejected(self, medium_graph, k5):
        index = ForestIndex.build(k5, 0.1, 5, rng=7)
        with pytest.raises(ConfigError):
            speedlv_plus(medium_graph, 0, index, _config())


class TestVarianceTracking:
    def test_stderr_attached_when_requested(self, medium_graph):
        result = foralv(medium_graph, 0, _config(track_variance=True))
        stderr = result.stats["mc_stderr"]
        assert stderr.shape == (medium_graph.num_nodes,)
        assert np.all(stderr >= 0)

    def test_stderr_absent_by_default(self, medium_graph):
        result = foralv(medium_graph, 0, _config())
        assert "mc_stderr" not in result.stats

    def test_stderr_roughly_calibrated(self, medium_graph):
        """|error| should be within a few stderr for nearly all nodes
        (plus the deterministic reserve, which has no error)."""
        exact = exact_single_source(medium_graph, 0, 0.1)
        config = _config(track_variance=True, seed=21)
        result = foralv(medium_graph, 0, config)
        stderr = result.stats["mc_stderr"]
        errors = np.abs(result.estimates - exact)
        sampled = stderr > 0
        if sampled.any():
            coverage = np.mean(errors[sampled] <= 4 * stderr[sampled]
                               + 1e-12)
            assert coverage > 0.9

    def test_stderr_shrinks_with_budget(self, medium_graph):
        small = foralv(medium_graph, 0,
                       _config(track_variance=True, budget_scale=0.5,
                               seed=5))
        large = foralv(medium_graph, 0,
                       _config(track_variance=True, budget_scale=4.0,
                               seed=5))
        assert large.stats["num_forests"] > small.stats["num_forests"]
        assert (large.stats["mc_stderr"].sum()
                < small.stats["mc_stderr"].sum())
