"""Directed-graph behaviour across the stack.

§2/§3 of the paper: the matrix-forest theory and the loop-erased
α-walk extend to directed graphs (diverging forests); the
cycle-popping/Wilson law holds for any Markov chain.  What does *not*
extend is Theorem 3.7's degree-proportional conditional root
distribution — so the basic estimators stay unbiased on directed
graphs while the improved ones are biased and must be refused.
"""

import numpy as np
import pytest

from repro.core import PPRConfig, l1_error, single_source, single_target
from repro.exceptions import ConfigError
from repro.forests import (
    sample_forest_cycle_popping,
    sample_forest_wilson,
    source_estimate_basic,
    target_estimate_basic,
    target_estimate_improved,
)
from repro.graph import from_edges
from repro.linalg import exact_ppr_matrix, exact_single_source
from repro.rng import ensure_rng


@pytest.fixture(scope="module")
def strongly_connected():
    """Small strongly-connected directed graph."""
    edges = [(0, 1), (1, 2), (2, 0), (1, 3), (3, 0), (2, 3), (3, 2), (0, 2)]
    return from_edges(edges, directed=True)


@pytest.fixture(scope="module")
def directed_random():
    """Seeded random directed graph (40 nodes) with a sink."""
    rng = np.random.default_rng(71)
    pairs = rng.integers(0, 40, size=(240, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    # node 39 becomes a pure sink: drop its out-edges
    pairs = pairs[pairs[:, 0] != 39]
    return from_edges(pairs, directed=True, num_nodes=40)


class TestSamplersDirected:
    @pytest.mark.parametrize("sampler", [sample_forest_wilson,
                                         sample_forest_cycle_popping])
    def test_root_distribution_matches_ppr(self, strongly_connected,
                                           sampler):
        alpha = 0.3
        exact = exact_ppr_matrix(strongly_connected, alpha)
        counts = np.zeros((4, 4))
        rng = ensure_rng(5)
        trials = 4000
        for _ in range(trials):
            forest = sampler(strongly_connected, alpha, rng=rng)
            counts[np.arange(4), forest.roots] += 1
        assert np.abs(counts / trials - exact).max() < 0.03

    @pytest.mark.parametrize("sampler", [sample_forest_wilson,
                                         sample_forest_cycle_popping])
    def test_sink_always_roots_itself(self, directed_random, sampler):
        forest = sampler(directed_random, 0.2, rng=3)
        assert forest.roots[39] == 39

    def test_forest_structure_valid(self, directed_random):
        forest = sample_forest_wilson(directed_random, 0.2, rng=4)
        forest.validate()


class TestEstimatorsDirected:
    def test_basic_estimators_unbiased(self, strongly_connected):
        alpha = 0.3
        exact = exact_ppr_matrix(strongly_connected, alpha)
        rng = ensure_rng(9)
        residual = np.array([0.3, 0.1, 0.25, 0.15])
        want_target = exact @ residual
        want_source = residual @ exact
        total_target = np.zeros(4)
        total_source = np.zeros(4)
        trials = 6000
        for _ in range(trials):
            forest = sample_forest_wilson(strongly_connected, alpha, rng=rng)
            total_target += target_estimate_basic(forest, residual)
            total_source += source_estimate_basic(forest, residual)
        assert np.abs(total_target / trials - want_target).max() < 0.015
        assert np.abs(total_source / trials - want_source).max() < 0.015

    def test_improved_estimator_is_biased_directed(self, strongly_connected):
        """Documents the bias that motivates the guard: the conditional
        degree law (Thm 3.7) fails without undirectedness."""
        alpha = 0.3
        exact = exact_ppr_matrix(strongly_connected, alpha)
        rng = ensure_rng(11)
        residual = np.array([0.3, 0.1, 0.25, 0.15])
        want = exact @ residual
        total = np.zeros(4)
        trials = 20000
        for _ in range(trials):
            forest = sample_forest_wilson(strongly_connected, alpha, rng=rng)
            total += target_estimate_improved(forest, residual,
                                              strongly_connected.degrees)
        bias = np.abs(total / trials - want).max()
        assert bias > 0.01  # systematic, far beyond MC noise (~0.003)


class TestAlgorithmsDirected:
    def test_basic_variants_work(self, directed_random):
        exact = exact_single_source(directed_random, 0, 0.15)
        config = PPRConfig(alpha=0.15, epsilon=0.5, seed=2)
        for method in ("fora", "foral", "speedppr", "speedl"):
            result = single_source(directed_random, 0, method=method,
                                   config=config)
            assert l1_error(result, exact) < 0.7

    def test_improved_variants_rejected(self, directed_random):
        for method in ("foralv", "speedlv"):
            with pytest.raises(ConfigError):
                single_source(directed_random, 0, method=method, alpha=0.2)
        with pytest.raises(ConfigError):
            single_target(directed_random, 0, method="backlv", alpha=0.2)

    def test_indexed_variants_fold_basic(self, directed_random):
        """The indexed methods answer on a directed graph by folding the
        bank with the basic estimators, so they stay unbiased."""
        from repro.montecarlo import ForestIndex

        alpha = 0.2
        index = ForestIndex.build(directed_random, alpha, 3000, rng=5)
        config = PPRConfig(alpha=alpha, epsilon=0.5, seed=6)
        exact = exact_ppr_matrix(directed_random, alpha)
        for method in ("foralv+", "speedlv+"):
            result = single_source(directed_random, 0, method=method,
                                   config=config, index=index)
            assert np.abs(result.estimates - exact[0]).max() < 0.02
        result = single_target(directed_random, 5, method="backlv+",
                               config=config, index=index)
        assert np.abs(result.estimates - exact[:, 5]).max() < 0.02

    def test_backl_works_directed(self, directed_random):
        config = PPRConfig(alpha=0.2, epsilon=0.5, seed=3)
        result = single_target(directed_random, 5, method="backl",
                               config=config)
        exact = exact_ppr_matrix(directed_random, 0.2)[:, 5]
        assert l1_error(result, exact) < 0.1 * max(exact.sum(), 1.0)

    def test_push_baselines_work_directed(self, directed_random):
        config = PPRConfig(alpha=0.2, epsilon=0.5, seed=4)
        exact = exact_ppr_matrix(directed_random, 0.2)[:, 5]
        result = single_target(directed_random, 5, method="back",
                               config=config)
        assert l1_error(result, exact) < 0.5
