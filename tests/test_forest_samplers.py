"""Sampler tests: structure, determinism, and — crucially — that both
samplers draw the distribution of Theorem 4.3 (checked statistically
against exact PPR via Theorem 3.6, and exactly via a chi-square
goodness-of-fit test against the enumerated rooted-forest law) with
step counts matching τ."""

from itertools import product

import numpy as np
import pytest
from scipy.stats import chi2

from repro.exceptions import ConfigError
from repro.forests import (
    RootedForest,
    sample_forest,
    sample_forest_cycle_popping,
    sample_forest_wilson,
    sample_forests,
)
from repro.forests.enumeration import (
    enumerate_spanning_forests,
    forest_probability,
)
from repro.graph import from_edges
from repro.graph.generators import erdos_renyi, with_random_weights
from repro.linalg import exact_ppr_matrix, tau_exact

SAMPLERS = [sample_forest_wilson, sample_forest_cycle_popping]


def _root_frequencies(graph, alpha, sampler, num_samples, seed):
    counts = np.zeros((graph.num_nodes, graph.num_nodes))
    rng = np.random.default_rng(seed)
    total_steps = 0
    for _ in range(num_samples):
        forest = sampler(graph, alpha, rng=rng)
        counts[np.arange(graph.num_nodes), forest.roots] += 1
        total_steps += forest.num_steps
    return counts / num_samples, total_steps / num_samples


class TestStructure:
    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_valid_forest(self, random_graph, sampler):
        forest = sampler(random_graph, 0.1, rng=0)
        forest.validate()
        assert forest.num_nodes == random_graph.num_nodes

    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_every_node_has_root(self, random_graph, sampler):
        forest = sampler(random_graph, 0.2, rng=1)
        assert np.all(forest.roots >= 0)
        assert forest.num_trees >= 1

    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_tree_edges_are_graph_edges(self, random_graph, sampler):
        forest = sampler(random_graph, 0.2, rng=2)
        for node in range(forest.num_nodes):
            parent = forest.parents[node]
            if parent >= 0:
                assert random_graph.has_edge(node, int(parent))

    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_components_are_graph_connected(self, disconnected, sampler):
        # trees can never span different graph components
        forest = sampler(disconnected, 0.3, rng=3)
        labels = disconnected.connected_components
        assert np.all(labels[forest.roots] == labels)

    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_isolated_node_roots_itself(self, disconnected, sampler):
        forest = sampler(disconnected, 0.3, rng=4)
        assert forest.roots[5] == 5

    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_deterministic_under_seed(self, random_graph, sampler):
        first = sampler(random_graph, 0.1, rng=77)
        second = sampler(random_graph, 0.1, rng=77)
        assert np.array_equal(first.roots, second.roots)
        assert np.array_equal(first.parents, second.parents)

    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_invalid_alpha(self, k5, sampler):
        for alpha in (0.0, 1.0, -0.5):
            with pytest.raises(ConfigError):
                sampler(k5, alpha)

    def test_alpha_near_one_all_roots(self, k5):
        forest = sample_forest_cycle_popping(k5, 0.999999, rng=5)
        assert forest.num_trees >= 4  # almost surely every node a root


class TestDistribution:
    """Statistical agreement with Theorem 3.6 (root frequency = PPR)."""

    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_unweighted(self, sampler):
        graph = erdos_renyi(10, 0.4, rng=11)
        alpha = 0.25
        exact = exact_ppr_matrix(graph, alpha)
        frequencies, _ = _root_frequencies(graph, alpha, sampler, 3000, 42)
        assert np.abs(frequencies - exact).max() < 0.035

    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_weighted(self, sampler):
        graph = with_random_weights(erdos_renyi(8, 0.5, rng=13), rng=5)
        alpha = 0.3
        exact = exact_ppr_matrix(graph, alpha)
        frequencies, _ = _root_frequencies(graph, alpha, sampler, 3000, 43)
        assert np.abs(frequencies - exact).max() < 0.035

    def test_samplers_agree_with_each_other(self):
        graph = erdos_renyi(12, 0.3, rng=17)
        alpha = 0.1
        wilson, _ = _root_frequencies(graph, alpha, sample_forest_wilson,
                                      2500, 1)
        popping, _ = _root_frequencies(graph, alpha,
                                       sample_forest_cycle_popping, 2500, 2)
        assert np.abs(wilson - popping).max() < 0.045

    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_mean_steps_match_tau(self, sampler):
        """Empirical Lemma 4.4: average steps per forest ≈ τ."""
        graph = erdos_renyi(15, 0.3, rng=19)
        alpha = 0.15
        tau = tau_exact(graph, alpha)
        _, mean_steps = _root_frequencies(graph, alpha, sampler, 1500, 3)
        assert mean_steps == pytest.approx(tau, rel=0.1)

    def test_wilson_order_invariance(self):
        """Wilson's key property: the processing order does not change
        the sampled distribution (checked on root-count marginals)."""
        graph = erdos_renyi(9, 0.4, rng=23)
        alpha = 0.2
        forward = np.zeros(9)
        backward = np.zeros(9)
        rng_a = np.random.default_rng(31)
        rng_b = np.random.default_rng(32)
        trials = 2500
        for _ in range(trials):
            f = sample_forest_wilson(graph, alpha, rng=rng_a,
                                     order=np.arange(9))
            forward[f.roots[0]] += 1
            b = sample_forest_wilson(graph, alpha, rng=rng_b,
                                     order=np.arange(8, -1, -1))
            backward[b.roots[0]] += 1
        assert np.abs(forward - backward).max() / trials < 0.04


def _rooted_forest_law(graph, alpha):
    """Exact distribution over rooted forests via enumeration.

    Returns ``{(edge_set, root_set): probability}`` covering every
    rooted spanning forest of ``graph`` (Theorem 4.3).
    """
    law = {}
    for forest in enumerate_spanning_forests(graph):
        trees: dict[int, list[int]] = {}
        for node, label in enumerate(forest.labels):
            trees.setdefault(label, []).append(node)
        edge_key = frozenset(tuple(sorted(edge)) for edge in forest.edges)
        for roots in product(*trees.values()):
            law[(edge_key, frozenset(roots))] = forest_probability(
                graph, alpha, forest, roots)
    return law


def _forest_key(forest: RootedForest):
    """Category key of a sampled forest: (undirected edges, roots)."""
    edges = frozenset(
        (min(int(node), int(parent)), max(int(node), int(parent)))
        for node, parent in enumerate(forest.parents) if parent >= 0)
    return edges, frozenset(forest.root_set.tolist())


@pytest.mark.slow
class TestGoodnessOfFit:
    """Chi-square GOF of both samplers against the enumerated law.

    Protocol (documented in docs/THEORY.md): the category space is
    the full set of rooted spanning forests of a ≤6-node graph, the
    expected counts come from Theorem 4.3 via exact enumeration, seeds
    are fixed, and the significance level is 1e-3 — a fixed-seed run
    either passes forever or flags a genuine sampler bug; there is no
    re-roll-until-green.
    """

    SIGNIFICANCE = 1e-3
    SAMPLES = 4000

    def _chi_square(self, graph, alpha, sampler, seed):
        law = _rooted_forest_law(graph, alpha)
        assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)
        expected = {key: self.SAMPLES * p for key, p in law.items()}
        # the chi-square approximation needs every expected cell >= 5
        assert min(expected.values()) >= 5.0, \
            "workload too small for the chi-square approximation"
        observed = dict.fromkeys(law, 0)
        rng = np.random.default_rng(seed)
        for _ in range(self.SAMPLES):
            key = _forest_key(sampler(graph, alpha, rng=rng))
            assert key in law, f"sampled forest outside the law: {key}"
            observed[key] += 1
        statistic = sum(
            (observed[key] - expected[key]) ** 2 / expected[key]
            for key in law)
        critical = chi2.ppf(1.0 - self.SIGNIFICANCE, df=len(law) - 1)
        assert statistic <= critical, (
            f"chi-square {statistic:.2f} > critical {critical:.2f} "
            f"(df={len(law) - 1}, significance={self.SIGNIFICANCE})")

    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_path_graph(self, path4, sampler):
        self._chi_square(path4, 0.3, sampler, seed=20220301)

    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_weighted_triangle(self, weighted_triangle, sampler):
        self._chi_square(weighted_triangle, 0.25, sampler, seed=20220302)


class TestBatchSampling:
    def test_sample_forests_count(self, k5):
        forests = list(sample_forests(k5, 0.2, 7, rng=0))
        assert len(forests) == 7

    def test_sample_forests_independent(self, k5):
        forests = list(sample_forests(k5, 0.2, 30, rng=0))
        roots = {tuple(f.roots.tolist()) for f in forests}
        assert len(roots) > 1  # not all identical

    def test_dispatch_by_name(self, k5):
        assert sample_forest(k5, 0.2, rng=0, method="wilson").method == "wilson"
        assert sample_forest(k5, 0.2, rng=0,
                             method="cycle_popping").method == "cycle_popping"

    def test_unknown_method(self, k5):
        with pytest.raises(ConfigError):
            sample_forest(k5, 0.2, method="aldous_broder")

    def test_negative_count(self, k5):
        with pytest.raises(ConfigError):
            list(sample_forests(k5, 0.2, -1))


class TestRootedForestType:
    def test_component_queries(self):
        roots = np.array([0, 0, 2, 2, 2])
        parents = np.array([-1, 0, -1, 2, 3])
        forest = RootedForest(roots=roots, parents=parents)
        forest.validate()
        assert forest.num_trees == 2
        assert forest.root_set.tolist() == [0, 2]
        assert forest.component_sizes[2] == 3
        assert forest.component_of(3).tolist() == [2, 3, 4]
        assert forest.same_tree(0, 1)
        assert not forest.same_tree(1, 4)
        assert forest.is_rooted_in(4, 2)

    def test_degree_mass(self):
        roots = np.array([0, 0, 2])
        parents = np.array([-1, 0, -1])
        forest = RootedForest(roots=roots, parents=parents)
        degrees = np.array([1.0, 2.0, 5.0])
        mass = forest.component_degree_mass(degrees)
        assert mass[0] == pytest.approx(3.0)
        assert mass[2] == pytest.approx(5.0)

    def test_validate_rejects_root_with_parent(self):
        forest = RootedForest(roots=np.array([0, 0]),
                              parents=np.array([1, 0]))
        with pytest.raises(Exception):
            forest.validate()

    def test_validate_rejects_cycle(self):
        forest = RootedForest(roots=np.array([2, 2, 2]),
                              parents=np.array([1, 0, -1]))
        with pytest.raises(Exception):
            forest.validate()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(Exception):
            RootedForest(roots=np.array([0, 1]), parents=np.array([-1]))


class TestPopCyclesOracle:
    """The compact-map popping loop against the global-array oracle
    (``tests/cycle_popping_oracle.py``): same ``(roots, parents,
    steps)`` and the same arrow-source calls, for every arrow source
    the package runs through it."""

    ALPHAS = [0.003, 0.01, 0.1, 0.5]
    SEEDS = [0, 1, 2]

    @staticmethod
    def _graphs():
        looped = from_edges(
            [(u, (u * 7 + 3) % 90) for u in range(90)]
            + [(u, u) for u in range(0, 90, 9)] + [(0, 45), (45, 89)],
            num_nodes=90, allow_self_loops=True)
        sinks = from_edges([(u, v) for u in range(60)
                            for v in ((u * 5 + 1) % 70, (u * 11 + 2) % 70)
                            if u != v],
                           directed=True, num_nodes=70)
        return {
            "undirected": erdos_renyi(150, 0.03, rng=4),
            "weighted": with_random_weights(
                erdos_renyi(120, 0.05, rng=8), low=0.5, high=4.0,
                integer=False, rng=9),
            "self_loops": looped,
            "directed_sinks": sinks,
        }

    @staticmethod
    def _run(monkeypatch, module, loop, sample):
        """``sample()`` with ``module.pop_cycles`` replaced by ``loop``,
        logging every node set the arrow source is asked for."""
        calls = []

        def logged(size, draw, max_rounds=10_000_000):
            def logged_draw(active):
                calls.append(active.copy())
                return draw(active)
            return loop(size, logged_draw, max_rounds)

        with monkeypatch.context() as patch:
            patch.setattr(module, "pop_cycles", logged)
            result = sample()
        return result, calls

    @staticmethod
    def _forests(result):
        """The forests of a sampler result: one forest, a list of them,
        or a repair's ``(forest, record)`` pair."""
        if isinstance(result, tuple):
            return [result[0]]
        return result if isinstance(result, list) else [result]

    def _assert_same(self, monkeypatch, module, sample):
        from tests.cycle_popping_oracle import global_pop_cycles

        produced, calls = self._run(monkeypatch, module,
                                    module.pop_cycles, sample)
        expected, oracle_calls = self._run(monkeypatch, module,
                                           global_pop_cycles, sample)
        assert len(calls) == len(oracle_calls)
        for mine, theirs in zip(calls, oracle_calls, strict=True):
            assert np.array_equal(mine, theirs)
        for left, right in zip(self._forests(produced),
                               self._forests(expected), strict=True):
            assert np.array_equal(left.roots, right.roots)
            assert np.array_equal(left.parents, right.parents)
            assert left.num_steps == right.num_steps
        return produced, expected

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("name", ["undirected", "weighted",
                                      "self_loops", "directed_sinks"])
    def test_fresh(self, monkeypatch, name, alpha):
        import repro.forests.cycle_popping as module

        graph = self._graphs()[name]
        for seed in self.SEEDS:
            self._assert_same(
                monkeypatch, module,
                lambda: sample_forest_cycle_popping(graph, alpha, rng=seed))

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("stratified", [False, True])
    def test_batch_union(self, monkeypatch, alpha, stratified):
        import repro.forests.batch_sampling as module

        for graph in self._graphs().values():
            for seed in self.SEEDS:
                self._assert_same(
                    monkeypatch, module,
                    lambda: module.sample_forests_batch(
                        graph, alpha, 3, rng=seed, stratified=stratified))

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_repair_replay(self, monkeypatch, alpha):
        import repro.forests.repair as module
        from repro.graph import GraphDelta

        for graph in self._graphs().values():
            delta = GraphDelta().upsert_edge(1, 40, 2.5)
            new_graph = delta.apply(graph)
            for seed in self.SEEDS:
                _, record = module.sample_forest_recorded(graph, alpha,
                                                          rng=seed)
                produced, expected = self._assert_same(
                    monkeypatch, module,
                    lambda: module.repair_forest(
                        new_graph, alpha, record, delta.touched_nodes(),
                        rng=seed + 10))
                assert np.array_equal(produced[1].indptr,
                                      expected[1].indptr)
                assert np.array_equal(produced[1].arrows,
                                      expected[1].arrows)
