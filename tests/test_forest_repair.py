"""Incremental forest repair tests.

Four layers of evidence that recorded-stack repair is correct:

1. **Bit-identity** — with an empty record, the recorded sampler IS
   :func:`sample_forest_cycle_popping` (same RNG consumption order),
   and an identity repair (empty dirty set) re-pops nothing and keeps
   the exact same forest.
2. **Structural validity** — repaired forests are valid rooted forests
   of the *new* graph after adds, removes, and reweights, including
   chains of successive mutations.
3. **The full-replay oracle** — fed one fixed table of fresh arrows,
   the closure re-pop and the full replay of ``tests/repair_oracle.py``
   give identical forests and records over sequences of writes.
4. **Distributional exactness** (``slow``-marked) — a chi-square
   goodness-of-fit test certifies that *sample on G, mutate to G',
   repair* draws from exactly the same Theorem-4.3 law as fresh
   sampling on G', after one write, after two, and on a directed
   graph.  This is the test that kills the tempting-but-biased "keep
   untouched trees" shortcut.

The repair-vs-rebuild work bound is also asserted here: a single-edge
update must cost a small fraction of a rebuild's walk steps, measured
by the ``repair_*`` work counters.
"""

from itertools import product

import numpy as np
import pytest
from scipy.stats import chi2

from repro.counters import WorkCounters
from repro.exceptions import ConfigError
from repro.forests import (
    ForestRecord,
    repair_forest,
    sample_forest_cycle_popping,
    sample_forest_recorded,
)
from repro.forests.enumeration import (
    enumerate_spanning_forests,
    forest_probability,
)
from repro.forests.cycle_popping import fresh_arrows
from repro.forests.repair import COMPACT_SLACK, STOP_ARROW
from repro.graph import GraphDelta, from_edges
from repro.graph.generators import erdos_renyi, with_random_weights
from tests.repair_oracle import full_replay


def _assert_forest_of(forest, graph):
    """Structural validity against a specific graph: every non-root
    parent arc must be an actual edge."""
    forest.validate()
    for node, parent in enumerate(forest.parents):
        if parent >= 0:
            lo, hi = int(graph.indptr[node]), int(graph.indptr[node + 1])
            assert parent in graph.indices[lo:hi], (
                f"parent arc {node}->{parent} is not an edge")


class TestRecordedSampler:
    @pytest.mark.parametrize("seed", range(5))
    def test_bit_identical_to_cycle_popping(self, random_graph, seed):
        plain = sample_forest_cycle_popping(random_graph, 0.2, rng=seed)
        recorded, _ = sample_forest_recorded(random_graph, 0.2, rng=seed)
        assert np.array_equal(plain.roots, recorded.roots)
        assert np.array_equal(plain.parents, recorded.parents)
        assert plain.num_steps == recorded.num_steps

    def test_record_entries_are_lawful(self, random_graph):
        _, record = sample_forest_recorded(random_graph, 0.2, rng=3)
        assert record.num_nodes == random_graph.num_nodes
        indptr, arrows = record.csr()
        assert (record.lengths >= 0).all()
        assert np.array_equal(record.consumed, record.lengths)
        for node in range(random_graph.num_nodes):
            lo, hi = int(indptr[node]), int(indptr[node + 1])
            glo = int(random_graph.indptr[node])
            ghi = int(random_graph.indptr[node + 1])
            neighbors = set(random_graph.indices[glo:ghi].tolist())
            for arrow in arrows[lo:hi].tolist():
                assert arrow == STOP_ARROW or arrow in neighbors

    def test_counters_credited(self, random_graph):
        counters = WorkCounters()
        forest, _ = sample_forest_recorded(random_graph, 0.2, rng=0,
                                           counters=counters)
        assert counters.forests_sampled == 1
        assert counters.walk_steps == forest.num_steps

    def test_alpha_validated(self, path4):
        with pytest.raises(ConfigError, match="alpha"):
            sample_forest_recorded(path4, 1.5, rng=0)


class TestRepair:
    def test_identity_repair_replays_exactly(self, random_graph):
        forest, record = sample_forest_recorded(random_graph, 0.2, rng=8)
        counters = WorkCounters()
        repaired, new_record = repair_forest(
            random_graph, 0.2, forest, record, np.empty(0, dtype=np.int64),
            rng=123, counters=counters)
        assert np.array_equal(repaired.roots, forest.roots)
        assert np.array_equal(repaired.parents, forest.parents)
        assert repaired.num_steps == forest.num_steps
        # an empty dirty set has an empty closure: nothing is re-popped
        assert counters.repair_fresh_steps == 0
        assert counters.repair_replayed_steps == 0
        assert new_record.repopped == 0
        assert np.array_equal(new_record.arrows, record.arrows)

    @pytest.mark.parametrize("mutation", [
        lambda: GraphDelta().upsert_edge(0, 15, 2.0),
        lambda: GraphDelta().upsert_edge(0, 29, 1.0),
        lambda: GraphDelta().upsert_edge(3, 7, 0.5).upsert_edge(8, 9, 4.0),
    ])
    def test_repaired_forest_is_valid(self, random_graph, mutation):
        forest, record = sample_forest_recorded(random_graph, 0.2, rng=5)
        delta = mutation()
        new_graph = delta.apply(random_graph)
        repaired, _ = repair_forest(new_graph, 0.2, forest, record,
                                    delta.touched_nodes(), rng=6)
        _assert_forest_of(repaired, new_graph)

    def test_repair_after_edge_removal(self, random_graph):
        forest, record = sample_forest_recorded(random_graph, 0.2, rng=5)
        u = 0
        v = int(random_graph.indices[0])  # first neighbour of node 0
        delta = GraphDelta().remove_edge(u, v)
        new_graph = delta.apply(random_graph)
        repaired, _ = repair_forest(new_graph, 0.2, forest, record,
                                    delta.touched_nodes(), rng=6)
        _assert_forest_of(repaired, new_graph)

    def test_repair_counters_only(self, random_graph):
        forest, record = sample_forest_recorded(random_graph, 0.2, rng=5)
        delta = GraphDelta().upsert_edge(0, 15, 2.0)
        counters = WorkCounters()
        _, new_record = repair_forest(
            delta.apply(random_graph), 0.2, forest, record,
            delta.touched_nodes(), rng=6, counters=counters)
        assert counters.repair_dirty_nodes == 2
        assert counters.repair_fresh_steps > 0
        # every re-popped node reads or draws at least its final arrow;
        # nodes outside the closure are neither read nor drawn
        assert new_record.repopped >= 2
        assert counters.repair_replayed_steps \
            + counters.repair_fresh_steps >= new_record.repopped
        assert counters.walk_steps == 0  # repair is not sampling work

    def test_sequence_of_repairs_stays_valid(self, random_graph):
        graph = random_graph
        forest, record = sample_forest_recorded(graph, 0.2, rng=1)
        rng = np.random.default_rng(77)
        for step in range(4):
            delta = GraphDelta().upsert_edge(
                step, (step + 11) % graph.num_nodes,
                1.0 + 0.5 * step)
            graph = delta.apply(graph)
            forest, record = repair_forest(graph, 0.2, forest, record,
                                           delta.touched_nodes(), rng=rng)
            _assert_forest_of(forest, graph)

    def test_dirty_out_of_range(self, path4):
        forest, record = sample_forest_recorded(path4, 0.3, rng=0)
        with pytest.raises(ConfigError, match="out of range"):
            repair_forest(path4, 0.3, forest, record, np.array([9]), rng=0)

    def test_record_graph_mismatch(self, path4, k5):
        forest, record = sample_forest_recorded(path4, 0.3, rng=0)
        with pytest.raises(ConfigError, match="record covers"):
            repair_forest(k5, 0.3, forest, record,
                          np.empty(0, dtype=np.int64), rng=0)

    def test_single_edge_repair_beats_rebuild(self):
        """Acceptance criterion at the kernel level: repairing a bank
        of forests after one edge update costs a small fraction of the
        fresh draws a rebuild would make."""
        graph = erdos_renyi(60, 0.1, rng=7)
        build = WorkCounters()
        rng = np.random.default_rng(42)
        records = []
        for _ in range(8):
            records.append(sample_forest_recorded(graph, 0.2, rng=rng,
                                                  counters=build))
        delta = GraphDelta().upsert_edge(0, 30, 2.0)
        new_graph = delta.apply(graph)
        repair = WorkCounters()
        for forest, record in records:
            repair_forest(new_graph, 0.2, forest, record,
                          delta.touched_nodes(), rng=rng, counters=repair)
        # the only sampling work a repair pays is its fresh draws
        assert repair.repair_fresh_steps * 5 < build.walk_steps, (
            f"repair cost {repair.repair_fresh_steps} fresh steps vs "
            f"{build.walk_steps} rebuild walk steps")


class _StackTable:
    """Fresh arrows from one fixed table: the k-th fresh draw of node
    ``u`` is ``table[k, u]``, whichever replay asks for it, so the
    restricted repair and the full replay see the same stacks."""

    DEPTH = 64

    def __init__(self, graph, alpha, seed):
        generator = np.random.default_rng(seed)
        nodes = np.arange(graph.num_nodes)
        draws = [fresh_arrows(graph, alpha, nodes, generator)
                 for _ in range(self.DEPTH)]
        self.targets = np.stack([targets for targets, _ in draws])
        self.stops = np.stack([stops for _, stops in draws])
        self.taken = np.zeros(graph.num_nodes, dtype=np.int64)

    def __call__(self, nodes):
        depth = self.taken[nodes]
        assert (depth < self.DEPTH).all(), "stack table too shallow"
        self.taken[nodes] += 1
        return self.targets[depth, nodes], self.stops[depth, nodes]


def _oracle_graphs():
    undirected = erdos_renyi(80, 0.05, rng=21)
    weighted = with_random_weights(erdos_renyi(70, 0.06, rng=22), low=0.5,
                                   high=4.0, integer=False, rng=23)
    directed = from_edges([(u, v) for u in range(60)
                           for v in ((u * 7 + 1) % 64, (u * 13 + 5) % 64)
                           if u != v],
                          directed=True, num_nodes=64)  # 60..63 are sinks
    return {"undirected": undirected, "weighted": weighted,
            "directed": directed}


def _write(kind, graph, rng):
    """One single-edge delta of ``kind`` against ``graph``."""
    n = graph.num_nodes
    if kind in ("remove", "reweight"):
        u = int(rng.choice(np.flatnonzero(graph.out_degrees > 1)))
        row = graph.indices[graph.indptr[u]:graph.indptr[u + 1]]
        v = int(rng.choice(row))
        if kind == "remove":
            return GraphDelta().remove_edge(u, v)
        return GraphDelta().set_weight(u, v, float(rng.uniform(0.5, 3.0)))
    u, v = (int(node) for node in rng.choice(n, 2, replace=False))
    if kind == "hub":
        u = int(np.argmax(graph.out_degrees))
        v = v if v != u else (u + 1) % n
    row = set(graph.indices[graph.indptr[u]:graph.indptr[u + 1]].tolist())
    if kind == "add" and v not in row:
        return GraphDelta().add_edge(u, v, 1.5)
    return GraphDelta().upsert_edge(u, v, 1.5)


class TestRestrictedReplayOracle:
    """The closure re-pop against the full replay of
    ``tests/repair_oracle.py``, bit for bit: both read fresh arrows
    from one fixed table, so the popping lemma makes every forest,
    step count and record of a 5-write sequence identical."""

    ALPHA = 0.15
    WRITES = 5

    @staticmethod
    def _restricted(monkeypatch, table, *args):
        import repro.forests.repair as module

        with monkeypatch.context() as patch:
            patch.setattr(module, "fresh_arrows",
                          lambda graph, alpha, nodes, generator:
                          table(nodes))
            return repair_forest(*args)

    def _assert_sequence(self, monkeypatch, graph, kind, seed,
                         compare_consumed=True, start=None):
        rng = np.random.default_rng(seed)
        forest, record = start or sample_forest_recorded(
            graph, self.ALPHA, rng=seed)
        repopped = []
        for step in range(self.WRITES):
            delta = _write(kind, graph, rng)
            graph = delta.apply(graph)
            dirty = delta.touched_nodes()
            table_seed = (seed, step)
            forest_r, record_r = self._restricted(
                monkeypatch, _StackTable(graph, self.ALPHA, table_seed),
                graph, self.ALPHA, forest, record, dirty, 0)
            forest_f, record_f = full_replay(
                graph, record, dirty,
                _StackTable(graph, self.ALPHA, table_seed))
            assert np.array_equal(forest_r.roots, forest_f.roots)
            assert np.array_equal(forest_r.parents, forest_f.parents)
            for mine, theirs in zip(record_r.csr(), record_f.csr()):
                assert np.array_equal(mine, theirs)
            if compare_consumed:
                assert forest_r.num_steps == forest_f.num_steps
                assert np.array_equal(record_r.consumed,
                                      record_f.consumed)
            _assert_forest_of(forest_r, graph)
            repopped.append(record_r.repopped)
            forest, record = forest_r, record_r
        return repopped

    @pytest.mark.parametrize("kind", ["add", "remove", "reweight", "hub"])
    @pytest.mark.parametrize("name", ["undirected", "directed", "weighted"])
    def test_five_writes_match_full_replay(self, monkeypatch, name, kind):
        graph = _oracle_graphs()[name]
        repopped = []
        for seed in range(3):
            repopped += self._assert_sequence(monkeypatch, graph, kind,
                                              seed)
        # the restricted path really is restricted
        assert min(repopped) < graph.num_nodes

    def test_compaction_keeps_rows(self, monkeypatch):
        """Rewritten rows are appended and the storage compacted once
        superseded rows pass COMPACT_SLACK of the live ones; hub writes
        on a small graph reach that within the sequence."""
        graph = _oracle_graphs()["undirected"]
        forest, record = sample_forest_recorded(graph, self.ALPHA, rng=9)
        rng = np.random.default_rng(100)
        compacted = False
        for _ in range(40):
            size = record.arrows.size
            delta = _write("hub", graph, rng)
            graph = delta.apply(graph)
            forest, record = repair_forest(graph, self.ALPHA, forest,
                                           record, delta.touched_nodes(),
                                           rng=rng)
            assert record.arrows.size \
                <= (1 + COMPACT_SLACK) * record.num_arrows
            if record.arrows.size < size:
                compacted = True
                break
        assert compacted
        self._assert_sequence(monkeypatch, graph, "hub", 4,
                              start=(forest, record))

    def test_record_without_counts_matches_full_replay(self,
                                                       monkeypatch):
        """A record whose consumed counts are unknown (a bank saved
        before they were kept) takes its lengths as the counts: a
        closed superset of the closure, so the forests still match the
        full replay (the counts of nodes outside it stay over-stated)."""
        graph = _oracle_graphs()["weighted"]
        forest, record = sample_forest_recorded(graph, self.ALPHA, rng=3)
        rng = np.random.default_rng(3)
        for _ in range(50):
            if (record.lengths > record.consumed).any():
                break  # a re-popped node left an unconsumed tail
            delta = _write("hub", graph, rng)
            graph = delta.apply(graph)
            forest, record = repair_forest(graph, self.ALPHA, forest,
                                           record, delta.touched_nodes(),
                                           rng=rng)
        assert (record.lengths > record.consumed).any()
        indptr, arrows = record.csr()
        legacy = ForestRecord.from_csr(indptr, arrows)
        assert (legacy.consumed >= record.consumed).all()
        self._assert_sequence(monkeypatch, graph, "add", 5,
                              compare_consumed=False,
                              start=(forest, legacy))


def _rooted_forest_law(graph, alpha):
    """Exact Theorem-4.3 distribution over rooted forests (same
    protocol as tests/test_forest_samplers.py)."""
    law = {}
    for forest in enumerate_spanning_forests(graph):
        trees = {}
        for node, label in enumerate(forest.labels):
            trees.setdefault(label, []).append(node)
        edge_key = frozenset(tuple(sorted(edge)) for edge in forest.edges)
        for roots in product(*trees.values()):
            law[(edge_key, frozenset(roots))] = forest_probability(
                graph, alpha, forest, roots)
    return law


def _forest_key(forest):
    edges = frozenset(
        (min(int(node), int(parent)), max(int(node), int(parent)))
        for node, parent in enumerate(forest.parents) if parent >= 0)
    return edges, frozenset(forest.root_set.tolist())


def _arrow_forest_law(graph, alpha):
    """Exact law of a cycle-popped forest as its parent map, for
    directed graphs too: each acyclic arrow map weighs the product of
    its arrows' probabilities (stop α, step ``(1-α)·w_uv/d_u``, a
    dangling node always stops), normalised (Propp–Wilson)."""
    options = []
    for node in range(graph.num_nodes):
        lo, hi = int(graph.indptr[node]), int(graph.indptr[node + 1])
        weights = (np.ones(hi - lo) if graph.weights is None
                   else graph.weights[lo:hi])
        if hi == lo:
            options.append([(-1, 1.0)])
            continue
        options.append([(-1, alpha)] + [
            (int(target), (1.0 - alpha) * weight / weights.sum())
            for target, weight in zip(graph.indices[lo:hi], weights)])
    law = {}
    for choice in product(*options):
        parents = tuple(parent for parent, _ in choice)
        acyclic = True
        for node in range(graph.num_nodes):
            for _ in range(graph.num_nodes):
                if node < 0:
                    break
                node = parents[node]
            acyclic &= node < 0
        if acyclic:
            law[parents] = float(np.prod([p for _, p in choice]))
    total = sum(law.values())
    return {key: weight / total for key, weight in law.items()}


def _parents_key(forest):
    return tuple(int(parent) for parent in forest.parents)


@pytest.mark.slow
class TestRepairedDistribution:
    """Chi-square GOF: the *sample on G → mutate → repair* pipeline
    must draw from the new graph's exact forest law.

    Same fixed-seed protocol as the sampler GOF suite (significance
    1e-3, expected cells >= 5, no re-rolling): each trial samples a
    recorded forest on the pre-mutation graph, applies the delta, and
    repairs — the repaired forest is the categorised observation.
    This is precisely the distributional equivalence Theorem 4.3
    requires of a streaming index, and a biased repair rule (e.g.
    keeping untouched trees conditioned on the old popping history)
    fails it by a wide margin at these sample sizes.
    """

    SIGNIFICANCE = 1e-3
    SAMPLES = 4000

    def _chi_square_repaired(self, graph, deltas, alpha, seed,
                             law_of=_rooted_forest_law,
                             key_of=_forest_key):
        """``deltas`` are applied in turn, each followed by a repair;
        the last graph's law is the reference."""
        graphs = [graph]
        for delta in deltas:
            graphs.append(delta.apply(graphs[-1]))
        law = law_of(graphs[-1], alpha)
        assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)
        expected = {key: self.SAMPLES * p for key, p in law.items()}
        assert min(expected.values()) >= 5.0, \
            "workload too small for the chi-square approximation"
        observed = dict.fromkeys(law, 0)
        rng = np.random.default_rng(seed)
        for _ in range(self.SAMPLES):
            forest, record = sample_forest_recorded(graph, alpha, rng=rng)
            for delta, new_graph in zip(deltas, graphs[1:]):
                forest, record = repair_forest(
                    new_graph, alpha, forest, record,
                    delta.touched_nodes(), rng=rng)
            key = key_of(forest)
            assert key in law, f"repaired forest outside the law: {key}"
            observed[key] += 1
        statistic = sum(
            (observed[key] - expected[key]) ** 2 / expected[key]
            for key in law)
        critical = chi2.ppf(1.0 - self.SIGNIFICANCE, df=len(law) - 1)
        assert statistic <= critical, (
            f"chi-square {statistic:.2f} > critical {critical:.2f} "
            f"(df={len(law) - 1}, significance={self.SIGNIFICANCE}) — "
            f"repaired forests do not match the fresh-sample law")

    def test_path_reweighted(self, path4):
        self._chi_square_repaired(
            path4, [GraphDelta().set_weight(1, 2, 2.5)], 0.3,
            seed=20260808)

    def test_triangle_edge_removed(self, weighted_triangle):
        self._chi_square_repaired(
            weighted_triangle, [GraphDelta().remove_edge(0, 1)], 0.25,
            seed=20260809)

    def test_path_edge_added(self, path4):
        self._chi_square_repaired(
            path4, [GraphDelta().add_edge(1, 3, 2.0)], 0.35,
            seed=20260810)

    def test_two_writes_in_sequence(self, path4):
        """The second repair follows the consumed counts the first one
        left (clean nodes may carry unconsumed tails by then)."""
        self._chi_square_repaired(
            path4, [GraphDelta().add_edge(1, 3, 2.0),
                    GraphDelta().set_weight(0, 1, 3.0)], 0.35,
            seed=20260811)

    def test_directed_sink_gains_an_arc(self):
        """A directed graph whose sink (always a root) gains an
        out-arc, categorised by parent map."""
        graph = from_edges([(0, 1), (0, 2), (1, 2), (2, 0), (2, 1),
                            (1, 3)], directed=True, num_nodes=4,
                           weights=[1.0, 2.0, 1.0, 1.5, 1.0, 0.5])
        self._chi_square_repaired(
            graph, [GraphDelta().add_edge(3, 0, 2.0)], 0.3,
            seed=20260812, law_of=_arrow_forest_law,
            key_of=_parents_key)
