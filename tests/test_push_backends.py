"""Push equivalence: the vectorized scatter vs the scalar test oracle.

Each case runs the production sweep drivers twice: once as shipped,
once with the node-at-a-time scatters of ``tests/push_oracle.py``
patched in.  The frontier schedule is shared, so only one sweep's
scatter differs, and every output — reserve, residual, ``num_pushes``,
``num_sweeps``, ``frontier_sizes`` — must agree (values to ≤1e-12;
counters exactly) across alphas, weighted/directed graphs, and
end-to-end queries.

``TestScatterStrategies`` pins the two strategies of
``backward_scatter`` against each other: forced onto the gather path
and then onto the dense path, a backward push must give the same
bytes.
"""

import numpy as np
import pytest

from repro.core import PPRConfig, single_source, single_target
from repro.graph import from_edges
from repro.graph.datasets import load_dataset
from repro.graph.generators import erdos_renyi, with_random_weights
from repro.push import (
    backward_push,
    balanced_forward_push,
    forward_push,
    kernels,
    power_push,
)
from repro.service import ServiceConfig
from tests.push_oracle import scalar_scatter

ALPHAS = [0.1, 0.2, 0.5]
TOLERANCE = 1e-12


def _graphs():
    plain = erdos_renyi(40, 0.12, rng=2022)
    weighted = with_random_weights(erdos_renyi(35, 0.15, rng=7),
                                   low=0.5, high=4.0, rng=11)
    rng = np.random.default_rng(5)
    pairs = rng.integers(0, 30, size=(160, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    pairs = pairs[pairs[:, 0] != 29]  # node 29 is a pure sink (dangling)
    directed = from_edges(pairs, directed=True, num_nodes=30)
    return [("unweighted", plain), ("weighted", weighted),
            ("directed", directed)]


GRAPHS = _graphs()


def _against_oracle(run, *args, **kwargs):
    """``(production, oracle)`` results of ``run(*args, **kwargs)``."""
    vectorized = run(*args, **kwargs)
    with scalar_scatter() as calls:
        scalar = run(*args, **kwargs)
    assert calls, "the oracle scatter never ran"
    return vectorized, scalar


def _assert_equivalent(run, *args):
    vectorized, scalar = _against_oracle(run, *args)
    assert np.abs(vectorized.reserve - scalar.reserve).max() <= TOLERANCE
    assert np.abs(vectorized.residual - scalar.residual).max() <= TOLERANCE
    assert vectorized.num_pushes == scalar.num_pushes
    assert vectorized.num_sweeps == scalar.num_sweeps
    assert vectorized.frontier_sizes == scalar.frontier_sizes
    assert vectorized.work == scalar.work


class TestKernelEquivalence:
    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("label,graph", GRAPHS)
    def test_forward(self, label, graph, alpha):
        for seed_node in (0, 3):
            _assert_equivalent(forward_push, graph, seed_node, alpha, 1e-4)

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("label,graph", GRAPHS)
    def test_balanced_forward(self, label, graph, alpha):
        _assert_equivalent(balanced_forward_push, graph, 1, alpha, 1e-4)

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("label,graph", GRAPHS)
    def test_backward(self, label, graph, alpha):
        _assert_equivalent(backward_push, graph, 2, alpha, 1e-4)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_power_push(self, alpha):
        graph = GRAPHS[0][1]
        _assert_equivalent(power_push, graph, 0, alpha, 1e-3)

    @pytest.mark.parametrize("label,graph", GRAPHS)
    def test_sweep_accounting(self, label, graph):
        push = balanced_forward_push(graph, 0, 0.2, 1e-4)
        assert sum(push.frontier_sizes) == push.num_pushes
        assert len(push.frontier_sizes) == push.num_sweeps
        assert push.peak_frontier == max(push.frontier_sizes)

    def test_dangling_nodes(self, directed_line):
        # node 2 has out-degree 0: its residual must be absorbed, not
        # pushed, identically by the kernel and the oracle
        for alpha in ALPHAS:
            _assert_equivalent(forward_push, directed_line, 0, alpha, 1e-6)


def _backward_with_share(monkeypatch, share, graph, target, alpha):
    monkeypatch.setattr(kernels, "DENSE_SHARE", share)
    return backward_push(graph, target, alpha, 1e-4)


class TestScatterStrategies:
    """Gather (cut-over ∞) and dense (cut-over 0) agree bit for bit."""

    @pytest.mark.parametrize("alpha", [0.01] + ALPHAS)
    @pytest.mark.parametrize("label,graph", GRAPHS)
    def test_backward_strategies_identical(self, monkeypatch, label, graph,
                                           alpha):
        for target in (2, 29):
            gather = _backward_with_share(monkeypatch, np.inf, graph,
                                          target, alpha)
            dense = _backward_with_share(monkeypatch, 0.0, graph, target,
                                         alpha)
            assert np.array_equal(gather.reserve, dense.reserve)
            assert np.array_equal(gather.residual, dense.residual)
            assert gather.num_pushes == dense.num_pushes
            assert gather.num_sweeps == dense.num_sweeps
            assert gather.frontier_sizes == dense.frontier_sizes
            assert gather.work == dense.work

    def test_directed_reverse_reuse_is_byte_stable(self):
        # pushes on the shared graph reuse its cached reverse CSR; a
        # fresh copy of the graph builds its own
        graph = GRAPHS[2][1]
        copy = from_edges(graph.edges(), directed=True,
                          num_nodes=graph.num_nodes)
        runs = [backward_push(g, 2, 0.1, 1e-4) for g in (graph, graph, copy)]
        for run in runs[1:]:
            assert run.reserve.tobytes() == runs[0].reserve.tobytes()
            assert run.residual.tobytes() == runs[0].residual.tobytes()

    def test_hub_target_takes_dense_branch(self, monkeypatch):
        # the index_offline set-up: youtube stand-in, α = 0.01, a hub
        # target at the target solver's r_max.  Only a gathering sweep
        # builds the frontier's edge list, so the sweeps that do not
        # call frontier_edges went dense.
        graph = load_dataset("youtube", scale=1.0)
        hub = int(np.argmax(graph.out_degrees))
        gathered = []
        frontier_edges = kernels.frontier_edges

        def spy(indptr, frontier, counts):
            gathered.append(frontier.size)
            return frontier_edges(indptr, frontier, counts)

        monkeypatch.setattr(kernels, "frontier_edges", spy)
        push = backward_push(graph, hub, 0.01, 1.67e-4)
        assert gathered  # sweep 1 holds one node: it gathers
        assert len(gathered) < push.num_sweeps


class TestEndToEnd:
    """Whole-query equality: the Monte-Carlo stage consumes the same
    residual, so fixed-seed estimates must be bit-comparable."""

    def test_foralv_scalar_matches_vectorized(self):
        graph = GRAPHS[0][1]
        vec, sca = _against_oracle(single_source, graph, 0,
                                   method="foralv", alpha=0.2, seed=99)
        assert np.abs(vec.estimates - sca.estimates).max() <= TOLERANCE
        assert vec.stats["work_pushes"] == sca.stats["work_pushes"]
        assert vec.stats["work_push_sweeps"] == sca.stats["work_push_sweeps"]

    def test_backlv_scalar_matches_vectorized(self):
        graph = GRAPHS[0][1]
        vec, sca = _against_oracle(single_target, graph, 1,
                                   method="backlv", alpha=0.2, seed=99)
        assert np.abs(vec.estimates - sca.estimates).max() <= TOLERANCE
        assert vec.stats["work_pushes"] == sca.stats["work_pushes"]

    def test_work_counters_in_stats(self):
        graph = GRAPHS[0][1]
        result = single_source(graph, 0, method="foralv", alpha=0.2,
                               seed=1)
        assert result.stats["work_pushes"] == result.stats["num_pushes"]
        assert result.stats["work_push_sweeps"] > 0


class TestValidation:
    """The ``push_backend`` knob is gone: asking for it is an error."""

    def test_config_has_no_push_backend(self):
        with pytest.raises(TypeError):
            PPRConfig(push_backend="vectorized")
        with pytest.raises(TypeError):
            ServiceConfig(push_backend="vectorized")

    def test_push_functions_take_no_backend(self, k5):
        with pytest.raises(TypeError):
            forward_push(k5, 0, 0.2, 1e-3, backend="vectorized")
        with pytest.raises(TypeError):
            backward_push(k5, 0, 0.2, 1e-3, backend="vectorized")
        with pytest.raises(TypeError):
            power_push(k5, 0, 0.2, 1e-2, backend="vectorized")
