"""Node-at-a-time reference scatters for the push equivalence suite.

Drop-in replacements for :func:`repro.push.kernels.forward_scatter`
and :func:`repro.push.kernels.backward_scatter`: same signatures, same
edges in the same order, same floating-point expression structure, but
one Python iteration per frontier node.  :func:`scalar_scatter`
patches them into the production sweep drivers, so the drivers'
frontier schedule is shared and only the per-sweep scatter differs.
"""

from contextlib import contextmanager

import numpy as np
import pytest


def forward_scatter(graph, frontier, mass, alpha, residual):
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    degrees = graph.degrees
    work = 0
    for i in range(frontier.size):
        u = int(frontier[i])
        m = float(mass[i])
        lo, hi = indptr[u], indptr[u + 1]
        neighbors = indices[lo:hi]
        if weights is None:
            np.add.at(residual, neighbors, (1.0 - alpha) * m / degrees[u])
        else:
            np.add.at(residual, neighbors,
                      (1.0 - alpha) * m * weights[lo:hi] / degrees[u])
        work += int(hi - lo)
    return work


def backward_scatter(graph, frontier, spread, residual):
    reverse = graph.reverse()
    indptr, indices, weights = reverse.indptr, reverse.indices, reverse.weights
    degrees = graph.degrees
    work = 0
    for i in range(frontier.size):
        u = int(frontier[i])
        lo, hi = indptr[u], indptr[u + 1]
        sources = indices[lo:hi]
        if sources.size:
            edge_w = np.ones(hi - lo) if weights is None else weights[lo:hi]
            receiver_deg = degrees[sources]
            increments = np.zeros(hi - lo)
            # in-neighbours necessarily have an out-edge, so
            # receiver_deg > 0; guard anyway for pathological input
            ok = receiver_deg > 0
            increments[ok] = float(spread[i]) * edge_w[ok] / receiver_deg[ok]
            np.add.at(residual, sources, increments)
        work += int(hi - lo)
    return work


@contextmanager
def scalar_scatter():
    """Run the production push drivers over the reference scatters.

    Yields a list that collects one entry per oracle call, so a caller
    can check the oracle really ran.
    """
    calls = []

    def counted(oracle):
        def run(*args):
            calls.append(oracle.__name__)
            return oracle(*args)
        return run

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.push.forward.forward_scatter",
                      counted(forward_scatter))
        patch.setattr("repro.push.backward.backward_scatter",
                      counted(backward_scatter))
        yield calls
