"""A graph as named arrays, for the bank carriers.

A :class:`~repro.graph.csr.Graph` is read-only CSR — ``indptr``,
``indices`` and (optionally) ``weights`` — so it travels like any
other bank: :func:`graph_bank_arrays` names its arrays for a
:class:`~repro.parallel.shared_bank.SharedArrayBank`, and :func:`graph_from_bank` rebuilds the graph over the
attached views without a copy.  The index manager publishes each
graph this way, and the serving executor's long-lived workers attach
to it by name (see :mod:`repro.service.executor`); the sampling
engine's forked workers inherit the graph itself.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import Graph

__all__ = ["graph_bank_arrays", "graph_from_bank"]


def graph_bank_arrays(graph: Graph) -> tuple[dict[str, np.ndarray], dict]:
    """The ``(arrays, meta)`` bank contents describing ``graph``."""
    arrays = {"indptr": graph.indptr, "indices": graph.indices}
    if graph.weights is not None:
        arrays["weights"] = graph.weights
    return arrays, {"directed": bool(graph.directed),
                    "num_nodes": int(graph.num_nodes)}


def graph_from_bank(arrays: dict[str, np.ndarray], meta: dict) -> Graph:
    """Rebuild a :class:`Graph` over bank-provided arrays, no copy.

    ``validate=False`` because the source graph already validated the
    identical bytes; the arrays may be read-only shared-memory or
    memmap views.
    """
    return Graph(arrays["indptr"], arrays["indices"],
                 arrays.get("weights"), directed=bool(meta["directed"]),
                 validate=False)
