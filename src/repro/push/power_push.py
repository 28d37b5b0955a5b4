r"""SPEEDPPR-style whole-vector forward push ("power push").

Wu et al. (SIGMOD'21) observed that once the push frontier covers most
of the graph, queue bookkeeping dominates and it is cheaper to push
*every* node per round — which is exactly one power-iteration step on
the residual:

.. math::
   q \mathrel{+}= \alpha\,r, \qquad r \leftarrow (1-\alpha)\,P^\top r .

The residual mass shrinks by the factor ``(1-α)`` per round, so
reaching total residual ``ρ`` costs ``log(ρ) / log(1-α)`` sparse
mat-vecs — the ``(1/α)·n·log n·log(1/ε)`` term in SPEEDPPR's
complexity.  Our SPEED* algorithms run this as their deterministic
stage and hand the final residual to either α-walks (SPEEDPPR) or
forest sampling (SPEEDL / SPEEDLV).

A hybrid refinement (``local_start=True``) runs a frontier-sweep local
push first while the frontier is narrow, then switches to full
mat-vecs — mirroring SPEEDPPR's actual implementation.  The
whole-vector rounds are one maximal-frontier vector kernel (a CSR
mat-vec).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigError
from repro.graph.csr import Graph
from repro.linalg.transition import transition_matrix
from repro.push.forward import PushResult, forward_push

__all__ = ["power_push"]


def power_push(graph: Graph, source: int, alpha: float,
               residual_target: float, *, criterion: str = "mass",
               local_start: bool = True,
               max_rounds: int = 100_000) -> PushResult:
    """Push until the residual drops below ``residual_target``.

    Parameters
    ----------
    residual_target:
        Stop once the monitored quantity is ``<= residual_target``
        (must be in (0, 1]).
    criterion:
        ``"mass"`` monitors ``Σ_u r(u)`` (the SPEEDPPR walk-budget
        balance); ``"max"`` monitors ``max_u r(u)`` (what the forest
        samplers' ``ω = ⌈r_ceil · W⌉`` bound depends on — used by
        SPEEDL/SPEEDLV).
    local_start:
        Begin with a classic local forward push (cheap while the
        frontier is small) before switching to whole-vector rounds.

    Returns
    -------
    PushResult
        ``work`` counts edge traversals across both phases;
        ``num_sweeps`` counts local sweeps plus whole-vector rounds.
    """
    if not 0 <= source < graph.num_nodes:
        raise ConfigError(f"node {source} out of range")
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie strictly in (0, 1), got {alpha}")
    if not 0.0 < residual_target <= 1.0:
        raise ConfigError("residual_target must lie in (0, 1]")
    if criterion not in ("mass", "max"):
        raise ConfigError("criterion must be 'mass' or 'max'")

    work = 0
    pushes = 0
    frontier_sizes: list[int] = []
    if local_start:
        # a moderately coarse local push clears the easy mass first
        warm = forward_push(graph, source, alpha,
                            r_max=max(residual_target, 1.0 / max(
                                graph.num_nodes, 1)))
        reserve, residual = warm.reserve, warm.residual
        work += warm.work
        pushes += warm.num_pushes
        frontier_sizes.extend(warm.frontier_sizes)
    else:
        reserve = np.zeros(graph.num_nodes)
        residual = np.zeros(graph.num_nodes)
        residual[source] = 1.0

    operator = transition_matrix(graph).T.tocsr()
    arcs = graph.num_arcs
    for _ in range(max_rounds):
        level = residual.sum() if criterion == "mass" else residual.max(initial=0.0)
        if level <= residual_target:
            break
        reserve = reserve + alpha * residual
        residual = (1.0 - alpha) * (operator @ residual)
        work += arcs
        pushes += graph.num_nodes
        frontier_sizes.append(graph.num_nodes)
    else:
        raise ConfigError(
            f"power push did not reach residual_target={residual_target} "
            f"within {max_rounds} rounds")
    return PushResult(reserve=reserve, residual=residual,
                      num_pushes=pushes, work=work,
                      num_sweeps=len(frontier_sizes),
                      frontier_sizes=tuple(frontier_sizes))
