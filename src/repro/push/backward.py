r"""Backward push (Algorithm 4) and randomized backward push (RBACK).

Backward push estimates the single-target vector ``π(·, t)``.  It
maintains reserve/residual with the invariant (Eq. 7)

.. math:: \pi(v, t) = q(v) + \sum_u \pi(v, u)\, r(u) \quad \forall v,

starting from ``r = e_t``.  Pushing ``u`` moves ``α r(u)`` into
``q(u)`` and sends ``(1-α)\,w_{zu} r(u) / d_z`` to every in-neighbour
``z`` — note the division by the *receiver's* degree, the transpose of
forward push.  The uniform threshold ``r(u) ≥ r_max`` yields the
classic additive guarantee ``|π(v,t) − q(v)| ≤ r_max`` for all ``v``.

:func:`backward_push` runs as synchronous frontier sweeps over the
reverse CSR (built once per directed graph and cached by
:meth:`Graph.reverse <repro.graph.csr.Graph.reverse>`) through
:func:`repro.push.kernels.backward_scatter`, which batches the whole
frontier into one segment-scatter.  A sparse frontier gathers its own
in-arcs; a frontier covering a large share of all in-arcs (typical at
small α from a hub target) scatters over every arc with zero
increments off the frontier.  The two strategies add the same terms
in the same order, so the driver's outputs — reserve, residual, push
and sweep counts — do not depend on which one a sweep took.

:func:`randomized_backward_push` implements the RBACK baseline
(Wang et al., KDD'20): residual increments below a threshold ``θ`` are
rounded up to ``θ`` with probability ``increment/θ`` and dropped
otherwise — an unbiased sparsification that skips work on tiny
increments at the cost of extra randomness per push.  Because its
random stream is consumed push by push it stays queue-based and
scalar-only.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.exceptions import ConfigError
from repro.graph.csr import Graph
from repro.push.forward import PushResult
from repro.push.kernels import backward_scatter
from repro.rng import ensure_rng

__all__ = ["backward_push", "randomized_backward_push"]


def _check(graph: Graph, target: int, alpha: float, r_max: float) -> None:
    if not 0 <= target < graph.num_nodes:
        raise ConfigError(f"node {target} out of range [0, {graph.num_nodes})")
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie strictly in (0, 1), got {alpha}")
    if r_max <= 0.0:
        raise ConfigError(f"r_max must be positive, got {r_max}")


def backward_push(graph: Graph, target: int, alpha: float, r_max: float,
                  max_pushes: int = 50_000_000) -> PushResult:
    """Algorithm 4: deterministic backward push from ``target``.

    Guarantees ``0 ≤ π(v, t) − q(v) ≤ r_max`` for every ``v`` on exit
    (additive error), at cost ``O(π(t) · d̄ / (α · r_max))``.
    """
    _check(graph, target, alpha, r_max)
    n = graph.num_nodes
    degrees = graph.degrees
    reserve = np.zeros(n)
    residual = np.zeros(n)
    residual[target] = 1.0
    has_dangling = graph.has_dangling

    pushes = 0
    work = 0
    frontier_sizes: list[int] = []
    while True:
        frontier = np.flatnonzero(residual >= r_max)
        if frontier.size == 0:
            break
        if pushes + frontier.size > max_pushes:
            raise ConfigError(
                f"backward push exceeded max_pushes={max_pushes}")
        pushes += int(frontier.size)
        frontier_sizes.append(int(frontier.size))
        mass = residual[frontier]
        residual[frontier] = 0.0
        if has_dangling:
            # dangling node: absorbing self-loop summed in closed form
            dangling = degrees[frontier] == 0
            reserve[frontier] += np.where(dangling, mass, alpha * mass)
            spread = np.where(dangling, (1.0 - alpha) / alpha * mass,
                              (1.0 - alpha) * mass)
        else:
            reserve[frontier] += alpha * mass
            spread = (1.0 - alpha) * mass
        work += backward_scatter(graph, frontier, spread, residual)
    return PushResult(reserve=reserve, residual=residual,
                      num_pushes=pushes, work=work,
                      num_sweeps=len(frontier_sizes),
                      frontier_sizes=tuple(frontier_sizes))


def randomized_backward_push(graph: Graph, target: int, alpha: float,
                             r_max: float, *,
                             theta: float | None = None,
                             rng: np.random.Generator | int | None = None,
                             max_pushes: int = 50_000_000) -> PushResult:
    """RBACK: backward push with probabilistic increment rounding.

    Parameters
    ----------
    theta:
        Rounding threshold; increments below it are pushed as exactly
        ``theta`` with probability ``increment / theta`` (unbiased).
        Defaults to ``r_max / 4`` — small enough that the extra
        variance stays below the push guarantee, large enough to prune.
    """
    _check(graph, target, alpha, r_max)
    if theta is None:
        theta = r_max / 4.0
    if theta <= 0.0:
        raise ConfigError("theta must be positive")
    generator = ensure_rng(rng)
    n = graph.num_nodes
    reverse = graph.reverse()
    indptr, indices, weights = reverse.indptr, reverse.indices, reverse.weights
    in_arc_degrees = graph.in_arc_degrees
    degrees = graph.degrees
    reserve = np.zeros(n)
    residual = np.zeros(n)
    residual[target] = 1.0

    queue: deque[int] = deque([target])
    in_queue = np.zeros(n, dtype=bool)
    in_queue[target] = True
    pushes = 0
    work = 0
    while queue:
        if pushes >= max_pushes:
            raise ConfigError(
                f"randomized backward push exceeded max_pushes={max_pushes}")
        u = queue.popleft()
        in_queue[u] = False
        mass = residual[u]
        if mass < r_max:
            continue
        pushes += 1
        if degrees[u] == 0:
            reserve[u] += mass
            spread = (1.0 - alpha) / alpha * mass
        else:
            reserve[u] += alpha * mass
            spread = (1.0 - alpha) * mass
        residual[u] = 0.0
        lo, hi = indptr[u], indptr[u + 1]
        sources = indices[lo:hi]
        if sources.size:
            edge_w = np.ones(hi - lo) if weights is None else weights[lo:hi]
            increments = spread * edge_w / in_arc_degrees[lo:hi]
            small = increments < theta
            if small.any():
                survive = generator.random(int(small.sum())) < (
                    increments[small] / theta)
                rounded = np.zeros(int(small.sum()))
                rounded[survive] = theta
                increments[small] = rounded
            touched = increments > 0
            np.add.at(residual, sources[touched], increments[touched])
            work += int(touched.sum())
            hot = sources[(residual[sources] >= r_max) & ~in_queue[sources]]
            for z in hot:
                queue.append(int(z))
                in_queue[z] = True
    return PushResult(reserve=reserve, residual=residual,
                      num_pushes=pushes, work=work)
