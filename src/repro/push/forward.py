r"""Forward push (Algorithm 2) and the balanced variant of §5.2.

Forward push maintains a reserve ``q`` and residual ``r`` with the
invariant (Eq. 6)

.. math:: \pi(s, v) = q(v) + \sum_u r(u)\,\pi(u, v) \quad \forall v,

starting from ``r = e_s``.  Pushing a node ``u`` converts the α-share
of its residual into reserve and forwards the rest to its neighbours
proportionally to edge weight.  The classic algorithm pushes while
``r(u) ≥ d_u · r_max``; the *balanced* variant (§5.2) pushes while
``r(u) ≥ r_max``, equalising the per-node residual ceiling so that a
fixed number ``⌈r_max · W⌉`` of forest samples suffices for the
Chernoff argument of Theorem 5.3 (high-degree nodes may no longer hide
large residuals behind a degree-scaled threshold).

Both variants run as synchronous *frontier sweeps*: every iteration
pushes the entire above-threshold frontier at once through the
:mod:`repro.push.kernels` scatter, which batches all frontier rows
into one segment-scatter.

Dangling nodes absorb their entire residual into reserve, matching the
library-wide absorbing-walk convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ConfigError
from repro.graph.csr import Graph
from repro.push.kernels import forward_scatter

__all__ = ["PushResult", "forward_push", "balanced_forward_push"]


@dataclass
class PushResult:
    """Outcome of a (forward or backward) push run.

    Attributes
    ----------
    reserve:
        ``q`` — the settled estimate per node.
    residual:
        ``r`` — the unsettled mass per node (non-negative).
    num_pushes:
        Number of push operations executed (total frontier memberships
        across all sweeps).
    work:
        Total edge traversals, the machine-independent cost measure
        used by the benchmark harness.
    num_sweeps:
        Synchronous frontier sweeps executed.
    frontier_sizes:
        Frontier size per sweep; sums to ``num_pushes``.
    """

    reserve: np.ndarray
    residual: np.ndarray
    num_pushes: int = 0
    work: int = 0
    num_sweeps: int = 0
    frontier_sizes: tuple[int, ...] = field(default_factory=tuple)

    @property
    def residual_mass(self) -> float:
        """Total unsettled mass ``Σ_u r(u)``."""
        return float(self.residual.sum())

    @property
    def peak_frontier(self) -> int:
        """Largest frontier pushed in one sweep (0 if nothing pushed)."""
        return max(self.frontier_sizes, default=0)


def _check_common(graph: Graph, node: int, alpha: float, r_max: float) -> None:
    if not 0 <= node < graph.num_nodes:
        raise ConfigError(f"node {node} out of range [0, {graph.num_nodes})")
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie strictly in (0, 1), got {alpha}")
    if r_max <= 0.0:
        raise ConfigError(f"r_max must be positive, got {r_max}")


def _forward_push_impl(graph: Graph, source: int, alpha: float,
                       r_max: float, *, balanced: bool,
                       max_pushes: int) -> PushResult:
    n = graph.num_nodes
    degrees = graph.degrees
    reserve = np.zeros(n)
    residual = np.zeros(n)
    residual[source] = 1.0

    # classic threshold d_u * r_max: a dangling node's is 0, so the
    # `residual > 0` clause keeps already-absorbed nodes out of the
    # frontier; the balanced threshold r_max > 0 already implies it
    thresholds = None if balanced else degrees * r_max
    has_dangling = graph.has_dangling

    pushes = 0
    work = 0
    frontier_sizes: list[int] = []
    while True:
        if balanced:
            frontier = np.flatnonzero(residual >= r_max)
        else:
            frontier = np.flatnonzero((residual >= thresholds)
                                      & (residual > 0.0))
        if frontier.size == 0:
            break
        if pushes + frontier.size > max_pushes:
            raise ConfigError(
                f"forward push exceeded max_pushes={max_pushes}; "
                f"raise the limit or increase r_max")
        pushes += int(frontier.size)
        frontier_sizes.append(int(frontier.size))
        mass = residual[frontier]
        residual[frontier] = 0.0
        pushable, push_mass = frontier, mass
        if has_dangling:
            dangling = degrees[frontier] == 0
            if dangling.any():
                # absorbing node: the walk ends here
                reserve[frontier[dangling]] += mass[dangling]
            pushable, push_mass = frontier[~dangling], mass[~dangling]
        if pushable.size:
            reserve[pushable] += alpha * push_mass
            work += forward_scatter(graph, pushable, push_mass, alpha,
                                    residual)
    return PushResult(reserve=reserve, residual=residual,
                      num_pushes=pushes, work=work,
                      num_sweeps=len(frontier_sizes),
                      frontier_sizes=tuple(frontier_sizes))


def forward_push(graph: Graph, source: int, alpha: float, r_max: float,
                 max_pushes: int = 50_000_000) -> PushResult:
    """Algorithm 2: classic forward push, threshold ``d_u · r_max``.

    Runs in ``O(1 / (α · r_max))`` pushes; the reserve under-estimates
    ``π(source, ·)`` and the invariant Eq. 6 holds exactly (tested).
    """
    _check_common(graph, source, alpha, r_max)
    return _forward_push_impl(graph, source, alpha, r_max, balanced=False,
                              max_pushes=max_pushes)


def balanced_forward_push(graph: Graph, source: int, alpha: float,
                          r_max: float,
                          max_pushes: int = 50_000_000) -> PushResult:
    """§5.2's balanced forward push: uniform threshold ``r_max``.

    Guarantees ``r(u) < r_max`` for every node on exit — the property
    FORAL/FORALV's sample-size bound needs.  Costs
    ``O(d̄ / (α · r_max))`` (Lemma 5.4).
    """
    _check_common(graph, source, alpha, r_max)
    return _forward_push_impl(graph, source, alpha, r_max, balanced=True,
                              max_pushes=max_pushes)
