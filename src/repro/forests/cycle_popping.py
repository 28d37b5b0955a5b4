"""Vectorised forest sampling via cycle popping.

Wilson's algorithm has an equivalent "stacks of arrows" formulation
(Propp & Wilson): give every node an infinite stack of i.i.d. arrows —
each arrow is *stop here* with probability α (making the node a root)
or *step to a random neighbour* with probability ``(1-α)·w_uv/d_u`` —
and pop cycles of the functional graph formed by the top arrows until
none remain.  The cycle-popping theorem states the surviving top arrows
form a rooted spanning forest with exactly the target distribution
``Pr(F) ∝ w(F)·Π_{ρ(F)} β d_u``, *independently of the order in which
cycles are popped*.

That order-independence is what we exploit to vectorise:

1. draw top arrows for every node at once (three NumPy ops via the
   alias table);
2. find all "bad" cycles — cycles of the arrow map not fixed at a root
   — with pointer doubling (cycles of a functional graph are
   vertex-disjoint, so popping them simultaneously is a valid popping
   order).  Only nodes not yet known to reach a root take part, on a
   compact array indexed by their position in that trapped set, so
   each doubling step is one gather over the trapped nodes alone;
3. redraw arrows only for the popped nodes, found with a boolean mask
   over the trapped set rather than a sort; repeat.

Each arrow draw corresponds to one walk step of Algorithm 1, so the
total number of draws reproduces the τ statistic in distribution.

:func:`pop_cycles` is the one implementation of steps (2)–(3).  Step
(1) is an *arrow source* it calls once per round, so every sampler in
the package is a different source over the same loop:

- :func:`fresh_arrows` — the plain i.i.d. draw used here;
- :mod:`repro.forests.batch_sampling` — the same draw, plain or
  Latin-hypercube stratified, over a virtual union of graph copies;
- :mod:`repro.forests.repair` — replay of recorded stacks, extended
  with fresh draws.

The expected number of rounds is small in practice: after the first
pass only nodes on bad cycles survive, and each of those stops with
probability ≥ α per redraw while most escape into the settled forest
far sooner.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.exceptions import ConfigError, ConvergenceError
from repro.forests.forest import RootedForest
from repro.graph.csr import Graph
from repro.rng import ensure_rng

__all__ = ["sample_forest_cycle_popping", "pop_cycles", "fresh_arrows"]

#: ``draw(active) -> (targets, stops)``: see :func:`pop_cycles`.
ArrowSource = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def fresh_arrows(graph: Graph, alpha: float, nodes: np.ndarray,
                 generator: np.random.Generator
                 ) -> tuple[np.ndarray, np.ndarray]:
    """One i.i.d. top arrow per node, as ``(targets, stops)``.

    Draws one uniform per node for the stop coin, then the movers'
    neighbours from the alias table — the RNG order every sampler
    built on it shares.  Dangling nodes always stop; a stopping node's
    target is itself.
    """
    coins = generator.random(nodes.size)
    stops = (coins < alpha) | (graph.out_degrees[nodes] == 0)
    targets = nodes.copy()
    moves = ~stops
    movers = nodes[moves]
    if movers.size:
        targets[moves] = graph.alias_table.sample_neighbors(movers,
                                                            rng=generator)
    return targets, stops


def pop_cycles(size: int, draw: ArrowSource,
               max_rounds: int = 10_000_000
               ) -> tuple[np.ndarray, np.ndarray, int]:
    """Cycle-pop a functional graph on ``size`` nodes until it is a forest.

    ``draw(active)`` returns the next arrow of every node in ``active``
    (sorted, unique) as ``(targets, stops)``: ``stops[i]`` makes
    ``active[i]`` a root, and then ``targets[i]`` must be ``active[i]``.
    It is called first with every node, then with the nodes of each
    round's popped cycles.

    Returns ``(roots, parents, steps)``: each node's root, each node's
    parent (``-1`` at roots), and the number of arrows drawn.

    Resolution is incremental: once a node's arrow chain reaches a
    root it can never be disturbed (popped nodes all lie on bad
    cycles, and chains of settled nodes avoid those by definition), so
    each round re-resolves only the still-trapped set ``T``.  It does
    so on a compact local array: ``hop[i]`` is the local position of
    ``T[i]``'s arrow target, and a node whose arrow is a stop or leaves
    ``T`` (into a settled node) is a fixed point carrying that root.
    Pointer doubling (``hop = hop[hop]``, one gather per step over
    ``|T|`` entries) then lands every chain either on such a fixed
    point — the node settles — or on its bad cycle, which the doubled
    map permutes, so the landing points are exactly the cycle nodes.
    They are marked in a boolean mask over ``T`` (sorted because ``T``
    is) and redrawn next round.
    """
    parents = np.empty(size, dtype=np.int64)   # each node's top arrow
    is_root = np.zeros(size, dtype=bool)
    roots = np.full(size, -1, dtype=np.int64)  # -1 until settled
    local = np.empty(size, dtype=np.int64)     # position in `trapped`
    active = np.arange(size)    # nodes whose arrows must be (re)drawn
    trapped = active            # nodes not yet proven to reach a root
    steps = 0

    for _ in range(max_rounds):
        # (1) fresh top arrows for the active (popped) nodes
        steps += active.size
        targets, stops = draw(active)
        is_root[active] = stops
        parents[active] = targets

        # (2) resolve the trapped chains on a compact local map: an
        # arrow into a settled node (roots >= 0) or a stop is a fixed
        # point carrying the root it reaches
        count = trapped.size
        positions = np.arange(count)
        local[trapped] = positions
        heads = parents[trapped]
        carry = roots[heads]
        trapped_roots = is_root[trapped]
        carry[trapped_roots] = trapped[trapped_roots]
        exits = carry >= 0
        hop = local[heads]
        hop[exits] = positions[exits]
        # 2**doublings > count bounds every chain and every cycle tail
        for _ in range(count.bit_length()):
            hop = hop[hop]
        done = exits[hop]
        settled = trapped[done]
        roots[settled] = carry[hop[done]]

        still = ~done
        if not still.any():
            parents[is_root] = -1
            return roots, parents, steps

        # (3) pop: the landing points of unsettled chains are exactly
        # the nodes on bad cycles (the doubled map permutes each cycle)
        popped = np.zeros(count, dtype=bool)
        popped[hop[still]] = True
        active = trapped[popped]
        trapped = trapped[still]

    raise ConvergenceError(
        f"cycle popping did not terminate within {max_rounds} rounds",
        iterations=max_rounds)


def check_alpha(alpha: float) -> None:
    """Raise :class:`ConfigError` unless ``0 < alpha < 1``."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie strictly in (0, 1), got {alpha}")


def sample_forest_cycle_popping(graph: Graph, alpha: float,
                                rng: np.random.Generator | int | None = None,
                                max_rounds: int = 10_000_000) -> RootedForest:
    """Sample one rooted spanning forest (same law as Algorithm 1).

    Parameters
    ----------
    graph, alpha, rng:
        As in :func:`repro.forests.wilson.sample_forest_wilson`.
    max_rounds:
        Safety bound on popping rounds; exceeded only if something is
        deeply wrong (each round terminates a.s.).

    Returns
    -------
    RootedForest
        ``num_steps`` counts every arrow drawn — equal in distribution
        to the reference sampler's walk-step count (the empirical τ).
    """
    check_alpha(alpha)
    generator = ensure_rng(rng)
    roots, parents, steps = pop_cycles(
        graph.num_nodes,
        lambda active: fresh_arrows(graph, alpha, active, generator),
        max_rounds)
    return RootedForest(roots=roots, parents=parents, num_steps=steps,
                        method="cycle_popping")
