"""Global-array reference for the cycle-popping loop.

:func:`global_pop_cycles` resolves the trapped chains the direct way:
pointer doubling over a full-size ``jump`` array (three fancy-index
passes per step) and the popped set from ``np.unique``.  The
production :func:`repro.forests.cycle_popping.pop_cycles` doubles a
compact local map and marks the popped set in a boolean mask;
``tests/test_forest_samplers.py`` asserts both return the same
``(roots, parents, steps)`` and ask the arrow source for the same
nodes in the same order, also when popping a node set against an
already settled rest (``settled``).
"""

import numpy as np

from repro.exceptions import ConvergenceError


def global_pop_cycles(size, draw, max_rounds=10_000_000, settled=None):
    if settled is None:
        next_node = np.empty(size, dtype=np.int64)
        is_root = np.zeros(size, dtype=bool)
        # short[u]: u's root once settled (a fixed point), else its arrow
        short = np.empty(size, dtype=np.int64)
        active = np.arange(size)
    else:
        roots, parents, active = settled
        is_root = parents < 0
        next_node = np.where(is_root, np.arange(size), parents)
        short = roots.copy()
    trapped = active
    steps = 0
    for _ in range(max_rounds):
        steps += active.size
        targets, stops = draw(active)
        is_root[active] = stops
        next_node[active] = targets
        short[trapped] = next_node[trapped]
        doubling = int(np.ceil(np.log2(trapped.size + 2))) + 1
        jump = short.copy()
        for _ in range(doubling):
            jump[trapped] = jump[jump[trapped]]
        resolved = jump[trapped]
        done = is_root[resolved]
        short[trapped[done]] = resolved[done]
        still = trapped[~done]
        if still.size == 0:
            parents = next_node
            parents[is_root] = -1
            return short, parents, steps
        active = np.unique(resolved[~done])
        trapped = still
    raise ConvergenceError(
        f"cycle popping did not terminate within {max_rounds} rounds",
        iterations=max_rounds)
