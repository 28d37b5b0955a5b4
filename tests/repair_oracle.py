"""Full-replay reference for forest repair.

:func:`full_replay` re-pops *every* node over its recorded stack
(emptied for dirty nodes) extended with fresh draws — the repair rule
before it was restricted to the closure of the dirty set.  The
production :func:`repro.forests.repair.repair_forest` pops only that
closure against the settled rest; the popping lemma says both give the
same forest from the same stacks, and ``tests/test_forest_repair.py``
asserts it bit for bit by feeding both one fixed table of fresh draws.
"""

import numpy as np

from repro.forests.cycle_popping import pop_cycles
from repro.forests.forest import RootedForest
from repro.forests.repair import STOP_ARROW, ForestRecord


def full_replay(graph, record, dirty, fresh, max_rounds=10_000_000):
    """Cycle-pop all nodes over ``record``'s stacks, ``dirty`` emptied.

    ``fresh(nodes) -> (targets, stops)`` draws the next fresh arrow of
    every node in ``nodes`` (called once a node runs past its record).
    Returns ``(forest, new_record)``: clean rows are kept whole (an
    unconsumed tail stays valid later), a dirty row restarts from this
    run's draws, fresh draws are appended, and ``consumed`` is every
    node's stack position at the end.
    """
    n = graph.num_nodes
    indptr, arrows = record.csr()
    rec_len = np.diff(indptr)
    rec_len[np.asarray(dirty, dtype=np.int64)] = 0
    cursor = np.zeros(n, dtype=np.int64)
    rows = [list(arrows[indptr[u]:indptr[u] + rec_len[u]])
            for u in range(n)]

    def draw(active):
        stops = np.empty(active.size, dtype=bool)
        targets = np.empty(active.size, dtype=np.int64)
        use_record = cursor[active] < rec_len[active]
        drawing = active[~use_record]
        if drawing.size:
            drawn, drawn_stops = fresh(drawing)
            stops[~use_record] = drawn_stops
            targets[~use_record] = drawn
            for node, target, stop in zip(drawing, drawn, drawn_stops):
                rows[node].append(STOP_ARROW if stop else int(target))
        recorded = active[use_record]
        replayed = arrows[indptr[recorded] + cursor[recorded]]
        stops[use_record] = replayed == STOP_ARROW
        targets[use_record] = np.where(replayed == STOP_ARROW, recorded,
                                       replayed)
        cursor[active] += 1
        return targets, stops

    roots, parents, steps = pop_cycles(n, draw, max_rounds)
    new_indptr = np.concatenate(([0], np.cumsum([len(row) for row in rows])))
    new_arrows = np.asarray([arrow for row in rows for arrow in row],
                            dtype=np.int64)
    new_record = ForestRecord.from_csr(new_indptr, new_arrows, cursor)
    forest = RootedForest(roots=roots, parents=parents, num_steps=steps,
                          method="repair")
    return forest, new_record
