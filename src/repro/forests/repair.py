"""Incremental forest repair via recorded-stack replay.

The cycle-popping view of Wilson's algorithm (Propp & Wilson) gives
every node an infinite stack of i.i.d. arrows; the sampled forest is a
*deterministic function* of the stacks, independent of popping order.
This module exploits the classic resampling-table argument to repair a
sampled forest after a graph mutation without resampling everything:

1. While sampling, **record** every arrow outcome drawn per node (the
   consumed prefix of its stack): the neighbour stepped to, or a stop
   marker.  Outcomes for node ``u`` are i.i.d. draws from ``u``'s arrow
   law (stop w.p. α, else neighbour ``v`` w.p. ``(1-α)·w_uv/d_u``).
2. On a mutation with dirty set ``M`` (every endpoint of a changed
   edge), only rows of nodes in ``M`` change.  Discard *their* records;
   every other node's recorded outcomes are draws from a law that is
   **identical** under the new graph, so they remain a valid stack
   prefix.
3. Re-run cycle popping where each node's stack is its surviving
   record, extended lazily with fresh draws from the *new* graph when
   the record runs out.

The resulting table is i.i.d. per the new graph's arrow law in every
position — dirty columns are entirely fresh, clean columns were always
distributed per the (unchanged) row law — so the repaired forest is an
*exact* sample from the new graph's Theorem-4.3 forest distribution.
This exactness matters: the seemingly cheaper shortcut of keeping
entire untouched trees and locally resampling only dirty components is
biased (kept trees are conditioned on the old run's popping history),
and the chi-square harness in ``tests/test_forest_repair.py`` catches
that bias at a few thousand samples.

The work saved is measured, not assumed: replayed record reads and
fresh draws are credited to separate ``repair_*`` fields of
:class:`~repro.counters.WorkCounters`, so callers can assert that a
single-edge mutation costs a small fraction of a full rebuild's
``walk_steps``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.counters import WorkCounters
from repro.exceptions import ConfigError
from repro.forests.cycle_popping import check_alpha, fresh_arrows, pop_cycles
from repro.forests.forest import RootedForest
from repro.graph.csr import Graph
from repro.rng import ensure_rng

__all__ = ["ForestRecord", "sample_forest_recorded", "repair_forest",
           "STOP_ARROW"]

#: Record marker for a "stop here" arrow (the node became a root).
STOP_ARROW = -1

@dataclass
class ForestRecord:
    """The consumed arrow-stack prefixes behind one sampled forest.

    CSR-shaped: ``arrows[indptr[u]:indptr[u + 1]]`` is node ``u``'s
    recorded outcome sequence in draw order — each entry a neighbour id
    or :data:`STOP_ARROW`.  Records persist across repairs (clean
    nodes keep and extend theirs), which is what makes a *sequence* of
    mutations exact, not just the first one.
    """

    indptr: np.ndarray
    arrows: np.ndarray

    @classmethod
    def empty(cls, num_nodes: int) -> "ForestRecord":
        """A record with no draws — replaying it is fresh sampling."""
        return cls(indptr=np.zeros(num_nodes + 1, dtype=np.int64),
                   arrows=np.empty(0, dtype=np.int64))

    @property
    def num_nodes(self) -> int:
        return self.indptr.size - 1

    @property
    def num_arrows(self) -> int:
        return int(self.arrows.size)

    def lengths(self) -> np.ndarray:
        """Recorded draws per node."""
        return np.diff(self.indptr)


def _ragged_positions(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Flat index array covering ``[starts[i], starts[i]+lengths[i])``
    for every ``i`` in order (the standard repeat/arange splice)."""
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(lengths)
    within = np.arange(total, dtype=np.int64) - np.repeat(ends - lengths,
                                                          lengths)
    return np.repeat(starts, lengths) + within


def _replay(graph: Graph, alpha: float, record: ForestRecord,
            dirty: np.ndarray, generator: np.random.Generator,
            max_rounds: int, method: str = "repair",
            ) -> tuple[RootedForest, ForestRecord, int, int]:
    """Cycle popping over recorded stacks extended with fresh draws.

    The arrow source for :func:`~repro.forests.cycle_popping.pop_cycles`
    replays the record where it still covers a node's stack position
    and draws fresh from the (current) graph past its end.  Returns
    ``(forest, new_record, replayed, fresh)`` where ``replayed`` counts
    record reads and ``fresh`` counts new arrow draws.  With an empty
    record this is exactly :func:`sample_forest_cycle_popping` (same
    RNG consumption order, bit-identical output at a fixed seed).
    """
    n = graph.num_nodes
    if record.num_nodes != n:
        raise ConfigError(
            f"record covers {record.num_nodes} nodes, graph has {n}")
    rec_start = record.indptr[:-1]
    rec_len = record.lengths().copy()
    rec_len[dirty] = 0  # dirty rows changed; their draws are invalid

    cursor = np.zeros(n, dtype=np.int64)  # draws so far = stack position
    fresh_nodes: list[np.ndarray] = []
    fresh_draws: list[np.ndarray] = []

    def draw(active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        use_record = cursor[active] < rec_len[active]
        recorded = active[use_record]
        arrows = record.arrows[rec_start[recorded] + cursor[recorded]]
        replayed_stops = arrows == STOP_ARROW
        stops = np.empty(active.size, dtype=bool)
        targets = np.empty(active.size, dtype=np.int64)
        stops[use_record] = replayed_stops
        targets[use_record] = np.where(replayed_stops, recorded, arrows)
        cursor[active] += 1
        drawing = active[~use_record]
        if drawing.size:
            drawn, drawn_stops = fresh_arrows(graph, alpha, drawing,
                                              generator)
            stops[~use_record] = drawn_stops
            targets[~use_record] = drawn
            fresh_nodes.append(drawing)
            fresh_draws.append(np.where(drawn_stops, STOP_ARROW, drawn))
        return targets, stops

    roots, parents, steps = pop_cycles(n, draw, max_rounds)
    fresh = sum(nodes.size for nodes in fresh_nodes)
    forest = RootedForest(roots=roots, parents=parents, num_steps=steps,
                          method=method)
    new_record = _merge_record(record, rec_len, fresh_nodes, fresh_draws, n)
    return forest, new_record, steps - fresh, fresh


def _merge_record(record: ForestRecord, kept_len: np.ndarray,
                  fresh_nodes: list[np.ndarray],
                  fresh_arrows: list[np.ndarray], n: int) -> ForestRecord:
    """Surviving record prefixes + this run's fresh draws, per node.

    Clean nodes keep their *entire* old record (entries beyond the
    surviving arrow are unconsumed i.i.d. draws, still valid later);
    dirty nodes (``kept_len == 0``) start over from this run's draws.
    Fresh draws were appended once per round per node, so a stable sort
    by node preserves each node's chronological order.
    """
    if fresh_nodes:
        nodes = np.concatenate(fresh_nodes)
        arrows = np.concatenate(fresh_arrows)
        order = np.argsort(nodes, kind="stable")
        nodes, arrows = nodes[order], arrows[order]
        fresh_counts = np.bincount(nodes, minlength=n).astype(np.int64)
    else:
        arrows = np.empty(0, dtype=np.int64)
        fresh_counts = np.zeros(n, dtype=np.int64)
    new_len = kept_len + fresh_counts
    new_indptr = np.concatenate(
        ([0], np.cumsum(new_len, dtype=np.int64)))
    new_arrows = np.empty(int(new_indptr[-1]), dtype=np.int64)
    old_dst = _ragged_positions(new_indptr[:-1], kept_len)
    old_src = _ragged_positions(record.indptr[:-1], kept_len)
    new_arrows[old_dst] = record.arrows[old_src]
    fresh_dst = _ragged_positions(new_indptr[:-1] + kept_len, fresh_counts)
    new_arrows[fresh_dst] = arrows
    return ForestRecord(indptr=new_indptr, arrows=new_arrows)


def sample_forest_recorded(graph: Graph, alpha: float,
                           rng: np.random.Generator | int | None = None,
                           max_rounds: int = 10_000_000,
                           counters: WorkCounters | None = None,
                           ) -> tuple[RootedForest, ForestRecord]:
    """Sample one forest *and* keep its arrow record for later repair.

    The forest is bit-identical to
    :func:`~repro.forests.cycle_popping.sample_forest_cycle_popping`
    at the same seed — recording changes bookkeeping, not the draw
    sequence.  Standard sampling counters are credited.
    """
    check_alpha(alpha)
    generator = ensure_rng(rng)
    forest, record, _, _ = _replay(
        graph, alpha, ForestRecord.empty(graph.num_nodes),
        np.empty(0, dtype=np.int64), generator, max_rounds,
        method="cycle_popping_recorded")
    if counters is not None:
        counters.record_forest(forest)
    return forest, record


def repair_forest(graph: Graph, alpha: float, record: ForestRecord,
                  dirty: np.ndarray,
                  rng: np.random.Generator | int | None = None,
                  max_rounds: int = 10_000_000,
                  counters: WorkCounters | None = None,
                  ) -> tuple[RootedForest, ForestRecord]:
    """Repair one recorded forest after a mutation of ``graph``.

    Parameters
    ----------
    graph:
        The **new** (post-mutation) graph.
    record:
        The arrow record sampled against the pre-mutation graph.
    dirty:
        Node ids whose CSR rows may have changed — typically
        :meth:`~repro.graph.delta.GraphDelta.touched_nodes`.  A
        superset is safe; a miss is not.
    rng:
        Source for the fresh draws (dirty stacks + record extensions).

    Returns
    -------
    (forest, record):
        An exact sample from the new graph's forest law, plus the
        extended record to use for the *next* repair.  Credits
        ``repair_replayed_steps`` / ``repair_fresh_steps`` /
        ``repair_dirty_nodes`` on ``counters``.
    """
    check_alpha(alpha)
    dirty = np.asarray(dirty, dtype=np.int64)
    if dirty.size and (dirty.min() < 0 or dirty.max() >= graph.num_nodes):
        raise ConfigError("dirty node id out of range")
    generator = ensure_rng(rng)
    forest, new_record, replayed_count, fresh_count = _replay(
        graph, alpha, record, dirty, generator, max_rounds)
    if counters is not None:
        counters.repair_replayed_steps += replayed_count
        counters.repair_fresh_steps += fresh_count
        counters.repair_dirty_nodes += dirty.size
    return forest, new_record
