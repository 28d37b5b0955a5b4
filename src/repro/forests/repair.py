"""Incremental forest repair: re-pop only what a graph change can reach.

The cycle-popping view of Wilson's algorithm (Propp & Wilson) gives
every node an infinite stack of i.i.d. arrows; the sampled forest is a
*deterministic function* of the stacks, independent of popping order.
This module repairs a sampled forest after a graph mutation without
resampling everything:

1. While sampling, **record** every arrow drawn per node (a prefix of
   its stack): the neighbour stepped to, or a stop marker, and how
   many of them the run *consumed* — popped, or kept as the node's
   final arrow.  Entries for node ``u`` are i.i.d. draws from ``u``'s
   arrow law (stop w.p. α, else neighbour ``v`` w.p.
   ``(1-α)·w_uv/d_u``).
2. On a mutation with dirty set ``D`` (every node whose row may have
   changed), discard the stacks of ``D``; every other node's recorded
   arrows are draws from a law that is **identical** under the new
   graph, so they remain a valid stack prefix.  Stacks run on past
   their record with fresh draws from the *new* graph.
3. Re-pop only the **closure** ``C``: ``D`` plus every node whose
   consumed arrows reach ``D``, directly or through other consumed
   arrows.  No node outside ``C`` has a consumed arrow into ``C``, so
   every cycle the old run popped lies wholly inside or wholly outside
   ``C``, and the stacks outside ``C`` are unchanged: every node outside
   ``C`` keeps its final arrow and root.  Popping ``C`` from stack
   position 0 against those settled nodes yields the forest a full
   replay of the new stacks yields (``docs/THEORY.md`` has the proof,
   and ``tests/repair_oracle.py`` the full replay it is tested
   against).

The new stacks are i.i.d. per the new graph's arrow law in every
position — dirty stacks are entirely fresh, clean stacks were always
distributed per the (unchanged) row law — so the repaired forest is an
*exact* sample from the new graph's Theorem-4.3 forest distribution.
The record keeps each node's consumed count, so a *sequence* of
repairs stays exact: after a repair, nodes outside ``C`` may carry
unconsumed tails, and the count, not the record length, says which
arrows the closure must follow.  Any superset of ``C`` closed the same
way is exact too, which is why a record whose counts are unknown may
take its lengths as the counts.

The seemingly cheaper shortcut of keeping entire untouched trees and
locally resampling only dirty components is biased (kept trees are
conditioned on the old run's popping history), and the chi-square
harness in ``tests/test_forest_repair.py`` catches that bias at a few
thousand samples.

The work is measured, not assumed: record reads and fresh draws by
the closure's nodes are credited to separate ``repair_*`` fields of
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

#: Record dtype: node ids, stack offsets and counts.
_INDEX = np.int32

#: Superseded rows may take up to this share of the live ones before a
#: repair compacts the record's storage.
COMPACT_SLACK = 0.25


@dataclass
class ForestRecord:
    """The recorded arrow stacks behind one sampled forest.

    ``arrows[starts[u]:starts[u] + lengths[u]]`` is node ``u``'s
    recorded stack in draw order — each entry a neighbour id or
    :data:`STOP_ARROW` — and its first ``consumed[u]`` entries are the
    ones the run behind the current forest popped or kept.  Rows sit
    in ``arrows`` in any order, and a repair appends the rows it
    rewrites rather than moving the others, so ``arrows`` may also
    hold superseded rows until the next compaction.

    ``popped_from``/``popped_to`` list the consumed non-stop arrows
    other than each node's last one as edges: with the forest's
    parents (the last ones) they are every arrow the closure of a
    repair follows.  They are derived from the rows and kept so that a
    repair need not rebuild them.  ``repopped`` is the number of nodes
    the producing run popped from stack position 0: every node for a
    fresh sample, the closure for a repair.
    """

    starts: np.ndarray
    lengths: np.ndarray
    consumed: np.ndarray
    arrows: np.ndarray
    popped_from: np.ndarray | None = None
    popped_to: np.ndarray | None = None
    repopped: int = 0

    @classmethod
    def empty(cls, num_nodes: int) -> "ForestRecord":
        """A record with no draws — repopping it is fresh sampling."""
        zeros = np.zeros(num_nodes, dtype=_INDEX)
        return cls(starts=zeros, lengths=zeros, consumed=zeros,
                   arrows=np.empty(0, dtype=_INDEX),
                   popped_from=np.empty(0, dtype=_INDEX),
                   popped_to=np.empty(0, dtype=_INDEX))

    @classmethod
    def from_csr(cls, indptr: np.ndarray, arrows: np.ndarray,
                 consumed: np.ndarray | None = None) -> "ForestRecord":
        """A record from node-ordered rows; ``consumed`` defaults to
        the row lengths (every recorded arrow counted as consumed)."""
        indptr = np.asarray(indptr, dtype=np.int64)
        lengths = np.diff(indptr).astype(_INDEX)
        return cls(starts=indptr[:-1].astype(_INDEX), lengths=lengths,
                   consumed=(lengths if consumed is None else
                             np.asarray(consumed, dtype=_INDEX)),
                   arrows=np.asarray(arrows, dtype=_INDEX))

    @property
    def num_nodes(self) -> int:
        return self.lengths.size

    @property
    def num_arrows(self) -> int:
        """Recorded draws across all live rows."""
        return int(self.lengths.sum(dtype=np.int64))

    @property
    def nbytes(self) -> int:
        arrays = (self.starts, self.lengths, self.consumed, self.arrows,
                  self.popped_from, self.popped_to)
        return sum(array.nbytes for array in arrays if array is not None)

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, arrows)`` with the rows in node order and no
        superseded entries (the persisted form)."""
        indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.cumsum(self.lengths, out=indptr[1:])
        if np.array_equal(self.starts, indptr[:-1]) \
                and self.arrows.size == indptr[-1]:
            return indptr, self.arrows
        return indptr, self.arrows[_ragged_positions(self.starts,
                                                     self.lengths)]

    def popped_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """``(popped_from, popped_to)``: every consumed non-stop arrow
        but each node's last."""
        if self.popped_from is None or self.popped_to is None:
            popped = np.maximum(self.consumed - 1, 0)
            owners = np.repeat(np.arange(self.num_nodes, dtype=_INDEX),
                               popped)
            targets = self.arrows[_ragged_positions(self.starts, popped)]
            moves = targets != STOP_ARROW
            self.popped_from, self.popped_to = owners[moves], targets[moves]
        return self.popped_from, self.popped_to


def _ragged_positions(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Flat index array covering ``[starts[i], starts[i]+lengths[i])``
    for every ``i`` in order (the standard repeat/arange splice)."""
    lengths = lengths.astype(np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(lengths)
    within = np.arange(total, dtype=np.int64) - np.repeat(ends - lengths,
                                                          lengths)
    return np.repeat(starts.astype(np.int64), lengths) + within


def _closure(forest: RootedForest, record: ForestRecord,
             dirty: np.ndarray) -> np.ndarray:
    """Mask of the dirty nodes and every node whose consumed arrows —
    its forest arrow, the popped ones — reach them, transitively."""
    popped_from, popped_to = record.popped_edges()
    n = record.num_nodes
    inside = np.zeros(n + 1, dtype=bool)  # a root's parent -1 reads [n]
    inside[dirty] = True
    while True:
        # (np.take gathers through int32 ids twice as fast as [])
        reaching = np.concatenate((
            np.flatnonzero(np.take(inside, forest.parents)),
            popped_from[np.take(inside, popped_to)]))
        new = reaching[~inside[reaching]]
        if not new.size:
            return inside[:n]
        inside[new] = True


def _repop(graph: Graph, alpha: float, record: ForestRecord,
           forest: RootedForest | None, inside: np.ndarray | None,
           dirty: np.ndarray, generator: np.random.Generator,
           max_rounds: int, method: str,
           ) -> tuple[RootedForest, ForestRecord, int, int]:
    """Cycle-pop the nodes of ``inside`` from stack position 0.

    Each stack is the node's recorded row (empty for ``dirty`` nodes)
    extended with fresh draws from the current graph; nodes outside
    ``inside`` keep their arrow and root in ``forest``.  With
    ``inside`` ``None`` every node is popped and ``forest`` is unused.
    Returns ``(forest, new_record, steps, fresh)``: ``steps`` counts
    the arrows this run drew, ``fresh`` those not read from the
    record.  With an empty record this is exactly
    :func:`sample_forest_cycle_popping` (same RNG consumption order,
    bit-identical output at a fixed seed).
    """
    n = graph.num_nodes
    rec_start = record.starts
    rec_len = record.lengths
    if dirty.size:
        rec_len = rec_len.copy()
        rec_len[dirty] = 0  # dirty rows changed; their draws are invalid
    cursor = np.zeros(n, dtype=_INDEX)  # draws so far = stack position
    drawn_nodes: list[np.ndarray] = []
    drawn_arrows: list[np.ndarray] = []
    drawn_fresh: list[np.ndarray] = []

    def draw(active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        position = cursor[active]
        use_record = position < rec_len[active]
        fresh = ~use_record
        arrows = np.empty(active.size, dtype=np.int64)
        recorded = active[use_record]
        arrows[use_record] = record.arrows[rec_start[recorded]
                                           + position[use_record]]
        cursor[active] = position + 1
        drawing = active[fresh]
        if drawing.size:
            targets, stops = fresh_arrows(graph, alpha, drawing, generator)
            arrows[fresh] = np.where(stops, STOP_ARROW, targets)
        drawn_nodes.append(active)
        drawn_arrows.append(arrows)
        drawn_fresh.append(fresh)
        stops = arrows == STOP_ARROW
        return np.where(stops, active, arrows), stops

    if inside is None:
        active = np.arange(n)
        roots, parents, steps = pop_cycles(n, draw, max_rounds)
    else:
        active = np.flatnonzero(inside)
        roots, parents, steps = pop_cycles(
            n, draw, max_rounds, settled=(forest.roots, forest.parents,
                                          active))
    nodes = np.concatenate(drawn_nodes)
    arrows = np.concatenate(drawn_arrows).astype(_INDEX)
    fresh = np.concatenate(drawn_fresh)
    new_record = _patched(record, inside, active, cursor, nodes, arrows,
                          fresh)
    forest = RootedForest(roots=roots, parents=parents,
                          num_steps=int(new_record.consumed.sum(
                              dtype=np.int64)),
                          method=method)
    return forest, new_record, steps, int(np.count_nonzero(fresh))


def _patched(record: ForestRecord, inside: np.ndarray | None,
             active: np.ndarray, cursor: np.ndarray, nodes: np.ndarray,
             arrows: np.ndarray, fresh: np.ndarray) -> ForestRecord:
    """``record`` with the re-popped nodes' rows rewritten, copy-on-write.

    A node that drew fresh arrows consumed its whole surviving row
    first (or had none: a dirty node), so its new row is exactly the
    draws of this run, in order.  Other re-popped nodes keep their row
    and only change their consumed count.  Rewritten rows are appended;
    the storage is compacted once superseded entries pass
    :data:`COMPACT_SLACK` of the live ones.
    """
    order = np.argsort(nodes, kind="stable")  # per node, in draw order
    nodes, arrows, fresh = nodes[order], arrows[order], fresh[order]
    first = np.empty(nodes.size + 1, dtype=bool)  # [k]: past the end
    first[0] = first[-1] = True
    np.not_equal(nodes[1:], nodes[:-1], out=first[1:-1])
    bounds = np.flatnonzero(first)  # each node's draws, then the end
    rewrite = np.logical_or.reduceat(fresh, bounds[:-1]) \
        if nodes.size else np.zeros(0, dtype=bool)
    rewritten = nodes[bounds[:-1][rewrite]]
    sizes = cursor[rewritten]
    taken = np.repeat(rewrite, np.diff(bounds))
    starts = record.starts.copy()
    lengths = record.lengths.copy()
    consumed = record.consumed.copy()
    consumed[active] = cursor[active]
    lengths[rewritten] = sizes
    live = record.num_arrows + int(sizes.sum(dtype=np.int64)) \
        - int(record.lengths[rewritten].sum(dtype=np.int64))
    if record.arrows.size + sizes.sum() > (1 + COMPACT_SLACK) * live:
        # compact: live rows in node order, the rewritten ones included
        kept_len = record.lengths.copy()
        kept_len[rewritten] = 0
        indptr = np.zeros(record.num_nodes + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        storage = np.empty(int(indptr[-1]), dtype=_INDEX)
        storage[_ragged_positions(indptr[:-1], kept_len)] = \
            record.arrows[_ragged_positions(record.starts, kept_len)]
        storage[_ragged_positions(indptr[rewritten], sizes)] = arrows[taken]
        starts = indptr[:-1].astype(_INDEX)
    else:
        starts[rewritten] = record.arrows.size \
            + np.cumsum(sizes, dtype=np.int64) - sizes
        storage = np.concatenate((record.arrows, arrows[taken]))
    # a node's last draw is its forest arrow; the others were popped
    popped = (arrows != STOP_ARROW) & ~first[1:]
    popped_from = nodes[popped].astype(_INDEX)
    popped_to = arrows[popped]
    if inside is not None:
        old_from, old_to = record.popped_edges()
        kept = ~np.take(inside, old_from)
        popped_from = np.concatenate((old_from[kept], popped_from))
        popped_to = np.concatenate((old_to[kept], popped_to))
    return ForestRecord(starts=starts, lengths=lengths, consumed=consumed,
                        arrows=storage, popped_from=popped_from,
                        popped_to=popped_to, repopped=int(active.size))


def sample_forest_recorded(graph: Graph, alpha: float,
                           rng: np.random.Generator | int | None = None,
                           max_rounds: int = 10_000_000,
                           counters: WorkCounters | None = None,
                           ) -> tuple[RootedForest, ForestRecord]:
    """Sample one forest *and* keep its arrow record for later repair.

    The forest is bit-identical to
    :func:`~repro.forests.cycle_popping.sample_forest_cycle_popping`
    at the same seed — recording changes bookkeeping, not the draw
    sequence.  It is the repair path with every node re-popped over an
    empty record.  Standard sampling counters are credited.
    """
    check_alpha(alpha)
    generator = ensure_rng(rng)
    forest, record, _, _ = _repop(
        graph, alpha, ForestRecord.empty(graph.num_nodes), None, None,
        np.empty(0, dtype=np.int64), generator, max_rounds,
        method="cycle_popping_recorded")
    if counters is not None:
        counters.record_forest(forest)
    return forest, record


def repair_forest(graph: Graph, alpha: float, forest: RootedForest,
                  record: ForestRecord, dirty: np.ndarray,
                  rng: np.random.Generator | int | None = None,
                  max_rounds: int = 10_000_000,
                  counters: WorkCounters | None = None,
                  ) -> tuple[RootedForest, ForestRecord]:
    """Repair one recorded forest after a mutation of ``graph``.

    Parameters
    ----------
    graph:
        The **new** (post-mutation) graph.
    forest, record:
        The forest and arrow record sampled (or last repaired) against
        the pre-mutation graph.  Neither is modified.
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
        record to use for the *next* repair.  Credits
        ``repair_replayed_steps`` (record reads by the re-popped
        closure), ``repair_fresh_steps`` and ``repair_dirty_nodes`` on
        ``counters``.
    """
    check_alpha(alpha)
    dirty = np.asarray(dirty, dtype=np.int64)
    if dirty.size and (dirty.min() < 0 or dirty.max() >= graph.num_nodes):
        raise ConfigError("dirty node id out of range")
    if record.num_nodes != graph.num_nodes:
        raise ConfigError(f"record covers {record.num_nodes} nodes, "
                          f"graph has {graph.num_nodes}")
    generator = ensure_rng(rng)
    repaired, new_record, steps, fresh = _repop(
        graph, alpha, record, forest, _closure(forest, record, dirty),
        dirty, generator, max_rounds, method="repair")
    if counters is not None:
        counters.repair_replayed_steps += steps - fresh
        counters.repair_fresh_steps += fresh
        counters.repair_dirty_nodes += dirty.size
    return repaired, new_record
