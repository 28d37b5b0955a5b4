"""COO-built reference for the whole-bank fold operators.

:func:`coo_bank_operators` builds the three CSR operators of
:class:`repro.montecarlo.forest_index._BankOperators` the direct way:
per-forest ``argsort`` segments, COO triplets, and scipy's COO → CSR
conversion (which sorts each row and sums duplicates).  The production
build derives the same arrays with a root-mask cumsum, a regular
node-major indptr and a counting-sort transpose;
``tests/test_bank_operators.py`` asserts the two agree byte for byte.

:func:`root_operators` builds the two operators that bank formats
v1–v3 also stored for the basic estimators — ``scatter_root`` (each
root's segments) and ``gather_root`` (each node's roots, with
counts) — so the basic folds, which now read ``Q``'s pattern and
the segment roots, can be checked against them, and a v3-layout
bank can be written.

:class:`PerForestIndex` is the fold the direct way: every forest's
estimator from :mod:`repro.forests.estimators`, averaged over the bank.
The indexed queries (``foralv+``, ``speedlv+``, ``backlv+``) run on it
as on any :class:`~repro.montecarlo.forest_index.ForestIndex`, so a
bank's operator fold can be checked against the mean of its forests'
own estimates.  :func:`serial_bank_forests` draws the forests that
``ForestIndex.build(..., workers=1)`` folds.
"""

import numpy as np
import scipy.sparse as sparse

from repro.forests.estimators import (
    source_estimate_basic,
    source_estimate_improved,
    target_estimate_basic,
    target_estimate_improved,
)
from repro.forests.sampling import sample_forests
from repro.montecarlo.forest_index import ForestIndex, _BankOperators


def serial_bank_forests(graph, alpha, num_forests, rng,
                        variance_mode="improved"):
    """The forests a ``workers=1`` build samples: one serial stream."""
    return list(sample_forests(
        graph, alpha, num_forests, rng=rng,
        method="stratified" if variance_mode == "stratified" else "auto"))


class PerForestIndex(ForestIndex):
    """A forest index that folds forest by forest."""

    def __init__(self, graph, alpha, forests):
        super().__init__(graph, alpha, None, num_forests=len(forests),
                         build_seconds=0.0,
                         build_steps=sum(f.num_steps for f in forests))
        self.forests = forests

    def _mean(self, residuals, estimator):
        return np.array([
            np.mean([estimator(forest, residual) for forest in self.forests],
                    axis=0)
            for residual in np.atleast_2d(residuals)])

    def estimate_source_many(self, residuals, *, improved=True):
        degrees = self.graph.degrees
        return self._mean(residuals, (
            lambda forest, r: source_estimate_improved(forest, r, degrees))
            if improved else source_estimate_basic)

    def estimate_target_many(self, residuals, *, improved=True):
        degrees = self.graph.degrees
        return self._mean(residuals, (
            lambda forest, r: target_estimate_improved(forest, r, degrees))
            if improved else target_estimate_basic)


def coo_bank_operators(forests, degrees) -> _BankOperators:
    num_nodes = degrees.size
    node_ids = np.arange(num_nodes)
    seg_cols = []      # global segment id per (forest, node)
    seg_roots = []     # root node of each global segment
    seg_degree = []    # safe degree mass of each global segment
    offset = 0
    for forest in forests:
        labels = forest.roots
        order = np.argsort(labels, kind="stable")
        sorted_labels = labels[order]
        boundaries = np.empty(num_nodes, dtype=bool)
        boundaries[0] = True
        np.not_equal(sorted_labels[1:], sorted_labels[:-1],
                     out=boundaries[1:])
        starts = np.flatnonzero(boundaries)
        root_ids = sorted_labels[starts]
        seg_of = np.empty(num_nodes, dtype=np.int64)
        seg_of[order] = np.repeat(
            np.arange(root_ids.size),
            np.diff(np.append(starts, num_nodes)))
        tree_degree = forest.component_degree_mass(degrees)[root_ids]
        seg_cols.append(seg_of + offset)
        seg_roots.append(root_ids)
        seg_degree.append(np.where(tree_degree > 0, tree_degree, 1.0))
        offset += root_ids.size

    cols = np.concatenate(seg_cols)
    rows = np.tile(node_ids, len(forests))
    ops = object.__new__(_BankOperators)
    ops.num_forests = len(forests)
    ops.local_nodes = None
    ops.degree_zero = np.flatnonzero(degrees == 0)
    ops.degree_zero_nodes = ops.degree_zero
    segment_degree = np.concatenate(seg_degree)
    ops.segment_degree = segment_degree
    ops.segment_root = np.concatenate(seg_roots)
    ones = np.ones(cols.size)
    ops.tree_sum = sparse.csr_matrix(
        (ones, (cols, rows)), shape=(offset, num_nodes))
    ops.spread_source = sparse.csr_matrix(
        (np.tile(degrees, len(forests)) / segment_degree[cols],
         (rows, cols)), shape=(num_nodes, offset))
    ops.spread_target = sparse.csr_matrix(
        (1.0 / segment_degree[cols], (rows, cols)),
        shape=(num_nodes, offset))
    return ops


def root_operators(forests, num_nodes):
    """``(scatter_root, gather_root)`` of ``forests`` as format v1–v3
    stored them: ``scatter_root`` (``n × ΣS``) holds a 1 at each
    segment's root, ``gather_root`` (``n × n``) counts, per node, the
    forests in which each root is its root."""
    segment_root = np.concatenate([
        np.flatnonzero(forest.roots == np.arange(num_nodes))
        for forest in forests])
    offset = segment_root.size
    scatter_root = sparse.csr_matrix(
        (np.ones(offset), (segment_root, np.arange(offset))),
        shape=(num_nodes, offset))
    rows = np.tile(np.arange(num_nodes), len(forests))
    gather_root = sparse.csr_matrix(
        (np.ones(rows.size),
         (rows, np.concatenate([forest.roots for forest in forests]))),
        shape=(num_nodes, num_nodes))
    return scatter_root, gather_root
