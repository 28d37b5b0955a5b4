r"""Forest-based PPR estimators (the Monte-Carlo stage of §5.2 / §6.2).

After a push stage leaves a residual vector ``r``, the remaining mass
to estimate is ``Σ_u r(u) π(u, v)`` (single source, Eq. 6) or
``Σ_u π(v, u) r(u)`` (single target, Eq. 7).  With ``π`` read as a
rooted-in probability (Theorem 3.6), one sampled forest yields, for
*every* node simultaneously:

single source
    basic (FORAL):      ``a_v = Σ_{u : root(u) = v} r(u)``
    improved (FORALV):  ``a_v = d_v · (Σ_{u∈C(v)} r(u)) / (Σ_{u∈C(v)} d_u)``
single target
    basic (BACKL):      ``a_v = r(root(v))``
    improved (BACKLV):  ``a_v = (Σ_{u∈C(v)} r(u)·d_u) / (Σ_{u∈C(v)} d_u)``

where ``C(v)`` is the tree containing ``v``.  The improved versions are
the conditional Monte-Carlo estimators of Theorem 3.8: given the
forest's partition, the root of each tree is degree-distributed
(Theorem 3.7), so replacing the indicator by its conditional
expectation never increases variance (Lemma 5.1) while staying
unbiased.

All four are O(n) per forest via ``np.bincount`` keyed on the root
labels.  Single-node trees of isolated (degree-0) nodes root
themselves with probability one; the improved estimators special-case
the resulting 0/0.

**Directedness.**  The basic estimators are unbiased on directed
graphs too (Theorem 3.6 needs only the Wilson/cycle-popping law, which
holds for any Markov chain).  The *improved* estimators rely on
Theorem 3.7's degree-proportional conditional root distribution, which
requires an undirected graph — on directed inputs they are biased
(verified empirically in the test-suite), so the query algorithms
refuse that combination.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigError
from repro.forests.forest import RootedForest

__all__ = [
    "root_indicator",
    "source_estimate_basic",
    "source_estimate_improved",
    "target_estimate_basic",
    "target_estimate_improved",
    "estimator_for",
    "accumulate_estimates",
    "weighted_combine",
]


def _check_inputs(forest: RootedForest, residual: np.ndarray) -> np.ndarray:
    residual = np.asarray(residual, dtype=np.float64)
    if residual.shape != (forest.num_nodes,):
        raise ConfigError(
            f"residual must have shape ({forest.num_nodes},), "
            f"got {residual.shape}")
    return residual


def root_indicator(forest: RootedForest, root: int) -> np.ndarray:
    """Boolean vector of the event "``u`` rooted in ``root``" per node.

    One-forest estimate of the column ``π(·, root)`` (Theorem 3.6).
    """
    if not 0 <= root < forest.num_nodes:
        raise ConfigError(f"root {root} out of range")
    return forest.roots == root


def source_estimate_basic(forest: RootedForest,
                          residual: np.ndarray) -> np.ndarray:
    """FORAL estimator: all of a tree's residual mass lands on its root.

    Unbiased for ``Σ_u r(u) π(u, ·)``: the expectation of
    ``Σ_u r(u)·1[root(u) = v]`` is ``Σ_u r(u)·Pr(u rooted in v)``.
    """
    residual = _check_inputs(forest, residual)
    return np.bincount(forest.roots, weights=residual,
                       minlength=forest.num_nodes)


def source_estimate_improved(forest: RootedForest, residual: np.ndarray,
                             degrees: np.ndarray) -> np.ndarray:
    """FORALV estimator: spread each tree's mass by degree (Thm 3.8)."""
    residual = _check_inputs(forest, residual)
    degrees = np.asarray(degrees, dtype=np.float64)
    tree_residual = np.bincount(forest.roots, weights=residual,
                                minlength=forest.num_nodes)
    tree_degree = forest.component_degree_mass(degrees)
    estimate = np.zeros(forest.num_nodes)
    labels = forest.roots
    positive = tree_degree[labels] > 0
    estimate[positive] = (degrees[positive]
                          * tree_residual[labels[positive]]
                          / tree_degree[labels[positive]])
    # isolated single-node trees: the node is its own root w.p. 1
    estimate[~positive] = residual[~positive]
    return estimate


def target_estimate_basic(forest: RootedForest,
                          residual: np.ndarray) -> np.ndarray:
    """BACKL estimator: every node inherits its root's residual."""
    residual = _check_inputs(forest, residual)
    return residual[forest.roots]


def target_estimate_improved(forest: RootedForest, residual: np.ndarray,
                             degrees: np.ndarray) -> np.ndarray:
    """BACKLV estimator: degree-weighted tree average of the residual.

    Conditional expectation of :func:`target_estimate_basic` given the
    partition — the tree root is degree-distributed, so
    ``E[r(root) | φ] = Σ_{u∈C} r(u) d_u / Σ_{u∈C} d_u``.
    """
    residual = _check_inputs(forest, residual)
    degrees = np.asarray(degrees, dtype=np.float64)
    tree_weighted = np.bincount(forest.roots, weights=residual * degrees,
                                minlength=forest.num_nodes)
    tree_degree = forest.component_degree_mass(degrees)
    labels = forest.roots
    estimate = np.zeros(forest.num_nodes)
    positive = tree_degree[labels] > 0
    estimate[positive] = (tree_weighted[labels[positive]]
                          / tree_degree[labels[positive]])
    estimate[~positive] = residual[~positive]
    return estimate


# ----------------------------------------------------------------------
# Accumulation over forest streams (shared by the serial Monte-Carlo
# stages and the parallel engine's worker chunks)
# ----------------------------------------------------------------------
def estimator_for(kind: str, improved: bool):
    """Return ``f(forest, residual, degrees) -> estimate`` by name.

    ``kind`` is ``"source"`` or ``"target"``; ``improved`` selects the
    conditional-Monte-Carlo variant.  The basic estimators ignore the
    ``degrees`` argument.
    """
    if kind == "source":
        if improved:
            return source_estimate_improved
        return lambda forest, residual, degrees: source_estimate_basic(
            forest, residual)
    if kind == "target":
        if improved:
            return target_estimate_improved
        return lambda forest, residual, degrees: target_estimate_basic(
            forest, residual)
    raise ConfigError(f"kind must be 'source' or 'target', got {kind!r}")


def weighted_combine(rows, weights) -> np.ndarray:
    """Fold estimate rows into ``Σ_i w_i · rows[i]`` in row order.

    The multi-seed personalization fold: by linearity of every forest
    estimator in the residual, the weighted sum of single-seed rows
    *is* the PPR vector of the seed-set personalization.  Accumulation
    is sequential in the given row order, so a fixed ``(rows, weights)``
    sequence yields bit-identical output — the contract the
    ``query_multiseed == Σ w_i · row_i`` tests pin down.
    """
    rows = list(rows)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (len(rows),):
        raise ConfigError(
            f"need one weight per row, got {weights.size} weights "
            f"for {len(rows)} rows")
    if not rows:
        raise ConfigError("weighted_combine needs at least one row")
    out = np.zeros_like(np.asarray(rows[0], dtype=np.float64))
    for row, weight in zip(rows, weights):
        out += weight * np.asarray(row, dtype=np.float64)
    return out


def accumulate_estimates(forests, residual: np.ndarray,
                         degrees: np.ndarray | None = None, *,
                         kind: str = "source", improved: bool = False,
                         track_squares: bool = False,
                         counters=None) -> tuple[np.ndarray,
                                                 np.ndarray | None, int]:
    """Fold an iterable of forests into estimator sums.

    Returns ``(sums, squares, drawn)`` where ``sums`` is the per-node
    sum of the per-forest estimates, ``squares`` their elementwise
    squares (``None`` unless ``track_squares``) and ``drawn`` the
    number of forests consumed.  Accumulation order follows the
    iterable, so a fixed forest sequence yields bit-identical sums —
    the property the parallel engine's determinism contract rests on.

    ``counters`` (a :class:`~repro.counters.WorkCounters`) is updated
    with each forest's steps/pops if given.
    """
    residual = np.asarray(residual, dtype=np.float64)
    estimator = estimator_for(kind, improved)
    if improved and degrees is None:
        raise ConfigError("improved estimators need the degree vector")
    sums = np.zeros(residual.size)
    squares = np.zeros(residual.size) if track_squares else None
    drawn = 0
    for forest in forests:
        estimate = estimator(forest, residual, degrees)
        sums += estimate
        if squares is not None:
            squares += estimate * estimate
        if counters is not None:
            counters.record_forest(forest)
        drawn += 1
    return sums, squares, drawn

