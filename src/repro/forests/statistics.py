r"""Descriptive statistics of random rooted spanning forests.

Diagnostics connecting observable forest shapes back to the theory:

- **expected number of trees.**  A node is a root iff it is "rooted in
  itself", so by Theorem 3.6
  ``E[#trees] = Σ_u π(u, u) = tr(Π) = α·τ`` (Lemma 4.4) — the forest
  gets bushier exactly as fast as sampling gets cheaper.
- **tree-size distribution.**  The mean tree size is ``n / E[#trees]``;
  its spread diagnoses how much one sample "covers" (relevant to the
  §5.3 argument that one forest ≈ n walk samples).
- **root-mass distribution.**  ``Pr(u ∈ ρ(F)) = π(u, u)`` per node —
  the diagonal of the PPR matrix read off a handful of forests.

These are cheap (O(n) per forest) and power the `statistics` checks in
the test-suite plus ad-hoc exploration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigError
from repro.forests.batch_sampling import sample_forests_batch
from repro.forests.estimators import accumulate_estimates
from repro.forests.sampling import sample_forests
from repro.graph.csr import Graph
from repro.rng import ensure_rng

__all__ = ["ForestStatistics", "collect_forest_statistics",
           "empirical_variance_ratio"]


@dataclass
class ForestStatistics:
    """Aggregates over a batch of sampled forests.

    Attributes
    ----------
    num_forests:
        Sample count behind the aggregates.
    mean_trees:
        Average number of trees per forest — estimates ``tr(Π) = α·τ``.
    mean_steps:
        Average sampling cost per forest — estimates τ (Lemma 4.4).
    root_frequency:
        Per-node root frequency — estimates ``diag(Π)`` (``π(u, u)``).
    tree_size_mean, tree_size_max:
        Moments of the tree-size distribution across all samples.
    """

    num_forests: int
    mean_trees: float
    mean_steps: float
    root_frequency: np.ndarray
    tree_size_mean: float
    tree_size_max: int

    @property
    def diagonal_estimate(self) -> np.ndarray:
        """Alias: the estimated PPR diagonal ``π(u, u)`` per node."""
        return self.root_frequency

    def implied_tau_at(self, alpha: float) -> float:
        """``E[#trees] / α`` — cross-checkable against ``mean_steps``."""
        if not 0.0 < alpha < 1.0:
            raise ConfigError(f"alpha must lie strictly in (0, 1), got {alpha}")
        return self.mean_trees / alpha


def collect_forest_statistics(graph: Graph, alpha: float,
                              num_forests: int = 64, *,
                              rng=None,
                              method: str = "auto") -> ForestStatistics:
    """Sample ``num_forests`` forests and aggregate their shape statistics."""
    if num_forests <= 0:
        raise ConfigError("num_forests must be positive")
    n = graph.num_nodes
    root_counts = np.zeros(n)
    total_trees = 0
    total_steps = 0
    size_sum = 0.0
    size_count = 0
    size_max = 0
    for forest in sample_forests(graph, alpha, num_forests, rng=rng,
                                 method=method):
        roots = forest.root_set
        root_counts[roots] += 1
        total_trees += roots.size
        total_steps += forest.num_steps
        sizes = forest.component_sizes[roots]
        size_sum += float(sizes.sum())
        size_count += sizes.size
        size_max = max(size_max, int(sizes.max(initial=0)))
    return ForestStatistics(
        num_forests=num_forests,
        mean_trees=total_trees / num_forests,
        mean_steps=total_steps / num_forests,
        root_frequency=root_counts / num_forests,
        tree_size_mean=size_sum / max(size_count, 1),
        tree_size_max=size_max,
    )


# ----------------------------------------------------------------------
# Empirical-variance harness (the variance_mode acceptance measurement)
# ----------------------------------------------------------------------
def _batch_mean_estimate(graph: Graph, alpha: float, residual: np.ndarray,
                         num_forests: int, mode: str, kind: str,
                         rng) -> np.ndarray:
    """One bank-mean estimate of ``num_forests`` forests under ``mode``."""
    if mode == "stratified":
        forests = sample_forests_batch(graph, alpha, num_forests, rng=rng,
                                       stratified=True)
        sums, _, drawn = accumulate_estimates(
            forests, residual, graph.degrees, kind=kind, improved=True)
        return sums / drawn
    forests = sample_forests_batch(graph, alpha, num_forests, rng=rng)
    improved = mode == "improved"
    sums, _, drawn = accumulate_estimates(
        forests, residual, graph.degrees, kind=kind, improved=improved)
    return sums / drawn


def empirical_variance_ratio(graph: Graph, alpha: float,
                             residual: np.ndarray, *,
                             num_forests: int = 32,
                             repetitions: int = 100,
                             kind: str = "source",
                             mode: str = "stratified",
                             baseline_mode: str = "improved",
                             rng=None) -> float:
    """Variance ratio ``Var[baseline] / Var[mode]`` at equal forest count.

    The measurement protocol behind the variance_mode contract (see
    BENCHMARKING.md): draw ``repetitions`` independent banks of exactly
    ``num_forests`` forests under each mode from one RNG stream,
    average each bank's per-forest estimates into a bank-mean vector,
    and compare the per-node empirical variances of those bank means
    summed over nodes.  Both modes see the same forest count, so the
    ratio isolates the estimator/coupling effect — a ratio of ``g``
    means mode needs ``1/g`` as many forests for the same accuracy,
    which is exactly how ``PPRConfig.num_forests`` and
    ``ForestIndex.recommended_size`` discount ω.

    Modes: ``"basic"``, ``"improved"`` (i.i.d. forests, the named
    estimator) and ``"stratified"`` (Latin-hypercube-coupled batch,
    improved estimator).
    """
    if repetitions < 2:
        raise ConfigError("repetitions must be >= 2")
    known = ("basic", "improved", "stratified")
    for label in (mode, baseline_mode):
        if label not in known:
            raise ConfigError(
                f"unknown variance mode {label!r}; choose from {known}")
    generator = ensure_rng(rng)
    residual = np.asarray(residual, dtype=np.float64)
    baseline = np.empty((repetitions, graph.num_nodes))
    candidate = np.empty((repetitions, graph.num_nodes))
    for rep in range(repetitions):
        baseline[rep] = _batch_mean_estimate(
            graph, alpha, residual, num_forests, baseline_mode, kind,
            generator)
        candidate[rep] = _batch_mean_estimate(
            graph, alpha, residual, num_forests, mode, kind, generator)
    baseline_var = float(baseline.var(axis=0, ddof=1).sum())
    candidate_var = float(candidate.var(axis=0, ddof=1).sum())
    if candidate_var <= 0.0:
        return float("inf")
    return baseline_var / candidate_var
