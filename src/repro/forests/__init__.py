"""Random rooted spanning forests — the paper's central object.

Two samplers draw from the distribution of Theorem 4.3,
``Pr(F) ∝ w(F) · Π_{u ∈ ρ(F)} β d_u``:

- :func:`sample_forest_wilson` — the faithful Algorithm 1
  (loop-erased α-random walk), kept as the reference implementation
  and the τ meter;
- :func:`sample_forest_cycle_popping` — a NumPy-vectorised equivalent
  based on the Propp–Wilson cycle-popping view of Wilson's algorithm
  (provably the same distribution; tested statistically).

The batch sampler (:func:`sample_forests_batch`, plain or stratified)
and the recorded/repair samplers (:func:`sample_forest_recorded`,
:func:`repair_forest`) run the same popping loop,
:func:`~repro.forests.cycle_popping.pop_cycles`; each supplies only its
own arrow source.  :func:`sample_forest` picks between the two from α
(Wilson below
:data:`~repro.forests.sampling.AUTO_SAMPLER_ALPHA_THRESHOLD`, cycle
popping at and above it); every sampling entry point follows that rule.
:mod:`repro.forests.enumeration` brute-forces tiny graphs to verify
the matrix-forest theorems; :mod:`repro.forests.estimators` implements
the basic and variance-reduced PPR estimators of §5.2/§6.2.
"""

from repro.forests.forest import RootedForest
from repro.forests.wilson import sample_forest_wilson, loop_erased_alpha_walk
from repro.forests.cycle_popping import sample_forest_cycle_popping
from repro.forests.repair import (
    ForestRecord,
    repair_forest,
    sample_forest_recorded,
)
from repro.forests.sampling import sample_forest, sample_forests
from repro.forests.batch_sampling import sample_forests_batch
from repro.forests.statistics import (
    ForestStatistics,
    collect_forest_statistics,
)
from repro.forests.enumeration import (
    enumerate_spanning_forests,
    total_rooted_forest_weight,
    rooted_in_probability_matrix,
    forest_weight_rooted_at,
    forest_weight_rooted_pair,
)
from repro.forests.estimators import (
    source_estimate_basic,
    source_estimate_improved,
    target_estimate_basic,
    target_estimate_improved,
    root_indicator,
)

__all__ = [
    "RootedForest",
    "sample_forest",
    "sample_forests",
    "sample_forests_batch",
    "ForestStatistics",
    "collect_forest_statistics",
    "sample_forest_wilson",
    "loop_erased_alpha_walk",
    "sample_forest_cycle_popping",
    "ForestRecord",
    "sample_forest_recorded",
    "repair_forest",
    "enumerate_spanning_forests",
    "total_rooted_forest_weight",
    "rooted_in_probability_matrix",
    "forest_weight_rooted_at",
    "forest_weight_rooted_pair",
    "source_estimate_basic",
    "source_estimate_improved",
    "target_estimate_basic",
    "target_estimate_improved",
    "root_indicator",
]
