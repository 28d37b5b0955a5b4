r"""Query configuration shared by every algorithm in §5 and §6.

:class:`PPRConfig` bundles the paper's parameters —

- ``alpha``: decay factor (default 0.01, the paper's headline setting);
- ``epsilon``: relative error threshold (default 0.5, the paper's
  default);
- ``mu``: PPR threshold above which the relative guarantee applies
  (default ``1/n``);
- ``failure_probability`` ``p_f`` (default ``1/n``);
- ``push_cost_ratio``: calibration constant for the SPEED* stopping
  rule — the cost of one vectorised push edge-traversal relative to
  one interpreted Monte-Carlo walk step (NumPy mat-vec work is far
  cheaper per edge than sampling work, so pushing deeper pays);

— and the derived Monte-Carlo budget

.. math:: W = \frac{(2\epsilon/3 + 2)\,\log(2/p_f)}{\epsilon^2\,\mu}

(Algorithm 3, line 3).  A two-stage algorithm then draws
``ω = ⌈r_{max} · W⌉`` spanning forests (or ``⌈r(u)·W⌉`` α-walks per
node).

**Budget scaling.**  With the paper's defaults ``W = Θ(n log n / ε²)``,
which C++ absorbs but pure Python cannot at interactive speed.
``budget_scale`` multiplies ``W`` (and hence every sample count)
uniformly across all algorithms; relative comparisons between methods
— the shapes the reproduction targets — are unaffected, and the
benchmark harness records the scale used.  The default of 1.0 keeps
the paper's exact guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.exceptions import ConfigError
from repro.graph.csr import Graph

__all__ = ["PPRConfig", "VARIANCE_MODES", "VARIANCE_GAIN"]

#: Recognised variance-reduction modes for the forest Monte-Carlo
#: stage.  ``"improved"`` is the paper's conditional-MC estimator
#: (Theorem 3.8); ``"stratified"`` couples each sampling chunk through
#: a Latin-hypercube grid.
VARIANCE_MODES = ("improved", "stratified")

#: Effective variance gain each mode delivers at equal forest count
#: relative to the ``"improved"`` baseline, as measured by the
#: empirical harness
#: (:func:`repro.forests.statistics.empirical_variance_ratio`; the
#: test-suite enforces the stratified floor).  ω is divided by this
#: gain: a mode that shrinks the bank-mean variance by ``g`` needs
#: ``1/g`` as many forests for the same accuracy.  The gain is
#: deliberately conservative.
VARIANCE_GAIN = {"improved": 1.0, "stratified": 1.5}


@dataclass(frozen=True)
class PPRConfig:
    """Immutable PPR query configuration.

    All fields have paper-faithful defaults; ``mu`` and
    ``failure_probability`` default to ``1/n`` at resolution time
    (they need the graph size, see :meth:`resolve`).

    ``workers`` caps the processes of two fan-outs: the chunked forest
    Monte-Carlo stage (:mod:`repro.parallel.engine`) and a batch
    solver's pushes (:mod:`repro.core.batch`, on a persistent fork
    pool).  ``1`` runs both serially; ``0``/``None`` (the default) uses
    the CPUs the process may run on.  Either fan-out stays serial when
    its work is below a measured crossover, so a small call never pays
    for a pool.  For a fixed ``seed`` the estimates are bit-identical
    for every ``workers`` value.  A forest *index* built with
    ``workers=1`` is the exception: it draws one serial stream instead
    of the engine's chunk streams (see
    :meth:`~repro.montecarlo.forest_index.ForestIndex.build`).

    ``variance_mode`` picks the variance-reduction machinery of the
    forest stage (see :data:`VARIANCE_MODES`).  Modes with a measured
    gain shrink ω through :data:`VARIANCE_GAIN`, so fewer forests are
    sampled for the same accuracy target.  ``stratified`` only changes
    the sampling joint law, never a marginal, and works everywhere.
    The sampler itself is not configurable: every forest stage picks it
    from ``alpha`` (:func:`repro.forests.sampling.sample_forest`).
    """

    alpha: float = 0.01
    epsilon: float = 0.5
    mu: float | None = None
    failure_probability: float | None = None
    r_max: float | None = None
    budget_scale: float = 1.0
    push_cost_ratio: float = 0.02
    track_variance: bool = False
    max_forests: int = 100_000
    max_walks: int = 50_000_000
    seed: int | None = None
    workers: int | None = None
    variance_mode: str = "improved"

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(
                f"alpha must lie strictly in (0, 1), got {self.alpha}")
        if self.epsilon <= 0.0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        if self.mu is not None and self.mu <= 0.0:
            raise ConfigError(f"mu must be positive, got {self.mu}")
        if self.failure_probability is not None and not (
                0.0 < self.failure_probability < 1.0):
            raise ConfigError("failure_probability must lie in (0, 1)")
        if self.r_max is not None and self.r_max <= 0.0:
            raise ConfigError(f"r_max must be positive, got {self.r_max}")
        if self.budget_scale <= 0.0:
            raise ConfigError("budget_scale must be positive")
        if self.push_cost_ratio <= 0.0:
            raise ConfigError("push_cost_ratio must be positive")
        if self.max_forests < 1 or self.max_walks < 1:
            raise ConfigError("sample caps must be at least 1")
        if self.workers is not None and self.workers < 0:
            raise ConfigError(
                f"workers must be >= 0 (0/None = cpu count), got {self.workers}")
        if self.variance_mode not in VARIANCE_MODES:
            raise ConfigError(
                f"variance_mode must be one of {VARIANCE_MODES}, "
                f"got {self.variance_mode!r}")

    # ------------------------------------------------------------------
    def resolve(self, graph: Graph) -> "PPRConfig":
        """Fill graph-dependent defaults (``mu``, ``p_f`` → ``1/n``).

        ``p_f`` is clamped to 0.5 so degenerate one-node graphs stay
        valid (a probability of 1 would be meaningless anyway).
        """
        updates = {}
        if self.mu is None:
            updates["mu"] = 1.0 / graph.num_nodes
        if self.failure_probability is None:
            updates["failure_probability"] = min(
                1.0 / graph.num_nodes, 0.5)
        return replace(self, **updates) if updates else self

    def walk_budget(self, graph: Graph) -> float:
        """The scaled sample-count multiplier ``W`` (Algorithm 3, line 3)."""
        resolved = self.resolve(graph)
        raw = ((2.0 * resolved.epsilon / 3.0 + 2.0)
               * np.log(2.0 / resolved.failure_probability)
               / (resolved.epsilon ** 2 * resolved.mu))
        return raw * self.budget_scale

    @property
    def variance_gain(self) -> float:
        """The forest-count discount of :attr:`variance_mode`."""
        return VARIANCE_GAIN[self.variance_mode]

    def num_forests(self, graph: Graph, r_max: float) -> int:
        """``ω = ⌈r_max · W / g⌉`` clamped to ``[1, max_forests]``.

        ``g`` is :attr:`variance_gain`: a mode whose bank-mean variance
        is ``g×`` smaller at equal forest count matches the baseline
        accuracy with ``1/g`` of the forests.
        """
        omega = int(np.ceil(r_max * self.walk_budget(graph)
                            / self.variance_gain))
        return int(np.clip(omega, 1, self.max_forests))

    def with_overrides(self, **changes) -> "PPRConfig":
        """Functional update helper (``dataclasses.replace`` wrapper)."""
        return replace(self, **changes)
