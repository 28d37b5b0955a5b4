"""Machine-independent work accounting shared by every sampling stage.

Wall-clock numbers depend on the host; the benchmark harness therefore
prefers *work counters* — how many walk steps were taken, how many
cycles were popped, how many forests were drawn, how many push
operations ran.  :class:`WorkCounters` is the one record threaded from
the samplers up through the query algorithms into
:class:`~repro.core.result.PPRResult.stats`, and merged across worker
processes by the parallel engine.

The flat-dict form uses a ``work_`` key prefix so the counters coexist
with the algorithms' historical stats keys (``num_forests``,
``forest_steps``, ...) and are picked up automatically by
:class:`~repro.bench.harness.QueryTimings`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = ["WorkCounters", "WORK_STATS_PREFIX"]

#: Prefix used when flattening counters into a stats dict.
WORK_STATS_PREFIX = "work_"


@dataclass
class WorkCounters:
    """Additive work-done record.

    Attributes
    ----------
    walk_steps:
        Random-walk steps (arrow draws): forest-sampler draws plus
        plain α-walk steps.
    cycle_pops:
        Arrows redrawn because a cycle was popped (equivalently, walk
        visits erased by loop erasure — both equal ``steps − n`` per
        forest, see :attr:`~repro.forests.forest.RootedForest.num_pops`).
    forests_sampled:
        Rooted spanning forests drawn.
    pushes:
        Deterministic push operations (forward/backward/power) —
        total frontier memberships across sweeps.
    push_sweeps:
        Synchronous frontier sweeps executed by the push stage;
        ``pushes / push_sweeps`` is the mean frontier size.
    repair_fresh_steps:
        New arrow draws made while incrementally repairing recorded
        forests after a graph mutation — the *paid* part of a repair,
        directly comparable to the ``walk_steps`` a full rebuild would
        have cost.
    repair_replayed_steps:
        Recorded arrows re-read during repair (no RNG, no sampling
        work; a memory pass over the surviving stacks).
    repair_dirty_nodes:
        Node records invalidated by mutations, summed over repaired
        forests.
    strata:
        Stratified arrow groups formed by the coupled batch sampler —
        one per (node, popping round) whose active layers drew their
        first-arrow uniforms from a common Latin-hypercube grid
        (``variance_mode="stratified"``).
    """

    walk_steps: int = 0
    cycle_pops: int = 0
    forests_sampled: int = 0
    pushes: int = 0
    push_sweeps: int = 0
    repair_fresh_steps: int = 0
    repair_replayed_steps: int = 0
    repair_dirty_nodes: int = 0
    strata: int = 0

    # ------------------------------------------------------------------
    def merge(self, other) -> "WorkCounters":
        """Add ``other`` into ``self`` (in place) and return ``self``.

        ``other`` may be another :class:`WorkCounters` or any mapping in
        :meth:`as_dict` / :meth:`as_stats` form (unknown keys are
        ignored, missing keys count as zero), so scheduler batches can
        fold plain stats dicts straight into an aggregate.  The merge
        itself is not synchronised — callers aggregating from several
        threads (e.g. the service metrics registry) must hold their own
        lock around it.
        """
        if isinstance(other, WorkCounters):
            values = other.as_dict()
        else:
            values = {spec.name: int(other.get(
                spec.name, other.get(WORK_STATS_PREFIX + spec.name, 0)))
                for spec in fields(self)}
        for spec in fields(self):
            setattr(self, spec.name,
                    getattr(self, spec.name) + values.get(spec.name, 0))
        return self

    def __add__(self, other: "WorkCounters") -> "WorkCounters":
        return WorkCounters(*(getattr(self, f.name) + getattr(other, f.name)
                              for f in fields(self)))

    def record_forest(self, forest) -> None:
        """Account for one sampled :class:`~repro.forests.forest.RootedForest`."""
        self.forests_sampled += 1
        self.walk_steps += int(forest.num_steps)
        self.cycle_pops += int(forest.num_pops)

    def record_push(self, push) -> None:
        """Account for one :class:`~repro.push.forward.PushResult`."""
        self.pushes += int(push.num_pushes)
        self.push_sweeps += int(push.num_sweeps)

    # ------------------------------------------------------------------
    def as_dict(self) -> dict[str, int]:
        """Plain ``{field: value}`` mapping."""
        return {spec.name: int(getattr(self, spec.name))
                for spec in fields(self)}

    def snapshot_dict(self) -> dict[str, int]:
        """Point-in-time copy of the counters plus the :attr:`total`.

        The returned dict is detached from the live record — later
        :meth:`merge` / ``record_*`` calls do not mutate it — which is
        what metrics endpoints need when the counters keep advancing
        under them.
        """
        snapshot = self.as_dict()
        snapshot["total"] = sum(snapshot.values())
        return snapshot

    def as_stats(self) -> dict[str, int]:
        """Flat stats entries, keys prefixed with :data:`WORK_STATS_PREFIX`."""
        return {WORK_STATS_PREFIX + key: value
                for key, value in self.as_dict().items()}

    @classmethod
    def from_stats(cls, stats: dict) -> "WorkCounters":
        """Rebuild counters from a stats dict written by :meth:`as_stats`.

        Missing keys default to zero, so results produced before the
        counters existed still parse.
        """
        return cls(**{spec.name: int(stats.get(WORK_STATS_PREFIX + spec.name, 0))
                      for spec in fields(cls)})

    @property
    def total(self) -> int:
        """Sum of all counters — a single scalar "work done" figure."""
        return sum(self.as_dict().values())
