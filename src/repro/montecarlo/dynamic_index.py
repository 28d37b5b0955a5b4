"""Mutable-graph forest index: a bank that repairs instead of rebuilding.

:class:`DynamicForestIndex` extends
:class:`~repro.montecarlo.forest_index.ForestIndex` with the arrow
records of :mod:`repro.forests.repair`.  At build time every forest's
consumed stack prefix is kept alongside it; when the graph mutates
(:class:`~repro.graph.delta.GraphDelta`), :meth:`mutated` produces a
*new* index over the new graph by replaying the surviving records and
drawing fresh arrows only where mutations invalidated them — exact in
distribution, and typically orders of magnitude fewer fresh draws than
a full rebuild (the ``repair_*`` counters prove it per call).

Mutation returns a new object rather than editing in place so the
serving layer's atomic generation swap keeps working: in-flight queries
hold the old index, the manager publishes the repaired one, the old one
retires when released.

The estimator/serving surface is inherited unchanged — a dynamic index
folds queries exactly like a static one, and the operator bank it
publishes to worker processes is the ordinary ``forest-index`` kind.
Only the *persistence* form differs: :meth:`save_dynamic_bank` stores
graph + forests + records (everything a later ``repro index mutate``
needs), under its own bank kind so the two artifact types cannot be
confused.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.counters import WorkCounters
from repro.exceptions import ConfigError
from repro.forests.forest import RootedForest
from repro.forests.repair import (
    ForestRecord,
    repair_forest,
    sample_forest_recorded,
)
from repro.graph.csr import Graph
from repro.graph.delta import GraphDelta
from repro.montecarlo.forest_index import ForestIndex, degree_checksum
from repro.rng import ensure_rng

__all__ = ["DynamicForestIndex", "DYNAMIC_BANK_KIND"]

#: Bank-manifest kind for the repairable on-disk artifact.
DYNAMIC_BANK_KIND = "dynamic-forest-index"


class DynamicForestIndex(ForestIndex):
    """A forest bank that supports exact incremental repair.

    Attributes
    ----------
    records:
        One :class:`~repro.forests.repair.ForestRecord` per stored
        forest — the replayable arrow stacks.
    """

    def __init__(self, graph: Graph, alpha: float,
                 forests: list[RootedForest], build_seconds: float, *,
                 records: list[ForestRecord], **kwargs):
        super().__init__(graph, alpha, forests, build_seconds, **kwargs)
        if len(records) != len(forests):
            raise ConfigError(
                f"{len(forests)} forests but {len(records)} records")
        self.records = records

    @classmethod
    def build(cls, graph: Graph, alpha: float, num_forests: int,
              rng: np.random.Generator | int | None = None,
              workers: int | None = 1,
              variance_mode: str = "improved") -> "DynamicForestIndex":
        """Sample ``num_forests`` forests, keeping their arrow records.

        Sampling is always cycle popping, the only sampler with a stack
        formulation to record, whatever α is; at α at or above
        :data:`~repro.forests.sampling.AUTO_SAMPLER_ALPHA_THRESHOLD` the
        stored forests are therefore bit-identical to
        :meth:`ForestIndex.build` at the same seed.  Recording is tied
        to the sampling loop, so the build always runs in-process;
        ``workers`` is accepted for signature parity and ignored.
        ``variance_mode`` must stay ``"improved"``: stratified sampling
        couples forests through a batch-wide grid whose arrow draws
        have no per-forest stack replay, so repaired forests could not
        reproduce the coupled law.
        """
        if num_forests <= 0:
            raise ConfigError("num_forests must be positive")
        if variance_mode != "improved":
            raise ConfigError(
                f"dynamic indexes require variance_mode='improved' "
                f"(recorded sampling has no stratified replay), "
                f"got {variance_mode!r}")
        del workers
        counters = WorkCounters()
        generator = ensure_rng(rng)
        started = time.perf_counter()
        forests: list[RootedForest] = []
        records: list[ForestRecord] = []
        for _ in range(num_forests):
            forest, record = sample_forest_recorded(
                graph, alpha, rng=generator, counters=counters)
            forests.append(forest)
            records.append(record)
        for forest in forests:
            forest.component_degree_mass(graph.degrees)
        index = cls(graph, alpha, forests,
                    build_seconds=time.perf_counter() - started,
                    records=records)
        index.build_counters = counters
        return index

    @property
    def record_arrows(self) -> int:
        """Total recorded arrow draws across the bank (memory proxy)."""
        return sum(record.num_arrows for record in self.records)

    @property
    def resident_bytes(self) -> int:
        """:attr:`ForestIndex.resident_bytes` plus the arrow records."""
        return super().resident_bytes + sum(
            record.indptr.nbytes + record.arrows.nbytes
            for record in self.records)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def mutated(self, delta: GraphDelta,
                rng: np.random.Generator | int | None = None, *,
                graph: Graph | None = None,
                ) -> tuple["DynamicForestIndex", WorkCounters]:
        """Apply ``delta`` and repair every forest against the result.

        Returns ``(new_index, repair_counters)``.  ``self`` is left
        untouched (old generation keeps serving until swapped out).
        The counters carry ``repair_fresh_steps`` — the only sampling
        work actually paid — alongside the replayed-read and
        dirty-node tallies; compare against a fresh build's
        ``walk_steps`` for the repair-vs-rebuild bound.

        ``graph`` is ``delta.apply(self.graph)`` when the caller has
        already computed it; the new index then shares that object
        (and its cached alias table, reverse graph and degrees)
        instead of applying the delta a second time.
        """
        new_graph = delta.apply(self.graph) if graph is None else graph
        dirty = delta.touched_nodes()
        counters = WorkCounters()
        generator = ensure_rng(rng)
        started = time.perf_counter()
        forests: list[RootedForest] = []
        records: list[ForestRecord] = []
        for record in self.records:
            forest, new_record = repair_forest(
                new_graph, self.alpha, record, dirty, rng=generator,
                counters=counters)
            forests.append(forest)
            records.append(new_record)
        for forest in forests:
            forest.component_degree_mass(new_graph.degrees)
        index = DynamicForestIndex(
            new_graph, self.alpha, forests,
            build_seconds=time.perf_counter() - started,
            records=records)
        # cumulative construction cost: the original build plus every
        # repair so far (repairs add only repair_* work, no walk steps)
        index.build_counters = (WorkCounters() + self.build_counters
                                ).merge(counters)
        return index, counters

    # ------------------------------------------------------------------
    # Persistence (repairable artifact)
    # ------------------------------------------------------------------
    def save_dynamic_bank(self, path: str | os.PathLike) -> None:
        """Write the repairable bank: graph + forests + arrow records.

        Unlike :meth:`ForestIndex.save_bank` (fold operators only),
        this artifact is self-contained — ``repro index mutate`` loads
        it, applies a delta, and writes it back without needing the
        original dataset.
        """
        from repro.parallel.shared_bank import save_array_bank

        graph = self.graph
        record_offsets = np.concatenate(
            ([0], np.cumsum([record.num_arrows for record in self.records],
                            dtype=np.int64)))
        arrays = {
            "graph_indptr": graph.indptr,
            "graph_indices": graph.indices,
            "roots": np.stack([forest.roots for forest in self.forests]),
            "parents": np.stack([forest.parents for forest in self.forests]),
            "steps": np.asarray([forest.num_steps
                                 for forest in self.forests],
                                dtype=np.int64),
            "record_indptr": np.stack([record.indptr
                                       for record in self.records]),
            "record_arrows": (
                np.concatenate([record.arrows for record in self.records])
                if record_offsets[-1] else np.empty(0, dtype=np.int64)),
            "record_offsets": record_offsets,
        }
        if graph.weights is not None:
            arrays["graph_weights"] = graph.weights
        meta = {
            "kind": DYNAMIC_BANK_KIND,
            "alpha": float(self.alpha),
            "num_nodes": int(graph.num_nodes),
            "num_forests": int(self.num_forests),
            "directed": bool(graph.directed),
            "build_steps": int(self.build_steps),
            "build_seconds": float(self.build_seconds),
            "degree_checksum": int(degree_checksum(graph)),
            # arrow records replay against node ids in full precision
            "bank_dtype": "float64",
            "node_order": "none",
            "variance_mode": "improved",
        }
        save_array_bank(path, arrays, meta)

    @classmethod
    def load_dynamic_bank(cls, path: str | os.PathLike,
                          ) -> "DynamicForestIndex":
        """Load a :meth:`save_dynamic_bank` directory.

        The graph travels inside the artifact (mutations change it, so
        it cannot be re-derived from any dataset), and its degree
        checksum is verified against the manifest on the way in.
        """
        from repro.parallel.shared_bank import load_array_bank

        arrays, meta = load_array_bank(path, mmap=False)
        if meta.get("kind") != DYNAMIC_BANK_KIND:
            raise ConfigError(
                f"bank is not a dynamic forest index "
                f"(kind={meta.get('kind')!r}); rebuild with "
                f"'repro index build --dynamic'")
        weights = arrays.get("graph_weights")
        graph = Graph(arrays["graph_indptr"], arrays["graph_indices"],
                      weights, directed=bool(meta.get("directed", False)),
                      validate=True)
        cls._check_graph_match(graph, int(meta["num_nodes"]),
                               meta.get("degree_checksum"),
                               "dynamic index bank")
        forests = [
            RootedForest(roots=np.ascontiguousarray(roots),
                         parents=np.ascontiguousarray(parents),
                         num_steps=int(steps), method="loaded")
            for roots, parents, steps in zip(
                arrays["roots"], arrays["parents"], arrays["steps"])]
        offsets = arrays["record_offsets"]
        flat = arrays["record_arrows"]
        records = [
            ForestRecord(
                indptr=np.ascontiguousarray(indptr),
                arrows=np.ascontiguousarray(
                    flat[int(offsets[i]):int(offsets[i + 1])]))
            for i, indptr in enumerate(arrays["record_indptr"])]
        index = cls(graph, float(meta["alpha"]), forests,
                    build_seconds=float(meta.get("build_seconds", 0.0)),
                    records=records,
                    build_steps=int(meta.get("build_steps", 0)))
        for forest in index.forests:
            forest.component_degree_mass(graph.degrees)
        return index
