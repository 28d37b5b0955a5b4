r"""Index lifecycle for the serving layer.

The paper's §5.3 structural fact — forests are query-independent — is
what makes a *long-lived* service the right shape: one
:class:`~repro.montecarlo.forest_index.ForestIndex` bank per
``(graph, α)`` pair serves every request, with only the cheap push
stage per query.  :class:`IndexManager` owns those banks:

- **build / warm** — banks are built on first use (or eagerly via
  :meth:`warm`), fanned out over the parallel engine when
  ``workers > 1``; every bank is published with its fold operators
  already built, so no query pays for them;
- **keying** — one bank per ``(graph, α)``; solvers are keyed
  ``(graph, α, ε, kind)`` and *borrow* the shared bank through the
  batch solvers' ``index=`` injection, so an ε change never resamples
  forests;
- **background refresh with atomic swap** — :meth:`refresh` rebuilds a
  bank off-thread under a fresh deterministic seed and swaps it (and
  drops the solvers borrowing the old one) under the manager lock;
  in-flight queries keep the bank they already hold, new queries see
  the new generation;
- **memory accounting** — :meth:`memory_bytes` / :meth:`stats` report
  the bytes each resident bank holds: its fold operators, stored
  forests and (dynamic banks) arrow records;
- **shared-memory views** — :meth:`shared_view` publishes the graph's
  CSR arrays and the bank's fold operators as named shared-memory
  segments for the multiprocess executor; a refresh *retires* the old
  generation's segments, which are unlinked only once the last
  borrower releases them (in-flight worker batches finish on the old
  bank, new batches attach the new one).
"""

from __future__ import annotations

import threading
import time
import zlib

import numpy as np

from repro.core.batch import (
    BatchMultiSeedSolver,
    BatchPairSolver,
    BatchSourceSolver,
    BatchTargetSolver,
)
from repro.core.config import PPRConfig
from repro.core.topk import BatchTopKSolver
from repro.counters import WorkCounters
from repro.exceptions import ConfigError
from repro.graph.csr import Graph
from repro.graph.delta import GraphDelta
from repro.montecarlo.dynamic_index import DynamicForestIndex
from repro.montecarlo.forest_index import ForestIndex
from repro.obs.tracing import NULL_TRACER
from repro.parallel.shared_bank import BankHandle, SharedArrayBank
from repro.parallel.shared_graph import graph_bank_arrays
from repro.shard.partition import STRATEGIES, ShardMap

__all__ = ["IndexManager", "SharedIndexView", "SOLVER_CLASSES",
           "load_served_bank"]

#: Query kind → batch solver class; the one dispatch table shared by
#: the in-process scheduler path and the executor workers.
SOLVER_CLASSES = {
    "source": BatchSourceSolver,
    "target": BatchTargetSolver,
    "multiseed": BatchMultiSeedSolver,
    "topk": BatchTopKSolver,
    "pair": BatchPairSolver,
}


def load_served_bank(bank_dir: str, graph: Graph,
                     alpha: float) -> ForestIndex:
    """Open a saved ``repro index build`` bank for serving ``graph``
    at ``alpha``.

    The one check both the boot preload and ``repro serve --dry-run``
    run: :meth:`ForestIndex.load_bank` refuses a damaged, relabeled or
    graph-mismatched bank, and a bank built at another α is refused
    here, each with a :class:`ConfigError`.
    """
    index = ForestIndex.load_bank(bank_dir, graph)
    if abs(index.alpha - alpha) > 1e-12:
        raise ConfigError(
            f"bank at {bank_dir!r} was built for alpha={index.alpha}, "
            f"service wants alpha={alpha}")
    return index


class _ManagedIndex:
    """One (graph, α) bank plus its provenance."""

    def __init__(self, index: ForestIndex, generation: int, seed: int):
        self.index = index
        self.generation = generation
        self.seed = seed
        self.built_at = time.time()


class SharedIndexView:
    """A borrowed reference to one generation's shared segments.

    Couples the graph CSR bank with the index operator bank under one
    acquire/release pair so a dispatched batch pins *both* for its
    lifetime.  Views are handed out already acquired (under the
    manager lock, so a concurrent retirement can never unlink between
    construction and acquisition); callers must :meth:`release`
    exactly once.
    """

    def __init__(self, graph_bank: SharedArrayBank,
                 index_bank: SharedArrayBank, generation: int):
        self._graph_bank = graph_bank
        self._index_bank = index_bank
        self.generation = generation

    @property
    def graph_handle(self) -> BankHandle:
        return self._graph_bank.handle

    @property
    def index_handle(self) -> BankHandle:
        return self._index_bank.handle

    def _acquire(self) -> "SharedIndexView":
        self._graph_bank.acquire()
        try:
            self._index_bank.acquire()
        except BaseException:
            self._graph_bank.release()
            raise
        return self

    def release(self) -> None:
        """Drop the borrow; retired segments unlink on the last drop."""
        self._index_bank.release()
        self._graph_bank.release()


class IndexManager:
    """Owns graph registrations, forest banks, and borrowed solvers.

    Parameters
    ----------
    config:
        Baseline :class:`~repro.core.config.PPRConfig`; per-request ε
        overrides it at solver-build time, everything else (seed,
        budget scale, build workers) comes from here.
    num_forests:
        Bank size; defaults to
        :meth:`ForestIndex.recommended_size` for the baseline ε.
    tracer:
        Optional :class:`~repro.obs.tracing.Tracer`.  Index lifecycle
        events (refresh, drop, mutate) record *forced* traces — they
        are rare and expensive, so they are always worth a span tree.
    dynamic:
        Build repairable
        :class:`~repro.montecarlo.dynamic_index.DynamicForestIndex`
        banks (arrow records kept), so :meth:`mutate` repairs
        incrementally instead of rebuilding.  Costs record memory and
        a serial build; off by default.
    shards / shard_strategy:
        Node-space partitioning for the scatter-gather router.  The
        whole-space bank is still built once per ``(graph, α)`` —
        forests are sampled globally so sharded answers stay
        bit-identical — and :meth:`shared_view` publishes per-shard
        *restrictions* of it (``shard=k``) for each shard's worker
        group.  ``shards=1`` (default) disables all of this.
    """

    def __init__(self, config: PPRConfig | None = None, *,
                 num_forests: int | None = None, tracer=None,
                 dynamic: bool = False, shards: int = 1,
                 shard_strategy: str = "hash",
                 bank_dir: str | None = None):
        self.config = config or PPRConfig()
        self.num_forests = num_forests
        self.dynamic = bool(dynamic)
        if bank_dir is not None and self.dynamic:
            raise ConfigError(
                "bank_dir does not combine with dynamic banks")
        self.bank_dir = bank_dir
        self.tracer = tracer if tracer is not None else NULL_TRACER
        shards = int(shards)
        if shards < 1:
            raise ConfigError(f"shards must be >= 1, got {shards}")
        if shard_strategy not in STRATEGIES:
            raise ConfigError(
                f"shard_strategy must be one of {STRATEGIES}, "
                f"got {shard_strategy!r}")
        self.shards = shards
        self.shard_strategy = str(shard_strategy)
        self._graphs: dict[str, Graph] = {}
        self._indexes: dict[tuple[str, float], _ManagedIndex] = {}
        self._solvers: dict[tuple, BatchSourceSolver | BatchTargetSolver] = {}
        self._shared_graphs: dict[str, SharedArrayBank] = {}
        # keyed (name, alpha, shard); shard None is the whole-space bank
        self._shared_indexes: dict[tuple[str, float, int | None],
                                   tuple[SharedArrayBank, int]] = {}
        self._shard_maps: dict[str, ShardMap] = {}
        # per-generation shard restrictions, keyed (name, alpha, shard)
        self._restricted: dict[tuple[str, float, int],
                               tuple[ForestIndex, int]] = {}
        self._lock = threading.RLock()
        self._builds = 0

    # -- graph registry ------------------------------------------------
    def register_graph(self, name: str, graph: Graph) -> None:
        """Register ``graph`` under ``name`` for later index builds."""
        with self._lock:
            self._graphs[name] = graph
            stale = self._shared_graphs.pop(name, None)
            self._shard_maps.pop(name, None)
            for key in [k for k in self._restricted if k[0] == name]:
                del self._restricted[key]
        if stale is not None:
            stale.retire()

    def shard_map(self, name: str) -> ShardMap:
        """The node ↔ shard mapping for ``name`` under this manager's
        shard count and strategy (cached; deterministic)."""
        graph = self.graph(name)
        with self._lock:
            cached = self._shard_maps.get(name)
            if (cached is not None
                    and cached.num_nodes == graph.num_nodes):
                return cached
            shard_map = ShardMap(graph.num_nodes, self.shards,
                                 self.shard_strategy)
            self._shard_maps[name] = shard_map
            return shard_map

    def graph(self, name: str) -> Graph:
        """The registered graph, or :class:`ConfigError` if unknown."""
        with self._lock:
            if name not in self._graphs:
                raise ConfigError(
                    f"unknown graph {name!r}; registered: "
                    f"{sorted(self._graphs)}")
            return self._graphs[name]

    # -- bank lifecycle ------------------------------------------------
    def _build_seed(self, name: str, alpha: float, generation: int) -> int:
        """Deterministic per-(graph, α, generation) build seed."""
        base = self.config.seed or 0
        salt = zlib.crc32(f"{name}:{alpha!r}".encode())
        return (base + salt + generation) % (2**31)

    def _build(self, name: str, alpha: float,
               generation: int) -> _ManagedIndex:
        graph = self.graph(name)
        size = self.num_forests or ForestIndex.recommended_size(
            graph, self.config.epsilon,
            variance_mode=self.config.variance_mode)
        seed = self._build_seed(name, alpha, generation)
        if self.bank_dir is not None and generation == 0:
            # preload the saved bank instead of sampling; generations
            # > 0 (mutations) resample as usual
            index = load_served_bank(self.bank_dir, graph, alpha)
        elif self.dynamic:
            # recorded sampling: repairable banks, cycle popping only
            index = DynamicForestIndex.build(graph, alpha, size, rng=seed)
        else:
            index = ForestIndex.build(graph, alpha, size, rng=seed,
                                      workers=self.config.workers,
                                      variance_mode=self.config.variance_mode)
        # fold-ready before any caller can publish it (a no-op for an
        # attached bank, whose arrays are the operators)
        index.prepare_fold()
        with self._lock:
            self._builds += 1
        return _ManagedIndex(index, generation, seed)

    def get_index(self, name: str, alpha: float | None = None) -> ForestIndex:
        """The bank for ``(name, α)``, building it on first use."""
        alpha = self.config.alpha if alpha is None else float(alpha)
        key = (name, alpha)
        with self._lock:
            managed = self._indexes.get(key)
            if managed is not None:
                return managed.index
        # build outside the lock (it can take seconds); last writer
        # wins, which is fine because both builds are deterministic
        # from the same generation-0 seed
        managed = self._build(name, alpha, generation=0)
        with self._lock:
            existing = self._indexes.get(key)
            if existing is not None:
                return existing.index
            self._indexes[key] = managed
            return managed.index

    def warm(self, name: str, alpha: float | None = None) -> ForestIndex:
        """Eagerly build the bank (alias of :meth:`get_index`)."""
        return self.get_index(name, alpha)

    def refresh(self, name: str, alpha: float | None = None, *,
                block: bool = True) -> threading.Thread:
        """Rebuild the ``(name, α)`` bank and atomically swap it in.

        The replacement is sampled under the next generation's seed, so
        refreshing genuinely redraws the forests (deterministically —
        generation ``g`` always yields the same bank).  With
        ``block=False`` the rebuild runs on a daemon thread and the
        swap happens whenever it finishes; either way solvers borrowing
        the old bank are dropped at swap time so the next request binds
        the new generation, while queries already executing keep their
        reference (the old bank stays alive until they return).
        """
        alpha = self.config.alpha if alpha is None else float(alpha)
        key = (name, alpha)
        with self._lock:
            current = self._indexes.get(key)
            generation = current.generation + 1 if current else 0

        def rebuild():
            span = self.tracer.trace("index_refresh", force=True)
            span.annotate(graph=name, alpha=alpha, generation=generation)
            with span.child("build"):
                managed = self._build(name, alpha, generation)
            with span.child("swap"):
                with self._lock:
                    self._indexes[key] = managed
                    for solver_key in [k for k in self._solvers
                                       if k[0] == name and k[1] == alpha]:
                        del self._solvers[solver_key]
                    stale = [self._shared_indexes.pop(k)
                             for k in list(self._shared_indexes)
                             if k[0] == name and k[1] == alpha]
                    for cache_key in [k for k in self._restricted
                                      if k[0] == name and k[1] == alpha]:
                        del self._restricted[cache_key]
            if stale:
                # unlink happens once the last in-flight borrower drops
                with span.child("retire"):
                    for bank, _generation in stale:
                        bank.retire()
            self.tracer.finish(span)

        thread = threading.Thread(target=rebuild, name=f"refresh-{name}",
                                  daemon=True)
        thread.start()
        if block:
            thread.join()
        return thread

    def mutate(self, name: str, delta: GraphDelta) -> dict:
        """Apply a :class:`GraphDelta` to ``name`` — the third lifecycle
        verb beside refresh/drop.

        The registered graph is replaced by ``delta.apply(graph)`` and
        every resident ``(name, α)`` bank is brought onto the new
        graph: :class:`DynamicForestIndex` banks are *repaired*
        incrementally (replaying their arrow records, fresh draws only
        where the mutation invalidated them), any other bank is fully
        rebuilt.  Replacements are computed off-lock, fold operators
        included, then swapped in atomically exactly like
        :meth:`refresh` — generations bump, solvers borrowing old banks
        drop, shared-memory segments for the graph and old banks retire
        once their last borrower releases.  In-flight queries keep
        whatever they already hold.

        Returns a summary: per-bank generations and ``repaired`` flags,
        the dirty-node list, and the merged work counters (all
        ``repair_*`` for repaired banks; ``walk_steps`` only when a
        non-dynamic bank forced a rebuild).  Deterministic for a given
        delta and generation history.
        """
        span = self.tracer.trace("index_mutate", force=True)
        old_graph = self.graph(name)
        span.annotate(graph=name, ops=len(delta))
        with span.child("apply_delta"):
            new_graph = delta.apply(old_graph)
        dirty = delta.touched_nodes()
        with self._lock:
            resident = {key: entry for key, entry in self._indexes.items()
                        if key[0] == name}
        counters = WorkCounters()
        replacements: dict[tuple[str, float], _ManagedIndex] = {}
        repaired_flags: dict[tuple[str, float], bool] = {}
        for (key, entry) in sorted(resident.items()):
            alpha = key[1]
            generation = entry.generation + 1
            seed = self._build_seed(name, alpha, generation)
            if isinstance(entry.index, DynamicForestIndex):
                with span.child("repair") as repair_span:
                    index, repair_work = entry.index.mutated(
                        delta, rng=seed, graph=new_graph)
                    repair_span.annotate(
                        repaired_nodes=index.repaired_nodes)
                counters.merge(repair_work)
                repaired_flags[key] = True
            else:
                # no records to replay: the bank must be resampled
                # against the new graph (correct, just not incremental)
                with span.child("rebuild"):
                    index = ForestIndex.build(
                        new_graph, alpha, entry.index.num_forests, rng=seed,
                        workers=self.config.workers,
                        variance_mode=entry.index.variance_mode)
                counters.merge(index.build_counters)
                repaired_flags[key] = False
            with span.child("operators"):
                index.prepare_fold()
            replacements[key] = _ManagedIndex(index, generation, seed)
        with span.child("swap"):
            with self._lock:
                self._graphs[name] = new_graph
                self._indexes.update(replacements)
                for solver_key in [k for k in self._solvers
                                   if k[0] == name]:
                    del self._solvers[solver_key]
                stale_graph = self._shared_graphs.pop(name, None)
                stale_banks = [self._shared_indexes.pop(key)
                               for key in list(self._shared_indexes)
                               if key[0] == name]
                for cache_key in [k for k in self._restricted
                                  if k[0] == name]:
                    del self._restricted[cache_key]
        with span.child("retire"):
            if stale_graph is not None:
                stale_graph.retire()
            for bank, _generation in stale_banks:
                bank.retire()
        self.tracer.finish(span)
        summary = {
            "graph": name,
            "ops": len(delta),
            "num_nodes": new_graph.num_nodes,
            "num_edges": new_graph.num_edges,
            "dirty_nodes": [int(node) for node in dirty],
            "banks": {
                f"{key[0]}@{key[1]}": {
                    "generation": managed.generation,
                    "repaired": repaired_flags[key],
                }
                for key, managed in sorted(replacements.items())},
            "work": counters.as_dict(),
        }
        if self.shards > 1:
            # attribute the repair to owning shards: the global counter
            # is (forests repaired) x |dirty|, so splitting by each
            # shard's dirty-node count decomposes it exactly — and
            # proves untouched shards did zero repair work
            shard_map = self.shard_map(name)
            dirty_arr = np.asarray(dirty, dtype=np.int64)
            per_shard_dirty = np.bincount(
                shard_map.shard_of[dirty_arr] if dirty_arr.size
                else np.empty(0, dtype=np.int64),
                minlength=self.shards)
            unit = (counters.repair_dirty_nodes // dirty_arr.size
                    if dirty_arr.size else 0)
            summary["shards"] = [
                {"shard": shard,
                 "dirty_nodes": int(per_shard_dirty[shard]),
                 "repair_dirty_nodes": int(unit * per_shard_dirty[shard])}
                for shard in range(self.shards)]
        return summary

    def drop(self, name: str, alpha: float | None = None) -> None:
        """Forget the bank and solvers for ``(name, α)`` (if any)."""
        alpha = self.config.alpha if alpha is None else float(alpha)
        span = self.tracer.trace("index_drop", force=True)
        span.annotate(graph=name, alpha=alpha)
        with self._lock:
            self._indexes.pop((name, alpha), None)
            for solver_key in [k for k in self._solvers
                               if k[0] == name and k[1] == alpha]:
                del self._solvers[solver_key]
            stale = [self._shared_indexes.pop(k)
                     for k in list(self._shared_indexes)
                     if k[0] == name and k[1] == alpha]
            for cache_key in [k for k in self._restricted
                              if k[0] == name and k[1] == alpha]:
                del self._restricted[cache_key]
        if stale:
            with span.child("retire"):
                for bank, _generation in stale:
                    bank.retire()
        self.tracer.finish(span)

    # -- shared-memory views (multiprocess executor) -------------------
    def shared_view(self, name: str, alpha: float | None = None, *,
                    shard: int | None = None) -> SharedIndexView:
        """An *acquired* shared-memory view of ``(name, α[, shard])``.

        Publishes the graph CSR arrays and the bank's fold operators
        as named shared-memory segments (built lazily, reused across
        calls for the same generation) and returns a view pinning
        both.  With ``shard=k`` the index bank carries the shard-``k``
        restriction of the whole-space bank (same forests, same
        generation — just this shard's output rows), while the graph
        bank stays the full CSR: every shard runs the full push.  The
        caller — one executor batch — must
        :meth:`SharedIndexView.release` when done; a refresh that
        lands mid-batch retires the old segments, and the unlink is
        deferred until that release.
        """
        alpha = self.config.alpha if alpha is None else float(alpha)
        if shard is not None:
            shard = int(shard)
            if not 0 <= shard < self.shards:
                raise ConfigError(
                    f"shard {shard} out of range [0, {self.shards})")
        self.get_index(name, alpha)
        with self._lock:
            managed = self._indexes[(name, alpha)]
            # re-read under the lock: a refresh may have swapped the
            # bank between get_index and here
            index, generation = managed.index, managed.generation
            if shard is not None:
                cached = self._restricted.get((name, alpha, shard))
                if cached is not None and cached[1] == generation:
                    publish = cached[0]
                else:
                    # pure row slicing of the built operators — cheap
                    # enough to run under the lock, and doing so pins
                    # the restriction to this exact generation
                    shard_map = self.shard_map(name)
                    publish = index.restrict(
                        shard_map.local_nodes(shard), shard_index=shard,
                        shard_count=self.shards,
                        strategy=self.shard_strategy)
                    self._restricted[(name, alpha, shard)] = (publish,
                                                              generation)
            else:
                publish = index
            graph_bank = self._shared_graphs.get(name)
            if graph_bank is None or graph_bank.retired:
                arrays, meta = graph_bank_arrays(self._graphs[name])
                graph_bank = SharedArrayBank(arrays, meta)
                self._shared_graphs[name] = graph_bank
            key = (name, alpha, shard)
            entry = self._shared_indexes.get(key)
            if entry is None or entry[1] != generation or entry[0].retired:
                if entry is not None:
                    entry[0].retire()
                index_bank = SharedArrayBank(*publish.bank_arrays())
                self._shared_indexes[key] = (index_bank, generation)
            else:
                index_bank = entry[0]
            return SharedIndexView(graph_bank, index_bank,
                                   generation)._acquire()

    def close_shared(self) -> None:
        """Force-unlink every shared segment (shutdown path)."""
        with self._lock:
            graph_banks = list(self._shared_graphs.values())
            index_banks = [entry[0]
                          for entry in self._shared_indexes.values()]
            self._shared_graphs.clear()
            self._shared_indexes.clear()
        for bank in index_banks + graph_banks:
            bank.close()

    # -- solvers -------------------------------------------------------
    def get_solver(self, name: str, kind: str, alpha: float | None = None,
                   epsilon: float | None = None):
        """A batch solver for ``(name, α, ε, kind)`` borrowing the bank.

        ``kind`` is one of ``"source"``, ``"target"``, ``"multiseed"``,
        ``"topk"`` or ``"pair"``.  Solvers are cached; every
        bank-backed kind and ε value for one ``(graph, α)`` shares one
        forest bank (the top-k solver samples its own deterministic
        forest stream per call and borrows no bank).
        """
        alpha = self.config.alpha if alpha is None else float(alpha)
        epsilon = self.config.epsilon if epsilon is None else float(epsilon)
        if kind not in SOLVER_CLASSES:
            raise ConfigError(
                f"kind must be one of {sorted(SOLVER_CLASSES)}, "
                f"got {kind!r}")
        key = (name, alpha, epsilon, kind)
        with self._lock:
            solver = self._solvers.get(key)
            if solver is not None:
                return solver
        cls = SOLVER_CLASSES[kind]
        config = self.config.with_overrides(alpha=alpha, epsilon=epsilon)
        if kind == "topk":
            solver = cls(self.graph(name), config=config)
        else:
            index = self.get_index(name, alpha)
            solver = cls(self.graph(name), config=config, index=index)
        with self._lock:
            return self._solvers.setdefault(key, solver)

    # -- accounting ----------------------------------------------------
    def generation(self, name: str, alpha: float | None = None) -> int:
        """Refresh generation of the bank (-1 if not built yet)."""
        alpha = self.config.alpha if alpha is None else float(alpha)
        with self._lock:
            managed = self._indexes.get((name, alpha))
            return managed.generation if managed else -1

    def memory_bytes(self) -> int:
        """Bytes every resident bank holds (see
        :attr:`~repro.montecarlo.forest_index.ForestIndex.resident_bytes`)."""
        with self._lock:
            managed = list(self._indexes.values())
        return sum(entry.index.resident_bytes for entry in managed)

    def stats(self) -> dict:
        """Snapshot: builds, per-bank resident bytes/generation, total
        bytes."""
        with self._lock:
            managed = dict(self._indexes)
            builds = self._builds
            solvers = len(self._solvers)
        banks = {
            f"{name}@{alpha}": {
                "num_forests": entry.index.num_forests,
                "resident_bytes": entry.index.resident_bytes,
                "generation": entry.generation,
                "build_seconds": entry.index.build_seconds,
            }
            for (name, alpha), entry in sorted(managed.items())}
        return {"builds": builds, "solvers": solvers, "banks": banks,
                "memory_bytes": sum(b["resident_bytes"]
                                    for b in banks.values()),
                "shards": self.shards,
                "shard_strategy": self.shard_strategy}
