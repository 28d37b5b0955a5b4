r"""Precomputed spanning-forest index (FORALV+ / SPEEDLV+, §5.3).

One sampled forest provides, for *every* node simultaneously, one
"rooted-in" observation — the reason the paper needs only ``O(log n)``
forests where the walk indexes need ``O(n log n)`` walks.  What the
fold reads of each forest is:

- the tree of every node (its root label), and
- each tree's degree mass ``Σ_{u∈tree} d_u`` (so the improved,
  variance-reduced estimator can run without touching the graph).

The index holds exactly that, as the whole bank's CSR fold operators
(:class:`_BankOperators`); the forests are dropped once those exist.
Space is ``O(n)`` per forest — ``O(n log n)`` total, matching
SPEEDPPR+ (Fig. 6) — while construction costs only
``num_forests · τ`` walk steps instead of ``Σ_u d_u / α`` (Fig. 5's
order-of-magnitude gap).
"""

from __future__ import annotations

import os
import time
import zlib

import numpy as np

from repro.counters import WorkCounters
from repro.exceptions import ConfigError
from repro.forests.forest import RootedForest
from repro.forests.sampling import sample_forests
from repro.graph.csr import Graph

__all__ = ["ForestIndex", "degree_checksum", "BANK_DTYPES"]

#: The fold operators, in a fixed order.  ``spread_source`` and
#: ``spread_target`` are ``Q`` under two value arrays: one pattern.
_OPERATOR_NAMES = ("tree_sum", "spread_source", "spread_target")

#: The arrays of a bank (format v4): each operator's CSR arrays, Q's
#: pattern once, plus the per-segment and degree-zero vectors.  A shard
#: bank adds ``local_nodes``.
_BANK_ARRAYS = ("degree_zero", "segment_root", "segment_degree",
                "tree_sum_indptr", "tree_sum_indices", "tree_sum_data",
                "spread_source_indptr", "spread_source_indices",
                "spread_source_data", "spread_target_data")

#: Storage dtypes for the operator value arrays (format v3).
BANK_DTYPES = ("float64", "float32")

#: Arrays cast to float32 under ``bank_dtype="float32"`` (the operator
#: values plus the segment degree-mass vector they were derived from).
_FLOAT_BANK_ARRAYS = frozenset(
    {name for name in _BANK_ARRAYS if name.endswith("_data")}
    | {"segment_degree"})

#: Index arrays narrowed to int32 under ``bank_dtype="float32"`` (CSR
#: structure; int32 is scipy's native index dtype and exact as long as
#: dimensions stay below 2³¹).
_INDEX_BANK_ARRAYS = frozenset(
    name for name in _BANK_ARRAYS if name.endswith(("_indptr", "_indices")))


def _csr(shape: tuple[int, int], indptr: np.ndarray, indices: np.ndarray,
         data: np.ndarray):
    """A CSR matrix over the given arrays, without copying them.

    The ``csr_matrix`` constructor would copy the arrays (and downcast
    the index dtype); an empty matrix with its arrays assigned keeps
    them as they are, which both the shared-memory / memmap attach and
    the operator build rely on.
    """
    import scipy.sparse as sparse

    matrix = sparse.csr_matrix(shape)
    matrix.indptr = indptr
    matrix.indices = indices
    matrix.data = data
    return matrix


def _private_arrays(layout: list[tuple[int, np.dtype | type]]
                    ) -> list[np.ndarray]:
    """Empty 1-D arrays, one per ``(size, dtype)`` of ``layout``,
    carved in order out of one private anonymous memory mapping.

    A bank generation's fold operators live exactly as long as the
    generation, and the thread that publishes it builds them.  In that
    thread's malloc heap they would sit among its short-lived
    allocations (forest repair, request folds), and every retired
    generation would leave holes the heap keeps resident.  A mapping
    goes back to the system whole once the last array over it is
    dropped.
    """
    import mmap

    offsets, total = [], 0
    for size, dtype in layout:
        offsets.append(total)
        total += -(-size * np.dtype(dtype).itemsize // 64) * 64
    flags = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") \
        else {}
    pages = mmap.mmap(-1, max(total, 1), **flags)
    return [np.frombuffer(pages, dtype=dtype, count=size, offset=offset)
            for (size, dtype), offset in zip(layout, offsets)]


def _private_copies(*arrays: np.ndarray) -> list[np.ndarray]:
    """Copies of 1-D ``arrays`` in one private mapping (see
    :func:`_private_arrays`)."""
    copies = _private_arrays([(array.size, array.dtype)
                              for array in arrays])
    for copy, array in zip(copies, arrays):
        copy[:] = array
    return copies


def _owned_rows(local_nodes: np.ndarray | None, nodes: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray | slice]:
    """The output rows of ``nodes`` on a bank whose rows are
    ``local_nodes`` (``None``: the whole node space, row = node id),
    and which of ``nodes`` those rows hold."""
    if local_nodes is None:
        return nodes, slice(None)
    positions = np.searchsorted(local_nodes, nodes)
    in_range = positions < local_nodes.size
    owned = np.zeros(nodes.size, dtype=bool)
    owned[in_range] = local_nodes[positions[in_range]] == nodes[in_range]
    return positions[owned], owned


def _unit(matrix):
    """``matrix``'s pattern with every stored value 1.0."""
    return _csr(matrix.shape, matrix.indptr, matrix.indices,
                np.ones(matrix.nnz))


def degree_checksum(graph: Graph) -> int:
    """CRC-32 of the graph's weighted degree vector.

    Saved inside every index artifact so :meth:`ForestIndex.load_bank`
    can refuse an index built for a *different* graph of the same
    size — silently folding foreign roots over the wrong degrees
    produces garbage estimates with no error anywhere downstream.
    """
    return zlib.crc32(np.ascontiguousarray(
        graph.degrees, dtype=np.float64).tobytes())


class _BankOperators:
    r"""The whole bank's estimator fold as two sparse products.

    Every forest estimator is *linear* in the residual, so the bank
    average over ``F`` forests is one linear operator.  Concatenating
    all forests' tree partitions into a single global segment space
    (``ΣS`` segments) gives, e.g. for the improved source estimator,

    .. math:: \hat a = \tfrac{1}{F}\, Q\, (P\, r)

    where ``P`` (``ΣS × n``) sums each tree's residual mass and ``Q``
    (``n × ΣS``) redistributes it (``d_v / Σ_{u∈tree} d_u`` weights).
    A micro-batch of ``B`` residuals is then just two CSR × dense
    products with ``F·n`` nonzeros each — the per-forest Python and
    indexing overhead of the per-query bincount fold is paid *once per
    batch* instead of once per query.  CSR rows accumulate column-wise
    independently, so each query's answer is bit-identical for every
    batch size and composition.

    The basic estimators read only each tree's root, so they fold from
    ``Q``'s pattern and :attr:`segment_root` (see
    :meth:`ForestIndex.estimate_source_many`); no operator of their own
    is stored.

    **Build.**  The operators are written in CSR form directly: a
    forest's segments come from its root mask and a cumsum (no sort),
    the node-major ``Q`` rows hold exactly one entry per forest (a
    regular ``indptr``), and ``tree_sum`` is the counting-sort
    transpose of that pattern.  Every array is byte-equal to the
    COO-built operators of ``tests/bank_operators_oracle.py``.
    """

    def __init__(self, forests: list[RootedForest], degrees: np.ndarray):
        num_nodes = degrees.size
        num_forests = len(forests)
        nnz = num_forests * num_nodes
        index_dtype = (np.int32 if nnz <= np.iinfo(np.int32).max
                       else np.int64)
        # the arrays of known size are written in place, into the
        # generation's own pages (see _private_arrays)
        columns, source_data, target_data, tree_data, tree_indices, \
            q_indptr = _private_arrays(
                [(nnz, index_dtype), (nnz, np.float64), (nnz, np.float64),
                 (nnz, np.float64), (nnz, index_dtype),
                 (num_nodes + 1, index_dtype)])
        # node-major Q pattern: row v holds one segment per forest, in
        # forest order, so its columns ascend and its indptr is regular
        q_indptr[:] = np.arange(0, nnz + 1, num_forests)
        by_node = (num_nodes, num_forests)
        node_ids = np.arange(num_nodes)
        seg_roots = []     # root node of each global segment
        seg_degree = []    # safe degree mass of each global segment
        rank = np.empty(num_nodes, dtype=np.int64)
        offset = 0
        for column, forest in enumerate(forests):
            labels = forest.roots
            is_root = labels == node_ids
            # a forest's segments are its trees in root-id order: a
            # root's segment is its rank among the roots
            np.cumsum(is_root, out=rank)
            seg_of = rank[labels]
            seg_of -= 1
            root_ids = np.flatnonzero(is_root)
            tree_degree = forest.component_degree_mass(degrees)[root_ids]
            # a zero-mass tree is exactly a degree-0 singleton; guard the
            # division and let the estimators overwrite those nodes
            safe_degree = np.where(tree_degree > 0, tree_degree, 1.0)
            node_degree = safe_degree[seg_of]
            np.divide(degrees, node_degree,
                      out=source_data.reshape(by_node)[:, column])
            np.divide(1.0, node_degree,
                      out=target_data.reshape(by_node)[:, column])
            seg_of += offset
            columns.reshape(by_node)[:, column] = seg_of
            seg_roots.append(root_ids)
            seg_degree.append(safe_degree)
            offset += root_ids.size

        q_shape = (num_nodes, offset)
        # P: per-tree residual sums.  The CSC form of the Q pattern
        # (scipy's counting sort) lists each segment's members in node
        # order; one-byte values keep its scratch small.
        members = _csr(q_shape, q_indptr, columns,
                       np.ones(nnz, dtype=bool)).tocsc()
        tree_indices[:] = members.indices
        tree_data.fill(1.0)
        tree_indptr, self.segment_root, self.segment_degree = \
            _private_copies(members.indptr, np.concatenate(seg_roots),
                            np.concatenate(seg_degree))
        del members

        self.num_forests = num_forests
        # whole-node-space operators: output rows ARE global node ids
        self.local_nodes = None
        self.degree_zero = np.flatnonzero(degrees == 0)
        self.degree_zero_nodes = self.degree_zero
        self.tree_sum = _csr((offset, num_nodes), tree_indptr, tree_indices,
                             tree_data)
        # Q variants: redistribute tree sums back to nodes (one shared
        # sparsity pattern)
        self.spread_source = _csr(q_shape, q_indptr, columns, source_data)
        self.spread_target = _csr(q_shape, q_indptr, columns, target_data)

    # ------------------------------------------------------------------
    # Array-bank (de)hydration — the zero-copy serving representation
    # ------------------------------------------------------------------
    def to_arrays(self) -> dict[str, np.ndarray]:
        """Flatten the operators into the named arrays of
        :data:`_BANK_ARRAYS`.

        The result is exactly what :class:`repro.parallel.shared_bank`
        carriers transport: ``<op>_indptr`` / ``<op>_indices`` /
        ``<op>_data`` per operator, except that ``spread_target``
        contributes only its values (it shares ``spread_source``'s
        pattern), plus the degree-zero node list and the per-segment
        root / degree-mass vectors.
        """
        tree_sum, q = self.tree_sum, self.spread_source
        arrays = dict(zip(_BANK_ARRAYS, (
            self.degree_zero, self.segment_root, self.segment_degree,
            tree_sum.indptr, tree_sum.indices, tree_sum.data,
            q.indptr, q.indices, q.data, self.spread_target.data)))
        if self.local_nodes is not None:
            # shard-restricted bank: output rows are local positions
            # into this owned-node list (degree_zero included)
            arrays["local_nodes"] = self.local_nodes
        return arrays

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray], *,
                    num_nodes: int, num_forests: int) -> "_BankOperators":
        """Rebuild operators over bank arrays without copying them
        (see :func:`_csr`), so a shared-memory or memmap attach stays
        zero-copy.

        Any bank version reads: the arrays v1–v3 stored besides
        :data:`_BANK_ARRAYS` (the two root operators, ``spread_target``'s
        copy of the pattern) are ignored.  A missing array is a
        :class:`~repro.exceptions.ConfigError` naming it.
        """
        missing = [name for name in _BANK_ARRAYS if name not in arrays]
        if missing:
            raise ConfigError(
                f"bank is missing array(s) {', '.join(missing)}")
        array = {name: np.asarray(arrays[name]) for name in _BANK_ARRAYS}
        ops = object.__new__(cls)
        ops.num_forests = int(num_forests)
        ops.degree_zero = array["degree_zero"]
        ops.segment_root = array["segment_root"]
        ops.segment_degree = array["segment_degree"]
        local = arrays.get("local_nodes")
        ops.local_nodes = None if local is None else np.asarray(local)
        if ops.local_nodes is None:
            num_rows = num_nodes
            ops.degree_zero_nodes = ops.degree_zero
        else:  # shard bank: degree_zero holds local row positions
            num_rows = ops.local_nodes.size
            ops.degree_zero_nodes = ops.local_nodes[ops.degree_zero]
        num_segments = ops.segment_root.size
        ops.tree_sum = _csr((num_segments, num_nodes),
                            array["tree_sum_indptr"],
                            array["tree_sum_indices"],
                            array["tree_sum_data"])
        q_shape = (num_rows, num_segments)
        q_indptr = array["spread_source_indptr"]
        q_indices = array["spread_source_indices"]
        ops.spread_source = _csr(q_shape, q_indptr, q_indices,
                                 array["spread_source_data"])
        ops.spread_target = _csr(q_shape, q_indptr, q_indices,
                                 array["spread_target_data"])
        return ops

    @classmethod
    def restricted(cls, source: "_BankOperators",
                   local_nodes: np.ndarray) -> "_BankOperators":
        r"""Row-restrict whole-bank operators to one shard's nodes.

        The fold stays ``(1/F) Q (P r)``; sharding partitions it by
        **output rows**.  The ``Q`` operators keep only the owned
        rows (a CSR row slice preserves each row's stored nonzero
        order), while ``P`` (``tree_sum``) keeps only the segments
        those rows touch — **with every member column intact**, owned
        or not.  That is the cut-edge handling: residual mass on a
        non-owned node still reaches an owned node's estimate through
        their shared tree segment, exactly as in the unsharded fold.

        The surviving segment ids are compacted through a strictly
        monotone old→new map (``searchsorted`` into the sorted
        survivor list), so per-row nonzero order — and therefore
        scipy's accumulation order — is unchanged.  Every output
        entry is then computed by the *identical* sequence of
        floating-point operations as the unsharded fold:
        shard-restricted estimates are bit-identical to the matching
        rows of the full fold.
        """
        if source.local_nodes is not None:
            raise ConfigError(
                "cannot restrict an already-restricted operator set; "
                "restrict the whole-node-space bank instead")
        local_nodes = np.asarray(local_nodes, dtype=np.int64)
        if local_nodes.size > 1 and np.any(np.diff(local_nodes) <= 0):
            raise ConfigError("local_nodes must be strictly ascending")
        ops = object.__new__(cls)
        ops.num_forests = source.num_forests
        ops.local_nodes = local_nodes
        # slice Q's pattern once; its values are the positions of the
        # kept entries, which both value arrays are gathered by
        q = source.spread_source
        pattern = _csr(q.shape, q.indptr, q.indices,
                       np.arange(q.nnz))[local_nodes]
        # segments touched by any owned row
        needed = np.unique(pattern.indices)
        ops.tree_sum = source.tree_sum[needed]
        ops.segment_root = np.asarray(source.segment_root)[needed]
        ops.segment_degree = np.asarray(source.segment_degree)[needed]
        q_shape = (local_nodes.size, needed.size)
        q_indices = np.searchsorted(needed, pattern.indices).astype(
            pattern.indices.dtype)
        ops.spread_source = _csr(q_shape, pattern.indptr, q_indices,
                                 q.data[pattern.data])
        ops.spread_target = _csr(q_shape, pattern.indptr, q_indices,
                                 source.spread_target.data[pattern.data])
        dz = np.asarray(source.degree_zero_nodes)
        ops.degree_zero, owned = _owned_rows(local_nodes, dz)  # local rows
        ops.degree_zero_nodes = dz[owned]           # global node ids
        return ops


class ForestIndex:
    """A bank of presampled rooted spanning forests, held as the fold
    operators they define.

    Every index is the same object however it came to be — sampled by
    :meth:`build`, attached to saved or shared arrays by
    :meth:`attach_bank` / :meth:`load_bank`, or cut to one shard's
    rows by :meth:`restrict`: the three CSR operators of
    :class:`_BankOperators` (what §5.3's fold reads of each forest —
    every node's tree and that tree's degree mass), folded by
    :meth:`estimate_source_many` / :meth:`estimate_target_many`.  The
    sampled forests themselves are dropped once the operators exist.

    Attributes
    ----------
    num_forests:
        Forests the operators fold.
    build_seconds, build_steps, build_counters:
        Sampling cost (wall clock / walk steps / work counters) for
        Fig. 5; an attached bank carries its builder's.
    """

    def __init__(self, graph: Graph, alpha: float,
                 operators: _BankOperators | None, *, num_forests: int,
                 build_seconds: float, build_steps: int,
                 build_counters: WorkCounters | None = None,
                 variance_mode: str = "improved",
                 bank_dtype: str = "float64"):
        self.graph = graph
        self.alpha = alpha
        self._ops = operators
        self.num_forests = int(num_forests)
        self.build_seconds = build_seconds
        self.build_steps = int(build_steps)
        if build_counters is None:  # an attached bank: what its meta says
            build_counters = WorkCounters(
                walk_steps=self.build_steps,
                cycle_pops=max(self.build_steps
                               - self.num_forests * graph.num_nodes, 0),
                forests_sampled=self.num_forests)
        self.build_counters = build_counters
        # shard-restricted indexes fold only these rows of the
        # estimate vector (None = the whole node space, the default)
        self.local_nodes: np.ndarray | None = (
            None if operators is None else operators.local_nodes)
        self.shard_index: int | None = None
        self.shard_count: int | None = None
        self.shard_strategy: str | None = None
        # provenance recorded in (and restored from) bank meta, v3
        self.variance_mode = variance_mode
        self.bank_dtype = bank_dtype

    @classmethod
    def build(cls, graph: Graph, alpha: float, num_forests: int,
              rng: np.random.Generator | int | None = None,
              workers: int | None = 1,
              variance_mode: str = "improved") -> "ForestIndex":
        """Sample ``num_forests`` independent forests and fold them
        into the bank's operators.

        The sampler follows α as in
        :func:`~repro.forests.sampling.sample_forest` (Wilson below
        :data:`~repro.forests.sampling.AUTO_SAMPLER_ALPHA_THRESHOLD`,
        cycle popping at and above it).  :attr:`build_seconds` is the
        sampling time alone; the operator build that follows is not
        part of Fig. 5's construction cost.

        ``workers`` picks one of two deterministic draws.
        ``workers=1`` samples the whole bank from one serial stream of
        ``rng``.  Any other value (``None``/``0`` for the CPU count, or
        ``≥ 2``) goes through the chunked engine
        (:mod:`repro.parallel.engine`), whose per-chunk streams give
        the same bank for every such worker count — but not the bank
        ``workers=1`` draws.  Both have the same law.  The build's
        work counters land on :attr:`build_counters`.

        ``variance_mode`` is recorded on the index (and in any bank it
        serializes).  ``"stratified"`` additionally couples the sampled
        forests through the Latin-hypercube grid of
        :func:`repro.forests.batch_sampling.sample_forests_batch` —
        each forest's marginal law is unchanged (every estimate stays
        unbiased), only the bank-mean variance drops, which is what
        lets :meth:`recommended_size` shrink the bank.
        """
        from repro.core.config import VARIANCE_MODES
        from repro.parallel.engine import sample_forests_parallel

        if num_forests <= 0:
            raise ConfigError("num_forests must be positive")
        if variance_mode not in VARIANCE_MODES:
            raise ConfigError(
                f"variance_mode must be one of {VARIANCE_MODES}, "
                f"got {variance_mode!r}")
        counters = WorkCounters()
        stratified = variance_mode == "stratified"
        started = time.perf_counter()
        if workers is not None and workers == 1:
            # serial stratified build couples the WHOLE bank in one
            # stratum grid — the strongest coupling available
            forests = list(sample_forests(
                graph, alpha, num_forests, rng=rng,
                method="stratified" if stratified else "auto",
                counters=counters))
        else:
            forests = sample_forests_parallel(graph, alpha, num_forests,
                                              rng=rng, workers=workers,
                                              counters=counters,
                                              stratified=stratified)
        build_seconds = time.perf_counter() - started
        return cls(graph, alpha, _BankOperators(forests, graph.degrees),
                   num_forests=num_forests, build_seconds=build_seconds,
                   build_steps=sum(forest.num_steps for forest in forests),
                   build_counters=counters, variance_mode=variance_mode)

    @classmethod
    def recommended_size(cls, graph: Graph, epsilon: float | None = None,
                         variance_mode: str = "improved") -> int:
        r"""§5.3 sizing with the variance-mode discount.

        The bank needs ``base = ⌈ln n⌉`` forests for the paper's
        ``O(log n)`` concentration; given a target relative error ε it
        needs

        .. math:: \omega = \max\bigl(\lceil \ln n \rceil,\;
                  \lceil \lceil \ln n \rceil / (\varepsilon g) \rceil\bigr)

        where ``g`` is the mode's measured variance gain
        (:data:`repro.core.config.VARIANCE_GAIN`): a mode whose
        bank-mean variance is ``g×`` smaller at equal forest count
        matches the baseline error bar with ``1/g`` of the forests.
        The ``⌈ln n⌉`` floor is never discounted — concentration still
        needs that many independent samples.
        """
        from repro.core.config import VARIANCE_GAIN

        if variance_mode not in VARIANCE_GAIN:
            raise ConfigError(
                f"variance_mode must be one of "
                f"{tuple(VARIANCE_GAIN)}, got {variance_mode!r}")
        base = max(1, int(np.ceil(np.log(max(graph.num_nodes, 2)))))
        if epsilon is None:
            return base
        if epsilon <= 0:
            raise ConfigError("epsilon must be positive")
        return max(base, int(np.ceil(
            base / (epsilon * VARIANCE_GAIN[variance_mode]))))

    # ------------------------------------------------------------------
    @property
    def size_bytes(self) -> int:
        """The paper's Fig-6 footprint: per forest, every node's root
        label (int64) and its tree's degree mass (float64).

        What the fold operators actually hold is
        :attr:`resident_bytes`.
        """
        per_node = np.dtype(np.int64).itemsize + np.dtype(np.float64).itemsize
        return self.num_forests * self.graph.num_nodes * per_node

    @property
    def resident_bytes(self) -> int:
        """Bytes of the fold operators' arrays (Q's pattern, which two
        operators share, counts once) — what a serving generation
        keeps, and what the service's memory accounting reports."""
        if self._ops is None:  # a repairable bank not folded yet
            return 0
        return sum(array.nbytes for array in self._ops.to_arrays().values())

    @staticmethod
    def _check_graph_match(graph: Graph, num_nodes: int,
                           checksum: int | None, origin: str) -> None:
        """Refuse to attach an index to a graph it was not built for."""
        if int(num_nodes) != graph.num_nodes:
            raise ConfigError(
                f"{origin} was built for a graph with {int(num_nodes)} "
                f"nodes, got {graph.num_nodes}")
        if checksum is not None and int(checksum) != degree_checksum(graph):
            raise ConfigError(
                f"{origin} was built for a different graph: the degree "
                f"checksum does not match (same node count, different "
                f"edges or weights)")

    # ------------------------------------------------------------------
    # Sharding
    # ------------------------------------------------------------------
    def restrict(self, local_nodes: np.ndarray, *, shard_index: int = 0,
                 shard_count: int = 1,
                 strategy: str = "hash") -> "ForestIndex":
        """An index folding just the owned estimate rows.

        The restriction is pure slicing of the fold operators (see
        :meth:`_BankOperators.restricted`) — no resampling, no
        arithmetic — so it is cheap to recompute per generation and
        the restricted rows stay bit-identical to the same rows of
        this index's fold.  The returned index keeps the *full* graph
        (pushes still run over the whole node space; only the fold is
        partitioned) and the full-graph fingerprint, so shard banks
        attach against the same shared CSR segments as the global one.
        """
        restricted = ForestIndex(
            self.graph, self.alpha,
            _BankOperators.restricted(self._operators, local_nodes),
            num_forests=self.num_forests,
            build_seconds=self.build_seconds, build_steps=self.build_steps,
            build_counters=self.build_counters,
            variance_mode=self.variance_mode, bank_dtype=self.bank_dtype)
        restricted.shard_index = int(shard_index)
        restricted.shard_count = int(shard_count)
        restricted.shard_strategy = str(strategy)
        return restricted

    # ------------------------------------------------------------------
    # Array-bank persistence / attach (zero-copy serving path)
    # ------------------------------------------------------------------
    def bank_arrays(self, *, bank_dtype: str = "float64"
                    ) -> tuple[dict[str, np.ndarray], dict]:
        """The ``(arrays, meta)`` bank contents for this index.

        The arrays are the flattened fold operators (see
        :meth:`_BankOperators.to_arrays`); the meta records α, the
        graph fingerprint (node count + degree checksum) and the build
        cost so an attached index reproduces ``num_forests`` /
        ``build_steps`` exactly.

        The one layout option (bank format v3) is applied at
        serialization time only: ``bank_dtype="float32"`` stores
        operator values in float32 and CSR indices in int32, cutting
        the bank's bytes to ~0.64×; folds then run from rounded
        operator entries, so answers carry a bounded relative error
        instead of being byte-identical (see BENCHMARKING.md for the
        measured bound).  Operator rows are always node ids.
        """
        if bank_dtype not in BANK_DTYPES:
            raise ConfigError(
                f"bank_dtype must be one of {BANK_DTYPES}, "
                f"got {bank_dtype!r}")
        arrays = self._operators.to_arrays()
        if bank_dtype == "float32":
            int32_max = np.iinfo(np.int32).max
            cast: dict[str, np.ndarray] = {}
            for name, array in arrays.items():
                if name in _FLOAT_BANK_ARRAYS:
                    cast[name] = np.asarray(array, dtype=np.float32)
                elif name in _INDEX_BANK_ARRAYS:
                    if array.size and int(array[-1] if name.endswith(
                            "indptr") else array.max()) >= int32_max:
                        raise ConfigError(
                            "bank too large for int32 indices; use "
                            "bank_dtype='float64'")
                    cast[name] = np.asarray(array, dtype=np.int32)
                else:
                    cast[name] = array
            arrays = cast
        meta = {
            "kind": "forest-index",
            "alpha": float(self.alpha),
            "num_nodes": int(self.graph.num_nodes),
            "num_forests": int(self.num_forests),
            "build_steps": int(self.build_steps),
            "build_seconds": float(self.build_seconds),
            "degree_checksum": int(degree_checksum(self.graph)),
            "bank_dtype": bank_dtype,
            # kept so v3 manifests stay as they were; a bank that names
            # any other order is refused by attach_bank
            "node_order": "none",
            "variance_mode": self.variance_mode,
        }
        if self.local_nodes is not None:
            # bank format v2: shard provenance rides in the meta; the
            # num_nodes / degree_checksum fingerprint stays the FULL
            # graph's, because shard banks attach against it
            meta.update({
                "shard_index": int(self.shard_index or 0),
                "shard_count": int(self.shard_count or 1),
                "shard_strategy": str(self.shard_strategy or "hash"),
                "shard_nodes": int(self.local_nodes.size),
            })
        return arrays, meta

    def save_bank(self, path: str | os.PathLike, *,
                  bank_dtype: str = "float64") -> None:
        """Write the uncompressed, memmap-able bank directory.

        The index's one saved form, attached again in O(1) by
        :meth:`load_bank`: one
        plain ``.npy`` file per operator array plus ``manifest.json``
        (see :func:`repro.parallel.shared_bank.save_array_bank`), so
        ``np.load(..., mmap_mode="r")`` maps a multi-hundred-MB bank
        without copying a byte.  ``bank_dtype`` is the format-v3
        layout option of :meth:`bank_arrays`.
        """
        from repro.parallel.shared_bank import save_array_bank

        arrays, meta = self.bank_arrays(bank_dtype=bank_dtype)
        save_array_bank(path, arrays, meta)

    def bank_nbytes(self, *, bank_dtype: str = "float64") -> int:
        """Serialized bank payload size at ``bank_dtype``, without
        materialising the cast (Fig. 6's dtype-aware size axis)."""
        if bank_dtype not in BANK_DTYPES:
            raise ConfigError(
                f"bank_dtype must be one of {BANK_DTYPES}, "
                f"got {bank_dtype!r}")
        total = 0
        for name, array in self._operators.to_arrays().items():
            itemsize = array.itemsize
            if bank_dtype == "float32" and (
                    name in _FLOAT_BANK_ARRAYS
                    or name in _INDEX_BANK_ARRAYS):
                itemsize = 4
            total += array.size * itemsize
        return total

    @classmethod
    def attach_bank(cls, arrays: dict[str, np.ndarray], meta: dict,
                    graph: Graph) -> "ForestIndex":
        """An index over externally owned operator arrays.

        ``arrays``/``meta`` come from :func:`load_array_bank` (memmap)
        or an attached shared-memory bank; nothing is copied, and the
        result folds exactly as the index that saved them.
        """
        from repro.core.config import VARIANCE_MODES

        if meta.get("kind") != "forest-index":
            raise ConfigError(
                f"bank is not a forest index (kind={meta.get('kind')!r})")
        # v1/v2 banks predate these keys: improved, identity layout,
        # float64
        order = str(meta.get("node_order", "none"))
        if "node_order" in arrays or order != "none":
            raise ConfigError(
                f"bank rows are relabeled (node_order={order!r}), a "
                f"layout that is no longer served: it was never faster "
                f"than node-id rows; rebuild the bank with "
                f"`repro index build`")
        variance_mode = str(meta.get("variance_mode", "improved"))
        if variance_mode not in VARIANCE_MODES:
            raise ConfigError(
                f"bank variance_mode {variance_mode!r} is not supported; "
                f"supported modes are {VARIANCE_MODES}")
        cls._check_graph_match(graph, int(meta["num_nodes"]),
                               meta.get("degree_checksum"), "index bank")
        num_forests = int(meta["num_forests"])
        operators = _BankOperators.from_arrays(
            arrays, num_nodes=graph.num_nodes, num_forests=num_forests)
        index = cls(graph, float(meta["alpha"]), operators,
                    num_forests=num_forests,
                    build_seconds=float(meta.get("build_seconds", 0.0)),
                    build_steps=int(meta.get("build_steps", 0)),
                    variance_mode=variance_mode,
                    bank_dtype=str(meta.get("bank_dtype", "float64")))
        if index.local_nodes is not None:
            index.shard_index = int(meta.get("shard_index", 0))
            index.shard_count = int(meta.get("shard_count", 1))
            index.shard_strategy = str(meta.get("shard_strategy", "hash"))
        return index

    @classmethod
    def load_bank(cls, path: str | os.PathLike, graph: Graph, *,
                  mmap: bool = True) -> "ForestIndex":
        """Attach to a :meth:`save_bank` directory (memmap by default)."""
        from repro.parallel.shared_bank import load_array_bank

        arrays, meta = load_array_bank(path, mmap=mmap)
        return cls.attach_bank(arrays, meta, graph)

    # ------------------------------------------------------------------
    # Batched estimation (the serving layer's micro-batch fold)
    # ------------------------------------------------------------------
    def prepare_fold(self) -> "ForestIndex":
        """Make sure the fold operators exist; returns ``self``.  A
        server calls this before it publishes a bank, so no query pays
        for the build (only a repairable bank builds anything here)."""
        self._operators  # noqa: B018 - builds a repaired bank's operators
        return self

    @property
    def _operators(self) -> _BankOperators:
        """The whole-bank sparse fold operators."""
        return self._ops

    def _as_batch(self, residuals: np.ndarray, improved: bool
                  ) -> np.ndarray:
        """Validate and transpose a ``(B, n)`` batch to ``(n, B)``.

        The improved estimators are biased on a directed graph (see
        ``docs/THEORY.md``), so a directed index folds only the basic
        ones — the rule the query methods apply too.
        """
        if improved and self.graph.directed:
            raise ConfigError(
                "the improved estimators need an undirected graph; fold "
                "a directed graph with improved=False")
        residuals = np.atleast_2d(np.asarray(residuals, dtype=np.float64))
        if residuals.shape[1] != self.graph.num_nodes:
            raise ConfigError(
                f"residuals must have {self.graph.num_nodes} columns, "
                f"got {residuals.shape[1]}")
        return np.ascontiguousarray(residuals.T)

    def estimate_source_many(self, residuals: np.ndarray, *,
                             improved: bool = True) -> np.ndarray:
        """Single-source estimates for a *batch* of residual vectors.

        ``residuals`` has shape ``(B, n)``; the return value matches.
        The whole bank folds in two CSR products (see
        :class:`_BankOperators`), so per-forest indexing work is paid
        once per batch instead of once per query — the serving
        scheduler's throughput win.  Each query's row is bit-identical
        for every batch size and composition (CSR rows accumulate each
        column independently in a fixed nonzero order), which is what
        makes batched serving byte-equal to per-query solving.

        The basic estimator gives a tree's whole sum to its root: a
        unit operator from :attr:`_BankOperators.segment_root`, built
        per call, whose rows add each root's trees in segment order.
        """
        import scipy.sparse as sparse

        batch = self._as_batch(residuals, improved)
        ops = self._operators
        tree_sums = ops.tree_sum @ batch
        if improved:
            estimates = ops.spread_source @ tree_sums
        else:
            rows, owned = _owned_rows(ops.local_nodes, ops.segment_root)
            segments = np.arange(ops.segment_root.size)[owned]
            roots = sparse.csr_matrix((np.ones(rows.size), (rows, segments)),
                                      shape=ops.spread_source.shape)
            estimates = roots @ tree_sums
        estimates /= ops.num_forests
        if improved and ops.degree_zero.size:
            # degree-0 singletons: the estimator returns the node's own
            # residual in every forest.  degree_zero indexes the OUTPUT
            # rows (local positions on a shard bank), degree_zero_nodes
            # the residual (always global node ids); the two coincide
            # on a whole-node-space bank.
            estimates[ops.degree_zero] = batch[ops.degree_zero_nodes]
        return estimates.T

    def estimate_target_many(self, residuals: np.ndarray, *,
                             improved: bool = True) -> np.ndarray:
        """Single-target analogue of :meth:`estimate_source_many`.

        The basic estimator sums, at each node, the residual at its
        root in every forest: a unit-valued ``Q`` times the residuals
        at the segment roots, in forest order.
        """
        batch = self._as_batch(residuals, improved)
        ops = self._operators
        if not improved:
            estimates = _unit(ops.spread_target) @ batch[ops.segment_root]
            estimates /= ops.num_forests
            return estimates.T
        tree_sums = ops.tree_sum @ (batch * self.graph.degrees[:, None])
        estimates = ops.spread_target @ tree_sums
        estimates /= ops.num_forests
        if ops.degree_zero.size:
            estimates[ops.degree_zero] = batch[ops.degree_zero_nodes]
        return estimates.T

    def estimate_target_entries(self, residuals: np.ndarray,
                                entries: np.ndarray, *,
                                improved: bool = True) -> np.ndarray:
        """One scalar of :meth:`estimate_target_many` per batch row.

        ``entries[b]`` names the node whose estimate batch row ``b``
        wants (the pair query's source).  The tree sums are still
        folded for the whole batch in one CSR product, but the second
        product gathers only the ``B`` requested operator rows instead
        of spreading to all ``n`` — roughly halving the fold cost of a
        pair query versus materialising the full target vector.

        Bit-identity: CSR row slicing preserves each row's stored
        nonzero order, and scipy accumulates every output entry along
        that order, so ``estimate_target_entries(R, e)[b]`` equals
        ``estimate_target_many(R)[b, e[b]]`` bit-for-bit.
        """
        batch = self._as_batch(residuals, improved)
        entries = np.asarray(entries, dtype=np.int64)
        if entries.shape != (batch.shape[1],):
            raise ConfigError(
                f"need one entry node per batch row, got {entries.shape} "
                f"for batch of {batch.shape[1]}")
        if entries.size and (entries.min() < 0
                             or entries.max() >= self.graph.num_nodes):
            raise ConfigError("entry node out of range")
        ops = self._operators
        rows = np.arange(entries.size)
        # shard bank: operator rows are local positions; every
        # requested entry must be owned by this shard (the router
        # splits pair batches by source ownership)
        op_rows, _ = _owned_rows(ops.local_nodes, entries)
        if op_rows.size != entries.size:
            raise ConfigError("entry node(s) not owned by this shard")
        sub = ops.spread_target[op_rows]
        if not improved:
            estimates = np.asarray(
                _unit(sub) @ batch[ops.segment_root])[rows, rows]
            return estimates / ops.num_forests
        tree_sums = ops.tree_sum @ (batch * self.graph.degrees[:, None])
        estimates = np.asarray(sub @ tree_sums)[rows, rows]
        estimates = estimates / ops.num_forests
        zero = self.graph.degrees[entries] == 0
        if zero.any():
            estimates[zero] = batch[entries[zero], rows[zero]]
        return estimates
