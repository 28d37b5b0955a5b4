"""Configuration for the long-lived PPR query service.

:class:`ServiceConfig` gathers every serving knob — which graph/α the
index is warmed for, the micro-batching window, cache sizing, and the
HTTP bind address — in one frozen record, mirroring how
:class:`~repro.core.config.PPRConfig` centralises the query-algorithm
parameters.  ``repro serve --dry-run`` prints :meth:`describe` and
exits, which the golden-output tests pin byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.config import PPRConfig
from repro.exceptions import ConfigError

__all__ = ["ServiceConfig"]


@dataclass(frozen=True)
class ServiceConfig:
    """Immutable serving configuration.

    Attributes
    ----------
    graph, scale:
        Dataset name (see ``repro datasets``) and scale factor the
        service loads and warms at startup.
    alpha, epsilon, budget_scale, seed, workers:
        The :class:`~repro.core.config.PPRConfig` fields the warmed
        index and its solvers are built with; ``workers`` fans the
        index *build* out over the parallel engine and — in process
        executor mode — also sizes the query worker pool.  The bank a
        seed gives is the same for every ``workers`` other than 1;
        ``workers=1`` samples serially and gives a different one (see
        :meth:`~repro.montecarlo.forest_index.ForestIndex.build`).
        It never fans out a solver's pushes: served solvers push
        serially (:meth:`~repro.service.index_manager.IndexManager.solver_config`).
    executor:
        ``"thread"`` folds batches in-process on the scheduler
        threads; ``"process"`` dispatches them to a pool of
        ``workers`` forked worker processes attached to the
        shared-memory bank — the one-shard
        :class:`~repro.shard.router.ShardRouter` (see
        :mod:`repro.service.executor`).  Answers are byte-identical
        either way.
    dynamic:
        Build repairable
        :class:`~repro.montecarlo.dynamic_index.DynamicForestIndex`
        banks so ``POST /mutate`` repairs forests incrementally
        instead of rebuilding them (see
        :meth:`~repro.service.index_manager.IndexManager.mutate`).
        Off by default: records cost memory and mutate works either
        way (it falls back to a full rebuild on static banks).
    bank_dir:
        Preload generation 0 from a saved ``repro index build`` bank
        directory instead of sampling at boot.  The bank's graph
        fingerprint and α must match the served configuration, and
        its operator rows must be node ids (a relabeled bank from an
        older build is refused; rebuild it).  A float64 bank answers
        byte-identically to an index built at boot from the same
        forests.  Incompatible with ``dynamic`` (static banks carry no
        arrow records) and ignored for generations > 0 (mutations
        resample).
    shards, shard_strategy:
        Partition the node space across ``shards`` worker pools of
        ``workers`` processes each, scatter-gathering every query
        through the :class:`~repro.shard.router.ShardRouter`
        (requires ``executor="process"``; answers stay byte-identical
        to ``shards=1``).  ``shard_strategy`` picks the
        :class:`~repro.shard.partition.ShardMap` flavour
        (``"hash"`` or ``"range"``).
    max_batch:
        Most requests one batch-solver call may group.
    max_wait_ms:
        Opt-in linger: how long a partially filled batch may wait for
        batch-mates before it is flushed.  ``0`` (the default) flushes
        as soon as a flush thread is free; requests still coalesce, up
        to ``max_batch``, behind whatever fold is in flight.
    queue_capacity:
        Bound on admitted-but-unserved requests; beyond it the
        scheduler rejects with a retry-after hint (backpressure).
    cache_entries:
        Result-cache capacity in entries (``0`` disables caching).
        Each entry stores one full estimate vector, so memory is about
        ``cache_entries * num_nodes * 8`` bytes.
    topk_max_k:
        Admission bound on a ``/topk`` request's ranking depth — a
        front-end guard only (it never changes how an admitted query
        is computed, so thread and process executors stay
        byte-identical).
    multiseed_max_seeds:
        Admission bound on a ``/multiseed`` request's seed-set size;
        front-end guard only, like ``topk_max_k``.
    host, port:
        HTTP bind address (``port=0`` lets the OS pick, handy in tests).
    trace_sample_rate:
        Fraction of requests that record a full span tree
        (head-sampling, deterministic per request id; ``0`` disables
        tracing entirely — the no-op span path).
    trace_buffer:
        How many finished traces the in-memory ring retains.
    slowlog_path:
        JSON-lines slow-query log destination (``None`` keeps the
        in-memory ring only).
    slowlog_threshold_ms:
        Latency at or above which an ok request enters the slow log;
        errors are always logged.
    slowlog_max_bytes:
        Rotate the slow-log file once it would exceed this many bytes
        (previous generation kept as ``<path>.1``); ``None`` never
        rotates.
    slo_availability_objective, slo_latency_objective, slo_latency_ms:
        The two built-in SLOs (see :mod:`repro.obs.slo`): a fraction
        of requests that must not fail, and a fraction that must
        finish within ``slo_latency_ms``.
    slo_fast_window_s, slo_slow_window_s, slo_burn_threshold:
        Multi-window burn-rate alerting: an alert fires when the
        error-budget burn rate exceeds the threshold over *both*
        windows, and clears when the fast window recovers.
    """

    graph: str = "youtube"
    scale: float = 0.25
    alpha: float = 0.01
    epsilon: float = 0.5
    budget_scale: float = 0.05
    seed: int = 2022
    workers: int = 1
    executor: str = "thread"
    dynamic: bool = False
    bank_dir: str | None = None
    shards: int = 1
    shard_strategy: str = "hash"
    max_batch: int = 32
    max_wait_ms: float = 0.0
    queue_capacity: int = 256
    cache_entries: int = 512
    topk_max_k: int = 100
    multiseed_max_seeds: int = 64
    host: str = "127.0.0.1"
    port: int = 8471
    trace_sample_rate: float = 0.0
    trace_buffer: int = 256
    slowlog_path: str | None = None
    slowlog_threshold_ms: float = 250.0
    slowlog_max_bytes: int | None = None
    slo_availability_objective: float = 0.999
    slo_latency_objective: float = 0.99
    slo_latency_ms: float = 250.0
    slo_fast_window_s: float = 60.0
    slo_slow_window_s: float = 300.0
    slo_burn_threshold: float = 10.0

    def __post_init__(self):
        if self.max_batch < 1:
            raise ConfigError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_ms < 0:
            raise ConfigError(
                f"max_wait_ms must be >= 0, got {self.max_wait_ms}")
        if self.queue_capacity < 1:
            raise ConfigError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}")
        if self.cache_entries < 0:
            raise ConfigError(
                f"cache_entries must be >= 0, got {self.cache_entries}")
        if self.topk_max_k < 1:
            raise ConfigError(
                f"topk_max_k must be >= 1, got {self.topk_max_k}")
        if self.multiseed_max_seeds < 1:
            raise ConfigError(
                f"multiseed_max_seeds must be >= 1, "
                f"got {self.multiseed_max_seeds}")
        if not 0 <= self.port <= 65535:
            raise ConfigError(f"port must be in [0, 65535], got {self.port}")
        if self.scale <= 0:
            raise ConfigError(f"scale must be positive, got {self.scale}")
        if self.executor not in ("thread", "process"):
            raise ConfigError(
                f"executor must be 'thread' or 'process', "
                f"got {self.executor!r}")
        if self.executor == "process" and self.workers < 1:
            raise ConfigError(
                "executor='process' needs workers >= 1 "
                f"(got workers={self.workers})")
        if self.shards < 1:
            raise ConfigError(f"shards must be >= 1, got {self.shards}")
        if self.shard_strategy not in ("hash", "range"):
            raise ConfigError(
                f"shard_strategy must be 'hash' or 'range', "
                f"got {self.shard_strategy!r}")
        if self.shards > 1 and self.executor != "process":
            raise ConfigError(
                "shards > 1 needs executor='process' "
                f"(got executor={self.executor!r})")
        if self.bank_dir is not None and self.dynamic:
            raise ConfigError(
                "bank_dir does not combine with dynamic=True: saved "
                "static banks carry no arrow records to repair")
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise ConfigError(
                f"trace_sample_rate must be in [0, 1], "
                f"got {self.trace_sample_rate}")
        if self.trace_buffer < 1:
            raise ConfigError(
                f"trace_buffer must be >= 1, got {self.trace_buffer}")
        if self.slowlog_threshold_ms < 0:
            raise ConfigError(
                f"slowlog_threshold_ms must be >= 0, "
                f"got {self.slowlog_threshold_ms}")
        if self.slowlog_max_bytes is not None \
                and self.slowlog_max_bytes < 1:
            raise ConfigError(
                f"slowlog_max_bytes must be >= 1, "
                f"got {self.slowlog_max_bytes}")
        for label, objective in (
                ("slo_availability_objective",
                 self.slo_availability_objective),
                ("slo_latency_objective", self.slo_latency_objective)):
            if not 0.0 < objective < 1.0:
                raise ConfigError(
                    f"{label} must be in (0, 1), got {objective}")
        if self.slo_latency_ms <= 0:
            raise ConfigError(
                f"slo_latency_ms must be > 0, got {self.slo_latency_ms}")
        if self.slo_fast_window_s <= 0 or self.slo_slow_window_s <= 0:
            raise ConfigError(
                f"SLO windows must be > 0, got "
                f"fast={self.slo_fast_window_s} "
                f"slow={self.slo_slow_window_s}")
        if self.slo_fast_window_s >= self.slo_slow_window_s:
            raise ConfigError(
                f"slo_fast_window_s ({self.slo_fast_window_s}) must be "
                f"shorter than slo_slow_window_s "
                f"({self.slo_slow_window_s})")
        if self.slo_burn_threshold <= 0:
            raise ConfigError(
                f"slo_burn_threshold must be > 0, "
                f"got {self.slo_burn_threshold}")
        # delegate the query-parameter checks (alpha range, epsilon > 0,
        # workers >= 0) to PPRConfig
        self.ppr_config()

    # ------------------------------------------------------------------
    def ppr_config(self) -> PPRConfig:
        """The query configuration served requests are solved under."""
        return PPRConfig(alpha=self.alpha, epsilon=self.epsilon,
                         budget_scale=self.budget_scale, seed=self.seed,
                         workers=self.workers)

    def with_overrides(self, **changes) -> "ServiceConfig":
        """Functional update helper (``dataclasses.replace`` wrapper)."""
        return replace(self, **changes)

    def describe(self) -> str:
        """Deterministic multi-line rendering for ``serve --dry-run``."""
        lines = ["service config:"]
        for label, value in [
                ("graph", f"{self.graph} (scale {self.scale})"),
                ("alpha", self.alpha),
                ("epsilon", self.epsilon),
                ("budget_scale", self.budget_scale),
                ("seed", self.seed),
                ("workers", self.workers),
                ("executor", self.executor),
                ("dynamic", self.dynamic),
                ("bank_dir", self.bank_dir or "build at boot"),
                ("shards", f"{self.shards} ({self.shard_strategy})"),
                ("max_batch", self.max_batch),
                ("max_wait_ms", self.max_wait_ms),
                ("queue_capacity", self.queue_capacity),
                ("cache_entries", self.cache_entries),
                ("topk_max_k", self.topk_max_k),
                ("multiseed_max_seeds", self.multiseed_max_seeds),
                ("bind", f"{self.host}:{self.port}"),
                ("trace_sample_rate", self.trace_sample_rate),
                ("slowlog", self.slowlog_path or "off"),
                ("slo", f"avail {self.slo_availability_objective} / "
                        f"latency {self.slo_latency_objective} @ "
                        f"{self.slo_latency_ms:g}ms"),
                ("slo_windows", f"{self.slo_fast_window_s:g}s/"
                                f"{self.slo_slow_window_s:g}s "
                                f"burn {self.slo_burn_threshold:g}"),
        ]:
            lines.append(f"  {label:<15} {value}")
        return "\n".join(lines)
