"""The five workloads and their seeded request streams.

Every request the program sees is generated here from the benchmark's
``--seed`` (the popularity ranking and the accuracy probes from a
fixed seed of their own); the program gets only the requests.
Streams are per-caller generators, so a caller's sequence depends only
on the seed, the workload's stream name, the caller and the phase
(warm-up or measured), never on timing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

GRAPH = "youtube"
HTTP_ALPHA = 0.1
OFFLINE_ALPHA = 0.01
OFFLINE_EPSILON = 0.1
#: the service's own ``--epsilon`` default, which the HTTP workloads keep
HTTP_EPSILON = 0.5
#: the service's ``--budget-scale`` default, which every workload keeps:
#: it scales the Monte-Carlo budget W ∝ 1/(ε² μ), so the ε guarantee
#: holds above μ / BUDGET_SCALE rather than the paper's μ = 1/n
BUDGET_SCALE = 0.05
#: the service's own ``--slo-latency-ms`` default: a check on p99
LATENCY_LIMIT_MS = 250.0
#: the closed loop's client count; the load generator holds one
#: persistent connection per caller
CALLERS = 2
WARMUP_REQUESTS = 50
#: counts of measured requests after which an HTTP workload's memory is
#: read; the slowest workload serves about 240 in a 10 s phase
MEMORY_READINGS = (100, 120, 140, 160, 180)
ZIPF_EXPONENT = 1.1
OFFLINE_BATCH = 32
#: index_offline's hub targets go in batches of 8, so that target work
#: is spread through the measured phase rather than held in one 5 s call
OFFLINE_TARGET_BATCH = 8
#: a cycle is 3 source batches, then one target batch: 96 sources to 8
#: targets, the 768 : 64 of paper §7.4's query set
OFFLINE_CYCLE = 4
#: churn_zipf's writer caller sends a ``/mutate`` as every 4th of its
#: requests; the other caller only reads, so the two never race two
#: writes into one bank generation
CHURN_WRITE_EVERY = 4
PROBES_PER_KIND = 8
PROBE_TOP = 50
#: seeds the parts of a workload that stay put from run to run: the
#: popularity ranking and the accuracy probes
FIXED_SEED = 2022

SERVE_ARGS = ("--graph", GRAPH, "--scale", "1.0", "--alpha",
              str(HTTP_ALPHA), "--port", "0")

_PHASES = {"warmup": 0, "measure": 1}


@dataclass(frozen=True)
class Workload:
    """One named traffic mix (``kind`` ``http``) or offline job."""

    name: str
    kind: str
    stream: str
    serve_args: tuple = field(default=())
    #: boot a thread-executor server too and require byte-identical
    #: probe answers from both
    reference: bool = False


#: Why each workload exists is recorded beside its name in
#: ``BENCHMARK.json`` and in the README.
WORKLOADS = {
    workload.name: workload for workload in (
        Workload("source_uniform", "http", "source_uniform"),
        Workload("mixed_zipf", "http", "mixed_zipf"),
        Workload("source_uniform_sharded", "http", "source_uniform",
                 serve_args=("--executor", "process", "--shards", "2",
                             "--workers", "1"),
                 reference=True),
        Workload("churn_zipf", "http", "churn_zipf",
                 serve_args=("--dynamic",)),
        Workload("index_offline", "offline", "index_offline"),
    )
}

_STREAM_IDS = {"source_uniform": 1, "mixed_zipf": 2, "churn_zipf": 3,
               "index_offline": 4}


def rng_for(seed: int, stream: str, caller: int, phase: str
            ) -> np.random.Generator:
    """The generator behind one caller's phase of one stream."""
    return np.random.default_rng(
        [int(seed), _STREAM_IDS[stream], int(caller), _PHASES[phase]])


def degree_order(out_degrees: np.ndarray) -> np.ndarray:
    """Node ids from highest to lowest out-degree."""
    return np.argsort(-out_degrees, kind="stable")


def hub_pool(order: np.ndarray) -> np.ndarray:
    """The top-10% out-degree nodes (paper §7.1's target pool), given
    :func:`degree_order`."""
    return order[:max(1, order.size // 10)]


class Zipf:
    """Zipf(``exponent``) popularity over ``items``.

    The rank order is a permutation drawn from :data:`FIXED_SEED`, not
    the run's seed: which nodes are popular is part of the workload,
    like the graph, and the run's seed only draws requests from it.
    (Re-ranking per seed moved mixed_zipf's p99 by ±12% between seeds,
    four times its spread between runs of one seed.)
    """

    def __init__(self, items: np.ndarray, salt: int,
                 exponent: float = ZIPF_EXPONENT):
        order = np.random.default_rng([FIXED_SEED, salt]).permutation(
            np.asarray(items).size)
        self.items = np.asarray(items)[order]
        weights = 1.0 / np.arange(1, self.items.size + 1) ** exponent
        self._cdf = np.cumsum(weights) / weights.sum()

    def draw(self, rng: np.random.Generator) -> int:
        rank = int(np.searchsorted(self._cdf, rng.random(), side="right"))
        return int(self.items[min(rank, self.items.size - 1)])


def _source(node: int) -> dict:
    return {"path": "/query", "body": {"kind": "source", "node": node}}


def _target(node: int) -> dict:
    return {"path": "/query", "body": {"kind": "target", "node": node}}


def _pair(source: int, target: int) -> dict:
    return {"path": "/pair", "body": {"source": source, "target": target}}


def _distinct(draw, count: int) -> list[int]:
    picked: list[int] = []
    while len(picked) < count:
        node = draw()
        if node not in picked:
            picked.append(node)
    return picked


def request_stream(stream: str, seed: int, caller: int, phase: str,
                   num_nodes: int, pool: np.ndarray):
    """Endless generator of ``{"path", "body"}`` requests for one
    caller.

    ``pool`` is :func:`hub_pool` of the served graph; targets and pair
    targets come from it.
    """
    rng = rng_for(seed, stream, caller, phase)
    if stream == "source_uniform":
        while True:
            yield _source(int(rng.integers(num_nodes)))
    nodes = Zipf(np.arange(num_nodes), salt=1)
    hubs = Zipf(pool, salt=2)
    if stream == "mixed_zipf":
        while True:
            pick = rng.random()
            if pick < 0.4:
                yield _source(nodes.draw(rng))
            elif pick < 0.6:
                yield _target(hubs.draw(rng))
            elif pick < 0.8:
                yield _pair(nodes.draw(rng), hubs.draw(rng))
            else:
                yield {"path": "/multiseed",
                       "body": {"seeds": _distinct(
                           lambda: nodes.draw(rng), 3)}}
    if stream == "churn_zipf":
        # the edges written come from the fixed seed, like the
        # popularity ranking: a write's repair work depends on its edge
        # (runs whose writes were cheaper read a 20% lower p95)
        edges = np.random.default_rng(
            [FIXED_SEED, _STREAM_IDS[stream], _PHASES[phase]])
        position = 0
        while True:
            position += 1
            if caller == 0 and position % CHURN_WRITE_EVERY == 0:
                u, v = _distinct(lambda: int(edges.integers(num_nodes)), 2)
                yield {"path": "/mutate",
                       "body": {"ops": [{"op": "upsert", "u": u, "v": v,
                                         "weight": 1.0}]}}
            else:
                yield _source(nodes.draw(rng))
    raise ValueError(f"no HTTP stream named {stream!r}")


def offline_batches(seed: int, phase: str, order: np.ndarray):
    """Endless ``(kind, nodes)`` batches for ``index_offline``, in cycles
    of ``OFFLINE_CYCLE - 1`` source batches and one target batch.

    A batch takes one node from each of its size's equal strata of the
    out-degree order (sources over all nodes, targets over the hub
    pool), so every batch of a kind has the same degree profile: the
    push work of a hub target batch otherwise swings by ±25% with the
    draw.  The batches are drawn from :data:`FIXED_SEED`, like the
    popularity ranking: the job's query set is part of the workload,
    and a run's seed sets the order in which each cycle's source
    batches run.
    """
    fixed = np.random.default_rng(
        [FIXED_SEED, _STREAM_IDS["index_offline"], _PHASES[phase]])
    rng = rng_for(seed, "index_offline", 0, phase)
    strata = {"source": np.array_split(order, OFFLINE_BATCH),
              "target": np.array_split(hub_pool(order),
                                       OFFLINE_TARGET_BATCH)}

    def draw(kind: str) -> list[int]:
        return [int(stratum[fixed.integers(stratum.size)])
                for stratum in strata[kind]]

    while True:
        sources = [draw("source") for _ in range(OFFLINE_CYCLE - 1)]
        target = draw("target")
        for index in rng.permutation(len(sources)):
            yield "source", sources[index]
        yield "target", target


def probe_requests(stream: str, num_nodes: int, pool: np.ndarray, *,
                   pairs: bool = True) -> list[dict]:
    """The accuracy probes: ``PROBES_PER_KIND`` uniform sources, hub
    targets and (for HTTP) source→hub pairs, each asking for the top
    ``PROBE_TOP`` entries.

    The probe set is drawn from :data:`FIXED_SEED`, not the run's seed:
    at a fixed bank seed the answers then repeat exactly, so
    ``mean_rel_err`` moves only when the program's accuracy does,
    rather than with which 24 probes a seed happened to draw.
    """
    rng = np.random.default_rng([FIXED_SEED, _STREAM_IDS[stream]])
    probes = []
    for node in rng.choice(num_nodes, PROBES_PER_KIND, replace=False):
        probes.append({"path": "/query", "body": {
            "kind": "source", "node": int(node), "top": PROBE_TOP}})
    for node in rng.choice(pool, PROBES_PER_KIND, replace=False):
        probes.append({"path": "/query", "body": {
            "kind": "target", "node": int(node), "top": PROBE_TOP}})
    if pairs:
        sources = rng.choice(num_nodes, PROBES_PER_KIND, replace=False)
        targets = rng.choice(pool, PROBES_PER_KIND, replace=False)
        for source, target in zip(sources, targets):
            probes.append(_pair(int(source), int(target)))
    return probes
