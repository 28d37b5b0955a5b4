"""Closed-loop HTTP load generator for the PPR service.

Each of ``concurrency`` clients issues its next request only after the
previous one completes (closed loop), drawing source nodes from a
Zipf-like distribution — the workload shape the paper's Fig-12
query-distribution experiment uses and the shape real PPR serving
sees (a heavy head of popular seeds).  Doubles as the CI smoke
checker:

    python -m repro.service.loadgen --url http://127.0.0.1:8471 \
        --requests 64 --concurrency 8 --check-metrics

exits non-zero unless every request returned 200 with valid JSON and
(with ``--check-metrics``) the ``/metrics`` endpoint shows non-zero
request/batch counters and a populated latency summary.
``--check-exposition`` additionally runs the strict format checker
(:mod:`repro.obs.exposition`) against the live document, and
``--tenants "acme:2,beta:1"`` cycles an ``X-Tenant`` header over the
burst — the summary then carries per-tenant p50/p99 and
``--check-metrics`` asserts every tenant label reached the
exposition.  Every request sends a fresh ``X-Request-Id``; failure
records echo the id the server answered with.

Scenarios: ``--kind`` picks the request shape — ``source``/``target``
hit ``POST /query``, ``topk`` hits ``/topk`` (depth ``--topk-k``),
``multiseed`` hits ``/multiseed`` (``--seeds-per-query`` seeds drawn
from the same Zipf stream), ``pair`` hits ``/pair``, ``mixed``
round-robins across all of them, and ``churn`` interleaves queries
with graph mutations — every ``--mutate-every``-th request is a
``POST /mutate`` carrying one ``upsert`` edge op (upsert is always
valid whether or not the edge exists, so concurrent clients can never
race each other into a rejected delta).  Every scenario is
deterministic in ``--seed``, so two services fed the same burst see
byte-identical request streams.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np

from repro.obs.exposition import check_exposition
from repro.obs.histogram import bucket_quantile, exact_quantile
from repro.obs.tracing import new_request_id

__all__ = ["build_requests", "parse_tenants", "run_load", "main"]

KINDS = ("source", "target", "topk", "multiseed", "pair", "mixed",
         "churn")


def _post_json(url: str, payload: dict, timeout: float = 30.0,
               headers: dict[str, str] | None = None) -> dict:
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json", **(headers or {})},
        method="POST")
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


def parse_tenants(spec: str | None) -> list[str]:
    """``"acme:2,beta:1"`` → ``["acme", "acme", "beta"]``.

    The expanded list is cycled over the burst positions, so the mix
    is deterministic (request *i* always belongs to the same tenant)
    and the weights are exact over each full cycle.  A bare name means
    weight 1; blank/None means no tenant labelling at all.
    """
    if not spec:
        return []
    cycle: list[str] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, weight = part.partition(":")
        name = name.strip()
        if not name:
            raise ValueError(f"tenant spec part {part!r} has no name")
        count = int(weight) if weight else 1
        if count < 1:
            raise ValueError(f"tenant {name!r} weight must be >= 1, "
                             f"got {count}")
        cycle.extend([name] * count)
    return cycle


def _get(url: str, timeout: float = 10.0) -> str:
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.read().decode()


def zipf_nodes(num_nodes: int, count: int, *, exponent: float = 1.1,
               seed: int = 2022) -> np.ndarray:
    """``count`` node ids with Zipf(``exponent``) popularity over the
    node range (ranks clipped into ``[0, num_nodes)``)."""
    rng = np.random.default_rng(seed)
    ranks = rng.zipf(exponent, size=count)
    return np.minimum(ranks - 1, num_nodes - 1).astype(np.int64)


def build_requests(kind: str, nodes, num_nodes: int, *,
                   topk_k: int = 10, seeds_per_query: int = 3,
                   mutate_every: int = 8,
                   seed: int = 2022) -> list[tuple[str, dict, str]]:
    """One ``(path, body, ok_key)`` triple per burst position.

    ``ok_key`` is the response field whose presence marks success
    (``"top"`` for ranked answers, ``"value"`` for pair answers,
    ``"banks"`` for mutations).  Deterministic in ``seed`` so
    identical bursts can be replayed against two services for
    byte-level comparison.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown load kind {kind!r} (choose from {KINDS})")
    rng = np.random.default_rng(seed + 1)
    num_nodes = max(1, num_nodes)
    plans: list[tuple[str, dict, str]] = []
    for position, node in enumerate(int(n) for n in nodes):
        shape = kind
        if kind == "mixed":
            shape = ("source", "topk", "multiseed",
                     "pair")[position % 4]
        elif kind == "churn":
            # queries with a mutation every mutate_every-th request;
            # a one-node graph has no edge to upsert, so stay a query
            mutating = (num_nodes > 1 and mutate_every > 0
                        and position % mutate_every == mutate_every - 1)
            shape = "mutate" if mutating else "source"
        if shape == "mutate":
            other = (node + 1 + int(rng.integers(num_nodes - 1))) \
                % num_nodes
            weight = round(float(rng.uniform(0.5, 2.0)), 3)
            plans.append(("/mutate", {"ops": [{"op": "upsert", "u": node,
                                               "v": other,
                                               "weight": weight}]},
                          "banks"))
        elif shape in ("source", "target"):
            plans.append(("/query", {"kind": shape, "node": node}, "top"))
        elif shape == "topk":
            plans.append(("/topk", {"node": node,
                                    "k": max(1, min(topk_k, num_nodes - 1))},
                          "top"))
        elif shape == "multiseed":
            extra = rng.integers(0, num_nodes,
                                 size=max(0, seeds_per_query - 1))
            seeds = sorted({node, *(int(s) for s in extra)})
            plans.append(("/multiseed", {"seeds": seeds}, "top"))
        else:  # pair
            target = int(rng.integers(0, num_nodes))
            plans.append(("/pair", {"source": node, "target": target},
                          "value"))
    return plans


def run_load(base_url: str, *, requests: int = 64, concurrency: int = 8,
             num_nodes: int | None = None, kind: str = "source",
             topk_k: int = 10, seeds_per_query: int = 3,
             mutate_every: int = 8, zipf_exponent: float = 1.1,
             seed: int = 2022, timeout: float = 30.0,
             tenants: str | None = None) -> dict:
    """Fire a closed-loop burst; returns an outcome summary dict.

    ``num_nodes`` defaults to what ``/healthz`` is willing to admit —
    node 0 only — so pass the real graph size for a spread workload.
    ``tenants`` (e.g. ``"acme:2,beta:1"``) cycles an ``X-Tenant``
    header over the burst and adds a per-tenant latency table to the
    summary.  Every request carries a fresh ``X-Request-Id``; failure
    records echo the id the server responded with, so a failed burst
    can be joined against the server's slow log.
    """
    nodes = zipf_nodes(num_nodes or 1, requests, exponent=zipf_exponent,
                       seed=seed)
    plans = build_requests(kind, nodes, num_nodes or 1, topk_k=topk_k,
                           seeds_per_query=seeds_per_query,
                           mutate_every=mutate_every, seed=seed)
    tenant_cycle = parse_tenants(tenants)
    cursor = {"next": 0}
    lock = threading.Lock()
    outcomes: list[dict] = []

    def client():
        while True:
            with lock:
                position = cursor["next"]
                if position >= requests:
                    return
                cursor["next"] += 1
            path, body, ok_key = plans[position]
            request_id = new_request_id()
            headers = {"X-Request-Id": request_id}
            tenant = None
            if tenant_cycle:
                tenant = tenant_cycle[position % len(tenant_cycle)]
                headers["X-Tenant"] = tenant
            started = time.perf_counter()
            try:
                payload = _post_json(f"{base_url}{path}", body,
                                     timeout=timeout, headers=headers)
                outcome = {"ok": ok_key in payload,
                           "cached": payload.get("cached", False)}
            except urllib.error.HTTPError as error:
                outcome = {"ok": False, "status": error.code,
                           "request_id":
                               error.headers.get("X-Request-Id")
                               or request_id}
            except Exception as error:  # connection refused, timeout, ...
                outcome = {"ok": False, "error": str(error),
                           "request_id": request_id}
            outcome["seconds"] = time.perf_counter() - started
            if tenant is not None:
                outcome["tenant"] = tenant
            with lock:
                outcomes.append(outcome)

    started = time.perf_counter()
    threads = [threading.Thread(target=client, daemon=True)
               for _ in range(max(1, concurrency))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    succeeded = sum(1 for outcome in outcomes if outcome["ok"])
    latencies = sorted(outcome["seconds"] for outcome in outcomes)

    summary = {
        "requests": requests,
        "succeeded": succeeded,
        "failed": requests - succeeded,
        "failures": [o for o in outcomes if not o["ok"]],
        "cached": sum(1 for o in outcomes if o.get("cached")),
        "seconds": elapsed,
        "throughput_qps": requests / elapsed if elapsed else 0.0,
        "latency": {
            "p50_seconds": exact_quantile(latencies, 0.50),
            "p95_seconds": exact_quantile(latencies, 0.95),
            "p99_seconds": exact_quantile(latencies, 0.99),
            "max_seconds": latencies[-1] if latencies else 0.0,
        },
        "latencies_seconds": latencies,
    }
    if tenant_cycle:
        table: dict[str, dict] = {}
        for tenant in sorted(set(tenant_cycle)):
            rows = [o["seconds"] for o in outcomes
                    if o.get("tenant") == tenant]
            table[tenant] = {
                "requests": len(rows),
                "p50_seconds": exact_quantile(rows, 0.50),
                "p99_seconds": exact_quantile(rows, 0.99),
            }
        summary["tenants"] = table
    return summary


def check_metrics(base_url: str,
                  tenants: str | None = None) -> list[str]:
    """Return failure messages (empty = the smoke assertions hold).

    With ``tenants`` (same spec as ``run_load``), additionally asserts
    that every named tenant shows up in the per-tenant counter
    families on the live exposition.
    """
    text = _get(f"{base_url}/metrics")
    failures = []

    def value_of(prefix: str) -> float | None:
        for line in text.splitlines():
            if line.startswith(prefix) and not line.startswith("#"):
                try:
                    return float(line.rsplit(None, 1)[1])
                except ValueError:
                    return None
        return None

    for metric in ("repro_service_batches_total",
                   "repro_service_batch_size_count",
                   "repro_service_latency_seconds_count"):
        value = value_of(metric)
        if not value:
            failures.append(f"{metric} missing or zero (got {value})")
    for metric in ("repro_service_queue_depth",
                   'repro_service_cache{stat="hit_rate"}',
                   'repro_service_latency_seconds_bucket{le="+Inf"}'):
        if value_of(metric) is None:
            failures.append(f"{metric} missing")
    if not value_of('repro_service_stage_seconds_count{stage="fold"}'):
        failures.append("fold stage histogram missing or zero")
    if value_of('repro_service_requests_total{endpoint="source"}') is None:
        failures.append("per-endpoint request counter missing")
    for tenant in sorted(set(parse_tenants(tenants))):
        for family in ("repro_service_tenant_requests_total",
                       "repro_service_tenant_latency_seconds_count"):
            if not value_of(f'{family}{{tenant="{tenant}"}}'):
                failures.append(f"{family} missing or zero for "
                                f"tenant {tenant!r}")
    return failures


def check_live_exposition(base_url: str) -> list[str]:
    """Run the strict format checker against the live ``/metrics``."""
    return check_exposition(_get(f"{base_url}/metrics"))


def shard_fold_report(base_url: str, shards: int) -> tuple[list, list]:
    """Per-shard fold-latency quantiles from the stage histograms.

    Scrapes ``/metrics`` and reads the cumulative buckets of
    ``repro_service_shard_fold_seconds{shard="k"}``; the reported
    quantiles are :func:`~repro.obs.histogram.bucket_quantile` over
    the scraped counts, the number the server's shard table reports.
    Returns ``(rows, failures)`` where ``rows`` holds one
    ``{"shard", "count", "p50_seconds", "p99_seconds"}`` dict per shard
    and ``failures`` lists shards whose histogram is missing or empty.
    """
    text = _get(f"{base_url}/metrics")
    buckets: dict[int, list[tuple[float, float]]] = {}
    prefix = "repro_service_shard_fold_seconds_bucket{"
    for line in text.splitlines():
        if not line.startswith(prefix):
            continue
        labels, value = line[len(prefix):].rsplit(None, 1)
        labels = labels.rstrip("}")
        fields = dict(part.split("=", 1) for part in labels.split(","))
        shard = int(fields['shard'].strip('"'))
        le = fields["le"].strip('"')
        bound = float("inf") if le == "+Inf" else float(le)
        buckets.setdefault(shard, []).append((bound, float(value)))

    rows, failures = [], []
    for shard in range(shards):
        if shard not in buckets or not buckets[shard][-1][1]:
            failures.append(
                f"shard {shard} fold histogram missing or zero")
            continue
        cumulative = sorted(buckets[shard])
        bounds = [bound for bound, _ in cumulative[:-1]]  # drop +Inf
        totals = [count for _, count in cumulative]
        counts = [high - low for low, high in zip([0.0] + totals, totals)]
        rows.append({
            "shard": shard,
            "count": int(totals[-1]),
            "p50_seconds": bucket_quantile(bounds, counts, 0.50),
            "p99_seconds": bucket_quantile(bounds, counts, 0.99),
        })
    return rows, failures


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code (non-zero = smoke
    failure)."""
    parser = argparse.ArgumentParser(
        prog="repro.service.loadgen",
        description="closed-loop load generator / smoke checker")
    parser.add_argument("--url", required=True,
                        help="service base url, e.g. http://127.0.0.1:8471")
    parser.add_argument("--requests", type=int, default=64)
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument("--num-nodes", type=int, default=None,
                        help="node-id range for the Zipf stream "
                             "(default: read from /healthz)")
    parser.add_argument("--kind", choices=KINDS, default="source",
                        help="request scenario (default: source; "
                             "'mixed' round-robins all kinds)")
    parser.add_argument("--topk-k", type=int, default=10,
                        help="ranking depth for --kind topk/mixed")
    parser.add_argument("--seeds-per-query", type=int, default=3,
                        help="seed-set size for --kind multiseed/mixed")
    parser.add_argument("--mutate-every", type=int, default=8,
                        help="for --kind churn: one /mutate per this "
                             "many requests")
    parser.add_argument("--zipf", type=float, default=1.1)
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--tenants", default=None, metavar="SPEC",
                        help="weighted tenant mix, e.g. 'acme:2,beta:1' "
                             "— cycles an X-Tenant header over the "
                             "burst and reports per-tenant p50/p99")
    parser.add_argument("--check-metrics", action="store_true",
                        help="also assert /metrics is populated (and "
                             "carries every --tenants label)")
    parser.add_argument("--check-exposition", action="store_true",
                        help="strictly validate the live /metrics "
                             "document format (HELP/TYPE coverage, "
                             "label syntax, cumulative buckets)")
    parser.add_argument("--shards", type=int, default=0, metavar="N",
                        help="service shard count: report per-shard "
                             "p99 fold latency from the shard stage "
                             "histograms and fail if any of the N "
                             "shards folded nothing")
    parser.add_argument("--latency-out", default=None, metavar="PATH",
                        help="write the full summary (including every "
                             "per-request latency) as JSON to this file")
    args = parser.parse_args(argv)

    num_nodes = args.num_nodes
    if num_nodes is None:
        health = json.loads(_get(f"{args.url}/healthz"))
        num_nodes = int(health.get("num_nodes", 1))
    summary = run_load(args.url, requests=args.requests,
                       concurrency=args.concurrency, num_nodes=num_nodes,
                       kind=args.kind, topk_k=args.topk_k,
                       seeds_per_query=args.seeds_per_query,
                       mutate_every=args.mutate_every,
                       zipf_exponent=args.zipf, seed=args.seed,
                       tenants=args.tenants)
    if args.latency_out:
        with open(args.latency_out, "w", encoding="utf-8") as sink:
            json.dump(summary, sink, indent=2, sort_keys=True)
            sink.write("\n")
    # the raw latency list is file-only; stdout stays a short summary
    printed = {key: value for key, value in summary.items()
               if key != "latencies_seconds"}
    print(json.dumps(printed, indent=2))
    code = 0
    if summary["failed"]:
        print(f"FAIL: {summary['failed']} request(s) failed",
              file=sys.stderr)
        code = 1
    if args.check_metrics:
        failures = check_metrics(args.url, tenants=args.tenants)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        code = code or (1 if failures else 0)
    if args.check_exposition:
        failures = check_live_exposition(args.url)
        for failure in failures:
            print(f"FAIL: exposition: {failure}", file=sys.stderr)
        code = code or (1 if failures else 0)
    if args.shards > 1:
        rows, failures = shard_fold_report(args.url, args.shards)
        for row in rows:
            print(f"shard {row['shard']}: {row['count']} folds, "
                  f"fold p50 <= {row['p50_seconds']:g}s, "
                  f"p99 <= {row['p99_seconds']:g}s")
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        code = code or (1 if failures else 0)
    if code == 0:
        print("load burst ok")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
