"""Thin HTTP front end for :class:`~repro.service.service.PPRService`.

Pure stdlib (:mod:`http.server` with the threading mixin — one thread
per connection, which is plenty because the real concurrency lives in
the micro-batching scheduler behind it).  Endpoints:

- ``POST /query``     — body ``{"kind": "source"|"target", "node": int,
  "alpha"?, "epsilon"?, "top"?}`` → top-k JSON;
- ``POST /topk``      — body ``{"node": int, "k": int, "alpha"?,
  "epsilon"?}`` → the k highest-PPR nodes with the early-termination
  verdict (``converged``, ``num_forests``);
- ``POST /multiseed`` — body ``{"seeds": [int, ...], "weights"?:
  [float, ...], "alpha"?, "epsilon"?, "top"?}`` → top-k of the
  seed-set personalization vector;
- ``POST /pair``      — body ``{"source": int, "target": int,
  "alpha"?, "epsilon"?}`` → one π(s, t) value;
- ``POST /mutate``    — body ``{"ops": [{"op": "add"|"remove"|
  "set_weight"|"upsert", "u": int, "v": int, "weight"?: float}, ...]}``
  → applies the edge updates to the served graph (dynamic banks repair
  incrementally, static banks rebuild) and reports per-bank
  generations plus the work counters;
- ``GET /healthz``    — liveness/readiness JSON;
- ``GET /metrics``    — Prometheus text format;
- ``GET /statusz``    — operational dashboard JSON (rolling windows,
  SLO burn-rate state, per-tenant and per-shard tables) — what
  ``repro top`` polls.

Request correlation: an inbound ``X-Request-Id`` header is propagated
into the trace/slow-log pipeline and echoed back; without one the
service mints an id and the response still carries it — on every
response, including 404s, 429s and 500s, so a client can always join
its failure records to the server-side slow log.  Tenant attribution:
an ``X-Tenant`` header (or ``?tenant=`` query parameter) labels the
request in the per-tenant metrics tables; it never changes the
answer.  Appending ``?debug=1`` to any POST route forces a trace and
inlines the span tree + work counters in the response's ``debug``
block.

Error mapping: malformed body → 400, unknown path → 404, queue
backpressure (:class:`~repro.service.scheduler.SchedulerFull`) → 429
with a ``Retry-After`` header, configuration errors → 400, anything
else → 500.  Responses are always JSON except ``/metrics``.  A POST
answered before its body was read (unknown path, oversize or missing
length) closes the keep-alive connection: the unread bytes are not at
a request boundary.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.exceptions import ReproError
from repro.obs.tracing import new_request_id
from repro.service.scheduler import SchedulerFull
from repro.service.service import PPRService

__all__ = ["PPRServiceServer", "make_server", "serve_forever"]

_MAX_BODY_BYTES = 1 << 20


class PPRServiceServer(ThreadingHTTPServer):
    """HTTP server bound to one :class:`PPRService` instance."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], service: PPRService):
        super().__init__(address, _Handler)
        self.service = service


class _Handler(BaseHTTPRequestHandler):
    server: PPRServiceServer
    protocol_version = "HTTP/1.1"
    #: True while a POST's declared body is still on the socket
    _unread = False

    # the default handler logs every request to stderr; route through
    # nothing — the service has /metrics for observability
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    # -- plumbing ------------------------------------------------------
    def _send(self, status: int, payload, *,
              content_type: str = "application/json",
              headers: dict[str, str] | None = None) -> None:
        body = (payload if isinstance(payload, bytes)
                else json.dumps(payload).encode())
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if self._unread:
            # answered without reading the body: the stream is no
            # longer at a request boundary, so keep-alive must end
            self.close_connection = True
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if not 0 < length <= _MAX_BODY_BYTES:
            raise ValueError(f"body length {length} outside "
                             f"(0, {_MAX_BODY_BYTES}]")
        raw = self.rfile.read(length)
        self._unread = False
        payload = json.loads(raw)
        if not isinstance(payload, dict):
            raise ValueError("body must be a JSON object")
        return payload

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        request_id = (self.headers.get("X-Request-Id")
                      or new_request_id())
        echo = {"X-Request-Id": request_id}
        if self.path == "/healthz":
            self._send(200, self.server.service.healthz(), headers=echo)
        elif self.path == "/metrics":
            self._send(200, self.server.service.metrics_text().encode(),
                       content_type="text/plain; version=0.0.4",
                       headers=echo)
        elif self.path == "/statusz":
            self._send(200, self.server.service.statusz(), headers=echo)
        else:
            self._send(404, {"error": f"unknown path {self.path!r}"},
                       headers=echo)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        split = urlsplit(self.path)
        self._unread = True
        # inbound correlation id (minted here when the client sent
        # none) — echoed on EVERY response below, 404s and errors
        # included, so clients can always correlate failures
        request_id = (self.headers.get("X-Request-Id")
                      or new_request_id())
        echo = {"X-Request-Id": request_id}
        route = _POST_ROUTES.get(split.path)
        if route is None:
            self._send(404, {"error": f"unknown path {self.path!r}"},
                       headers=echo)
            return
        method, parse = route
        query_args = parse_qs(split.query)
        debug = query_args.get("debug", ["0"])[-1] not in ("", "0",
                                                           "false")
        tenant = (self.headers.get("X-Tenant")
                  or query_args.get("tenant", [None])[-1])
        try:
            payload = getattr(self.server.service, method)(
                **parse(self._read_json(), tenant),
                request_id=request_id, debug=debug)
        except SchedulerFull as full:
            self._send(429, {"error": str(full),
                             "retry_after": full.retry_after},
                       headers={**echo, "Retry-After":
                                f"{full.retry_after:.3f}"})
        except (KeyError, TypeError, ValueError,
                json.JSONDecodeError) as error:
            self._send(400, {"error": f"bad request: {error}"},
                       headers=echo)
        except ReproError as error:
            self._send(400, {"error": str(error)}, headers=echo)
        except Exception as error:  # pragma: no cover - defensive
            self._send(500, {"error": f"internal error: {error}"},
                       headers=echo)
        else:
            self._send(200, payload, headers=echo)


def _opt_float(body: dict, key: str) -> float | None:
    value = body.get(key)
    return None if value is None else float(value)


def _alpha_epsilon(body: dict) -> dict:
    return {"alpha": _opt_float(body, "alpha"),
            "epsilon": _opt_float(body, "epsilon")}


#: POST path → (PPRService method, body parser).  A parser maps the
#: JSON body and the request's tenant to the method's keywords.
_POST_ROUTES = {
    "/query": ("query", lambda body, tenant: {
        "kind": str(body.get("kind", "source")),
        "node": int(body["node"]), **_alpha_epsilon(body),
        "top": int(body.get("top", 10)), "tenant": tenant}),
    "/topk": ("query_topk", lambda body, tenant: {
        "node": int(body["node"]), "k": int(body["k"]),
        **_alpha_epsilon(body), "tenant": tenant}),
    "/multiseed": ("query_multiseed", lambda body, tenant: {
        "seeds": [int(seed) for seed in body["seeds"]],
        "weights": (None if body.get("weights") is None
                    else [float(weight) for weight in body["weights"]]),
        **_alpha_epsilon(body), "top": int(body.get("top", 10)),
        "tenant": tenant}),
    "/pair": ("pair", lambda body, tenant: {
        "source": int(body["source"]), "target": int(body["target"]),
        **_alpha_epsilon(body), "tenant": tenant}),
    # mutations are not tenant-attributed
    "/mutate": ("mutate", lambda body, tenant: {"ops": body["ops"]}),
}


def make_server(service: PPRService, host: str | None = None,
                port: int | None = None) -> PPRServiceServer:
    """Bind (without serving) — ``server.server_port`` has the real
    port when ``port=0`` asked the OS to pick one."""
    host = service.config.host if host is None else host
    port = service.config.port if port is None else port
    return PPRServiceServer((host, port), service)


def serve_forever(server: PPRServiceServer, *,
                  in_thread: bool = False) -> threading.Thread | None:
    """Run the accept loop, optionally on a daemon thread (tests)."""
    if in_thread:
        thread = threading.Thread(target=server.serve_forever,
                                  name="ppr-http", daemon=True)
        thread.start()
        return thread
    server.serve_forever()
    return None
