"""Closed-loop HTTP load generator.

One process, at most ``CALLERS`` threads, one persistent HTTP/1.1
connection (``http.client``) per thread.  A caller sends its next
request as soon as the previous answer has arrived, so a slower server
receives less load.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass

#: Which key a successful answer must carry, by path.
ANSWER_KEYS = {"/query": "top", "/multiseed": "top", "/pair": "value",
               "/mutate": "banks"}


@dataclass
class Record:
    """One request as the client saw it (times from ``perf_counter``)."""

    rid: str
    path: str
    sent: float
    done: float
    ok: bool
    #: the request and parsed answer, kept for ``/mutate`` and probes
    body: dict | None = None
    payload: dict | None = None
    error: str = ""

    @property
    def latency_ms(self) -> float:
        return (self.done - self.sent) * 1000.0

    @property
    def is_read(self) -> bool:
        return self.path != "/mutate"


class Connection:
    """A persistent connection that reopens after a failed exchange."""

    def __init__(self, port: int, timeout: float = 30.0):
        self.port = port
        self.timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    def post(self, path: str, body: dict, rid: str, *,
             keep: bool = False) -> Record:
        data = json.dumps(body).encode()
        headers = {"Content-Type": "application/json",
                   "X-Request-Id": rid}
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=self.timeout)
        sent = time.perf_counter()
        try:
            self._conn.request("POST", path, data, headers)
            response = self._conn.getresponse()
            raw = response.read()
            done = time.perf_counter()
        except (OSError, http.client.HTTPException) as error:
            self.close()
            return Record(rid, path, sent, time.perf_counter(), False,
                          error=f"{type(error).__name__}: {error}")
        if response.status != 200:
            return Record(rid, path, sent, done, False,
                          error=f"HTTP {response.status}: {raw[:200]!r}")
        try:
            payload = json.loads(raw)
        except ValueError as error:
            return Record(rid, path, sent, done, False,
                          error=f"bad JSON: {error}")
        if ANSWER_KEYS[path] not in payload:
            return Record(rid, path, sent, done, False,
                          error=f"answer lacks {ANSWER_KEYS[path]!r}")
        if keep or path == "/mutate":
            return Record(rid, path, sent, done, True, body=body,
                          payload=payload)
        return Record(rid, path, sent, done, True)

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def run_phase(port: int, streams, label: str, *,
              count: int | None = None,
              seconds: float | None = None,
              checkpoints: tuple[tuple[int, ...], Callable[[], None]]
              | None = None,
              ) -> tuple[list[list[Record]], float]:
    """Drive one phase with one thread per stream.

    Each caller stops after ``count // len(streams)`` requests, or once
    ``seconds`` have passed since the phase began (the request in
    flight then still completes).  ``checkpoints = (counts, action)``
    runs ``action`` in the caller whose answer completed the phase's
    ``n``-th request, for each ``n`` in ``counts``.  Returns each
    caller's records and the phase's wall time, from its start to the
    last answer.
    """
    per_caller = None if count is None else count // len(streams)
    records: list[list[Record]] = [[] for _ in streams]
    completed = [0]
    lock = threading.Lock()
    started = time.perf_counter()
    deadline = None if seconds is None else started + seconds

    def tick() -> None:
        with lock:
            completed[0] += 1
            reached = completed[0] in checkpoints[0]
        if reached:
            checkpoints[1]()

    def caller(index: int) -> None:
        connection = Connection(port)
        try:
            for sequence, request in enumerate(streams[index]):
                if per_caller is not None and sequence >= per_caller:
                    break
                if deadline is not None and time.perf_counter() >= deadline:
                    break
                records[index].append(connection.post(
                    request["path"], request["body"],
                    f"{label}-{index}-{sequence}"))
                if checkpoints is not None:
                    tick()
        finally:
            connection.close()

    threads = [threading.Thread(target=caller, args=(index,),
                                name=f"caller-{index}")
               for index in range(len(streams))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    last = max((record.done for caller_records in records
                for record in caller_records), default=started)
    return records, last - started


def gaps_ms(records: list[list[Record]]) -> list[float]:
    """Client time from each answer to the same caller's next send."""
    return [(later.sent - earlier.done) * 1000.0
            for caller_records in records
            for earlier, later in zip(caller_records, caller_records[1:])]


def send_probes(port: int, probes: list[dict], label: str) -> list[Record]:
    """Send the accuracy probes one by one and keep every answer."""
    connection = Connection(port)
    try:
        return [connection.post(probe["path"], probe["body"],
                                f"{label}-probe-{index}", keep=True)
                for index, probe in enumerate(probes)]
    finally:
        connection.close()
