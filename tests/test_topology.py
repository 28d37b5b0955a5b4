"""One golden, every topology: the request-path golden over real HTTP.

The forest bank is query-independent, so every way of serving it must
return the same answer bytes.  Each cell of the matrix

    {thread, process × 1 shard, process × 2 shards}
        × {bank built at boot, the same bank saved and loaded from disk}

boots the golden service of ``test_service.TestRequestPathGolden`` in
that topology, replays its ``CASES`` over real HTTP, and requires every
response's status and body bytes to equal
``tests/golden/service_payloads.jsonl``.  The slow-log half of that
golden is not compared here: it records how a request was served
(``disposition``), which is exactly what differs between topologies.

Every cell pins ``workers=1``: that is the serial-sampler build the
golden was recorded with (``workers=0`` and ``workers >= 2`` build
through the parallel engine, a different — equally deterministic —
byte stream).  Teardown requires that no shared-memory segment
outlives the cell.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from tests import test_service

GOLDEN = test_service.TestRequestPathGolden

TOPOLOGIES = {
    "thread": {"executor": "thread"},
    "process-1shard": {"executor": "process", "shards": 1},
    "process-2shards": {"executor": "process", "shards": 2},
}


def _segments() -> set[str]:
    try:
        return {name for name in os.listdir("/dev/shm")
                if name.startswith("psm_")}
    except FileNotFoundError:
        return set()


@pytest.fixture(scope="module")
def saved_bank(tmp_path_factory) -> str:
    """The golden service's boot bank, saved to disk."""
    service = GOLDEN.serve()
    try:
        path = tmp_path_factory.mktemp("topology") / "bank"
        service.index_manager.get_index("golden").save_bank(path)
    finally:
        service.stop()
    return str(path)


@pytest.fixture(scope="module")
def golden() -> list[tuple[str, int, str]]:
    records = [json.loads(line)
               for line in GOLDEN.GOLDEN.read_text().splitlines()]
    return [(record["case"], record["status"], record["body"])
            for record in records]


@pytest.mark.parametrize("bank", ["boot", "bank_dir"])
@pytest.mark.parametrize("topology", list(TOPOLOGIES))
def test_topology_reproduces_golden(topology, bank, golden, request):
    overrides = dict(TOPOLOGIES[topology], workers=1)
    if bank == "bank_dir":
        overrides["bank_dir"] = request.getfixturevalue("saved_bank")
    before = _segments()
    service = GOLDEN.serve(**overrides)
    try:
        served = [(record["case"], record["status"], record["body"])
                  for record in GOLDEN.replay(service)]
        index = service.index_manager.get_index("golden")
        layout = service.healthz()["executor"]["mode"]
    finally:
        service.stop()
    assert served == golden
    # a preloaded bank folds over the saved files, mapped; a boot bank
    # over the operators it built
    mapped = isinstance(index._operators.tree_sum.data.base, np.memmap)
    assert mapped == (bank == "bank_dir")
    assert layout == {"thread": "thread", "process-1shard": "process",
                      "process-2shards": "sharded"}[topology]
    assert _segments() - before == set()
