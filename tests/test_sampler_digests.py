"""Byte-level pins of every public forest sampler at a fixed seed.

The chi-square suites prove each sampler draws the Theorem-4.3 law,
and the bit-identity tests compare samplers against each other within
one checkout.  Neither notices a change that keeps the law but
consumes the RNG in a different order.  These digests do: each one
hashes ``(roots, parents, num_steps)`` of the forests a sampler returns
at seed 2022, so a refactor of the shared cycle-popping loop that
reorders a single draw fails here.

To re-pin after an *intended* change of the draw order, run this file
with ``REPRO_PRINT_DIGESTS=1 -s`` and paste the printed table.
"""

import hashlib
import os

import numpy as np
import pytest

from repro.forests import (
    repair_forest,
    sample_forest_cycle_popping,
    sample_forest_recorded,
    sample_forests_batch,
)
from repro.graph import GraphDelta, from_edges
from repro.graph.generators import erdos_renyi, with_random_weights

SEED = 2022
ALPHA = 0.15
BATCH = 4


def _graphs():
    unweighted = erdos_renyi(60, 0.07, rng=SEED)
    weighted = with_random_weights(erdos_renyi(50, 0.1, rng=7), low=0.5,
                                   high=4.0, integer=False, rng=11)
    return {"unweighted": unweighted, "weighted": weighted}


GRAPHS = _graphs()
UPSERT = (0, 17, 2.5)
DIRECTED_DIGEST = "b9f5c000b085a72e"


def _digest(forests) -> str:
    hasher = hashlib.sha256()
    for forest in forests:
        hasher.update(np.asarray(forest.roots, dtype=np.int64).tobytes())
        hasher.update(np.asarray(forest.parents, dtype=np.int64).tobytes())
        hasher.update(int(forest.num_steps).to_bytes(8, "little"))
    return hasher.hexdigest()[:16]


def _record_digest(record) -> str:
    hasher = hashlib.sha256()
    for array in record.csr():
        hasher.update(np.asarray(array, dtype=np.int64).tobytes())
    return hasher.hexdigest()[:16]


def _run(sampler: str, graph):
    """``(forests, record)`` of one sampler at the pinned seed."""
    if sampler == "cycle_popping":
        return [sample_forest_cycle_popping(graph, ALPHA, rng=SEED)], None
    if sampler == "batch":
        return sample_forests_batch(graph, ALPHA, BATCH, rng=SEED), None
    if sampler == "stratified":
        return sample_forests_batch(graph, ALPHA, BATCH, rng=SEED,
                                    stratified=True), None
    if sampler == "recorded":
        forest, record = sample_forest_recorded(graph, ALPHA, rng=SEED)
        return [forest], record
    assert sampler == "repair"
    forest, record = sample_forest_recorded(graph, ALPHA, rng=SEED)
    delta = GraphDelta().upsert_edge(*UPSERT)
    forest, record = repair_forest(delta.apply(graph), ALPHA, forest,
                                   record, delta.touched_nodes(),
                                   rng=SEED + 1)
    return [forest], record


#: (sampler, graph) -> (method, forest digest, record digest or None)
EXPECTED = {
    ("cycle_popping", "unweighted"):
        ("cycle_popping", "f706e5fb54aad101", None),
    ("cycle_popping", "weighted"):
        ("cycle_popping", "91e458b1f32f0faf", None),
    ("batch", "unweighted"):
        ("cycle_popping_batch", "618d3969b525eb10", None),
    ("batch", "weighted"):
        ("cycle_popping_batch", "ee044773a9f3f9ab", None),
    ("stratified", "unweighted"):
        ("cycle_popping_batch", "c552b2cedbbda4bf", None),
    ("stratified", "weighted"):
        ("cycle_popping_batch", "af4c2d22105da423", None),
    ("recorded", "unweighted"):
        ("cycle_popping_recorded", "f706e5fb54aad101", "11dc386c76acaf78"),
    ("recorded", "weighted"):
        ("cycle_popping_recorded", "91e458b1f32f0faf", "edc5f5548425fa65"),
    ("repair", "unweighted"):
        ("repair", "20db55f3486711b5", "08540d960b66eaa7"),
    ("repair", "weighted"):
        ("repair", "632c727e73d3f540", "01998dea6d0ad008"),
}

CASES = [(sampler, label)
         for sampler in ("cycle_popping", "batch", "stratified",
                         "recorded", "repair")
         for label in GRAPHS]


@pytest.mark.parametrize("sampler,label", CASES)
def test_sampler_bytes_pinned(sampler, label):
    forests, record = _run(sampler, GRAPHS[label])
    methods = {forest.method for forest in forests}
    assert len(methods) == 1
    got = (methods.pop(), _digest(forests),
           None if record is None else _record_digest(record))
    if os.environ.get("REPRO_PRINT_DIGESTS"):
        print(f"    ({sampler!r}, {label!r}):\n        {got!r},")
    assert got == EXPECTED[(sampler, label)]


def test_directed_graph_with_sink_pinned():
    """Dangling nodes stop on every draw, whatever the coin says."""
    edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 1), (1, 4), (4, 0)]
    graph = from_edges(edges, directed=True, num_nodes=6,
                       weights=[1.0, 2.0, 0.5, 1.5, 3.0, 1.0, 2.0])
    forests = sample_forests_batch(graph, ALPHA, BATCH, rng=SEED,
                                   stratified=True)
    forests.append(sample_forest_cycle_popping(graph, ALPHA, rng=SEED))
    assert all(forest.parents[5] == -1 for forest in forests)
    got = _digest(forests)
    if os.environ.get("REPRO_PRINT_DIGESTS"):
        print(f"DIRECTED_DIGEST = {got!r}")
    assert got == DIRECTED_DIGEST

