"""Batched construction — cap-1 vs batched build times.

Measures wall-clock build time of every graph builder at
``build_batch_size=1`` (strictly sequential construction) against its
batched builds, and checks what batching may change:

* NSG batches only its construction-time searches, against its static
  kNN graph, so every batched graph must be byte-identical to the
  cap-1 graph.
* HNSW and Vamana insert in deterministic batches (ParlayANN's scheme),
  so their cap changes the graph on purpose.  Two checks replace
  identity: each cap-1 build is byte-identical to the recorded
  sequential graph (the ``hnsw`` and ``vamana`` entries of
  ``tests/fixtures/graph_golden/expected.json``), and every batched
  build's exact-routing recall@10 at beam 10 stays within
  ``RECALL_SLACK`` of the cap-1 build's.

The regression tripwire is Vamana — the hybrid scenario's graph — at
its default cap against cap 1 (>= 2.5x).  Expected shape elsewhere:
every builder gains several-fold at cap 32, HNSW the least, because
its batches grow more slowly (each holds at most a sixteenth of the
points already linked).
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import os

import numpy as np

from repro.api.registry import build_graph_from_spec
from repro.datasets import load
from repro.eval import laptop_graph
from repro.eval.harness import build_throughput_table, run_build_throughput
from repro.graphs import build_vamana
from repro.graphs.serialization import graph_to_arrays

from common import save_report, speedup_gates_enabled

BATCH_SIZES = (8, 32, 64)
N_BASE = 2000
N_QUERIES = 200
GUARD_N_BASE = 3000
#: The gate compares Vamana's default cap against cap 1.
GUARD_BATCH = inspect.signature(build_vamana).parameters["build_batch_size"].default
GRAPHS = ("vamana", "hnsw", "nsg")
#: The batch inserters, whose cap-1 builds are pinned by the golden.
SEQUENTIAL_GOLDEN = ("vamana", "hnsw")
GOLDEN = os.path.join(
    os.path.dirname(__file__),
    os.pardir,
    "tests",
    "fixtures",
    "graph_golden",
    "expected.json",
)


def digest(array: np.ndarray) -> str:
    """The graph golden's per-array sha256 (``tests/test_graph_golden.py``)."""
    array = np.ascontiguousarray(array)
    head = f"{array.dtype.str}{array.shape}".encode()
    return hashlib.sha256(head + array.tobytes()).hexdigest()


def cap_one_matches_the_recorded_sequential_graph(kind: str) -> bool:
    """The golden's ``kind`` case, rebuilt at cap 1, byte for byte."""
    spec = laptop_graph(kind, seed=1)
    spec = dataclasses.replace(spec, params={**spec.params, "build_batch_size": 1})
    x = load("sift", n_base=400, n_queries=1, seed=3).base
    meta, arrays = graph_to_arrays(build_graph_from_spec(spec, x))
    with open(GOLDEN) as fh:
        recorded = json.load(fh)[kind]
    return recorded == {
        "meta": meta,
        "sha256": {key: digest(arrays[key]) for key in sorted(arrays)},
    }


def run():
    data = load("sift", n_base=N_BASE, n_queries=N_QUERIES, seed=0)
    out = {
        kind: run_build_throughput(
            laptop_graph(kind), data.base, BATCH_SIZES, queries=data.queries
        )
        for kind in GRAPHS
    }
    guard_data = load("sift", n_base=GUARD_N_BASE, n_queries=N_QUERIES, seed=0)
    (guard,) = run_build_throughput(
        laptop_graph("vamana"),
        guard_data.base,
        (GUARD_BATCH,),
        queries=guard_data.queries,
    )
    cap_one = {
        kind: cap_one_matches_the_recorded_sequential_graph(kind)
        for kind in SEQUENTIAL_GOLDEN
    }
    return out, guard, cap_one


def test_build_throughput(benchmark):
    out, guard, cap_one_recorded = benchmark.pedantic(run, rounds=1, iterations=1)
    guard_speedup = guard.speedup

    blocks = [
        build_throughput_table(
            points, f"Batched construction ({kind}, sift, n={N_BASE})"
        )
        for kind, points in out.items()
    ]
    blocks.append(
        f"[build guard] vamana n={GUARD_N_BASE} "
        f"build_batch_size={GUARD_BATCH} vs 1: {guard_speedup:.2f}x, "
        f"recall@10 {guard.sequential_recall:.4f} -> {guard.batched_recall:.4f}"
    )
    blocks.extend(
        f"[cap 1] {kind} byte-identical to the recorded sequential graph: "
        f"{'yes' if same else 'NO'}"
        for kind, same in cap_one_recorded.items()
    )
    save_report("build_throughput", "\n\n".join(blocks))

    # Non-negotiable at every batch size: identity for the builders
    # that batch searches, cap 1's recall for the batch inserters.
    for kind, same in cap_one_recorded.items():
        assert same, f"{kind} at cap 1 left the recorded sequential graph"
    assert guard.holds, (guard.sequential_recall, guard.batched_recall)
    for kind, points in out.items():
        for p in points:
            assert p.holds, (kind, p)

    # Regression tripwire: the default cap must keep a >= 2.5x build
    # speedup over cap 1.
    if speedup_gates_enabled():
        assert guard_speedup >= 2.5, (
            f"vamana build_batch_size={GUARD_BATCH} speedup "
            f"{guard_speedup:.2f}x fell below the 2.5x acceptance bar"
        )
