"""Kernel hot path — single-thread B=32 QPS on the memory scenario.

One measurement: queries per second of ``index.search`` over a stream
of *unique* 32-query batches (packed CSR gather, bitset visited/seen
masks, pooled workspaces), minimum wall-clock over repetitions.  QPS
is recorded, not gated.

What always asserts is identity: every batched answer — ids,
distances and every counter but the pool telemetry — equals the
answers of its rows sent one at a time, bitwise.  The kernel's
*semantics* are pinned independently by ``tests/test_kernel_oracle.py``
(a no-shared-code reference), which is what replaced the pre-overhaul
kernel this file used to vendor and race against.

The run also emits the committed ``BENCH_kernel.json`` baseline.  Its
``retired`` block is :data:`RETIRED` verbatim: the last measurement
against the vendored legacy kernel, and of the cross-request ADC table
cache's layer-only amortization — kept because they are the rows the
two deletions were decided from (``compare_baselines.py`` skips the
block).
"""

from __future__ import annotations

import time

import numpy as np

from repro.api import SearchRequest
from repro.datasets import load
from repro.eval import format_table
from repro.graphs import build_vamana
from repro.index import MemoryIndex
from repro.quantization import ProductQuantizer

from common import (
    NUM_CHUNKS,
    NUM_CODEWORDS,
    fmt,
    save_json_baseline,
    save_report,
)

N_BASE = 2000
B = 32
KERNEL_ROUNDS = 12  # unique batches in the stream
TIMING_REPS = 7  # repetitions; min wall-clock is reported
K = 10
BEAM = 32
SEED = 0

#: Pool state, not part of an answer.
VOLATILE_COUNTERS = {"workspace_reused"}

#: The last numbers of two things this bench no longer measures (same
#: index, same host class as the live row), emitted verbatim.
RETIRED = {
    "measured_at_commit": "d6ee2c6",
    "retired_in": "PR 20: one index core",
    "kernel": {
        "verdict": (
            "the 110-line vendored pre-overhaul kernel is gone: 1.73x is "
            "history, semantics are pinned by tests/test_kernel_oracle.py"
        ),
        "batch_size": 32,
        "legacy_qps": 3503.4688994857097,
        "new_qps": 6047.25114167118,
        "rounds": 12,
        "speedup": 1.7260753028402465,
        "timing_reps": 7,
    },
    "amortization": {
        "verdict": (
            "table cache deleted: 5.66x is layer-only, on K=256 table "
            "builds at a 0.9 repeat rate; end to end it read 1.00x "
            "(BENCH_serving.json retired.table_cache)"
        ),
        "cache_stats": {
            "capacity": 256,
            "evictions": 0,
            "hit_rate": 0.87875,
            "hits": 2109,
            "misses": 291,
            "size": 97,
        },
        "cached_ms": 7.7107899996917695,
        "dim": 120,
        "num_codewords": 256,
        "repeat_fraction": 0.9,
        "speedup": 5.659603750492841,
        "stream_batches": 24,
        "stream_reps": 3,
        "uncached_ms": 43.640016001518234,
    },
}


def rows_identical(batched, singles) -> bool:
    """A ``B``-row response against its rows answered one at a time."""
    for i, single in enumerate(singles):
        row, one = batched.row(i), single.row(0)
        same = (
            np.array_equal(row.ids, one.ids)
            and np.array_equal(row.distances, one.distances)
            and all(
                row.counters[name] == one.counters[name]
                for name in set(row.counters) - VOLATILE_COUNTERS
            )
        )
        if not same:
            return False
    return True


def run():
    data = load(
        "sift", n_base=N_BASE, n_queries=B * KERNEL_ROUNDS, seed=SEED
    )
    quantizer = ProductQuantizer(NUM_CHUNKS, NUM_CODEWORDS, seed=0).fit(
        data.train
    )
    graph = build_vamana(data.base, r=16, search_l=32, seed=0)
    index = MemoryIndex(graph, quantizer, data.base)
    requests = [
        SearchRequest(data.queries[r * B : (r + 1) * B], K, BEAM)
        for r in range(KERNEL_ROUNDS)
    ]

    identical = all(
        rows_identical(
            index.search(request),
            [
                index.search(SearchRequest(query[None, :], K, BEAM))
                for query in request.query_matrix
            ],
        )
        for request in requests
    )

    new_s = float("inf")
    for _ in range(TIMING_REPS):
        t0 = time.perf_counter()
        for request in requests:
            index.search(request)
        new_s = min(new_s, time.perf_counter() - t0)

    return {
        "batch_size": B,
        "rounds": KERNEL_ROUNDS,
        "timing_reps": TIMING_REPS,
        "new_qps": B * KERNEL_ROUNDS / new_s,
        "batch_identical_to_b1": identical,
    }


def test_kernel_hot_path(benchmark):
    kernel = benchmark.pedantic(run, rounds=1, iterations=1)

    table = format_table(
        ["path", "QPS", "batch == B=1"],
        [
            [
                "packed + workspaces",
                fmt(kernel["new_qps"], 1),
                str(kernel["batch_identical_to_b1"]),
            ],
        ],
        title=f"Kernel hot path (memory, B={B}, beam={BEAM}, n={N_BASE})",
    )
    save_report("kernel", table)
    save_json_baseline("kernel", {"kernel": kernel, "retired": RETIRED})

    # Identity is a correctness property, not a machine-dependent one.
    assert kernel["batch_identical_to_b1"], (
        "a batched answer diverged from its rows answered one at a time"
    )
