"""Batched query engine — single-query loop vs batched requests.

Measures wall-clock QPS of the per-query search loop against the
batched engine at several batch sizes, for both the in-memory and the
SSD-hybrid scenario on the synthetic SIFT profile.  Batch results are
bitwise identical to the per-query loop (asserted here via recall), so
the whole difference is engine overhead: one broadcasted ADC-table
build per batch plus the lockstep beam kernel's amortized
neighbor-gather.

Expected shape: the in-memory speedup at batch 64 is >= 3x (the
acceptance bar for the batched engine); the hybrid scenario gains less
because its per-query SSD reads are kept sequential to preserve the
paper's I/O accounting.
"""

from __future__ import annotations

import dataclasses

from repro.api import DatasetSpec, IndexSpec, QuantizerSpec, ScenarioSpec
from repro.eval import Workbench, laptop_graph
from repro.eval.harness import batch_throughput_table, run_batch_throughput

from common import (
    NUM_CHUNKS,
    NUM_CODEWORDS,
    save_report,
    speedup_gates_enabled,
)

BATCH_SIZES = (1, 8, 16, 64)
N_BASE = 2000
N_QUERIES = 64


SPEC = IndexSpec(
    dataset=DatasetSpec("sift", n_base=N_BASE, n_queries=N_QUERIES),
    graph=laptop_graph("vamana"),
    quantizer=QuantizerSpec("pq", NUM_CHUNKS, NUM_CODEWORDS),
)


def run():
    bench = Workbench()
    return {
        scenario: run_batch_throughput(
            bench.build(
                dataclasses.replace(SPEC, scenario=ScenarioSpec(scenario))
            ),
            bench.dataset(SPEC).queries,
            bench.ground_truth(SPEC),
            batch_sizes=BATCH_SIZES,
        )
        for scenario in ("memory", "hybrid")
    }


def test_batch_throughput(benchmark):
    out = benchmark.pedantic(run, rounds=1, iterations=1)

    blocks = [
        batch_throughput_table(
            points,
            f"Batched engine throughput ({scenario}, sift, n={N_BASE})",
        )
        for scenario, points in out.items()
    ]
    save_report("batch_throughput", "\n\n".join(blocks))

    for scenario, points in out.items():
        for p in points:
            # Bitwise-identical engine: recall must match exactly.
            assert p.recall_batch == p.recall_single, (scenario, p.batch_size)
    biggest = out["memory"][-1]
    assert biggest.batch_size == max(BATCH_SIZES)
    if speedup_gates_enabled():
        assert biggest.speedup >= 3.0, (
            f"in-memory batch={biggest.batch_size} speedup "
            f"{biggest.speedup:.2f}x fell below the 3x acceptance bar"
        )
