"""Lockstep construction — sequential vs batched build times.

Measures wall-clock build time of every graph builder with
construction-time searches issued one at a time (``build_batch_size=1``)
against the speculative lockstep windows of the engine's construction
driver, asserting that the produced graphs are byte-identical (the
driver re-runs any search whose read adjacency lists were touched by an
earlier insertion, so batching never changes an edge).

The regression tripwire is the same measurement on Vamana — the
memory scenario's default graph — at a dataset size where
the speculative driver's invalidation density (visited x mutations
/ n) leaves comfortable margin over the >= 2.5x acceptance bar.
Expected shape elsewhere: NSG gains the most (its candidate searches
run against a static kNN graph, so nothing is ever invalidated); HNSW
gains the least at laptop scale and pulls ahead as n grows.
"""

from __future__ import annotations

from repro.datasets import load
from repro.eval import laptop_graph
from repro.eval.harness import build_throughput_table, run_build_throughput

from common import save_report, speedup_gates_enabled

BATCH_SIZES = (8, 32, 64)
N_BASE = 2000
GUARD_N_BASE = 3000
GUARD_BATCH = 32
GRAPHS = ("vamana", "hnsw", "nsg")


def run():
    x = load("sift", n_base=N_BASE, n_queries=1, seed=0).base
    out = {
        kind: run_build_throughput(laptop_graph(kind), x, BATCH_SIZES)
        for kind in GRAPHS
    }
    guard_x = load("sift", n_base=GUARD_N_BASE, n_queries=1, seed=0).base
    (guard,) = run_build_throughput(
        laptop_graph("vamana"), guard_x, (GUARD_BATCH,)
    )
    return out, guard


def test_build_throughput(benchmark):
    out, guard = benchmark.pedantic(run, rounds=1, iterations=1)
    guard_speedup = guard.speedup

    blocks = [
        build_throughput_table(
            points, f"Lockstep construction ({kind}, sift, n={N_BASE})"
        )
        for kind, points in out.items()
    ]
    blocks.append(
        f"[build guard] vamana n={GUARD_N_BASE} "
        f"build_batch_size={GUARD_BATCH}: {guard_speedup:.2f}x"
    )
    save_report("build_throughput", "\n\n".join(blocks))

    # Bitwise identity is non-negotiable at every batch size.
    assert guard.identical, "lockstep build diverged from the sequential graph"
    for kind, points in out.items():
        for p in points:
            assert p.identical, (kind, p.build_batch_size)

    # Regression tripwire: the memory scenario's default graph must
    # keep a >= 2.5x build speedup at build_batch_size >= 32.
    if speedup_gates_enabled():
        assert guard_speedup >= 2.5, (
            f"vamana build_batch_size={GUARD_BATCH} speedup "
            f"{guard_speedup:.2f}x fell below the 2.5x acceptance bar"
        )
