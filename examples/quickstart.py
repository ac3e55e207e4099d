"""Quickstart: train RPQ on a SIFT-like dataset and search with it.

Run with::

    python examples/quickstart.py

Walks the full paper pipeline: generate data, build a proximity graph,
train the routing-guided quantizer against that graph, freeze it, build
an in-memory PQ+graph index, and compare recall against vanilla PQ.

Batch search
------------
Every index answers one surface, ``search(SearchRequest)`` — the
batched query engine.  A request carries a whole query matrix: one
broadcasted ADC-table build for the batch plus a lockstep beam kernel
that expands all queries in parallel, answered with stacked ``(B, k)``
id/distance arrays and per-query counters::

    batch = index.search(SearchRequest(data.queries, k=10, beam_width=32))
    batch.ids            # (B, 10) neighbor ids, one row per query
    batch.distances      # (B, 10) estimated distances
    batch.total("hops")  # aggregated efficiency counters
    batch.row(i)         # query i alone: valid ids/distances + counters

Results are bitwise identical to one single-row request per query —
only the wall clock changes (4x+ at batch size 64; see
``benchmarks/bench_batch_throughput.py``).  The final sections below
demonstrate the speedup and the ``save_index`` / ``load_index``
persistence round trip.

Set ``REPRO_SMOKE=1`` to run on tiny data (the CI smoke lane).
"""

from __future__ import annotations

import os
import tempfile
import time

from repro.api import SearchRequest, load_index, save_index
from repro.core import RPQ, RPQTrainingConfig
from repro.datasets import compute_ground_truth, load
from repro.graphs import build_hnsw
from repro.index import MemoryIndex
from repro.metrics import recall_at_k
from repro.quantization import ProductQuantizer

SMOKE = os.environ.get("REPRO_SMOKE") == "1"


def main() -> None:
    print("== RPQ quickstart ==")
    data = load("sift", n_base=300 if SMOKE else 1500,
                n_queries=10 if SMOKE else 30, seed=0)
    print(f"dataset: {data.name}-like, {data.base.shape[0]} x {data.dim}")

    graph = build_hnsw(data.base, m=8, ef_construction=48, seed=0)
    print(
        f"graph: HNSW, {graph.num_vertices} vertices, "
        f"mean degree {graph.degree_stats()['mean']:.1f}, "
        f"{graph.max_level + 1} levels"
    )

    gt = compute_ground_truth(data.base, data.queries, k=10)

    config = RPQTrainingConfig(
        epochs=2 if SMOKE else 4,
        num_triplets=128 if SMOKE else 256,
        num_queries=12,
        records_per_query=6,
        beam_width=8,
        seed=0,
    )
    rpq = RPQ(num_chunks=8, num_codewords=32, config=config, seed=0)
    rpq.fit(data.base, graph, training_sample=data.train)
    report = rpq.report
    assert report is not None
    print(
        f"trained RPQ in {report.wall_time_seconds:.1f}s; "
        f"next-hop accuracy {report.decision_accuracy_before:.2f} -> "
        f"{report.decision_accuracy_after:.2f}"
    )

    pq = ProductQuantizer(8, 32, seed=0).fit(data.train)

    for name, quantizer in (("PQ", pq), ("RPQ", rpq.quantizer)):
        index = MemoryIndex(graph, quantizer, data.base)
        for beam in (16, 32, 64):
            results = [
                index.search(SearchRequest(q, k=10, beam_width=beam)).row(0)
                for q in data.queries
            ]
            recall = recall_at_k([r.ids for r in results], gt.ids)
            hops = sum(r.hops for r in results) / len(results)
            print(
                f"{name:>4} | beam {beam:>3} | recall@10 {recall:.3f} | "
                f"hops {hops:5.1f} | memory {index.memory_bytes() / 1024:.0f} KiB "
                f"(x{index.compression_ratio():.1f} smaller)"
            )

    # -- batched query engine ------------------------------------------
    index = MemoryIndex(graph, rpq.quantizer, data.base)
    start = time.perf_counter()
    for q in data.queries:
        index.search(SearchRequest(q, k=10, beam_width=32))
    single_s = time.perf_counter() - start

    request = SearchRequest(queries=data.queries, k=10, beam_width=32)
    index.search(request)  # warm
    start = time.perf_counter()
    batch = index.search(request)
    batch_s = time.perf_counter() - start

    recall = recall_at_k(list(batch), gt.ids)
    n = len(data.queries)
    print(
        f"batch search | {n} queries in one call | recall@10 {recall:.3f} | "
        f"{n / single_s:.0f} -> {n / batch_s:.0f} QPS "
        f"({single_s / batch_s:.1f}x, bitwise-identical results)"
    )

    # -- persistence ---------------------------------------------------
    # A save/load round trip reconstructs a bitwise-identical index in
    # another process.  There is one on-disk format: save_index writes
    # the page-aligned container of raw sections and load_index
    # memory-maps it read-only.
    response = index.search(request)
    with tempfile.TemporaryDirectory() as tmp:
        save_index(index, tmp)
        reloaded = load_index(tmp)
        again = reloaded.search(request)
    identical = (response.ids == again.ids).all() and (
        response.distances == again.distances
    ).all()
    print(
        f"typed request | recall@10 "
        f"{recall_at_k(list(response), gt.ids):.3f} | "
        f"total hops {response.total('hops'):.0f} | "
        f"save/load round trip bitwise-identical: {identical}"
    )


if __name__ == "__main__":
    main()
