"""Streaming updates and filtered queries (DiskANN-variant scenarios).

Run with::

    python examples/streaming_and_filtered.py

The paper integrates RPQ with DiskANN *and its variants* —
Fresh-DiskANN (streaming) and Filtered-DiskANN (attribute filters).
This example exercises both extension substrates with a trained RPQ:

1. build a streaming index, insert a batch, serve queries, delete a
   slice of the corpus, consolidate, and show recall holding up;
2. run label-filtered queries ("only shoes", "only electronics") over
   a shared graph with automatic beam escalation for rare labels — all
   through the uniform ``SearchRequest`` surface, where the filtered
   scenario's labels are just an optional request field rather than an
   extra positional argument.

Set ``REPRO_SMOKE=1`` to run on tiny data (the CI smoke lane).
"""

from __future__ import annotations

import os

import numpy as np

from repro.api import SearchRequest
from repro.core import RPQ, RPQTrainingConfig
from repro.datasets import load
from repro.graphs import build_vamana, exact_knn
from repro.index import FilteredMemoryIndex, FreshVamanaIndex
from repro.metrics import recall_at_k

SMOKE = os.environ.get("REPRO_SMOKE") == "1"


def main() -> None:
    data = load("ukbench", n_base=300 if SMOKE else 800,
                n_queries=8 if SMOKE else 20, seed=0)
    graph = build_vamana(data.base, r=14, search_l=32, seed=0)
    config = RPQTrainingConfig(
        epochs=2 if SMOKE else 3, num_triplets=96 if SMOKE else 192,
        num_queries=10, records_per_query=5,
        beam_width=8, seed=0,
    )
    rpq = RPQ(num_chunks=8, num_codewords=32, config=config, seed=0)
    rpq.fit(data.base, graph, training_sample=data.train)
    quantizer = rpq.quantizer

    print("== Part 1: streaming index (Fresh-DiskANN-style) ==")
    n_insert = 200 if SMOKE else 500
    n_delete = 50 if SMOKE else 100
    index = FreshVamanaIndex(quantizer, dim=data.dim, r=14, search_l=32)
    index.insert_batch(data.base[:n_insert])
    print(f"inserted {n_insert} vectors; active = {index.num_active}")

    gt_ids, _ = exact_knn(data.base[:n_insert], 10, queries=data.queries)
    # The typed request surface works on the mutable index too.
    response = index.search(
        SearchRequest(queries=data.queries, k=10, beam_width=48)
    )
    print(f"recall@10 after inserts: {recall_at_k(list(response), gt_ids):.3f}")

    for victim in range(0, n_delete):
        index.delete(victim)
    cleaned = index.consolidate()
    print(f"deleted + consolidated {cleaned} vectors; active = {index.num_active}")

    alive = np.arange(n_delete, n_insert)
    gt_ids2, _ = exact_knn(data.base[alive], 10, queries=data.queries)
    got = []
    for q in data.queries:
        res = index.search(SearchRequest(q, k=10, beam_width=48))
        got.append(
            np.array(
                [int(np.flatnonzero(alive == i)[0]) for i in res.row_ids(0)]
            )
        )
    print(f"recall@10 after deletions: {recall_at_k(got, gt_ids2):.3f}")

    print("\n== Part 2: label-filtered search (Filter-DiskANN-style) ==")
    categories = ["shoes", "books", "electronics", "toys"]
    labels = np.random.default_rng(0).integers(
        len(categories), size=data.base.shape[0]
    )
    labels[:8] = 3  # make 'toys' carriers cluster-independent
    filtered = FilteredMemoryIndex(graph, quantizer, data.base, labels)
    for label, name in enumerate(categories):
        # One uniform request shape; the target label rides the request.
        res = filtered.search(
            SearchRequest(
                queries=data.queries[0], k=5, beam_width=24, labels=label
            )
        )
        print(
            f"  label {name:<12} ({filtered.label_count(label):>3} items): "
            f"top-5 ids {res.row_ids(0).tolist()} "
            f"(beam escalated to {int(res.counters['beam_widths_used'][0])})"
        )


if __name__ == "__main__":
    main()
