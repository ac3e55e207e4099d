"""Hot-path engine overhaul — packed adjacency + workspaces + table cache.

Two measurements against the *pre-overhaul* engine, vendored below as
:func:`legacy_execute` (a faithful copy of the seed kernel's hot loop:
``(B, n)`` bool masks allocated per call, Python list-comprehension
neighbor gather, ``np.pad`` candidate growth):

* **Kernel speedup** — single-thread QPS at ``B=32`` on the memory
  scenario, new path (packed CSR gather, bitset visited/seen masks,
  pooled workspaces) vs the vendored legacy kernel, over a stream of
  *unique* query batches so the table cache contributes nothing and the
  measured gain is purely the kernel's.  Acceptance bar: >= 1.3x.
* **Table-build amortization** — total table-acquisition time on a
  90%-repeated query stream, cross-request :class:`TableCache` vs
  building every batch through the factory, with a production-grade
  setup (960-dim gist vectors, ``K=256`` 8-bit codebooks) where the
  per-batch einsum build is the dominant cost.  Acceptance bar: >= 5x.

Both paths of each comparison are timed interleaved (alternating
rep-by-rep, minimum wall-clock kept) so they sample the same machine
noise.

Bitwise identity between the compared paths is asserted on every batch
— always, even when the wall-clock gates are disabled via
``REPRO_SKIP_SPEEDUP_GATES`` (identity is a correctness property, not a
machine-dependent one).
"""

from __future__ import annotations

import time

import numpy as np

from repro.api import SearchRequest
from repro.datasets import load
from repro.eval import format_table
from repro.graphs import ProximityGraph, build_vamana
from repro.index import MemoryIndex
from repro.quantization import ProductQuantizer

from common import (
    NUM_CHUNKS,
    NUM_CODEWORDS,
    fmt,
    save_json_baseline,
    save_report,
    speedup_gates_enabled,
)

N_BASE = 2000
B = 32
KERNEL_ROUNDS = 12  # unique batches for the kernel QPS comparison
TIMING_REPS = 7  # interleaved repetitions; min wall-clock is reported
STREAM_LEN = 24  # batches in the amortization stream
STREAM_REPS = 3  # cache is cleared and re-seeded between reps
REPEAT_FRACTION = 0.9
AMORT_N_BASE = 600  # gist rows backing the amortization index
HEAVY_CODEWORDS = 256  # production PQ codebook size (8-bit codes)
K = 10
BEAM = 32
SEED = 0


def legacy_execute(adjacency, entries, dist_fn, beam_width, k):
    """The seed kernel's hot loop, pre-overhaul, vendored verbatim.

    ``(B, n)`` bool visited/seen masks and candidate buffers are
    allocated fresh per call, neighbors are gathered with a Python
    list comprehension over the list-of-arrays adjacency, and the
    candidate buffer grows through ``np.pad``.  Trimmed to the
    ``frontier_width == 1`` path the memory scenario exercises (no
    trace, no expansion hook, no visited collection).
    """
    n = len(adjacency)
    entries = np.asarray(entries, dtype=np.int64).reshape(-1)
    b = entries.shape[0]
    out_w = min(k, beam_width)
    cap = beam_width + 1
    col = np.arange(cap)

    visited = np.zeros((b, n), dtype=bool)
    seen = np.zeros((b, n), dtype=bool)
    cand_ids = np.zeros((b, cap), dtype=np.int64)
    cand_d = np.full((b, cap), np.inf, dtype=np.float64)
    counts = np.ones(b, dtype=np.int64)
    hops = np.zeros(b, dtype=np.int64)
    dist_comps = np.ones(b, dtype=np.int64)
    active = np.ones(b, dtype=bool)

    qidx = np.arange(b, dtype=np.int64)
    cand_ids[:, 0] = entries
    cand_d[:, 0] = np.asarray(dist_fn(qidx, entries), dtype=np.float64)
    seen[qidx, entries] = True

    while active.any():
        act = np.flatnonzero(active)
        sub_ids = cand_ids[act]
        valid = col[None, :] < counts[act][:, None]
        unvisited = valid & ~visited[act[:, None], sub_ids]
        has_work = unvisited.any(axis=1)
        active[act[~has_work]] = False
        if not has_work.any():
            break
        rows_local = np.flatnonzero(has_work)
        rows = act[rows_local]

        pos = unvisited[rows_local].argmax(axis=1)
        v_star = sub_ids[rows_local, pos]
        visited[rows, v_star] = True
        hops[rows] += 1
        nbr_lists = [
            np.asarray(adjacency[int(v)], dtype=np.int64) for v in v_star
        ]
        lens = np.array([nb.size for nb in nbr_lists], dtype=np.int64)
        if not lens.any():
            continue
        flat_nbrs = np.concatenate(nbr_lists).astype(np.int64, copy=False)
        flat_q = np.repeat(rows, lens)
        fresh_mask = ~seen[flat_q, flat_nbrs]
        fq = flat_q[fresh_mask]
        fv = flat_nbrs[fresh_mask]
        if not fq.size:
            continue
        seen[fq, fv] = True

        fd = np.asarray(dist_fn(fq, fv), dtype=np.float64)
        fresh_counts = np.bincount(fq, minlength=b)
        dist_comps += fresh_counts

        within = np.arange(fq.size) - np.searchsorted(fq, fq, side="left")
        dest = counts[fq] + within
        need = int(dest.max()) + 1
        if need > cap:
            grow = max(need, 2 * cap) - cap
            cand_ids = np.pad(cand_ids, ((0, 0), (0, grow)))
            cand_d = np.pad(
                cand_d, ((0, 0), (0, grow)), constant_values=np.inf
            )
            cap += grow
            col = np.arange(cap)
        cand_ids[fq, dest] = fv
        cand_d[fq, dest] = fd
        counts += fresh_counts

        touched = fq[np.concatenate(([True], fq[1:] != fq[:-1]))]
        upto = int(counts[touched].max())
        trow = touched[:, None]
        sub_d = cand_d[trow, col[None, :upto]]
        order = np.argsort(sub_d, axis=1, kind="stable")
        srow = np.arange(touched.size)[:, None]
        cand_d[trow, col[None, :upto]] = sub_d[srow, order]
        cand_ids[trow, col[None, :upto]] = cand_ids[
            trow, col[None, :upto]
        ][srow, order]
        new_counts = np.minimum(counts[touched], beam_width)
        counts[touched] = new_counts
        dropped_cols = col[None, :upto] >= new_counts[:, None]
        if dropped_cols.any():
            sub_d = cand_d[trow, col[None, :upto]]
            sub_i = cand_ids[trow, col[None, :upto]]
            sub_d[dropped_cols] = np.inf
            sub_i[dropped_cols] = 0
            cand_d[trow, col[None, :upto]] = sub_d
            cand_ids[trow, col[None, :upto]] = sub_i

    take = np.minimum(counts, out_w)
    keep = col[None, :out_w] < take[:, None]
    ids_out = np.full((b, out_w), -1, dtype=np.int64)
    dists_out = np.full((b, out_w), np.inf, dtype=np.float64)
    ids_out[keep] = cand_ids[:, :out_w][keep]
    dists_out[keep] = cand_d[:, :out_w][keep]
    return ids_out, dists_out, hops, dist_comps


def legacy_hot_path(index, list_adjacency, entries, queries):
    """The pre-overhaul hot path: factory table build + legacy kernel."""
    tables = index._build_tables(queries)
    return legacy_execute(
        list_adjacency, entries, index.context.dist_fn(tables), BEAM, K
    )


def run():
    data = load(
        "sift", n_base=N_BASE, n_queries=B * KERNEL_ROUNDS, seed=SEED
    )
    quantizer = ProductQuantizer(NUM_CHUNKS, NUM_CODEWORDS, seed=0).fit(
        data.train
    )
    graph = build_vamana(data.base, r=16, search_l=32, seed=0)
    index = MemoryIndex(graph, quantizer, data.base)
    list_adjacency = [np.asarray(nbrs) for nbrs in graph.adjacency]
    entries = np.full(B, graph.entry_point, dtype=np.int64)
    batches = [
        data.queries[r * B : (r + 1) * B] for r in range(KERNEL_ROUNDS)
    ]

    # -- kernel speedup (unique queries: the cache never hits) ---------
    legacy_results = [
        legacy_hot_path(index, list_adjacency, entries, batch)
        for batch in batches
    ]
    requests = [SearchRequest(batch, K, BEAM) for batch in batches]
    new_results = [index.search(request) for request in requests]
    for (ids, dists, hops, comps), new in zip(legacy_results, new_results):
        np.testing.assert_array_equal(ids, new.ids)
        np.testing.assert_array_equal(dists, new.distances)
        np.testing.assert_array_equal(hops, new.hops)
        np.testing.assert_array_equal(comps, new.distance_computations)

    legacy_s = new_s = float("inf")
    for _ in range(TIMING_REPS):
        t0 = time.perf_counter()
        for batch in batches:
            legacy_hot_path(index, list_adjacency, entries, batch)
        legacy_s = min(legacy_s, time.perf_counter() - t0)
        index.invalidate_table_cache()
        t0 = time.perf_counter()
        for request in requests:
            index.search(request)
        new_s = min(new_s, time.perf_counter() - t0)

    queries_total = B * KERNEL_ROUNDS
    kernel = {
        "batch_size": B,
        "rounds": KERNEL_ROUNDS,
        "timing_reps": TIMING_REPS,
        "legacy_qps": queries_total / legacy_s,
        "new_qps": queries_total / new_s,
        "speedup": legacy_s / new_s,
    }

    # -- table-build amortization on a 90%-repeated stream -------------
    # Production-shaped table builds: 960-dim gist vectors with 8-bit
    # (K=256) codebooks make the einsum the dominant cost, which is
    # exactly what the cache amortizes.  The graph is irrelevant to
    # table building, so a trivial ring adjacency backs the index.
    gist = load(
        "gist", n_base=AMORT_N_BASE, n_queries=B * KERNEL_ROUNDS, seed=SEED
    )
    heavy = ProductQuantizer(NUM_CHUNKS, HEAVY_CODEWORDS, seed=0).fit(
        gist.base
    )
    ring = ProximityGraph(
        adjacency=[
            np.array([(i + 1) % AMORT_N_BASE], dtype=np.int64)
            for i in range(AMORT_N_BASE)
        ]
    )
    heavy_index = MemoryIndex(ring, heavy, gist.base)

    rng = np.random.default_rng(SEED)
    hot = gist.queries[:B]
    stream = []
    fresh_cursor = B
    for _ in range(STREAM_LEN):
        rows = []
        for _ in range(B):
            if rng.random() < REPEAT_FRACTION:
                rows.append(hot[rng.integers(0, B)])
            else:
                rows.append(
                    gist.queries[fresh_cursor % gist.queries.shape[0]]
                )
                fresh_cursor += 1
        stream.append(np.stack(rows))

    uncached_s = cached_s = float("inf")
    uncached = cached = None
    for _ in range(STREAM_REPS):
        t0 = time.perf_counter()
        uncached = [heavy_index._build_tables(batch) for batch in stream]
        uncached_s = min(uncached_s, time.perf_counter() - t0)
        heavy_index.invalidate_table_cache()
        heavy_index.context.tables(hot)  # seed the hot set once
        t0 = time.perf_counter()
        cached = [heavy_index.context.tables(batch) for batch in stream]
        cached_s = min(cached_s, time.perf_counter() - t0)

    for cold, warm in zip(uncached, cached):
        np.testing.assert_array_equal(cold.tables, warm.tables)

    amortization = {
        "stream_batches": STREAM_LEN,
        "stream_reps": STREAM_REPS,
        "repeat_fraction": REPEAT_FRACTION,
        "num_codewords": HEAVY_CODEWORDS,
        "dim": int(gist.base.shape[1]),
        "uncached_ms": uncached_s * 1e3,
        "cached_ms": cached_s * 1e3,
        "speedup": uncached_s / cached_s,
        "cache_stats": heavy_index.context.table_cache.stats(),
    }
    return kernel, amortization


def test_kernel_hot_path(benchmark):
    kernel, amortization = benchmark.pedantic(run, rounds=1, iterations=1)

    table = format_table(
        ["path", "QPS", "speedup"],
        [
            ["legacy (lists + fresh buffers)", fmt(kernel["legacy_qps"], 1), ""],
            [
                "packed + workspaces",
                fmt(kernel["new_qps"], 1),
                f"{kernel['speedup']:.2f}x",
            ],
        ],
        title=(
            f"Kernel hot path (memory, B={B}, beam={BEAM}, n={N_BASE})"
        ),
    )
    amort_table = format_table(
        ["table path", "total ms", "speedup"],
        [
            ["factory every batch", fmt(amortization["uncached_ms"], 2), ""],
            [
                "cross-request cache",
                fmt(amortization["cached_ms"], 2),
                f"{amortization['speedup']:.2f}x",
            ],
        ],
        title=(
            f"ADC table amortization ({STREAM_LEN} batches, "
            f"{REPEAT_FRACTION:.0%} repeated, K={HEAVY_CODEWORDS})"
        ),
    )
    save_report("kernel", table + "\n\n" + amort_table)
    save_json_baseline(
        "kernel", {"kernel": kernel, "amortization": amortization}
    )

    if speedup_gates_enabled():
        assert kernel["speedup"] >= 1.3, (
            f"kernel speedup {kernel['speedup']:.2f}x fell below the "
            "1.3x acceptance bar"
        )
        assert amortization["speedup"] >= 5.0, (
            f"table amortization {amortization['speedup']:.2f}x fell "
            "below the 5x acceptance bar"
        )
