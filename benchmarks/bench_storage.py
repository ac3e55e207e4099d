"""Index storage — mmap-native persistence.

There is one on-disk layout (the format-2 container of raw sections);
this bench measures it and pins what it must never change:

* **Bytes** — total directory size and bytes-per-vector.
* **Cold load** — ``load_index`` wall time (min of several).  This is
  exactly the worker boot path: a process worker spawns by calling
  ``load_index`` on the shipped directory, which maps the container
  read-only.
* **Worker spawn** — a process-kind fleet's first search minus a warm
  one: the spawn it pays (ship + fork + load + ready handshake),
  recorded report-only (process spawn is dominated by interpreter
  start on small indexes).

Regression tripwires (the identity assertions always run; no timing
gate is left — the one there was compared against the retired writer):

* every scenario (memory, l2r, hybrid-l2r, filtered, streaming) plus
  a 4-shard sharded index and a 2x2 replicated process fleet must
  round-trip bitwise through a save and a memory-mapped load — what
  deployments run;
* mutating an mmap-loaded streaming replica must promote to private
  memory (copy-on-write) and leave the on-disk container untouched.

The run also emits the committed ``BENCH_storage.json`` baseline at
the repo root (machine-readable bytes/timing snapshot).  Its
``retired`` block is :data:`RETIRED` verbatim: the last measurement of
the format-1 loose-``.npy`` writer, kept because it is the row that
justified deleting that writer, of the container while its adjacency
sections held 8-byte vertex ids (``int64_vertex_ids``), and of the
rANS-coded code sections (``rans_codes``) that justified deleting the
entropy coder (``compare_baselines.py`` skips the block).
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
import time

import numpy as np

from repro.api import (
    DatasetSpec,
    GraphSpec,
    IndexSpec,
    QuantizerSpec,
    ScenarioSpec,
    SearchRequest,
    ShardingSpec,
    build,
    load_index,
    save_index,
    storage_report,
)
from repro.datasets import load
from repro.eval import format_table

from common import (
    NUM_CHUNKS,
    NUM_CODEWORDS,
    fmt,
    save_json_baseline,
    save_report,
)

#: Timing scale — big enough that load times are measurable.
N_BASE = 6000
N_QUERIES = 32
#: Identity scale — five scenarios round-trip, so builds stay small.
N_IDENTITY = 260
LOAD_REPEATS = 5
SPAWN_SHARDS = 2

#: The format-1 writer's last numbers (same index, same host class as
#: the live rows), measured at commit 89278a4 ("Storage v2", PR 10) and
#: emitted verbatim: v1 lost 8.4x on cold load to save 1.1% of bytes.
RETIRED = {
    "measured_at_commit": "89278a4",
    "retired_in": "PR 15: save_index always writes the v2 container",
    "layouts": {
        "v1_npy": {
            "bytes_per_vector": 96.7,
            "cold_load_ms": 23.122,
            "total_bytes": 580001,
        },
        "v2_mmap": {
            "bytes_per_vector": 97.7,
            "cold_load_ms": 2.752,
            "total_bytes": 586229,
        },
    },
    "v1_vs_v2_mmap_load_speedup": 8.4,
    "worker_spawn": {
        "shards": 2,
        "v1_npy_spawn_ms": 850.7,
        "v2_mmap_spawn_ms": 830.0,
    },
    # The int64-adjacency container's last numbers (same index, same
    # host class), measured at d6ee2c6 (PR 17): vertex ids at rest went
    # int64 -> int32, which is the whole difference to the live rows.
    "int64_vertex_ids": {
        "measured_at_commit": "d6ee2c6",
        "retired_in": "PR 18: int32 vertex ids at rest",
        "layouts": {
            "v2_mmap": {
                "bytes_per_vector": 97.7,
                "cold_load_ms": 2.806,
                "total_bytes": 586229,
            },
            "v2_mmap_rans": {
                "bytes_per_vector": 95.9,
                "cold_load_ms": 16.522,
                "total_bytes": 575351,
            },
        },
        "worker_spawn": {"shards": 2, "v2_mmap_spawn_ms": 558.6},
    },
    # The last raw-vs-rANS numbers (same index, same host class),
    # copied as committed at 635deac: entropy-coding the codes saved
    # 3.1% of the directory and made cold load 29x slower, so the
    # coder was deleted and every save writes raw code sections.
    "rans_codes": {
        "measured_at_commit": "635deac",
        "retired_in": "rANS deleted: every save writes raw code sections",
        "layouts": {
            "v2_mmap": {
                "bytes_per_vector": 58.8,
                "cold_load_ms": 0.501,
                "total_bytes": 352757,
            },
            "v2_mmap_rans": {
                "bytes_per_vector": 57.0,
                "cold_load_ms": 14.341,
                "total_bytes": 341879,
            },
        },
        "codes": {
            "compression_ratio": 1.613,
            "raw_bytes": 48000,
            "stored_bytes": 29752,
        },
    },
}

#: (scenario kwargs, query label) — the five persistable scenarios.
SCENARIOS = (
    ("memory", {}, None),
    ("l2r", {"kind": "l2r"}, None),
    (
        "hybrid-l2r",
        {"kind": "hybrid", "params": {"learned_routing": True}},
        None,
    ),
    ("filtered", {"kind": "filtered"}, 1),
    ("streaming", {"kind": "streaming"}, None),
)


def _spec(n_base: int, n_queries: int, **scenario) -> IndexSpec:
    return IndexSpec(
        dataset=DatasetSpec(
            name="sift", n_base=n_base, n_queries=n_queries, seed=4
        ),
        graph=GraphSpec(kind="vamana", params={"r": 12, "search_l": 24}),
        quantizer=QuantizerSpec(
            kind="pq", num_chunks=NUM_CHUNKS, num_codewords=NUM_CODEWORDS
        ),
        scenario=ScenarioSpec(**scenario) if scenario else ScenarioSpec(),
    )


def _responses_identical(a, b) -> bool:
    return bool(
        np.array_equal(a.ids, b.ids)
        and np.array_equal(a.distances, b.distances)
        and np.array_equal(a.counts, b.counts)
    )


def _file_sha(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _min_load_ms(dirpath: str, repeats: int = LOAD_REPEATS) -> float:
    """Min-of-several ``load_index`` wall time in ms.

    Min (not mean) because load is a pure-overhead path: the best
    observation is the one least polluted by scheduler noise.  The OS
    page cache is warm (the save just wrote the files), so the row
    isolates mapping the container.
    """
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        load_index(dirpath)
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


def run_identity():
    """Every scenario round-trips bitwise through a save and a mapped
    load."""
    queries = load(
        "sift", n_base=N_IDENTITY, n_queries=8, seed=4
    ).queries
    rows = {}
    for name, scenario, label in SCENARIOS:
        index = build(_spec(N_IDENTITY, 8, **scenario))
        labels = (
            None
            if label is None
            else np.full(len(queries), label, dtype=np.int64)
        )
        request = SearchRequest(
            queries=queries, k=5, beam_width=16, labels=labels
        )
        expected = index.search(request)
        with tempfile.TemporaryDirectory(prefix="bench-storage-") as tmp:
            save_index(index, tmp)
            got = load_index(tmp).search(request)
        rows[name] = _responses_identical(expected, got)

    # 4-shard sharded index through the same path.
    base = _spec(N_IDENTITY, 8)
    sharded = build(
        IndexSpec(
            dataset=base.dataset,
            graph=base.graph,
            quantizer=base.quantizer,
            scenario=base.scenario,
            sharding=ShardingSpec(num_shards=4),
        )
    )
    request = SearchRequest(queries=queries, k=5, beam_width=16)
    expected = sharded.search(request)
    with tempfile.TemporaryDirectory(prefix="bench-storage-") as tmp:
        save_index(sharded, tmp)
        rows["sharded_4"] = _responses_identical(
            expected, load_index(tmp).search(request)
        )

        # 2x2 replicated process fleet booted off the same save
        # (`save_index` above wrote per-shard containers; the fleet's
        # workers then re-ship and map them).
        fleet = load_index(tmp)
        fleet.set_backend("process")
        fleet.set_replicas(2)
        try:
            # The fleet is 4 shards x 2 replicas of the same rows, so
            # its answers must match the in-process sharded index.
            rows["replicated_fleet"] = _responses_identical(
                expected, fleet.search(request)
            )
        finally:
            fleet.close()

    # Copy-on-write: mutate one mmap-loaded streaming replica; the
    # on-disk container must stay byte-identical.
    stream = build(_spec(N_IDENTITY, 8, kind="streaming"))
    with tempfile.TemporaryDirectory(prefix="bench-storage-") as tmp:
        save_index(stream, tmp)
        container = os.path.join(tmp, "index.bin")
        sha_before = _file_sha(container)
        writer = load_index(tmp)
        writer.insert(np.asarray(queries[0], dtype=np.float64))
        writer.delete(0)
        writer.consolidate()
        rows["cow_guard"] = (
            not writer._mapped and _file_sha(container) == sha_before
        )
    return rows


def run_bytes_and_timing():
    """Bytes-per-vector and cold-load timing of the one layout."""
    index = build(_spec(N_BASE, N_QUERIES))
    tmp = tempfile.mkdtemp(prefix="bench-storage-")
    try:
        save_index(index, tmp)
        report = storage_report(tmp)
        layouts = {
            "v2_mmap": {
                "total_bytes": report["total_bytes"],
                "bytes_per_vector": report["bytes_per_vector"],
                "cold_load_ms": _min_load_ms(tmp),
            }
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return layouts


def run_worker_spawn():
    """Full process-fleet spawn wall time.

    A fresh process-kind fleet spawns on its first search: save_index
    (ship) + spawn-context fork + worker load_index + the ready
    handshake.  Timed through the public ``search_all`` — the first
    call minus a warm second one, so the search itself is not counted.
    Report-only: interpreter start dominates at this scale.
    """
    from repro.serving import make_shard_backend

    base = _spec(N_BASE, N_QUERIES)
    sharded = build(
        IndexSpec(
            dataset=base.dataset,
            graph=base.graph,
            quantizer=base.quantizer,
            scenario=base.scenario,
            sharding=ShardingSpec(num_shards=SPAWN_SHARDS),
        )
    )
    request = SearchRequest(
        queries=load(
            "sift", n_base=N_BASE, n_queries=N_QUERIES, seed=4
        ).queries[:1],
        k=5,
        beam_width=16,
    )
    backend = make_shard_backend("process", sharded.shards)
    try:
        calls = []
        for _ in range(2):
            start = time.perf_counter()
            backend.search_all(request)
            calls.append(time.perf_counter() - start)
        spawn_ms = (calls[0] - calls[1]) * 1000.0
    finally:
        backend.close()
        sharded.close()
    return {"shards": SPAWN_SHARDS, "v2_mmap_spawn_ms": spawn_ms}


def run():
    identity = run_identity()
    layouts = run_bytes_and_timing()
    spawn = run_worker_spawn()
    return identity, layouts, spawn


def test_storage(benchmark):
    identity, layouts, spawn = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    blocks = [
        format_table(
            ["layout", "total bytes", "bytes/vector", "cold load ms"],
            [
                [
                    name,
                    row["total_bytes"],
                    fmt(row["bytes_per_vector"], 1),
                    fmt(row["cold_load_ms"], 2),
                ]
                for name, row in layouts.items()
            ],
            title=(
                f"Index persistence layouts (sift, n={N_BASE}, "
                f"pq {NUM_CHUNKS}x{NUM_CODEWORDS}, vamana)"
            ),
        ),
        (
            f"[worker spawn] {spawn['shards']}-shard process fleet: "
            f"{fmt(spawn['v2_mmap_spawn_ms'], 1)}ms (report-only)"
        ),
        "[identity] "
        + ", ".join(f"{k}={v}" for k, v in identity.items()),
    ]
    save_report("storage", "\n\n".join(blocks))

    save_json_baseline(
        "storage",
        {
            "bench": "storage",
            "dataset": "sift",
            "n_base": N_BASE,
            "num_chunks": NUM_CHUNKS,
            "num_codewords": NUM_CODEWORDS,
            "identity": identity,
            "layouts": {
                name: {
                    "total_bytes": row["total_bytes"],
                    "bytes_per_vector": round(row["bytes_per_vector"], 1),
                    "cold_load_ms": round(row["cold_load_ms"], 3),
                }
                for name, row in layouts.items()
            },
            "worker_spawn": {
                "shards": spawn["shards"],
                "v2_mmap_spawn_ms": round(spawn["v2_mmap_spawn_ms"], 1),
            },
            "retired": RETIRED,
        },
    )

    # Bitwise round-trips and the CoW guard are non-negotiable — they
    # hold on any host, so no REPRO_SKIP_SPEEDUP_GATES escape hatch.
    for name, ok in identity.items():
        assert ok, (
            f"{name}: save + mmap load round-trip diverged from the "
            "in-memory index"
        )
