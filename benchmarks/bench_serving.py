"""Serving layer — dynamic batching QPS vs latency, sharded fan-out.

Serves an open-loop request stream (single-query submissions) through
the dynamic batcher over the in-memory scenario and reports the
QPS-vs-p99 trade-off as ``max_wait_ms`` varies, for the unsharded index
and a sharded fan-out, plus a thread-vs-process shard-backend
comparison on the CPU-bound memory scenario, and a network-path row
(NetClient → asyncio gateway → socket shard workers; overhead
recorded, identity asserted — the wire can slow answers, never change
them).  Every answer is bitwise identical to a direct ``search`` call
(batch composition and backend choice cannot change results), so the
whole table is a pure latency/throughput trade.

Regression tripwires (``REPRO_SKIP_SPEEDUP_GATES`` skips the timing
gates; the determinism assertions always run):

* dynamic batching at ``max_batch_size >= 32`` must keep a >= 2x QPS
  advantage over per-query serving on the memory scenario (one pass of
  the query pool at batch 1 and at batch 32, ``serving_speedup``).
* the process fan-out must reach >= 1.5x the thread fan-out's QPS at
  ``FANOUT_SHARDS`` shards — the whole point of per-shard worker
  processes is escaping the shared GIL, so this additionally requires
  >= 2 *usable* CPUs (:func:`common.process_speedup_gate_enabled`).
  The bar assumes those CPUs are otherwise idle; on busy or
  tightly-quota'd hosts use ``REPRO_SKIP_SPEEDUP_GATES`` like CI's
  nightly lane does (the committed baseline from a single-CPU
  container records the gate as not enforced).

A chaos gate closes the run: a replicated process fleet takes a
SIGKILL to one replica mid-stream and must answer every request with
zero failures and results bitwise identical to the unreplicated
index, then the background supervisor must respawn the killed worker.
These assertions are about correctness, not timing, so they always run
(no ``REPRO_SKIP_SPEEDUP_GATES`` needed — they hold on a 1-CPU box).

The run also emits the committed ``BENCH_serving.json`` baseline at
the repo root (machine-readable QPS/latency/speedup snapshot).  Its
``retired`` block is :data:`RETIRED` verbatim: the cross-request ADC
table cache's last end-to-end row, kept because it is the row the
cache was deleted on (``compare_baselines.py`` skips the block).
"""

from __future__ import annotations

import dataclasses
import os
import signal
import time

import numpy as np

from repro.api import (
    DatasetSpec,
    IndexSpec,
    QuantizerSpec,
    SearchRequest,
    ShardingSpec,
)
from repro.eval import Workbench, format_table, laptop_graph
from repro.eval.harness import run_serving, serving_speedup, serving_table
from repro.serving import DynamicBatcher

from common import (
    NUM_CHUNKS,
    NUM_CODEWORDS,
    fmt,
    process_speedup_gate_enabled,
    save_json_baseline,
    save_report,
    speedup_gates_enabled,
    usable_cpus,
)

N_BASE = 2000
N_QUERIES = 64
STREAM_LEN = 256
MAX_BATCH = 32
WAITS = (0.0, 2.0, 8.0)
SHARD_COUNTS = (1, 4)
FANOUT_SHARDS = 4
FANOUT_STREAM = 128
FANOUT_REPEATS = 3
CHAOS_SHARDS = 2
CHAOS_REPLICAS = 2
CHAOS_REQUESTS = 12
NET_SHARDS = 2
NET_REPEATS = 3
#: Generous wall-clock budget for the supervisor's detect → respawn →
#: verify loop — a deadline, not a timing assertion, so the gate stays
#: deterministic on a loaded single-CPU CI box.
CHAOS_RESPAWN_DEADLINE_S = 60.0

#: The table cache's last serving row (same index, same host class as
#: the live rows), emitted verbatim: cache-on vs cache-off QPS through
#: the batcher over a fully repeated 256-query stream.
RETIRED = {
    "measured_at_commit": "d6ee2c6",
    "retired_in": "PR 20: one index core",
    "table_cache": {
        "verdict": (
            "table cache deleted: 1.00x end to end at a 0.80 hit rate "
            "(its 5.66x is layer-only, BENCH_kernel.json "
            "retired.amortization)"
        ),
        "bitwise_identical": True,
        "cache_off_qps": 4215.5,
        "cache_on_qps": 4198.5,
        "cache_on_vs_off_speedup": 1.0,
        "hit_rate": 0.8006,
        "max_batch_size": 32,
        "stream_len": 256,
    },
}

#: The one memory index every measurement serves; ``sharded`` varies
#: only its fan-out, so the workbench builds the dataset and quantizer
#: once and each shard layout's graphs once.
SPEC = IndexSpec(
    dataset=DatasetSpec("sift", n_base=N_BASE, n_queries=N_QUERIES),
    graph=laptop_graph("vamana"),
    quantizer=QuantizerSpec("pq", NUM_CHUNKS, NUM_CODEWORDS),
)


def sharded(num_shards, backend="thread", replicas=1) -> IndexSpec:
    return dataclasses.replace(
        SPEC,
        sharding=ShardingSpec(
            num_shards=num_shards, backend=backend, replicas=replicas
        ),
    )


def measure_fanout(index, queries, k=10, beam_width=32,
                   repeats=FANOUT_REPEATS):
    """Wall-clock QPS of repeated direct ``index.search`` fan-outs.

    One warm-up call keeps backend startup (thread-pool creation, or
    process worker spawn + state shipping) out of the measurement —
    a serving deployment pays that once, not per request.
    """
    request = SearchRequest(queries, k, beam_width)
    result = index.search(request)
    start = time.perf_counter()
    for _ in range(repeats):
        index.search(request)
    elapsed = time.perf_counter() - start
    return result, repeats * len(queries) / max(elapsed, 1e-12)


def run_fanout_comparison(bench):
    """Thread vs process shard backend on the same sharded index."""
    queries = bench.dataset(SPEC).queries
    reps = int(np.ceil(FANOUT_STREAM / len(queries)))
    stream = np.tile(queries, (reps, 1))[:FANOUT_STREAM]
    index = bench.build(sharded(FANOUT_SHARDS))
    try:
        thread_result, thread_qps = measure_fanout(index, stream)
        index.set_backend("process")
        process_result, process_qps = measure_fanout(index, stream)
    finally:
        index.close()
    identical = bool(
        np.array_equal(thread_result.ids, process_result.ids)
        and np.array_equal(thread_result.distances, process_result.distances)
        and np.array_equal(thread_result.hops, process_result.hops)
    )
    return {
        "shards": FANOUT_SHARDS,
        "stream_len": FANOUT_STREAM,
        "thread_qps": thread_qps,
        "process_qps": process_qps,
        "speedup": process_qps / max(thread_qps, 1e-12),
        "identical": identical,
    }


def run_network(bench):
    """The network tier end to end: NetClient → asyncio gateway →
    socket shard workers, against the same index served in-process.

    The wire may add latency but can never change bytes — answers are
    asserted bitwise identical to the in-process sharded index.  QPS
    for both paths is recorded (no speedup gate: the network path
    *pays* framing + TCP, it does not win; the row exists so the
    overhead is tracked release over release).
    """
    import tempfile

    from repro.api import load_index, save_index
    from repro.serving.net import GatewayThread, LocalShardWorker, NetClient

    queries = bench.dataset(SPEC).queries
    request = SearchRequest(queries=queries, k=10, beam_width=32)
    index = bench.build(sharded(NET_SHARDS))
    workers = []
    try:
        expected = index.search(request)
        start = time.perf_counter()
        for _ in range(NET_REPEATS):
            index.search(request)
        inproc_qps = (
            NET_REPEATS * len(queries)
            / max(time.perf_counter() - start, 1e-12)
        )

        with tempfile.TemporaryDirectory(prefix="bench-net-") as tmp:
            save_index(index, tmp)
            workers = [
                LocalShardWorker(os.path.join(tmp, f"shard_{s:03d}"))
                for s in range(NET_SHARDS)
            ]
            remote = load_index(tmp)
            try:
                remote.set_backend(
                    "socket", endpoints=[w.endpoint for w in workers]
                )
                with GatewayThread(remote) as gw:
                    with NetClient(gw.connect) as client:
                        got = client.search(request)  # warm-up + identity
                        start = time.perf_counter()
                        for _ in range(NET_REPEATS):
                            client.search(request)
                        net_qps = (
                            NET_REPEATS * len(queries)
                            / max(time.perf_counter() - start, 1e-12)
                        )
            finally:
                remote.close()
    finally:
        for worker in workers:
            worker.stop()
        index.close()
    identical = bool(
        np.array_equal(got.ids, expected.ids)
        and np.array_equal(got.distances, expected.distances)
        and np.array_equal(got.counts, expected.counts)
    )
    return {
        "shards": NET_SHARDS,
        "stream_len": NET_REPEATS * len(queries),
        "inprocess_qps": inproc_qps,
        "network_qps": net_qps,
        "overhead": inproc_qps / max(net_qps, 1e-12),
        "identical": identical,
    }


def run_chaos(bench):
    """Kill one replica of a replicated process fleet mid-stream.

    The request stream must see zero failures, every answer must be
    bitwise identical to the unreplicated index, and the supervisor
    must respawn the killed worker (verified by fleet_status, polled
    up to a generous deadline).
    """
    queries = bench.dataset(SPEC).queries
    reference = bench.build(sharded(CHAOS_SHARDS))
    index = bench.build(sharded(CHAOS_SHARDS, "process", CHAOS_REPLICAS))
    failed = 0
    identical = True
    try:
        request = SearchRequest(queries, k=10, beam_width=32)
        expected = reference.search(request)
        index.search(SearchRequest(queries[:1], 10, 32))  # warm fleet
        victim = next(
            s["pid"] for s in index.fleet_status() if s["pid"] is not None
        )
        for i in range(CHAOS_REQUESTS):
            if i == 1:
                os.kill(victim, signal.SIGKILL)
            try:
                got = index.search(request)
            except Exception:
                failed += 1
                continue
            identical = identical and bool(
                np.array_equal(got.ids, expected.ids)
                and np.array_equal(got.distances, expected.distances)
            )
        deadline = time.monotonic() + CHAOS_RESPAWN_DEADLINE_S
        respawned = False
        while time.monotonic() < deadline and not respawned:
            status = index.fleet_status()
            respawned = all(s["alive"] for s in status) and any(
                s["restarts"] > 0 for s in status
            )
            if not respawned:
                time.sleep(0.25)
        final = index.search(request)
        identical = identical and bool(
            np.array_equal(final.ids, expected.ids)
        )
    finally:
        index.close()
        reference.close()
    return {
        "shards": CHAOS_SHARDS,
        "replicas": CHAOS_REPLICAS,
        "requests": CHAOS_REQUESTS,
        "failed_requests": failed,
        "identical_to_unreplicated": identical,
        "supervisor_respawned": respawned,
    }


def run():
    # One workbench shared by every measurement below (graph builds
    # dominate setup time).
    bench = Workbench()
    queries = bench.dataset(SPEC).queries
    points = {}
    for shards in SHARD_COUNTS:
        served_index = bench.build(sharded(shards))
        try:
            points[shards] = run_serving(
                served_index,
                queries,
                stream_len=STREAM_LEN,
                batch_sizes=(1, MAX_BATCH),
                wait_ms=WAITS,
            )
        finally:
            if shards > 1:
                served_index.close()

    index = bench.build(SPEC)
    guard_speedup = serving_speedup(
        run_serving(
            index,
            queries,
            stream_len=len(queries),
            batch_sizes=(1, MAX_BATCH),
            wait_ms=(2.0,),
        )
    )

    fanout = run_fanout_comparison(bench)
    network = run_network(bench)
    chaos = run_chaos(bench)

    # Determinism check: served answers equal direct search answers.
    with DynamicBatcher(index, k=10, beam_width=32,
                        max_batch_size=MAX_BATCH, max_wait_ms=2.0) as b:
        futures = [b.submit(q) for q in queries]
        served = [f.result(timeout=60) for f in futures]
    direct = index.search(SearchRequest(queries, 10, 32))
    identical = all(
        np.array_equal(row.ids, direct.row_ids(i))
        for i, row in enumerate(served)
    )
    return points, guard_speedup, fanout, network, chaos, identical


def test_serving_throughput(benchmark):
    points, guard_speedup, fanout, network, chaos, identical = (
        benchmark.pedantic(run, rounds=1, iterations=1)
    )

    blocks = []
    for shards, shard_points in points.items():
        blocks.append(
            serving_table(
                shard_points,
                f"Dynamic-batching serving (sift, n={N_BASE}, "
                f"{shards} shard{'s' if shards > 1 else ''}, "
                f"stream {STREAM_LEN})",
            )
        )
        blocks.append(
            f"[{shards} shard(s)] batched vs per-query serving: "
            f"{fmt(serving_speedup(shard_points), 2)}x"
        )
    blocks.append(
        format_table(
            ["backend", "shards", "QPS"],
            [
                ["thread", fanout["shards"], fmt(fanout["thread_qps"], 1)],
                ["process", fanout["shards"], fmt(fanout["process_qps"], 1)],
            ],
            title=(
                f"Shard fan-out backends (sift, n={N_BASE}, direct "
                f"index.search, stream {fanout['stream_len']})"
            ),
        )
    )
    blocks.append(
        f"[fan-out] process vs thread backend: "
        f"{fmt(fanout['speedup'], 2)}x "
        f"({usable_cpus()} usable CPU(s))"
    )
    blocks.append(
        format_table(
            ["path", "shards", "QPS"],
            [
                ["in-process", network["shards"],
                 fmt(network["inprocess_qps"], 1)],
                ["NetClient → gateway → socket workers",
                 network["shards"], fmt(network["network_qps"], 1)],
            ],
            title=(
                f"Network-path serving (sift, n={N_BASE}, stream "
                f"{network['stream_len']})"
            ),
        )
    )
    blocks.append(
        f"[network] in-process vs wire QPS ratio: "
        f"{fmt(network['overhead'], 2)}x overhead, identical="
        f"{network['identical']}"
    )
    blocks.append(
        f"[chaos] SIGKILL one of {chaos['shards']}x{chaos['replicas']} "
        f"replicas mid-stream: {chaos['failed_requests']} failed "
        f"request(s) / {chaos['requests']}, identical="
        f"{chaos['identical_to_unreplicated']}, supervisor respawn="
        f"{chaos['supervisor_respawned']}"
    )
    save_report("serving_throughput", "\n\n".join(blocks))

    save_json_baseline(
        "serving",
        {
            "bench": "serving",
            "dataset": "sift",
            "n_base": N_BASE,
            "stream_len": STREAM_LEN,
            "cpu_count": os.cpu_count() or 1,
            "usable_cpus": usable_cpus(),
            "serving": {
                "points": [
                    {
                        "max_batch_size": p.max_batch_size,
                        "max_wait_ms": p.max_wait_ms,
                        "num_shards": p.num_shards,
                        "qps": round(p.qps, 1),
                        "p50_ms": round(p.p50_ms, 3),
                        "p99_ms": round(p.p99_ms, 3),
                        "mean_queue_wait_ms": round(p.mean_queue_wait_ms, 3),
                        "mean_batch": round(p.mean_batch, 2),
                    }
                    for shard_points in points.values()
                    for p in shard_points
                ],
                "batched_vs_per_query_speedup": round(guard_speedup, 2),
                "served_identical_to_direct": identical,
            },
            "fanout": {
                "shards": fanout["shards"],
                "stream_len": fanout["stream_len"],
                "thread_qps": round(fanout["thread_qps"], 1),
                "process_qps": round(fanout["process_qps"], 1),
                "process_vs_thread_speedup": round(fanout["speedup"], 2),
                "bitwise_identical": fanout["identical"],
                "gate_threshold": 1.5,
                "gate_enforced": process_speedup_gate_enabled(),
            },
            "network": {
                "shards": network["shards"],
                "stream_len": network["stream_len"],
                "inprocess_qps": round(network["inprocess_qps"], 1),
                "network_qps": round(network["network_qps"], 1),
                "inprocess_vs_network_speedup": round(
                    network["overhead"], 2
                ),
                "bitwise_identical": network["identical"],
            },
            "chaos": chaos,
            "retired": RETIRED,
        },
    )

    # Bitwise serving correctness is non-negotiable — across batch
    # composition and across shard backends.
    assert identical, "served answers diverged from direct search"
    assert fanout["identical"], (
        "process-backend answers diverged from the thread backend"
    )
    assert network["identical"], (
        "network-path answers (NetClient → gateway → socket workers) "
        "diverged from the in-process index"
    )
    # The chaos gate is correctness, not timing: it always runs.
    assert chaos["failed_requests"] == 0, (
        f"{chaos['failed_requests']} request(s) failed after a replica "
        "SIGKILL; failover must be transparent"
    )
    assert chaos["identical_to_unreplicated"], (
        "replicated fleet answers diverged from the unreplicated index "
        "after a replica SIGKILL"
    )
    assert chaos["supervisor_respawned"], (
        "the supervisor did not respawn the killed replica within "
        f"{CHAOS_RESPAWN_DEADLINE_S:.0f}s"
    )

    if speedup_gates_enabled():
        assert guard_speedup >= 2.0, (
            f"dynamic-batched serving (batch={MAX_BATCH}) speedup "
            f"{guard_speedup:.2f}x fell below the 2x acceptance bar"
        )
    if process_speedup_gate_enabled():
        assert fanout["speedup"] >= 1.5, (
            f"process fan-out ({fanout['shards']} shards) reached only "
            f"{fanout['speedup']:.2f}x the thread fan-out QPS, below "
            "the 1.5x acceptance bar"
        )
