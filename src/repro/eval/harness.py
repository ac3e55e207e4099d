"""Serving measurement: batched-engine, dynamic-batching and
lockstep-construction throughput.

Measurement functions take what they measure — a built index (see
:class:`repro.eval.workbench.Workbench`) plus a query pool, or a
``GraphSpec`` plus the rows to build over — and never build an index
themselves; the caller owns the index's lifetime.  The paper's
artifacts live in :mod:`repro.eval.paper`, the open-loop load frontier
in :func:`repro.loadgen.run_load`.

QPS is measured on this machine and matters only *relatively*.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..api.protocol import SearchRequest
from ..api.registry import build_graph_from_spec
from ..api.spec import GraphSpec
from ..datasets.ground_truth import GroundTruth, compute_ground_truth
from ..metrics.recall import recall_at_k
from .sweep import run_queries_batched
from .tables import fmt, format_table

# ----------------------------------------------------------------------
# Batched-engine throughput (single-query loop vs batched requests)
# ----------------------------------------------------------------------


@dataclass
class BatchThroughputPoint:
    """Single-vs-batched QPS at one batch size."""

    batch_size: int
    single_qps: float
    batch_qps: float
    recall_single: float
    recall_batch: float

    @property
    def speedup(self) -> float:
        return self.batch_qps / max(self.single_qps, 1e-12)


def run_batch_throughput(
    index,
    queries: np.ndarray,
    ground_truth: GroundTruth,
    batch_sizes: Sequence[int] = (1, 8, 64),
    beam_width: int = 32,
    k: int = 10,
) -> List[BatchThroughputPoint]:
    """Measure the batched engine's speedup over the per-query loop.

    For each batch size, answers the same query set through the
    single-query loop and through batched requests, returning
    wall-clock QPS for both plus recall on each path (equal by
    construction — the batch engine is bitwise identical per query).
    """

    def timed(batch_size: int):
        results = run_queries_batched(
            index, queries, k, beam_width, batch_size
        )
        start = time.perf_counter()
        run_queries_batched(index, queries, k, beam_width, batch_size)
        seconds = time.perf_counter() - start
        qps = len(queries) / max(seconds, 1e-12)
        return qps, recall_at_k([r.ids for r in results], ground_truth.ids)

    single_qps, recall_single = timed(1)
    points: List[BatchThroughputPoint] = []
    for batch_size in batch_sizes:
        batch_qps, recall_batch = timed(int(batch_size))
        points.append(
            BatchThroughputPoint(
                batch_size=int(batch_size),
                single_qps=single_qps,
                batch_qps=batch_qps,
                recall_single=recall_single,
                recall_batch=recall_batch,
            )
        )
    return points


def batch_throughput_table(
    points: Sequence[BatchThroughputPoint], title: str
) -> str:
    rows = [
        [
            p.batch_size,
            fmt(p.single_qps, 1),
            fmt(p.batch_qps, 1),
            f"{p.speedup:.2f}x",
            fmt(p.recall_batch, 3),
        ]
        for p in points
    ]
    headers = ["batch size", "single QPS", "batch QPS", "speedup", "recall@10"]
    return format_table(headers, rows, title=title)


# ----------------------------------------------------------------------
# Serving throughput (dynamic batching, sharded fan-out)
# ----------------------------------------------------------------------


@dataclass
class ServingPoint:
    """One serving configuration's measured QPS / latency trade-off."""

    max_batch_size: int
    max_wait_ms: float
    num_shards: int
    qps: float
    p50_ms: float
    p99_ms: float
    mean_batch: float
    batches: int
    #: Mean per-request queue wait (submit -> micro-batch dequeue) and
    #: service time (dequeue -> kernel return), from the batcher's
    #: per-request timestamps — how the submit-to-resolve latency
    #: splits between queueing and the kernel.
    mean_queue_wait_ms: float = float("nan")
    mean_service_ms: float = float("nan")

    def as_row(self) -> list:
        return [
            self.max_batch_size,
            self.max_wait_ms,
            self.num_shards,
            round(self.qps, 1),
            round(self.p50_ms, 2),
            round(self.p99_ms, 2),
            round(self.mean_queue_wait_ms, 2),
            round(self.mean_batch, 1),
        ]


def measure_serving(
    index,
    queries: np.ndarray,
    k: int = 10,
    beam_width: int = 32,
    max_batch_size: int = 32,
    max_wait_ms: float = 2.0,
) -> ServingPoint:
    """Serve one open-loop request stream through a dynamic batcher.

    Every query is submitted as fast as the queue accepts it (the
    saturated-server regime where batching pays); per-request latency
    is submit-to-resolve, so the reported p50/p99 include queueing.
    ``max_batch_size=1`` is the per-query serving baseline — every
    request is answered by its own ``index.search`` call.
    """
    from ..serving import DynamicBatcher

    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    n = queries.shape[0]
    done_at = np.zeros(n, dtype=np.float64)
    submitted_at = np.zeros(n, dtype=np.float64)

    def _mark(i):
        def callback(_future):
            done_at[i] = time.perf_counter()

        return callback

    batcher = DynamicBatcher(
        index,
        k=k,
        beam_width=beam_width,
        max_batch_size=max_batch_size,
        max_wait_ms=max_wait_ms,
    )
    start = time.perf_counter()
    futures = []
    for i, q in enumerate(queries):
        submitted_at[i] = time.perf_counter()
        future = batcher.submit(q)
        future.add_done_callback(_mark(i))
        futures.append(future)
    for future in futures:
        future.result()
    elapsed = time.perf_counter() - start
    stats = batcher.close()
    latencies_ms = (done_at - submitted_at) * 1e3
    return ServingPoint(
        max_batch_size=int(max_batch_size),
        max_wait_ms=float(max_wait_ms),
        num_shards=int(getattr(index, "num_shards", 1)),
        qps=n / max(elapsed, 1e-12),
        p50_ms=float(np.percentile(latencies_ms, 50)),
        p99_ms=float(np.percentile(latencies_ms, 99)),
        mean_batch=stats.mean_batch_size,
        batches=stats.batches,
        mean_queue_wait_ms=stats.mean_queue_wait_ms,
        mean_service_ms=stats.mean_service_ms,
    )


def run_serving(
    index,
    queries: np.ndarray,
    stream_len: int = 256,
    batch_sizes: Sequence[int] = (1, 32),
    wait_ms: Sequence[float] = (0.0, 2.0, 8.0),
    beam_width: int = 32,
    k: int = 10,
) -> List[ServingPoint]:
    """QPS-vs-latency trade-off of the dynamic-batching serving layer.

    Serves the same request stream (``queries`` tiled to
    ``stream_len``) through a batcher over ``index`` at every
    ``(max_batch_size, max_wait_ms)`` configuration;
    ``max_batch_size=1`` rows are the per-query serving baseline
    (``max_wait_ms`` is irrelevant there, so it is measured once).  The
    index is warmed with one search first, so a fan-out backend's
    startup (pool creation, worker spawn + state shipping) stays out of
    the measured stream.
    """
    index.search(SearchRequest(queries[:1], k, beam_width))
    reps = int(np.ceil(stream_len / len(queries)))
    stream = np.tile(queries, (reps, 1))[:stream_len]
    return [
        measure_serving(
            index,
            stream,
            k=k,
            beam_width=beam_width,
            max_batch_size=batch_size,
            max_wait_ms=wait,
        )
        for batch_size in batch_sizes
        for wait in ([0.0] if batch_size == 1 else wait_ms)
    ]


def serving_table(points: Sequence[ServingPoint], title: str) -> str:
    headers = [
        "max batch",
        "max wait ms",
        "shards",
        "QPS",
        "p50 ms",
        "p99 ms",
        "q wait ms",
        "mean batch",
    ]
    return format_table(headers, [p.as_row() for p in points], title=title)


def serving_speedup(points: Sequence[ServingPoint]) -> float:
    """Best batched QPS over the per-query serving baseline's QPS."""
    baseline = [p for p in points if p.max_batch_size == 1]
    batched = [p for p in points if p.max_batch_size > 1]
    if not baseline or not batched:
        raise ValueError("need both a batch_size=1 and a batched point")
    base_qps = max(p.qps for p in baseline)
    return max(p.qps for p in batched) / max(base_qps, 1e-12)


# ----------------------------------------------------------------------
# Lockstep-construction throughput (sequential vs batched builds)
# ----------------------------------------------------------------------


#: Builders whose ``build_batch_size`` changes the graph on purpose
#: (deterministic batch insertion, :mod:`repro.graphs.vamana`): their
#: batched builds are held to the cap-1 build's recall, not its bytes.
BATCH_INSERT_KINDS = frozenset({"hnsw", "vamana"})

#: Exact-routing recall@10 (beam 10) a batched build may lose against
#: the cap-1 build.
RECALL_SLACK = 0.005


@dataclass
class BuildThroughputPoint:
    """Cap-1 vs batched build time at one build batch size, and the
    check the batched build must pass: byte identity to the cap-1
    graph (``identical``), or, for :data:`BATCH_INSERT_KINDS` (where
    ``identical`` is ``None``), exact-routing recall@10 at beam 10
    within :data:`RECALL_SLACK` of the cap-1 graph's."""

    build_batch_size: int
    sequential_seconds: float
    batched_seconds: float
    identical: Optional[bool]
    sequential_recall: Optional[float] = None
    batched_recall: Optional[float] = None

    @property
    def speedup(self) -> float:
        return self.sequential_seconds / max(self.batched_seconds, 1e-12)

    @property
    def holds(self) -> bool:
        if self.identical is not None:
            return self.identical
        return self.batched_recall >= self.sequential_recall - RECALL_SLACK


def exact_routing_recall(
    graph, x: np.ndarray, queries: np.ndarray, beam_width: int = 10, k: int = 10
) -> float:
    """Recall@``k`` of exact-distance search over ``graph`` at
    ``beam_width``, routed the graph's own way (``search_batch``: HNSW
    descends its upper layers first): its routing quality, no
    quantizer."""
    truth = compute_ground_truth(x, queries, k).ids

    def dist_fn(qidx: np.ndarray, vertex_ids: np.ndarray) -> np.ndarray:
        diff = x[vertex_ids] - queries[qidx]
        return np.einsum("ij,ij->i", diff, diff)

    found = graph.search_batch(dist_fn, beam_width, len(queries), k=k)
    return recall_at_k(list(found.ids), truth)


def graphs_identical(a, b) -> bool:
    """Byte-identical flat graphs: adjacency and entry point."""
    if a.num_vertices != b.num_vertices or a.entry_point != b.entry_point:
        return False
    return all(
        np.array_equal(na, nb) for na, nb in zip(a.adjacency, b.adjacency)
    )


def run_build_throughput(
    graph: GraphSpec,
    x: np.ndarray,
    batch_sizes: Sequence[int] = (8, 32, 64),
    queries: Optional[np.ndarray] = None,
) -> List[BuildThroughputPoint]:
    """Measure the batched builders' speedup over cap-1 construction.

    Builds ``graph`` over ``x`` once with ``build_batch_size=1``
    (strictly sequential construction) and once per batched size.
    NSG batches only its searches, so each batched build must be
    byte-identical to the cap-1 one; a :data:`BATCH_INSERT_KINDS`
    builder changes its graph with the cap, so both builds' exact
    routing recall over ``queries`` (required for those kinds) is
    measured instead.
    """
    by_recall = graph.kind in BATCH_INSERT_KINDS
    if by_recall and queries is None:
        raise ValueError(f"{graph.kind} builds are checked by recall: pass queries")

    def timed(batch_size: int):
        spec = dataclasses.replace(
            graph, params={**graph.params, "build_batch_size": batch_size}
        )
        start = time.perf_counter()
        built = build_graph_from_spec(spec, x)
        return built, time.perf_counter() - start

    reference, sequential_seconds = timed(1)
    if by_recall:
        sequential_recall = exact_routing_recall(reference, x, queries)
    points: List[BuildThroughputPoint] = []
    for batch_size in batch_sizes:
        built, batched_seconds = timed(int(batch_size))
        point = BuildThroughputPoint(
            build_batch_size=int(batch_size),
            sequential_seconds=sequential_seconds,
            batched_seconds=batched_seconds,
            identical=None if by_recall else graphs_identical(reference, built),
        )
        if by_recall:
            point.sequential_recall = sequential_recall
            point.batched_recall = exact_routing_recall(built, x, queries)
        points.append(point)
    return points


def build_throughput_table(
    points: Sequence[BuildThroughputPoint], title: str
) -> str:
    def check(p: BuildThroughputPoint) -> str:
        if p.identical is not None:
            return "identical" if p.identical else "NOT IDENTICAL"
        verdict = "ok" if p.holds else "BELOW"
        return f"recall {p.sequential_recall:.4f} -> {p.batched_recall:.4f} {verdict}"

    rows = [
        [
            p.build_batch_size,
            fmt(p.sequential_seconds, 2),
            fmt(p.batched_seconds, 2),
            f"{p.speedup:.2f}x",
            check(p),
        ]
        for p in points
    ]
    headers = ["build batch", "cap-1 s", "batched s", "speedup", "vs cap 1"]
    return format_table(headers, rows, title=title)
