"""The four workloads.

Each drives the program only through ``repro.api`` (spec / build /
request / persistence), the ``serve-shard`` and ``experiment serve
--listen`` CLI verbs, ``NetClient`` and the streaming index's write
methods.  Per-layer probes additionally time public functions of the
layer they measure.
"""

from __future__ import annotations

import os
import shutil
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.api import (
    IndexSpec,
    SearchRequest,
    build,
    load_index,
    save_index,
    storage_report,
)
from repro.api.registry import (
    build_graph_from_spec,
    build_quantizer_from_spec,
)
from repro.api.spec import GraphSpec, QuantizerSpec, ScenarioSpec, ShardingSpec

from harness import (
    BATCH,
    BEAM,
    K,
    SEGMENTS,
    SLO_MS,
    Segment,
    StageClock,
    Tracer,
    brute_force_topk,
    recall_hits,
    same_answer,
    seeded_dataset,
    segment_loop,
)
from procs import Fleet, peak_rss_mb

#: Sizes for the 2-core reference box.  The driver's cap (92 runs in
#: 3420 s, three complete set-ups per run) fixes n_base; sample counts
#: per segment are what the sizes protect.
FULL = {
    "setup_reps": 3,
    "chunks": 16,
    "codewords": 256,
    "offline_batch": {"n_base": 2000, "pool": 1024, "rpq_epochs": 2},
    "hybrid_disk": {"n_base": 1200, "pool": 1024},
    "online_gateway": {
        "n_base": 2400,
        "pool": 1024,
        "hot": 64,
        "rate_qps": 200.0,
        "inflight": 64,
        "ladder_qps": (100.0, 200.0, 400.0, 800.0),
        "rung_s": 1.5,
    },
    "streaming_churn": {
        "n_base": 800,
        "pool": 512,
        "insert_pool": 2048,
        "insert_batch": 16,
        "searches_per_cycle": 4,
        "consolidate_every": 4,
    },
}

#: Toy sizes for ``--smoke``: every code path, no meaningful numbers.
SMOKE = {
    "setup_reps": 1,
    "chunks": 8,
    "codewords": 16,
    "offline_batch": {"n_base": 300, "pool": 128, "rpq_epochs": 1},
    "hybrid_disk": {"n_base": 300, "pool": 128},
    "online_gateway": {
        "n_base": 400,
        "pool": 128,
        "hot": 16,
        "rate_qps": 100.0,
        "inflight": 16,
        "ladder_qps": (100.0, 200.0),
        "rung_s": 0.4,
    },
    "streaming_churn": {
        "n_base": 200,
        "pool": 64,
        "insert_pool": 1024,
        "insert_batch": 8,
        "searches_per_cycle": 2,
        "consolidate_every": 4,
    },
}

#: A wedged worker becomes failed operations after this long, never a hang.
PHASE_TIMEOUT_S = 20.0

_COUNTERS = (
    "hops",
    "distance_computations",
    "table_cache_hits",
    "workspace_reused",
    "page_reads",
    "io_rounds",
    "simulated_io_us",
)


@dataclass
class Measured:
    """One measured window.  ``throughput`` and ``latency`` are the
    same segments for the in-process workloads and the two phases of
    the gateway workload."""

    throughput: List[Segment]
    latency: List[Segment]
    phases: Dict[str, dict] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    queries: int = 0
    #: In-process workloads: the merged ``kernel_profile`` of a traced
    #: window and the wall time of its search calls.
    profile: object = None
    search_wall_s: float = 0.0
    #: streaming_churn: per-operation timings.
    ops: dict = field(default_factory=dict)
    #: online_gateway: generator stats and the answers' counters.
    loadgen: dict = field(default_factory=dict)
    stamps: list = field(default_factory=list)

    def segments(self) -> List[Segment]:
        if self.latency is self.throughput:
            return self.throughput
        return self.throughput + self.latency


def _request(queries: np.ndarray) -> SearchRequest:
    return SearchRequest(queries, k=K, beam_width=BEAM)


def _median_ms(fn, items) -> float:
    times = []
    for item in items:
        start = time.perf_counter()
        fn(item)
        times.append(time.perf_counter() - start)
    return float(np.median(times)) * 1e3


def _mean_degree(graphs) -> float:
    degrees = np.concatenate(
        [[len(nbrs) for nbrs in g.adjacency] for g in graphs]
    )
    return float(degrees.mean())


class Workload:
    """Common life cycle: ``setup`` (repeatable) -> ``measure`` ->
    ``layers`` (traced runs) -> ``teardown``."""

    name = ""

    def __init__(
        self, sizes: dict, seed: int, workdir: str, tracer: Tracer
    ) -> None:
        self.sizes = dict(sizes[self.name])
        self.chunks = sizes["chunks"]
        self.codewords = sizes["codewords"]
        self.seed = seed
        self.workdir = workdir
        self.index_dir = os.path.join(workdir, "index")
        self.clock = StageClock(tracer)  # set-up stage timings
        self.index = None
        self.calls = 0

    # -- set-up helpers --------------------------------------------------
    def pq_spec(self) -> QuantizerSpec:
        return QuantizerSpec(
            kind="pq", num_chunks=self.chunks, num_codewords=self.codewords
        )

    def persist_and_load(self, built) -> None:
        """Serve from the index as a deployment would hold it: saved
        as a v2 mmap container and loaded back."""
        with self.clock.stage("api.save_index"):
            save_index(built, self.index_dir, layout="mmap")
        self.report = storage_report(self.index_dir)
        with self.clock.stage("api.load_index"):
            self.index = load_index(self.index_dir)

    def first_query(self, queries: np.ndarray) -> None:
        with self.clock.stage("api.first_query"):
            self.index.search(_request(queries[:1]))

    def teardown(self) -> List[str]:
        """Release what ``setup`` made; returns hygiene problems."""
        close = getattr(self.index, "close", None)
        if close is not None:
            close()
        self.index = None
        shutil.rmtree(self.index_dir, ignore_errors=True)
        return []

    # -- results ---------------------------------------------------------
    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def corrupt_reference(self) -> None:
        """Self-check hook: make one reference answer wrong, so the
        checker has to fail."""
        raise NotImplementedError

    def count(self, measured: Measured, response) -> None:
        measured.queries += response.ids.shape[0]
        for name in _COUNTERS:
            values = response.counters.get(name)
            if values is not None:
                measured.counters[name] = measured.counters.get(
                    name, 0.0
                ) + float(np.sum(values))

    # -- per-layer -------------------------------------------------------
    def common_layers(
        self, quantizer, base: Measured, counted: Measured, shards: int = 1
    ) -> dict:
        """What every workload reports: set-up stages, storage shares,
        the quantizer probes, per-query counters and the latency tail."""
        with self.clock.stage("quantization.encode"):
            quantizer.encode(self.x)
        s = self.clock.seconds
        report = self.report
        parts = report["components"]
        total = float(report["total_bytes"])

        def share(*suffixes):
            return (
                sum(
                    size
                    for name, size in parts.items()
                    if name.endswith(suffixes)
                )
                / total
            )

        out = {
            "datasets.load_s": s.get("datasets.load"),
            "graphs.build_s": s.get("graphs.build"),
            "quantization.fit_s": s.get("quantization.fit"),
            "quantization.encode_s": s["quantization.encode"],
            "core.rpq_fit_s": s.get("core.rpq_fit"),
            "api.build_s": s.get("api.build"),
            "api.save_index_s": s.get("api.save_index"),
            "api.load_index_ms": s["api.load_index"] * 1e3,
            "api.first_query_ms": s["api.first_query"] * 1e3,
            "storage.container_bytes": float(
                sum(
                    size
                    for name, size in parts.items()
                    if "index.bin" in name
                )
            ),
            "storage.adjacency_bytes_share": share("neighbors", "offsets"),
            "storage.codes_bytes_share": share(":codes"),
        }
        out.update(self.table_layers(quantizer, self.queries))
        out.update(self.counter_layers(counted, shards))
        out.update(self.loadgen_layers(base))
        return out

    def search_layers(self, out: dict, traced: Measured) -> None:
        """In-process workloads: kernel stage shares, the B=1 probe and
        what the scenario policy keeps of a call (wall − kernel −
        table build)."""
        search_wall = traced.search_wall_s
        calls = sum(s.attempted for s in traced.throughput)
        out.update(self.engine_layers(traced.profile, search_wall))
        out["index.search_b1_ms"] = _median_ms(
            lambda i: self.index.search(_request(self.queries[i])),
            range(2 * BATCH),
        )
        kernel = out.get("engine.kernel_ms_per_call")
        table = out.get("quantization.table_build_us_per_query_b32")
        if kernel is not None and table is not None:
            out["index.policy_self_ms_per_call"] = (
                search_wall / calls * 1e3 - kernel - table * BATCH / 1e3
            )

    def table_layers(self, quantizer, queries: np.ndarray) -> dict:
        """ADC table build cost, timed on the quantizer's public
        batch entry point."""
        if not hasattr(quantizer, "lookup_table_batch"):
            return {}
        b32 = _median_ms(
            lambda _: quantizer.lookup_table_batch(queries[:BATCH]),
            range(20),
        )
        b1 = _median_ms(
            lambda i: quantizer.lookup_table_batch(queries[i : i + 1]),
            range(BATCH),
        )
        return {
            "quantization.table_build_us_per_query_b32": b32 * 1e3 / BATCH,
            "quantization.table_build_us_per_query_b1": b1 * 1e3,
        }

    @staticmethod
    def counter_layers(measured: Measured, shards: int = 1) -> dict:
        q = max(measured.queries, 1)
        c = measured.counters
        out = {
            "engine.hops_per_query": c.get("hops", 0.0) / q,
            "engine.dist_comps_per_query": c.get("distance_computations", 0.0)
            / q,
            "engine.workspace_reuse_rate": c.get("workspace_reused", 0.0)
            / q
            / shards,
            "quantization.table_cache.hit_rate": c.get(
                "table_cache_hits", 0.0
            )
            / q
            / shards,
        }
        if "page_reads" in c:
            out["index.disk.page_reads_per_query"] = c["page_reads"] / q
            out["index.disk.io_rounds_per_query"] = c["io_rounds"] / q
            # Modelled by repro.index.ssd, never added to any wall time.
            out["index.disk.modelled_io_us_per_query"] = (
                c["simulated_io_us"] / q
            )
        return out

    @staticmethod
    def engine_layers(profile, call_wall_s: float) -> dict:
        """Kernel stage shares from the ``kernel_profile`` hook: each
        stage as a share of the time attributed to stages, and what the
        stages leave unattributed as a share of the call wall."""
        if profile is None or not profile.calls:
            return {}
        staged = sum(profile.seconds.values())
        out = {
            f"engine.{stage}_share": profile.seconds.get(stage, 0.0) / staged
            for stage in ("gather", "score", "rank", "truncate")
        }
        out["engine.unattributed_share"] = 1.0 - staged / call_wall_s
        out["engine.kernel_ms_per_call"] = staged / profile.calls * 1e3
        out["engine.rounds_per_call"] = profile.rounds / profile.calls
        return out

    @staticmethod
    def loadgen_layers(measured: Measured) -> dict:
        latencies = np.concatenate(
            [s.latencies_ms for s in measured.latency if s.latencies_ms]
        )
        attempted = sum(s.attempted for s in measured.latency)
        failed = sum(s.failed for s in measured.latency)
        missed = int((latencies > SLO_MS).sum()) + failed
        return {
            "loadgen.latency_p99_ms": float(np.percentile(latencies, 99)),
            "loadgen.slo_miss_share": missed / max(attempted, 1),
        }


def _attach_profile(indexes):
    """Turn the existing ``kernel_profile`` hook on; ``None`` when a
    refactor has removed it."""
    try:
        from repro.engine import KernelProfile
    except ImportError:
        return None
    profiles = []
    for index in indexes:
        if not hasattr(index, "kernel_profile"):
            return None
        index.kernel_profile = KernelProfile()
        profiles.append(index.kernel_profile)
    return profiles


def _detach_profile(indexes, profiles):
    merged = None
    if profiles is not None:
        merged = profiles[0]
        for index, profile in zip(indexes, profiles):
            index.kernel_profile = None
            if profile is not merged:
                merged.merge(profile)
    return merged


# ----------------------------------------------------------------------
# offline_batch and hybrid_disk: one static index, closed loop
# ----------------------------------------------------------------------


class StaticIndexWorkload(Workload):
    """One thread, closed loop of BATCH-query calls walking a query
    pool larger than the 256-row table cache, so the cache is bypassed
    by construction."""

    scenario = ""
    graph_spec: GraphSpec

    def quantizer_spec(self) -> QuantizerSpec:
        return self.pq_spec()

    def setup(self) -> None:
        s, clock = self.sizes, self.clock
        with clock.stage("datasets.load"):
            self.x, self.queries, _ = seeded_dataset(
                self.seed, s["n_base"], s["pool"]
            )
        qspec = self.quantizer_spec()
        with clock.stage("graphs.build"):
            self.graph = build_graph_from_spec(self.graph_spec, self.x)
        fit_stage = (
            "core.rpq_fit" if qspec.kind == "rpq" else "quantization.fit"
        )
        with clock.stage(fit_stage):
            quantizer = build_quantizer_from_spec(
                qspec, self.x, x=self.x, graph=self.graph
            )
        self.spec = IndexSpec(
            graph=self.graph_spec,
            quantizer=qspec,
            scenario=ScenarioSpec(kind=self.scenario),
        )
        with clock.stage("api.build"):
            built = build(
                self.spec, data=self.x, graph=self.graph, quantizer=quantizer
            )
        self.persist_and_load(built)
        self.first_query(self.queries)
        with clock.stage("reference"):
            # The unloaded direct-search reference every measured
            # answer must equal bitwise.
            self.refs = [
                self.index.search(_request(self.queries[off : off + BATCH]))
                for off in range(0, s["pool"], BATCH)
            ]
        self.truth = brute_force_topk(self.x, self.queries)

    def corrupt_reference(self) -> None:
        self.refs[0].ids[0, 0] += 1

    def measure(self, seconds: float, tracer: Tracer) -> Measured:
        measured = Measured([], [])
        pool = self.sizes["pool"]
        index = self.index
        profiles = _attach_profile([index]) if tracer.enabled else None

        def step(segment: Segment) -> None:
            off = (self.calls * BATCH) % pool
            self.calls += 1
            with tracer.span("call", self.calls):
                start = time.perf_counter()
                with tracer.span("api.SearchRequest", self.calls):
                    request = _request(self.queries[off : off + BATCH])
                with tracer.span("index.search", self.calls):
                    response = index.search(request)
                elapsed = time.perf_counter() - start
            segment.busy_s += elapsed
            segment.vectors += BATCH
            segment.latencies_ms.append(elapsed * 1e3)
            # Untimed: the checker and the counters.
            segment.attempted += 1
            if not same_answer(response, self.refs[off // BATCH]):
                segment.failed += 1
            segment.recall_hits += recall_hits(
                response.ids, self.truth[off : off + BATCH]
            )
            segment.recall_total += BATCH * K
            self.count(measured, response)

        segments = segment_loop(step, seconds)
        measured.throughput = measured.latency = segments
        measured.profile = _detach_profile([index], profiles)
        measured.search_wall_s = sum(s.busy_s for s in segments)
        measured.phases["closed_loop"] = _phase_counts(segments)
        return measured

    def layers(self, base: Measured, traced: Measured, tracer: Tracer) -> dict:
        out = self.common_layers(self.index.quantizer, base, traced)
        out["graphs.mean_degree"] = _mean_degree([self.graph])
        out["index.search_b32_ms"] = float(
            np.median(np.concatenate([s.latencies_ms for s in base.latency]))
        )
        self.search_layers(out, traced)
        return out


class OfflineBatch(StaticIndexWorkload):
    name = "offline_batch"
    scenario = "memory"
    graph_spec = GraphSpec(kind="nsg")

    def quantizer_spec(self) -> QuantizerSpec:
        return QuantizerSpec(
            kind="rpq",
            num_chunks=self.chunks,
            num_codewords=self.codewords,
            params={"epochs": self.sizes["rpq_epochs"]},
        )

    def layers(self, base: Measured, traced: Measured, tracer: Tracer) -> dict:
        out = super().layers(base, traced, tracer)
        # The paper's claim as a number: RPQ minus plain PQ recall@10,
        # same budget, same graph, same queries.
        with self.clock.stage("quantization.fit"):
            pq = build_quantizer_from_spec(self.pq_spec(), self.x)
        out["quantization.fit_s"] = self.clock.seconds["quantization.fit"]
        twin = build(
            IndexSpec(
                graph=self.graph_spec,
                quantizer=self.pq_spec(),
                scenario=ScenarioSpec(kind="memory"),
            ),
            data=self.x,
            graph=self.graph,
            quantizer=pq,
        )

        def recall(answer_of) -> float:
            hits = sum(
                recall_hits(
                    answer_of(i).ids,
                    self.truth[i * BATCH : (i + 1) * BATCH],
                )
                for i in range(len(self.refs))
            )
            return hits / (len(self.refs) * BATCH * K)

        out["core.recall_gain_vs_pq"] = recall(
            lambda i: self.refs[i]
        ) - recall(
            lambda i: twin.search(
                _request(self.queries[i * BATCH : (i + 1) * BATCH])
            )
        )
        return out


class HybridDisk(StaticIndexWorkload):
    name = "hybrid_disk"
    scenario = "hybrid"
    graph_spec = GraphSpec(kind="vamana", params={"r": 16, "search_l": 32})


def _phase_counts(segments: List[Segment]) -> dict:
    attempted = sum(s.attempted for s in segments)
    failed = sum(s.failed for s in segments)
    return {
        "attempted": attempted,
        "succeeded": attempted - failed,
        "failed": failed,
    }


# ----------------------------------------------------------------------
# streaming_churn: writes beside reads
# ----------------------------------------------------------------------


class StreamingChurn(Workload):
    """Cycles of ``insert_batch`` -> ``delete`` (oldest) -> searches,
    ``consolidate`` every few cycles.  The latency operation is one
    BATCH-query search call; throughput counts every vector inserted,
    deleted or searched for."""

    name = "streaming_churn"

    def setup(self) -> None:
        s, clock = self.sizes, self.clock
        n = s["n_base"]
        with clock.stage("datasets.load"):
            self.x, self.queries, self.insert_pool = seeded_dataset(
                self.seed, n, s["pool"], s["insert_pool"]
            )
        with clock.stage("quantization.fit"):
            quantizer = build_quantizer_from_spec(self.pq_spec(), self.x)
        spec = IndexSpec(
            quantizer=self.pq_spec(),
            scenario=ScenarioSpec(kind="streaming"),
        )
        with clock.stage("api.build"):
            built = build(spec, data=self.x, quantizer=quantizer)
        self.persist_and_load(built)
        self.first_query(self.queries)
        # The runner's mirror of what is live.  Vertex ids are handed
        # out in insertion order and the oldest is deleted first, so
        # the live ids are always the range [oldest, next_id).
        self.vectors = np.concatenate([self.x, self.insert_pool])
        self.oldest, self.next_id = 0, n
        self.cycles = 0
        self.corrupt = False

    def rows_of(self, vertices: np.ndarray) -> np.ndarray:
        """Row of ``self.vectors`` each vertex id was inserted from."""
        n = self.sizes["n_base"]
        return np.where(
            vertices < n, vertices, n + (vertices - n) % len(self.insert_pool)
        )

    def corrupt_reference(self) -> None:
        self.corrupt = True

    def check(self, segment: Segment, response, off: int) -> None:
        """Oracles that hold on a changing index: no dead or unknown
        id, one batched row bitwise equal to a B=1 search of the same
        state, recall against brute force over the live vectors."""
        index = self.index
        # The re-searches below are the checker's, not the workload's:
        # keep them out of the kernel profile.
        profile = getattr(index, "kernel_profile", None)
        if profile is not None:
            index.kernel_profile = None
        live = np.arange(self.oldest, self.next_id)
        truth = live[
            brute_force_topk(
                self.vectors[self.rows_of(live)],
                self.queries[off : off + BATCH],
            )
        ]
        segment.attempted += 1
        valid = np.arange(K)[None, :] < response.counts[:, None]
        ok = bool(np.isin(response.ids[valid], live).all())
        row = self.calls % BATCH
        single = index.search(_request(self.queries[off + row]))
        if self.corrupt:
            single.ids[0, 0] += 1
        ok = ok and (
            np.array_equal(single.ids[0], response.ids[row])
            and np.array_equal(single.distances[0], response.distances[row])
        )
        if profile is not None:
            index.kernel_profile = profile
        if not ok:
            segment.failed += 1
        segment.recall_hits += recall_hits(response.ids, truth)
        segment.recall_total += BATCH * K

    def measure(self, seconds: float, tracer: Tracer) -> Measured:
        s = self.sizes
        measured = Measured([], [])
        ops = measured.ops = {
            "insert_s": 0.0, "inserted": 0, "delete_s": 0.0, "deleted": 0,
            "consolidate_s": [], "after_write_ms": [], "steady_ms": [],
        }
        index = self.index
        pool = s["pool"]
        width = s["insert_batch"]
        profiles = _attach_profile([index]) if tracer.enabled else None

        def timed(segment, name, fn):
            start = time.perf_counter()
            with tracer.span(name, self.cycles):
                result = fn()
            elapsed = time.perf_counter() - start
            segment.busy_s += elapsed
            return result, elapsed

        def step(segment: Segment) -> None:
            self.cycles += 1
            with tracer.span("cycle", self.cycles):
                expected = np.arange(self.next_id, self.next_id + width)
                new_ids, elapsed = timed(
                    segment,
                    "index.insert_batch",
                    lambda: index.insert_batch(
                        self.vectors[self.rows_of(expected)]
                    ),
                )
                if list(new_ids) != expected.tolist():
                    raise RuntimeError(
                        f"insert_batch assigned ids {new_ids}, "
                        f"expected {expected.tolist()}"
                    )
                self.next_id += width
                ops["insert_s"] += elapsed
                ops["inserted"] += width
                for victim in range(self.oldest, self.oldest + width):
                    _, elapsed = timed(
                        segment, "index.delete", lambda: index.delete(victim)
                    )
                    ops["delete_s"] += elapsed
                    ops["deleted"] += 1
                self.oldest += width
                segment.vectors += 2 * width
                for j in range(s["searches_per_cycle"]):
                    off = (self.calls * BATCH) % pool
                    self.calls += 1
                    response, elapsed = timed(
                        segment,
                        "index.search",
                        lambda: index.search(
                            _request(self.queries[off : off + BATCH])
                        ),
                    )
                    measured.search_wall_s += elapsed
                    segment.vectors += BATCH
                    segment.latencies_ms.append(elapsed * 1e3)
                    key = "after_write_ms" if j == 0 else "steady_ms"
                    ops[key].append(elapsed * 1e3)
                    self.check(segment, response, off)
                    self.count(measured, response)
                if self.cycles % s["consolidate_every"] == 0:
                    _, elapsed = timed(
                        segment, "index.consolidate", index.consolidate
                    )
                    ops["consolidate_s"].append(elapsed)

        segments = segment_loop(step, seconds)
        measured.throughput = measured.latency = segments
        measured.profile = _detach_profile([index], profiles)
        measured.phases["churn"] = _phase_counts(segments)
        return measured

    def layers(self, base: Measured, traced: Measured, tracer: Tracer) -> dict:
        out = self.common_layers(self.index.quantizer, base, traced)
        # The streaming scenario builds its graph by inserting the rows.
        out["index.streaming.insert_vectors_per_s"] = (
            self.sizes["n_base"] / self.clock.seconds["api.build"]
        )
        ops = base.ops
        out["index.streaming.delete_us"] = (
            ops["delete_s"] / max(ops["deleted"], 1) * 1e6
        )
        if ops["consolidate_s"]:
            out["index.streaming.consolidate_ms"] = (
                float(np.median(ops["consolidate_s"])) * 1e3
            )
        out["index.streaming.search_after_write_ms"] = float(
            np.median(ops["after_write_ms"])
        )
        out["index.streaming.search_steady_ms"] = float(
            np.median(ops["steady_ms"])
        )
        out["index.search_b32_ms"] = out["index.streaming.search_steady_ms"]
        self.search_layers(out, traced)
        return out


# ----------------------------------------------------------------------
# online_gateway: the deployed shape
# ----------------------------------------------------------------------


class OnlineGateway(Workload):
    """2-shard memory index saved as v2 mmap, two ``serve-shard``
    workers, one ``experiment serve --listen`` gateway, one pipelined
    ``NetClient``.  Phase A: open-loop Poisson at a fixed rate (latency
    from the scheduled arrival).  Phase B: closed loop with a fixed
    number of requests in flight (throughput)."""

    name = "online_gateway"
    shards = 2

    def __init__(self, sizes, seed, workdir, tracer) -> None:
        super().__init__(sizes, seed, workdir, tracer)
        self.fleet = Fleet(workdir)
        self.client = None
        self.rng = np.random.default_rng(seed)

    def setup(self) -> None:
        from repro.serving import partition_rows
        from repro.serving.net import NetClient

        s, clock = self.sizes, self.clock
        with clock.stage("datasets.load"):
            self.x, self.queries, _ = seeded_dataset(
                self.seed, s["n_base"], s["pool"]
            )
        gspec = GraphSpec(kind="nsg")
        parts = partition_rows(s["n_base"], self.shards, "contiguous")
        with clock.stage("graphs.build"):
            self.graphs = [
                build_graph_from_spec(gspec, self.x[p]) for p in parts
            ]
        with clock.stage("quantization.fit"):
            quantizer = build_quantizer_from_spec(self.pq_spec(), self.x)
        spec = IndexSpec(
            graph=gspec,
            quantizer=self.pq_spec(),
            scenario=ScenarioSpec(kind="memory"),
            sharding=ShardingSpec(num_shards=self.shards),
        )
        with clock.stage("api.build"):
            built = build(
                spec,
                data=self.x,
                quantizer=quantizer,
                shard_parts=parts,
                shard_graphs=self.graphs,
            )
        try:
            # self.index is the runner's own in-process copy: the
            # unloaded reference and the bottom rungs of the ladder.
            self.persist_and_load(built)
        finally:
            built.close()

        with clock.stage("serving.net.worker_spawn"):
            ready = []
            for shard in range(self.shards):
                path = os.path.join(self.workdir, f"ready_{shard}")
                if os.path.exists(path):
                    os.remove(path)
                self.fleet.spawn(
                    f"shard{shard}",
                    [
                        "serve-shard",
                        "--dir",
                        os.path.join(self.index_dir, f"shard_{shard:03d}"),
                        "--ready-file",
                        path,
                    ],
                )
                ready.append(path)
            self.endpoints = [
                self.fleet.await_address(f"shard{i}", path, "listening on")
                for i, path in enumerate(ready)
            ]
        with clock.stage("serving.net.gateway_spawn"):
            log = self.fleet.spawn(
                "gateway",
                [
                    "experiment",
                    "serve",
                    "--listen",
                    "127.0.0.1:0",
                    "--dir",
                    self.index_dir,
                    "--endpoints",
                    ",".join(self.endpoints),
                ],
            )
            address = self.fleet.await_address(
                "gateway", log, "gateway listening on"
            )
            self.client = NetClient(address)
        with clock.stage("api.first_query"):
            self.client.search(
                _request(self.queries[0]), timeout=PHASE_TIMEOUT_S
            )
        for i in range(1, 2 * BATCH):  # warm every process's caches
            self.client.search(
                _request(self.queries[i]), timeout=PHASE_TIMEOUT_S
            )
        with clock.stage("reference"):
            refs = [
                self.index.search(_request(self.queries[off : off + BATCH]))
                for off in range(0, s["pool"], BATCH)
            ]
            self.ref_ids = np.concatenate([r.ids for r in refs])
            self.ref_distances = np.concatenate([r.distances for r in refs])
            self.ref_counts = np.concatenate([r.counts for r in refs])
        self.truth = brute_force_topk(self.x, self.queries)
        self.hot = self.rng.permutation(s["pool"])[: s["hot"]]

    def corrupt_reference(self) -> None:
        self.ref_ids[self.hot[0], 0] += 1

    def peak_rss_mb(self) -> float:
        return self.fleet.peak_rss_mb()

    def teardown(self) -> List[str]:
        if self.client is not None:
            self.client.close()
            self.client = None
        problems = self.fleet.terminate()
        super().teardown()
        return problems

    # -- load generation -------------------------------------------------
    def draw(self, count: int) -> np.ndarray:
        """Half the requests from the hot set, half uniform from the
        pool, so the table cache sees realistic reuse."""
        pool = self.sizes["pool"]
        uniform = self.rng.integers(pool, size=count)
        hot = self.hot[self.rng.integers(len(self.hot), size=count)]
        return np.where(self.rng.random(count) < 0.5, hot, uniform)

    def settle(self, measured: Measured, picks, futures) -> list:
        """Resolve a phase's futures against one deadline and check
        every answer against the unloaded reference.  Per request:
        ``(response, correct)``; a timeout or an error is ``(None,
        False)`` — a failed operation, never a hang."""
        deadline = time.monotonic() + PHASE_TIMEOUT_S
        settled = []
        for pick, future in zip(picks, futures):
            try:
                response = future.result(
                    timeout=max(deadline - time.monotonic(), 0.0)
                )
            except Exception:  # timeout, closed connection, remote error
                settled.append((None, False))
                continue
            correct = (
                np.array_equal(response.ids[0], self.ref_ids[pick])
                and np.array_equal(
                    response.distances[0], self.ref_distances[pick]
                )
                and response.counts[0] == self.ref_counts[pick]
            )
            self.count(measured, response)
            settled.append((response, bool(correct)))
        return settled

    def account(self, segment: Segment, pick, response, correct) -> None:
        segment.attempted += 1
        if not correct:
            segment.failed += 1
        if response is not None:
            segment.recall_hits += recall_hits(
                response.ids, self.truth[pick : pick + 1]
            )
            segment.recall_total += K

    def open_loop(
        self, rate: float, seconds: float, tracer: Tracer, measured: Measured
    ):
        """Poisson arrivals at ``rate`` for ``seconds``, each request
        timed from when it was *due*.  Returns the segments (by
        scheduled arrival), generator stats and the answers' counters."""
        count = max(int(rate * seconds), SEGMENTS)
        due = np.cumsum(self.rng.exponential(1.0 / rate, size=count))
        due *= seconds / due[-1]  # exactly `seconds` of schedule
        picks = self.draw(count)
        done = [None] * count
        sent = np.zeros(count)
        futures = []
        start = time.perf_counter()
        for i in range(count):
            wait = start + due[i] - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            request = _request(self.queries[picks[i]])
            sent[i] = time.perf_counter()
            with tracer.span("netclient.submit_request", i):
                future = self.client.submit_request(request)
            future.add_done_callback(
                lambda _f, i=i: done.__setitem__(i, time.perf_counter())
            )
            futures.append(future)
        window_end = time.perf_counter()
        backlog = sum(1 for stamp in done if stamp is None)
        settled = self.settle(measured, picks, futures)

        segments = [Segment(busy_s=seconds / SEGMENTS) for _ in range(SEGMENTS)]
        bounds = np.linspace(0.0, seconds, SEGMENTS + 1)[1:-1]
        which = np.searchsorted(bounds, due, side="right")
        stamps = []
        for i, (response, correct) in enumerate(settled):
            segment = segments[which[i]]
            self.account(segment, picks[i], response, correct)
            if response is None:
                continue
            segment.vectors += 1
            segment.latencies_ms.append((done[i] - start - due[i]) * 1e3)
            stamps.append(response.counters)
            if tracer.enabled:
                tracer.record(
                    "client.request", start + due[i], done[i], request=i
                )
        in_window = sum(
            1 for stamp in done if stamp is not None and stamp <= window_end
        )
        stats = {
            "loadgen.max_submit_lag_ms": float((sent - start - due).max())
            * 1e3,
            "loadgen.achieved_over_offered": in_window / count,
            "loadgen.backlog_at_end": float(backlog),
        }
        return segments, stats, stamps

    def closed_loop(
        self, seconds: float, tracer: Tracer, measured: Measured
    ) -> List[Segment]:
        """``inflight`` requests outstanding on the one connection;
        each segment counts the answers that completed inside it."""
        slots = threading.Semaphore(self.sizes["inflight"])
        picks, futures, done = [], [], []
        start = time.perf_counter()
        end = start + seconds
        while slots.acquire(timeout=PHASE_TIMEOUT_S):
            if time.perf_counter() >= end:
                break
            if len(picks) % 1024 == 0:
                batch = self.draw(1024)
            pick = batch[len(picks) % 1024]
            stamp = [None]

            def finished(_f, stamp=stamp):
                stamp[0] = time.perf_counter()
                slots.release()

            with tracer.span("netclient.submit_request", len(picks)):
                future = self.client.submit_request(
                    _request(self.queries[pick])
                )
            future.add_done_callback(finished)
            picks.append(pick)
            futures.append(future)
            done.append(stamp)
        settled = self.settle(measured, picks, futures)

        # The first stretch fills the pipeline: checked, not counted.
        ramp = seconds / (SEGMENTS + 1)
        length = (seconds - ramp) / SEGMENTS
        segments = [Segment(busy_s=length) for _ in range(SEGMENTS)]
        for pick, (response, correct), (stamp,) in zip(picks, settled, done):
            inside = stamp is not None and start + ramp <= stamp <= end
            which = (
                min(int((stamp - start - ramp) / length), SEGMENTS - 1)
                if inside
                else SEGMENTS - 1
            )
            self.account(segments[which], pick, response, correct)
            if inside and response is not None:
                segments[which].vectors += 1
        return segments

    def measure(self, seconds: float, tracer: Tracer) -> Measured:
        measured = Measured([], [])
        measured.latency, stats, stamps = self.open_loop(
            self.sizes["rate_qps"], seconds / 2, tracer, measured
        )
        measured.throughput = self.closed_loop(seconds / 2, tracer, measured)
        measured.loadgen = stats
        measured.stamps = stamps
        measured.phases["open_loop"] = _phase_counts(measured.latency)
        measured.phases["closed_loop"] = _phase_counts(measured.throughput)
        return measured

    # -- per-layer -------------------------------------------------------
    @staticmethod
    def batcher_layers(stamps) -> dict:
        """Queue wait, service time and batch size from the
        ``batcher_*`` row stamps the gateway's answers carry."""
        keys = ("batcher_enqueue_s", "batcher_dequeue_s", "batcher_complete_s")
        rows = [c for c in stamps if all(k in c for k in keys)]
        if not rows:
            return {}
        enq, deq, fin = (
            np.array([float(c[k][0]) for c in rows]) for k in keys
        )
        return {
            "serving.batcher.queue_wait_ms": float((deq - enq).mean()) * 1e3,
            "serving.batcher.service_ms": float((fin - deq).mean()) * 1e3,
            # Rows of one micro-batch share their dequeue stamp.
            "serving.batcher.mean_batch_size": len(rows)
            / len(np.unique(deq)),
        }

    def ladder(self, tracer: Tracer) -> dict:
        """The same requests through progressively deeper stacks in
        the runner's own process; a layer's cost is the difference
        between adjacent rungs."""
        from repro.serving import DynamicBatcher
        from repro.serving.net import ShardClient, framing

        index = self.index
        requests = [_request(self.queries[i]) for i in self.hot]
        out = {}

        def rung(name, fn):
            def traced(item):
                with tracer.span(name, item[0]):
                    fn(item[1])

            return _median_ms(traced, list(enumerate(requests)))

        # Rung 1: each shard alone, kernel profile on.
        shards = list(index.shards)
        profiles = _attach_profile(shards)
        per_shard = np.zeros((len(shards), len(requests)))
        for s, shard in enumerate(shards):
            for i, request in enumerate(requests):
                start = time.perf_counter()
                with tracer.span(f"ladder.shard{s}.search", i):
                    shard.search(request)
                per_shard[s, i] = time.perf_counter() - start
        out.update(
            self.engine_layers(
                _detach_profile(shards, profiles), float(per_shard.sum())
            )
        )
        slowest = float(np.median(per_shard.max(axis=0))) * 1e3
        out["serving.sharded.slowest_shard_ms"] = slowest
        # Rung 2: the thread fan-out and merge over both.
        fanout = rung("ladder.sharded.search", index.search)
        out["serving.sharded.fanout_ms"] = fanout
        out["serving.sharded.merge_overhead_ms"] = fanout - slowest
        out["index.search_b1_ms"] = fanout
        # Rung 3: an idle batcher with the gateway's settings in front.
        with DynamicBatcher(
            index, k=K, beam_width=BEAM, max_batch_size=64, max_wait_ms=2.0
        ) as batcher:
            rung("ladder.batcher.search", batcher.search)
        # Rung 4: one shard over its socket, against the same shard
        # in-process.
        with ShardClient(self.endpoints[0]) as shard_client:
            rtt = rung(
                "ladder.shard_client.search",
                lambda r: shard_client.search(r.query_matrix, K, BEAM, {}),
            )
        out["serving.net.shard_rtt_ms"] = rtt
        out["serving.net.shard_wire_overhead_ms"] = rtt - float(
            np.median(per_shard[0]) * 1e3
        )
        # Rung 5: the codec alone, on the actual messages.
        responses = [index.search(r) for r in requests]
        encode, decode, req_bytes, resp_bytes = [], [], [], []
        for i, (request, response) in enumerate(zip(requests, responses)):
            with tracer.span("ladder.framing", i):
                t0 = time.perf_counter()
                req_blob = framing.encode_search_request(request, i)
                resp_blob = framing.encode_search_response(response, i)
                t1 = time.perf_counter()
                framing.decode_search_request(framing.decode_message(req_blob))
                framing.decode_search_response(
                    framing.decode_message(resp_blob)
                )
                t2 = time.perf_counter()
            encode.append((t1 - t0) / 2)
            decode.append((t2 - t1) / 2)
            req_bytes.append(len(req_blob))
            resp_bytes.append(len(resp_blob))
        out["serving.net.framing.encode_us_per_msg"] = (
            float(np.median(encode)) * 1e6
        )
        out["serving.net.framing.decode_us_per_msg"] = (
            float(np.median(decode)) * 1e6
        )
        out["serving.net.framing.bytes_per_request"] = float(
            np.mean(req_bytes)
        )
        out["serving.net.framing.bytes_per_response"] = float(
            np.mean(resp_bytes)
        )
        # Rung 6: the whole deployed path, idle.
        idle = rung(
            "ladder.netclient.search",
            lambda r: self.client.search(r, timeout=PHASE_TIMEOUT_S),
        )
        out["serving.net.gateway_rtt_idle_ms"] = idle
        # What the gateway tier adds to one socket shard call: client
        # framing, admission, the batcher's wait, fan-out and merge.
        out["serving.net.gateway_overhead_ms"] = idle - rtt
        return out

    def sustained_rate(self, tracer: Tracer) -> float:
        """Highest rung of the fixed rate ladder with p90 within the
        latency limit and no backlog left standing."""
        best = 0.0
        scratch = Measured([], [])
        for rate in self.sizes["ladder_qps"]:
            segments, stats, _ = self.open_loop(
                rate, self.sizes["rung_s"], tracer, scratch
            )
            latencies = np.concatenate(
                [s.latencies_ms for s in segments if s.latencies_ms] or [[]]
            )
            ok = (
                latencies.size
                and not any(s.failed for s in segments)
                and float(np.percentile(latencies, 90)) <= SLO_MS
                # Standing backlog worth more than the latency limit
                # means the queue was growing, not draining.
                and stats["loadgen.backlog_at_end"] <= rate * SLO_MS / 1e3
            )
            if not ok:
                break
            best = rate
        return best

    def layers(self, base: Measured, traced: Measured, tracer: Tracer) -> dict:
        s = self.clock.seconds
        out = self.common_layers(
            self.index.shards[0].quantizer, base, base, shards=self.shards
        )
        out["graphs.mean_degree"] = _mean_degree(self.graphs)
        out["serving.net.worker_spawn_s"] = s["serving.net.worker_spawn"]
        out["serving.net.gateway_spawn_s"] = s["serving.net.gateway_spawn"]
        out.update(self.batcher_layers(base.stamps + traced.stamps))
        out["index.search_b32_ms"] = (
            s["reference"] / (self.sizes["pool"] / BATCH) * 1e3
        )
        out.update(self.ladder(tracer))
        out.update(base.loadgen)
        out["loadgen.sustained_rate_qps"] = self.sustained_rate(tracer)
        return out


WORKLOADS = {
    w.name: w
    for w in (OfflineBatch, OnlineGateway, HybridDisk, StreamingChurn)
}
