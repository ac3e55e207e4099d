"""The benchmark's metric and workload tables.

``BENCHMARK.json`` at the repo root names exactly these workloads and
metrics (``run.py --smoke`` asserts the two agree); the manifest's
schema has no room for the layer / prediction tags, so they live here
and in ``README.md``.
"""

from __future__ import annotations

#: name -> why it exists (one line; copied into BENCHMARK.json).
WORKLOADS = {
    "offline_batch": (
        "memory NSG + RPQ, one thread, closed loop of 32-query calls over a "
        "pool larger than the table cache: the lockstep kernel is the wall, "
        "cache bypassed"
    ),
    "online_gateway": (
        "2 socket shard workers + gateway + one pipelined NetClient, "
        "open-loop Poisson then closed loop: wire, admission, batcher, "
        "fan-out and merge are the wall, hot-set reuses the table cache"
    ),
    "hybrid_disk": (
        "DiskANN-style Vamana + PQ, closed loop of 32-query calls: "
        "io_width frontier, SSD expand hook, page accounting and exact "
        "rerank are the wall"
    ),
    "streaming_churn": (
        "insert_batch / delete / search / consolidate cycles on the "
        "streaming index: every write invalidates the packed CSR the reads "
        "gather from"
    ),
}

#: (name, unit, better, bound).  ``bound`` is the share of the parent's
#: median by which the metric may worsen before a change is a
#: regression.  The manifest allows one bound per metric, so each is set
#: by the workload on which the metric is least steady (the gateway, for
#: every timing); README.md has the reference-box spreads behind them.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("throughput_qps", "vectors/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p90_ms", "ms", "lower", 0.25),
    ("recall_at_10", "ratio", "higher", 0.05),
    ("success_share", "ratio", "higher", 0.0001),
    ("index_bytes_per_vector", "B", "lower", 0.01),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

_ALL = tuple(WORKLOADS)
_INPROC = ("offline_batch", "hybrid_disk", "streaming_churn")
_GW = ("online_gateway",)
_OFFLINE = ("offline_batch",)
_HYBRID = ("hybrid_disk",)
_CHURN = ("streaming_churn",)
#: Workloads whose graph is built up front (streaming inserts its own).
_BUILT = ("offline_batch", "online_gateway", "hybrid_disk")

#: (name, unit, better, end-to-end metric it should move, workloads
#: that exercise the layer).  The layer is the name up to its last dot.
#: On a workload outside the last column the traced run fills the value
#: from a toy-size probe of a workload inside it, so every traced run
#: carries the whole ledger.
PER_LAYER = (
    # -- set-up ---------------------------------------------------------
    ("datasets.load_s", "s", "lower", "setup_s", _ALL),
    ("graphs.build_s", "s", "lower", "setup_s", _BUILT),
    ("graphs.mean_degree", "count", "lower", "index_bytes_per_vector", _BUILT),
    ("quantization.fit_s", "s", "lower", "setup_s", _ALL),
    ("quantization.encode_s", "s", "lower", "setup_s", _ALL),
    ("core.rpq_fit_s", "s", "lower", "setup_s", _OFFLINE),
    ("api.build_s", "s", "lower", "setup_s", _ALL),
    ("api.save_index_s", "s", "lower", "setup_s", _ALL),
    ("api.load_index_ms", "ms", "lower", "setup_s", _ALL),
    ("api.first_query_ms", "ms", "lower", "setup_s", _ALL),
    ("serving.net.worker_spawn_s", "s", "lower", "setup_s", _GW),
    ("serving.net.gateway_spawn_s", "s", "lower", "setup_s", _GW),
    # -- the paper's claim ----------------------------------------------
    ("core.recall_gain_vs_pq", "ratio", "higher", "recall_at_10", _OFFLINE),
    # -- kernel ---------------------------------------------------------
    ("engine.gather_share", "ratio", "lower", "throughput_qps", _ALL),
    ("engine.score_share", "ratio", "lower", "throughput_qps", _ALL),
    ("engine.rank_share", "ratio", "lower", "throughput_qps", _ALL),
    ("engine.truncate_share", "ratio", "lower", "throughput_qps", _ALL),
    ("engine.unattributed_share", "ratio", "lower", "throughput_qps", _ALL),
    ("engine.kernel_ms_per_call", "ms", "lower", "throughput_qps", _ALL),
    ("engine.rounds_per_call", "count", "lower", "throughput_qps", _ALL),
    ("engine.hops_per_query", "count", "lower", "throughput_qps", _ALL),
    ("engine.dist_comps_per_query", "count", "lower", "throughput_qps", _ALL),
    ("engine.workspace_reuse_rate", "ratio", "higher", "throughput_qps", _ALL),
    # -- ADC tables -----------------------------------------------------
    ("quantization.table_build_us_per_query_b32", "us", "lower", "throughput_qps", _ALL),
    ("quantization.table_build_us_per_query_b1", "us", "lower", "latency_p50_ms", _ALL),
    ("quantization.table_cache.hit_rate", "ratio", "higher", "latency_p50_ms", _ALL),
    # -- scenario policy ------------------------------------------------
    ("index.search_b32_ms", "ms", "lower", "throughput_qps", _ALL),
    ("index.search_b1_ms", "ms", "lower", "latency_p50_ms", _ALL),
    ("index.policy_self_ms_per_call", "ms", "lower", "throughput_qps", _INPROC),
    ("index.disk.page_reads_per_query", "count", "lower", "throughput_qps", _HYBRID),
    ("index.disk.io_rounds_per_query", "count", "lower", "throughput_qps", _HYBRID),
    ("index.disk.modelled_io_us_per_query", "modelled_us", "lower", "throughput_qps", _HYBRID),
    ("index.streaming.insert_vectors_per_s", "1/s", "higher", "throughput_qps", _CHURN),
    ("index.streaming.delete_us", "us", "lower", "throughput_qps", _CHURN),
    ("index.streaming.consolidate_ms", "ms", "lower", "throughput_qps", _CHURN),
    ("index.streaming.search_after_write_ms", "ms", "lower", "latency_p50_ms", _CHURN),
    ("index.streaming.search_steady_ms", "ms", "lower", "latency_p50_ms", _CHURN),
    # -- serving --------------------------------------------------------
    ("serving.batcher.queue_wait_ms", "ms", "lower", "latency_p50_ms", _GW),
    ("serving.batcher.service_ms", "ms", "lower", "latency_p50_ms", _GW),
    ("serving.batcher.mean_batch_size", "count", "higher", "throughput_qps", _GW),
    ("serving.sharded.fanout_ms", "ms", "lower", "latency_p50_ms", _GW),
    ("serving.sharded.slowest_shard_ms", "ms", "lower", "latency_p90_ms", _GW),
    ("serving.sharded.merge_overhead_ms", "ms", "lower", "latency_p50_ms", _GW),
    # -- the wire tax ---------------------------------------------------
    ("serving.net.framing.encode_us_per_msg", "us", "lower", "throughput_qps", _GW),
    ("serving.net.framing.decode_us_per_msg", "us", "lower", "throughput_qps", _GW),
    ("serving.net.framing.bytes_per_request", "B", "lower", "throughput_qps", _GW),
    ("serving.net.framing.bytes_per_response", "B", "lower", "throughput_qps", _GW),
    ("serving.net.shard_rtt_ms", "ms", "lower", "latency_p50_ms", _GW),
    ("serving.net.shard_wire_overhead_ms", "ms", "lower", "latency_p50_ms", _GW),
    ("serving.net.gateway_rtt_idle_ms", "ms", "lower", "latency_p50_ms", _GW),
    ("serving.net.gateway_overhead_ms", "ms", "lower", "latency_p50_ms", _GW),
    # -- storage --------------------------------------------------------
    ("storage.container_bytes", "B", "lower", "index_bytes_per_vector", _ALL),
    ("storage.adjacency_bytes_share", "ratio", "lower", "index_bytes_per_vector", _ALL),
    ("storage.codes_bytes_share", "ratio", "lower", "index_bytes_per_vector", _ALL),
    # -- the load generator itself (reported, never gated) --------------
    ("loadgen.max_submit_lag_ms", "ms", "lower", "latency_p90_ms", _GW),
    ("loadgen.achieved_over_offered", "ratio", "higher", "throughput_qps", _GW),
    ("loadgen.backlog_at_end", "count", "lower", "latency_p90_ms", _GW),
    ("loadgen.latency_p99_ms", "ms", "lower", "latency_p90_ms", _ALL),
    ("loadgen.slo_miss_share", "ratio", "lower", "latency_p90_ms", _ALL),
    ("loadgen.sustained_rate_qps", "1/s", "higher", "throughput_qps", _GW),
    ("trace.overhead_share", "ratio", "lower", "throughput_qps", _ALL),
)


def manifest(command, paths, run_seconds):
    """The ``BENCHMARK.json`` object these tables describe."""
    return {
        "command": list(command),
        "paths": list(paths),
        "run_seconds": int(run_seconds),
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b}
            for n, u, b, _moves, _where in PER_LAYER
        ],
    }
