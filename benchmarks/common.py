"""Shared helpers for the benchmark suite.

Every ``bench_*.py`` regenerates one table or figure of the paper's
evaluation.  Results are printed and archived under
``benchmarks/results/`` so EXPERIMENTS.md can quote them.

Scales are laptop-sized (see DESIGN.md §2): 1k–5k vectors instead of
1M–1B, with QPS meaningful only *relatively* across methods.
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys
import time
from typing import Dict, List

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Version of the committed-baseline envelope (the stamp every
#: ``BENCH_*.json`` carries, not the per-bench payload shape).  Bump it
#: when the envelope itself changes meaning; the CI comparison job
#: fails on a mismatch so schema drift is explicit, never silent.
#: (3: a baseline may carry a ``retired`` block — historical rows the
#: bench emits verbatim and the comparison skips.)
BENCH_SCHEMA_VERSION = 3

#: Committed machine-readable baselines live at the repo root (the
#: human-readable blocks under results/ stay untracked).
BASELINE_DIR = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir)
)

# Shared small-scale defaults.
N_BASE = 1000
N_QUERIES = 20
NUM_CHUNKS = 8
NUM_CODEWORDS = 32
BEAMS = (10, 16, 24, 32, 48)
DATASETS = ("bigann", "deep", "sift", "gist", "ukbench")
BATCH_SIZE = 64


def speedup_gates_enabled() -> bool:
    """Whether the timing-based speedup assertions should run.

    Identity and recall assertions always run; the wall-clock speedup
    gates are skipped when ``REPRO_SKIP_SPEEDUP_GATES`` is set (the
    nightly CI lane — shared runners make timing gates flaky).
    """
    return not os.environ.get("REPRO_SKIP_SPEEDUP_GATES")


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity/cgroup aware);
    falls back to the host count where affinity is unsupported."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def process_speedup_gate_enabled() -> bool:
    """Whether the thread-vs-process fan-out gate should run.

    On top of the usual :func:`speedup_gates_enabled` switch the gate
    needs real CPU parallelism: with only one *usable* CPU (single-core
    host, `taskset`, cgroup quota) the per-shard worker processes
    cannot overlap, so the >= 1.5x bar is physically unreachable and
    the gate skips (the bitwise identity assertion always runs).
    """
    return speedup_gates_enabled() and usable_cpus() >= 2


def host_fingerprint() -> dict:
    """Where this baseline was measured: the fields that make wall-clock
    numbers non-comparable across machines.

    The CI baseline-comparison job keys off this block — when the
    fingerprint differs from the committed baseline's, timing diffs are
    *reported*, not failed (identity/schema fields are compared either
    way).
    """
    return {
        "usable_cpus": usable_cpus(),
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "machine": platform.machine(),
        "system": platform.system(),
    }


def save_json_baseline(name: str, payload: dict) -> str:
    """Write a committed ``BENCH_<name>.json`` baseline at the repo root.

    Unlike the human-readable blocks under ``results/`` (untracked),
    these are machine-readable snapshots meant to be committed so the
    bench trajectory is visible in history.  Every baseline is stamped
    with ``schema_version`` and the measuring host's fingerprint so the
    CI comparison job (``benchmarks/compare_baselines.py``) can fail on
    schema/identity drift while treating cross-host timing diffs as
    report-only.
    """
    payload = dict(payload)
    payload["schema_version"] = BENCH_SCHEMA_VERSION
    payload["host"] = host_fingerprint()
    path = os.path.join(BASELINE_DIR, f"BENCH_{name}.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"[baseline saved to {path}]")
    return path


def save_report(name: str, text: str) -> None:
    """Print a result block and archive it under results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as fh:
        fh.write(text + "\n")
    print(f"\n{text}\n[saved to {path}]")


def fmt(value: float, digits: int = 1) -> str:
    """Format a float, rendering NaN/None as '-'."""
    if value is None:
        return "-"
    if isinstance(value, float) and math.isnan(value):
        return "-"
    return f"{value:.{digits}f}"


def batch_speedup_guard(
    index,
    queries,
    k: int = 10,
    beam_width: int = 32,
    batch_size: int = BATCH_SIZE,
) -> float:
    """Micro-benchmark guard: print single-vs-batch QPS, return speedup.

    Any benchmark can call this on its index to keep the batched
    engine's advantage visible (and catch regressions where the batch
    path silently degrades to per-query speed).
    """
    from repro.eval.sweep import run_queries_batched

    n = len(queries)
    start = time.perf_counter()
    run_queries_batched(index, queries, k, beam_width, 1)
    single_s = time.perf_counter() - start
    run_queries_batched(index, queries, k, beam_width, batch_size)  # warm
    start = time.perf_counter()
    run_queries_batched(index, queries, k, beam_width, batch_size)
    batch_s = time.perf_counter() - start
    single_qps = n / max(single_s, 1e-12)
    batch_qps = n / max(batch_s, 1e-12)
    speedup = batch_qps / max(single_qps, 1e-12)
    print(
        f"[batch guard] single {single_qps:.1f} QPS vs "
        f"batch({batch_size}) {batch_qps:.1f} QPS -> {speedup:.2f}x"
    )
    return speedup


def build_speedup_guard(
    builder,
    x,
    batch_size: int = 32,
) -> float:
    """Micro-benchmark guard: print sequential-vs-lockstep build time,
    return the speedup (mirrors :func:`batch_speedup_guard` for the
    construction path).

    ``builder(x, build_batch_size)`` must construct a graph.  Asserts
    the two builds are byte-identical — including HNSW upper layers —
    since the speculative lockstep driver must never change the
    produced graph, and keeps the construction speedup visible so
    regressions where the batched build silently degrades to
    sequential speed are caught.
    """
    from repro.eval.harness import graphs_identical

    start = time.perf_counter()
    reference = builder(x, 1)
    seq_s = time.perf_counter() - start
    start = time.perf_counter()
    batched = builder(x, batch_size)
    batch_s = time.perf_counter() - start
    assert graphs_identical(
        reference, batched
    ), "lockstep build diverged from the sequential graph"
    speedup = seq_s / max(batch_s, 1e-12)
    print(
        f"[build guard] sequential {seq_s:.2f}s vs "
        f"lockstep({batch_size}) {batch_s:.2f}s -> {speedup:.2f}x"
    )
    return speedup


def serving_speedup_guard(
    index,
    queries,
    k: int = 10,
    beam_width: int = 32,
    batch_size: int = 32,
    max_wait_ms: float = 2.0,
) -> float:
    """Micro-benchmark guard: dynamic-batched vs per-query serving QPS.

    Serves the same open-loop request stream twice through the dynamic
    batcher — once with ``max_batch_size=1`` (per-query serving: every
    request is its own ``index.search`` call) and once with
    ``max_batch_size=batch_size`` — and returns the QPS ratio.  Keeps
    the serving layer's advantage visible the way
    :func:`batch_speedup_guard` does for the raw batch engine.
    """
    from repro.eval.harness import measure_serving

    per_query = measure_serving(
        index, queries, k=k, beam_width=beam_width,
        max_batch_size=1, max_wait_ms=0.0,
    )
    batched = measure_serving(
        index, queries, k=k, beam_width=beam_width,
        max_batch_size=batch_size, max_wait_ms=max_wait_ms,
    )
    speedup = batched.qps / max(per_query.qps, 1e-12)
    print(
        f"[serving guard] per-query {per_query.qps:.1f} QPS vs "
        f"batched({batch_size}, {max_wait_ms}ms) {batched.qps:.1f} QPS "
        f"-> {speedup:.2f}x (p99 {per_query.p99_ms:.1f}ms -> "
        f"{batched.p99_ms:.1f}ms)"
    )
    return speedup


def curve_rows(curves: Dict[str, list]) -> List[list]:
    """Flatten method->points curves into printable rows."""
    rows = []
    for method, points in curves.items():
        for p in points:
            rows.append(
                [
                    method,
                    p.beam_width,
                    fmt(p.recall, 3),
                    fmt(p.qps, 1),
                    fmt(p.mean_hops, 1),
                    fmt(p.mean_io_us / 1000.0, 2),
                ]
            )
    return rows
