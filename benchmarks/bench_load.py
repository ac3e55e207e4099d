"""Open-loop load harness — tail latency under offered load, honestly.

Every other serving benchmark in this suite drives a closed(ish) loop:
requests are submitted as fast as the queue accepts, so a stalled
server conveniently slows its own clients down and the recorded tail
is a lie (coordinated omission).  This benchmark offers requests on a
fixed Poisson schedule that never consults completions, measures each
request from its *scheduled* arrival, and sweeps offered load to map
the QPS-vs-p99 frontier per backend config — including the knee where
the queue melts down.

Per config (unsharded vs sharded fan-out) the sweep records offered vs
achieved QPS, p50/p99/p999 from scheduled arrival, queue-wait vs
service split (from the batcher's per-request timestamps), and exact
request accounting.  The committed ``BENCH_load.json`` baseline holds
the frontier; the CI bench lane re-runs it and compares (see
``compare_baselines.py``).

Gates:

* **Always on (determinism/correctness):** every answer produced under
  load is bitwise identical to the unloaded reference for its (query,
  profile); zero dropped requests; submitted == completed + failed on
  every run; the Poisson schedule regenerates bit-for-bit under its
  seed.
* **Timing (skipped by ``REPRO_SKIP_SPEEDUP_GATES``):** a knee exists
  and sits at >= ``KNEE_CAPACITY_FLOOR`` of the measured closed-loop
  capacity, and p99 at half the knee stays within
  ``HALF_KNEE_P99_FACTOR`` of the lightest-load p99 (plus an absolute
  grace floor) — the steady-state SLO regression tripwire.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.api import DatasetSpec, IndexSpec, QuantizerSpec, ShardingSpec
from repro.eval import Workbench, laptop_graph
from repro.loadgen import poisson_schedule, run_load

from common import (
    save_json_baseline,
    save_report,
    speedup_gates_enabled,
    usable_cpus,
)

N_BASE = 2000
N_QUERIES = 64
REQUESTS_PER_POINT = 96
#: Fractions of the measured closed-loop capacity swept per config.
#: The ladder reaches down to 0.1x because a fan-out config's
#: *open-loop* knee can sit far below its closed-loop (big-batch)
#: capacity on a host with fewer CPUs than shards — the sweep must
#: bracket the knee anywhere it lands, not just where it lands on a
#: many-core box.
RATE_FRACTIONS = (0.1, 0.25, 0.5, 0.75, 1.0, 1.5)
MAX_BATCH = 32
WAIT_MS = 2.0
SEED = 0

#: Timing-gate bars (see module docstring).  The knee floor sits just
#: below the lightest rung of RATE_FRACTIONS: the gate's job is "a
#: sustained operating point exists somewhere on the ladder", not a
#: host-dependent absolute.
KNEE_CAPACITY_FLOOR = 0.08
HALF_KNEE_P99_FACTOR = 10.0
HALF_KNEE_P99_GRACE_MS = 100.0

SPEC = IndexSpec(
    dataset=DatasetSpec("sift", n_base=N_BASE, n_queries=N_QUERIES, seed=SEED),
    graph=laptop_graph("vamana", SEED),
    quantizer=QuantizerSpec("pq", 8, 32, seed=SEED),
)
#: The >= 2 backend configs whose frontiers the baseline commits.
CONFIGS = {
    "unsharded": SPEC,
    "sharded-2-thread": dataclasses.replace(
        SPEC, sharding=ShardingSpec(num_shards=2)
    ),
}


def describe(spec: IndexSpec) -> dict:
    """The config fields each committed frontier is labelled with."""
    return {
        "scenario": spec.scenario.kind,
        "dataset": spec.dataset.name,
        "num_shards": spec.sharding.num_shards,
        "shard_backend": spec.sharding.backend,
        "replicas": spec.sharding.replicas,
    }


def run():
    # One workbench for every config: the dataset, the quantizer and
    # the per-shard graphs are each built once.
    bench = Workbench()
    reports = {}
    for name, spec in CONFIGS.items():
        index = bench.build(spec)
        try:
            reports[name] = run_load(
                index,
                bench.dataset(spec).queries,
                arrival="poisson",
                rate_fractions=RATE_FRACTIONS,
                requests_per_point=REQUESTS_PER_POINT,
                max_batch_size=MAX_BATCH,
                max_wait_ms=WAIT_MS,
                seed=SEED,
            )
        finally:
            if spec.sharding.num_shards > 1:
                index.close()

    # Schedule determinism: the same (rate, n, seed) must regenerate the
    # exact arrival offsets — replayability is what makes a committed
    # frontier comparable at all.
    a = poisson_schedule(100.0, REQUESTS_PER_POINT, seed=SEED)
    b = poisson_schedule(100.0, REQUESTS_PER_POINT, seed=SEED)
    schedule_deterministic = bool(np.array_equal(a.offsets_s, b.offsets_s))

    return reports, schedule_deterministic


def test_open_loop_load(benchmark):
    reports, schedule_deterministic = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    blocks = []
    for name, report in reports.items():
        blocks.append(
            report.table(
                f"Open-loop Poisson load ({name}, sift n={N_BASE}, "
                f"{REQUESTS_PER_POINT} req/point)"
            )
        )
        blocks.append(
            f"[{name}] {report.summary()} | identical="
            f"{report.identical}, accounting={report.accounting_exact}"
        )
    blocks.append(
        f"[schedule] poisson regeneration deterministic: "
        f"{schedule_deterministic} ({usable_cpus()} usable CPU(s))"
    )
    save_report("load_frontier", "\n\n".join(blocks))

    save_json_baseline(
        "load",
        {
            "bench": "load",
            "dataset": "sift",
            "n_base": N_BASE,
            "requests_per_point": REQUESTS_PER_POINT,
            "rate_fractions": list(RATE_FRACTIONS),
            "arrival": "poisson",
            "schedule_deterministic": schedule_deterministic,
            "gate_knee_capacity_floor": KNEE_CAPACITY_FLOOR,
            "gate_half_knee_p99_factor": HALF_KNEE_P99_FACTOR,
            "gates_enforced": speedup_gates_enabled(),
            "configs": {
                name: {**describe(CONFIGS[name]), **report.as_dict()}
                for name, report in reports.items()
            },
        },
    )

    # Determinism and accounting always gate — they hold on any host,
    # loaded or not, because they are about answers and bookkeeping
    # rather than wall-clock.
    assert schedule_deterministic, (
        "poisson_schedule did not regenerate bit-for-bit under its seed"
    )
    for name, report in reports.items():
        assert report.identical, (
            f"[{name}] answers under load diverged from the unloaded "
            "reference (load must change when answers arrive, never "
            "what they are)"
        )
        assert report.accounting_exact, (
            f"[{name}] request accounting broke: submitted != "
            "completed + failed, or requests were dropped"
        )
        assert report.checked_answers > 0, (
            f"[{name}] the identity check verified zero answers"
        )
        for point in report.points:
            assert point.dropped == 0, (
                f"[{name}] {point.dropped} request(s) dropped at "
                f"{point.offered_qps:.1f} offered QPS"
            )
            assert point.failed == 0, (
                f"[{name}] {point.failed} request(s) failed at "
                f"{point.offered_qps:.1f} offered QPS"
            )

    if speedup_gates_enabled():
        for name, report in reports.items():
            assert report.knee_qps is not None, (
                f"[{name}] no offered rate was sustained — the queue "
                "melted down even at the lightest load"
            )
            floor = KNEE_CAPACITY_FLOOR * report.capacity_qps
            assert report.knee_qps >= floor, (
                f"[{name}] knee at {report.knee_qps:.1f} QPS fell below "
                f"{KNEE_CAPACITY_FLOOR:.0%} of the closed-loop capacity "
                f"({report.capacity_qps:.1f} QPS)"
            )
            lightest_p99 = report.points[0].latency.p99_ms
            bound = max(
                HALF_KNEE_P99_GRACE_MS,
                HALF_KNEE_P99_FACTOR * lightest_p99,
            )
            assert report.p99_at_half_knee_ms <= bound, (
                f"[{name}] p99 at half-knee "
                f"({report.p99_at_half_knee_ms:.2f} ms) blew past "
                f"{bound:.2f} ms (= max({HALF_KNEE_P99_GRACE_MS} ms, "
                f"{HALF_KNEE_P99_FACTOR}x the lightest-load p99 "
                f"{lightest_p99:.2f} ms))"
            )
