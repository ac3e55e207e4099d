"""Per-round kernel stage profile on the memory and hybrid scenarios.

Runs a B=32 batched query stream against the memory index
(``frontier_width = 1``, packed-CSR gather) and the hybrid index
(``frontier_width = io_width``, 4 by default, SSD expansion hook) with a
:class:`repro.engine.KernelProfile` attached and prints where each use
of the kernel spends its time (neighbor gather, distance scoring,
candidate re-rank, beam truncate), how many rounds a call takes and
what a round costs.  The profiling hooks are off (``profile=None``,
zero timer calls) in every other entry point — this driver is the one
place that turns them on, so `make profile-kernel` is the supported way
to answer "which kernel stage got slower?".

Plain script, not a pytest bench: profiles are for humans reading a
breakdown, not for gating.
"""

from __future__ import annotations

import time

import numpy as np

import dataclasses

from repro.api import (
    DatasetSpec,
    IndexSpec,
    QuantizerSpec,
    ScenarioSpec,
    SearchRequest,
)
from repro.engine import KernelProfile
from repro.eval import Workbench, laptop_graph

N_BASE = 2000
N_QUERIES = 64
BATCH_SIZE = 32
PASSES = 8
NUM_CHUNKS = 8
NUM_CODEWORDS = 32
BEAM = 32
K = 10
SPEC = IndexSpec(
    dataset=DatasetSpec("sift", n_base=N_BASE, n_queries=N_QUERIES),
    graph=laptop_graph("vamana"),
    quantizer=QuantizerSpec("pq", NUM_CHUNKS, NUM_CODEWORDS),
)


def profile_scenario(scenario: str, bench: Workbench) -> None:
    spec = dataclasses.replace(SPEC, scenario=ScenarioSpec(scenario))
    index = bench.build(spec)
    request = SearchRequest(bench.dataset(spec).queries[:BATCH_SIZE], K, BEAM)

    # Warm pass: the workspace pool and numpy internals reach steady
    # state before the profiled stream.
    index.search(request)

    profile = KernelProfile()
    index.kernel_profile = profile
    start = time.perf_counter()
    for _ in range(PASSES):
        index.search(request)
    elapsed = time.perf_counter() - start
    index.kernel_profile = None

    instrumented = sum(profile.seconds.values())
    print(
        f"{scenario} scenario (sift, n={N_BASE}, frontier width "
        f"{getattr(index, 'io_width', 1)}), batch {BATCH_SIZE}, "
        f"beam {BEAM}, {PASSES} passes: "
        f"{PASSES * BATCH_SIZE / max(elapsed, 1e-12):.1f} QPS"
    )
    print(profile.report())
    print(
        f"  {profile.rounds / max(profile.calls, 1):.1f} rounds per call, "
        f"{instrumented * 1e6 / max(profile.rounds, 1):.1f} us per round "
        "in instrumented stages"
    )
    outside_ms = (elapsed - instrumented) * 1e3
    print(
        f"  (outside stages: {outside_ms:.2f} ms — table build, "
        "frontier selection, bookkeeping, scenario post-processing)"
    )
    pool = index.engine_status()["workspace_pool"]
    print(
        f"engine status: workspace pool {pool['reuses']} reuse(s) / "
        f"{pool['created']} created"
    )
    hops = index.search(request).hops
    print(f"mean hops {float(np.mean(hops)):.1f}")


def main() -> int:
    bench = Workbench()  # one dataset / graph / quantizer for both
    profile_scenario("memory", bench)
    print()
    profile_scenario("hybrid", bench)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
