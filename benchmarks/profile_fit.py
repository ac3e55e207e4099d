"""Set-up stage profile: where graph builds and an RPQ fit spend their time.

The set-up twin of ``profile_kernel.py``.  At the ``offline_batch``
workload's shape (sift, n = 2000, dim 64) it builds the NSG graph, fits
RPQ on it (16 x 256, 2 epochs, the registry's quick training config)
and fits a plain PQ at the same budget; at the ``hybrid_disk``
workload's shape (sift, n = 1200, ``r = 16``, ``search_l = 32``) it
builds the Vamana graph.  Timing wrappers on the seams of each print a
table of exclusive seconds per stage:

* NSG build: kNN bootstrap, candidate search, the occlusion prune
  (``graphs.prune``: its lockstep passes, one per build window, with
  points per pass, and its per-point loops, one per InterInsert
  re-prune), InterInsert and the reachability pass;
* Vamana build: the construction-time searches (rows per call), the
  occlusion prune's two paths, the reverse-edge merge and the rest of
  each insert batch (pool assembly) — plus the number of batches
  (search calls) and rows searched per inserted point (each of the two
  passes inserts every point once, so 1.00 means no search was
  re-run);
* fits: OPQ rotation, k-means++ seeding, Lloyd, the k-means warm start,
  triplet and routing sampling, training forward (+ optimizer) and
  backward.

It also counts k-means++ seedings per fit (``train_codebook`` calls
without an ``init``) and the differentiable ``expm`` and
``soft_reconstruct`` calls per optimizer step.  Nothing in ``src/``
carries a hook: the wrappers replace the seams for the duration of one
build or fit and put them back.

    cd benchmarks && python profile_fit.py          # ~10 s
    REPRO_SMOKE=1 python profile_fit.py             # toy size, ~2 s

Plain script, not a pytest bench: profiles are for humans reading a
breakdown, not for gating.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

from repro.api.registry import build_graph_from_spec, build_quantizer_from_spec
from repro.api.spec import GraphSpec, QuantizerSpec
from repro.datasets import load

SMOKE = os.environ.get("REPRO_SMOKE") == "1"
N_BASE = 300 if SMOKE else 2000
NUM_CHUNKS = 8 if SMOKE else 16
NUM_CODEWORDS = 16 if SMOKE else 256
EPOCHS = 1 if SMOKE else 2
VAMANA_N_BASE = 300 if SMOKE else 1200

#: (module, class or None, attribute, stage[, points of a call]).
#: Stages nest; each is charged its exclusive time, so seeding inside
#: OPQ counts as seeding.
GRAPH_TIMED = [
    ("repro.graphs.knn_graph", None, "exact_knn", "kNN bootstrap"),
    ("repro.graphs.beam", None, "beam_search_batch", "candidate search"),
    ("repro.graphs.prune", None, "_greedy", "prune, per point"),
    ("repro.graphs.prune", None, "_lockstep", "prune, lockstep",
     lambda args, kwargs: len(args[1])),
    ("repro.graphs.nsg", None, "_inter_insert", "InterInsert"),
    ("repro.graphs.nsg", None, "_ensure_reachable", "reachability"),
]
VAMANA_TIMED = [
    ("repro.graphs.beam", None, "beam_search_batch", "search",
     lambda args, kwargs: len(args[1])),
    ("repro.graphs.prune", None, "_greedy", "prune, per point"),
    ("repro.graphs.prune", None, "_lockstep", "prune, lockstep",
     lambda args, kwargs: len(args[1])),
    ("repro.graphs.vamana", None, "_reverse_edges", "reverse-edge merge"),
    ("repro.graphs.vamana", None, "insert_batch", "batch assembly"),
]
FIT_TIMED = [
    ("repro.core.diffq", "DifferentiableQuantizer", "warm_start_rotation",
     "OPQ rotation warm start"),
    ("repro.core.diffq", "DifferentiableQuantizer", "warm_start",
     "k-means warm start"),
    ("repro.quantization.kmeans", None, "kmeans_plus_plus_init",
     "k-means++ seeding"),
    ("repro.quantization.kmeans", None, "_lockstep_seeds",
     "k-means++ seeding"),
    ("repro.quantization.kmeans", None, "kmeans", "Lloyd"),
    ("repro.core.features", None, "sample_triplets", "triplet sampling"),
    ("repro.core.features", None, "sample_routing_records",
     "routing sampling"),
    ("repro.autodiff.tensor", "Tensor", "backward", "training backward"),
    ("repro.core.trainer", None, "train_rpq",
     "training forward + optimizer"),
]
#: Seams only counted, as (module, class or None, attribute, stage,
#: which calls count).  ``init`` is passed by keyword where it is set.
COUNTED = [
    ("repro.quantization.kmeans", None, "train_codebook",
     "k-means++ seedings", lambda args, kwargs: kwargs.get("init") is None),
    ("repro.autodiff.expm", None, "expm", "expm (differentiable)", None),
    ("repro.core.diffq", "DifferentiableQuantizer", "soft_reconstruct",
     "soft_reconstruct", None),
    ("repro.autodiff.optim", "Adam", "step", "optimizer steps", None),
]


class StageProfile:
    """Exclusive wall time and call counts per named stage."""

    def __init__(self) -> None:
        self.seconds: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.points: dict = defaultdict(int)
        self._children: list = []
        self._restore: list = []

    def _timed(self, fn, stage: str, points=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if points is not None:
                self.points[stage] += points(args, kwargs)
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = self._children.pop()
                self.seconds[stage] += elapsed - nested
                self.calls[stage] += 1
                if self._children:
                    self._children[-1] += elapsed

        return wrapper

    def _counted(self, fn, stage: str, which):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[stage] += which is None or which(args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, timed: list) -> None:
        seams = [(seam, self._timed) for seam in timed]
        seams += [(seam, self._counted) for seam in COUNTED]
        # Import every seam's module first: one imported mid-install
        # would bind an earlier seam's wrapper by name and keep it.
        for (module, *_), _ in seams:
            try:
                importlib.import_module(module)
            except ModuleNotFoundError:
                pass  # a seam this checkout does not have
        for (module, cls, attr, stage, *which), make in seams:
            owner = sys.modules.get(module)
            if owner is None:
                continue
            if cls is not None:
                owner = getattr(owner, cls)
            if attr not in owner.__dict__:
                continue  # a seam this checkout does not have
            original = owner.__dict__[attr]
            wrapped = make(original, stage, *which)
            self._patch(owner, attr, wrapped)
            # Functions imported by name elsewhere are patched there
            # too, so every call site goes through the wrapper.
            if cls is None:
                for name, mod in list(sys.modules.items()):
                    if (
                        name.startswith("repro.")
                        and mod is not owner
                        and getattr(mod, attr, None) is original
                    ):
                        self._patch(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def profiled(label: str, timed: list, run, profile=None):
    profile = profile or StageProfile()
    profile.install(timed)
    start = time.perf_counter()
    try:
        out = run()
    finally:
        total = time.perf_counter() - start
        profile.uninstall()
    print(f"{label}: {total:.2f} s")
    stages = [s for s in dict.fromkeys(t[3] for t in timed) if profile.calls[s]]
    for stage in stages:
        points = profile.points[stage]
        each = f", {points / profile.calls[stage]:.1f} points each" if points else ""
        print(
            f"  {stage:<30} {profile.seconds[stage]:7.3f} s "
            f"{100 * profile.seconds[stage] / total:5.1f} %  "
            f"({profile.calls[stage]} calls{each})"
        )
    other = total - sum(profile.seconds[s] for s in stages)
    print(f"  {'(outside the seams)':<30} {other:7.3f} s")
    if timed is FIT_TIMED:
        print(f"  k-means++ seedings per fit: {profile.calls['k-means++ seedings']}")
    steps = profile.calls["optimizer steps"]
    if steps:
        for _, _, _, stage, _ in COUNTED[1:3]:
            print(
                f"  {stage} per optimizer step: "
                f"{profile.calls[stage] / steps:.2f} "
                f"({profile.calls[stage]} calls / {steps} steps)"
            )
    return out


def main() -> int:
    x = load("sift", n_base=N_BASE, n_queries=1, seed=0).base
    shape = f"n={N_BASE}, dim {x.shape[1]}"
    graph = profiled(
        f"NSG build ({shape})",
        GRAPH_TIMED,
        lambda: build_graph_from_spec(GraphSpec(kind="nsg"), x),
    )
    print()
    shape += f", {NUM_CHUNKS} x {NUM_CODEWORDS}"
    rpq = QuantizerSpec("rpq", NUM_CHUNKS, NUM_CODEWORDS, params={"epochs": EPOCHS})
    profiled(
        f"RPQ fit ({shape}, {EPOCHS} epochs)",
        FIT_TIMED,
        lambda: build_quantizer_from_spec(rpq, x, x=x, graph=graph),
    )
    print()
    pq = QuantizerSpec("pq", NUM_CHUNKS, NUM_CODEWORDS)
    profiled(f"PQ fit ({shape})", FIT_TIMED, lambda: build_quantizer_from_spec(pq, x))
    print()
    x = load("sift", n_base=VAMANA_N_BASE, n_queries=1, seed=0).base
    vamana = GraphSpec(kind="vamana", params={"r": 16, "search_l": 32})
    profile = StageProfile()
    profiled(
        f"Vamana build (n={VAMANA_N_BASE}, dim {x.shape[1]}, r 16, search_l 32)",
        VAMANA_TIMED,
        lambda: build_graph_from_spec(vamana, x),
        profile,
    )
    searched, searches = profile.points["search"], profile.calls["search"]
    print(f"  batches (search calls): {searches}")
    print(
        f"  rows searched per inserted point: {searched / (2 * VAMANA_N_BASE):.2f} "
        f"({searched} rows / {2 * VAMANA_N_BASE} inserts)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
