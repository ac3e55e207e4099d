"""Write-path profile of the streaming index at ``streaming_churn``'s shape.

Replays a fixed sequence of churn cycles against a streaming index
(sift, n_base = 800, PQ 16 x 256, default streaming params), served as
a deployment holds it: saved as a container and memory-mapped back.
One cycle is ``insert_batch`` of 16 rows, ``delete`` of the 16 oldest
live vertices and four 32-query searches (k = 10, beam 32), with a
``consolidate`` every fourth cycle — the ``streaming_churn`` workload
of ``benchmarks/e2e``, minus its checks.

The replay runs twice from the same saved index:

* **timed**, with nothing wrapped: median milliseconds per
  ``insert_batch`` (and vectors per second), per ``delete``, per
  ``consolidate``, and per search — the first search after a write
  against the other three;
* **counted**, with wrappers on the write path's seams: list restacks
  (``np.asarray`` / ``np.stack`` handed a Python list inside the
  streaming module), CSR re-packs (``PackedAdjacency.from_lists``),
  and the two paths of ``graphs.prune.prune``: per-point loops (a
  one-point call) and lockstep passes with their points per pass.

Both replays must give the same answers.  The script prints the
sha256 of every search's ids, distances, counts, hops and distance
computations, of every ``insert_batch``'s ids, and of the container
the final index saves to: equal digests between two checkouts mean the
write path answers, assigns and saves bit for bit alike.  Seams a
checkout does not have count zero, so the script runs unchanged on an
older checkout.

    cd benchmarks && python profile_streaming.py     # ~20 s
    REPRO_SMOKE=1 python profile_streaming.py        # toy size, ~2 s

Plain script, not a pytest bench: profiles are for humans reading a
breakdown, not for gating.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import os
import sys
import tempfile
import time
from collections import defaultdict

import numpy as np

from repro.api import (
    IndexSpec,
    QuantizerSpec,
    ScenarioSpec,
    SearchRequest,
    build,
    load_index,
    save_index,
)
from repro.datasets import load

SMOKE = os.environ.get("REPRO_SMOKE") == "1"
N_BASE = 200 if SMOKE else 800
POOL = 64 if SMOKE else 512
CYCLES = 8 if SMOKE else 80
NUM_CHUNKS = 8 if SMOKE else 16
NUM_CODEWORDS = 16 if SMOKE else 256
INSERT_BATCH = 8 if SMOKE else 16
SEARCHES_PER_CYCLE = 4
CONSOLIDATE_EVERY = 4
BATCH, K, BEAM = 32, 10, 32
SEED = 41


class Seams:
    """Call counters on the write path, installed for one replay."""

    def __init__(self) -> None:
        self.calls: dict = defaultdict(int)
        self.points: dict = defaultdict(int)
        self._restore: list = []

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _counted(self, fn, stage: str, points=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[stage] += 1
            self.points[stage] += 1 if points is None else points(args)
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, module: str, owner_name, attr: str, stage: str, points=None):
        try:
            owner = importlib.import_module(module)
        except ModuleNotFoundError:
            return  # a seam this checkout does not have
        if owner_name is not None:
            owner = getattr(owner, owner_name)
        if attr not in vars(owner):
            return  # a seam this checkout does not have
        original = vars(owner)[attr]
        if isinstance(original, staticmethod):
            wrapped = staticmethod(self._counted(original.__func__, stage, points))
        else:
            wrapped = self._counted(original, stage, points)
        self._patch(owner, attr, wrapped)
        # Functions imported by name elsewhere are counted there too.
        if owner_name is None:
            for name, mod in list(sys.modules.items()):
                if name.startswith("repro.") and mod is not owner:
                    if getattr(mod, attr, None) is original:
                        self._patch(mod, attr, wrapped)

    def install(self) -> None:
        self._wrap("repro.graphs.packed", "PackedAdjacency", "from_lists", "re-pack")
        self._wrap("repro.graphs.prune", None, "_greedy", "per-point prune")
        self._wrap(
            "repro.graphs.prune",
            None,
            "_lockstep",
            "lockstep prune",
            points=lambda args: len(args[1]),
        )
        # A restack is numpy stacking a Python list of rows; the
        # streaming module sees a numpy whose stackers count those.
        streaming = importlib.import_module("repro.index.streaming")
        self._patch(streaming, "np", _CountingNumpy(self.calls))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


class _CountingNumpy:
    """``numpy`` with ``asarray`` / ``array`` / ``stack`` counting the
    calls that stack a Python list."""

    def __init__(self, calls: dict) -> None:
        self._calls = calls

    def __getattr__(self, name: str):
        attr = getattr(np, name)
        if name not in ("asarray", "array", "stack"):
            return attr

        @functools.wraps(attr)
        def stacker(obj, *args, **kwargs):
            if isinstance(obj, list):
                self._calls["restack"] += 1
            return attr(obj, *args, **kwargs)

        return stacker


def setup(tmp: str):
    data = load("sift", n_base=N_BASE + 2048, n_queries=POOL, seed=0)
    rng = np.random.default_rng(SEED)
    queries = data.queries[rng.permutation(POOL)]
    inserts = data.base[N_BASE:][rng.permutation(2048)]
    spec = IndexSpec(
        quantizer=QuantizerSpec("pq", NUM_CHUNKS, NUM_CODEWORDS),
        scenario=ScenarioSpec(kind="streaming"),
    )
    saved = os.path.join(tmp, "built")
    save_index(build(spec, data=data.base[:N_BASE]), saved)
    return saved, queries, inserts


def replay(saved: str, queries, inserts, out: str):
    """One pass of the fixed cycle sequence from a fresh mapped load;
    returns ``(timings, digests, final vertex count)``."""
    index = load_index(saved)
    ops = defaultdict(list)
    answers, assigned = hashlib.sha256(), hashlib.sha256()
    oldest, next_id, calls = 0, N_BASE, 0
    for cycle in range(1, CYCLES + 1):
        rows = inserts[(next_id - N_BASE + np.arange(INSERT_BATCH)) % len(inserts)]
        start = time.perf_counter()
        ids = index.insert_batch(rows)
        ops["insert"].append(time.perf_counter() - start)
        if list(ids) != list(range(next_id, next_id + INSERT_BATCH)):
            raise RuntimeError(f"cycle {cycle}: insert_batch assigned {ids}")
        assigned.update(np.asarray(ids, dtype=np.int64).tobytes())
        next_id += INSERT_BATCH
        for victim in range(oldest, oldest + INSERT_BATCH):
            start = time.perf_counter()
            index.delete(victim)
            ops["delete"].append(time.perf_counter() - start)
        oldest += INSERT_BATCH
        for j in range(SEARCHES_PER_CYCLE):
            off = (calls * BATCH) % POOL
            calls += 1
            request = SearchRequest(queries[off : off + BATCH], k=K, beam_width=BEAM)
            start = time.perf_counter()
            response = index.search(request)
            ops["after write" if j == 0 else "steady"].append(
                time.perf_counter() - start
            )
            for part in (
                response.ids,
                response.distances,
                response.counts,
                response.counters["hops"],
                response.counters["distance_computations"],
            ):
                answers.update(np.ascontiguousarray(part).tobytes())
        if cycle % CONSOLIDATE_EVERY == 0:
            start = time.perf_counter()
            index.consolidate()
            ops["consolidate"].append(time.perf_counter() - start)
    save_index(index, out)
    with open(os.path.join(out, "index.bin"), "rb") as fh:
        container = hashlib.sha256(fh.read()).hexdigest()
    digests = {
        "answers": answers.hexdigest(),
        "inserted ids": assigned.hexdigest(),
        "index.bin": container,
    }
    return ops, digests, index.num_vertices


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        saved, queries, inserts = setup(tmp)
        replay(saved, queries, inserts, os.path.join(tmp, "warm"))
        ops, digests, n = replay(saved, queries, inserts, os.path.join(tmp, "t"))
        seams = Seams()
        seams.install()
        try:
            _, counted, _ = replay(saved, queries, inserts, os.path.join(tmp, "c"))
        finally:
            seams.uninstall()
    if counted != digests:
        raise RuntimeError("the counted replay answered differently")

    def ms(name):
        return 1e3 * float(np.median(ops[name]))

    print(
        f"streaming churn replay (sift, n {N_BASE} -> {n}, "
        f"PQ {NUM_CHUNKS} x {NUM_CODEWORDS}, {CYCLES} cycles)"
    )
    insert, after, steady = ms("insert"), ms("after write"), ms("steady")
    rows = [
        (f"insert_batch({INSERT_BATCH})", f"{insert:8.2f} ms",
         f"({INSERT_BATCH / insert * 1e3:.0f} vectors/s)"),
        ("delete", f"{1e3 * ms('delete'):8.1f} us", ""),
        ("consolidate", f"{ms('consolidate'):8.2f} ms",
         f"(median of {len(ops['consolidate'])})"),
        ("search after a write", f"{after:8.2f} ms", ""),
        ("steady search", f"{steady:8.2f} ms", ""),
        ("gap", f"{after - steady:8.2f} ms", ""),
    ]
    for label, value, note in rows:
        print(f"  {label:<22} {value}  {note}".rstrip())
    print("per cycle (counted replay):")
    for stage in ("restack", "re-pack", "per-point prune", "lockstep prune"):
        line = f"  {stage:<22} {seams.calls[stage] / CYCLES:8.2f} calls"
        if stage == "lockstep prune" and seams.calls[stage]:
            per = seams.points[stage] / seams.calls[stage]
            line += f"  ({per:.1f} points per call)"
        print(line)
    for name, digest in digests.items():
        print(f"sha256 {name:<13} {digest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
