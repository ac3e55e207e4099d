"""Shared machinery of the end-to-end benchmark: seeded inputs,
oracles, the segment recorder and the span tracer.

Nothing here knows about a particular workload; ``workloads.py`` builds
the four workloads out of these pieces.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

K = 10
BEAM = 32
BATCH = 32
#: A run is cut into this many equal measured segments and a timing is
#: the median of its per-segment values, so host stalls that cover less
#: than half the run cannot own the number.
SEGMENTS = 10
#: Latency limit behind ``loadgen.slo_miss_share`` and the rate ladder.
SLO_MS = 100.0
#: The corpus is one fixed generated instance of the ``sift`` profile;
#: ``--seed`` drives everything that arrives at the index built over
#: it.  Recall and index bytes then repeat across seeds, so their
#: bounds can be tight.
PROFILE = "sift"
PROFILE_SEED = 0


# ----------------------------------------------------------------------
# Seeded inputs and oracles
# ----------------------------------------------------------------------


def seeded_dataset(seed: int, n_rows: int, n_queries: int, n_extra: int = 0):
    """``(rows, queries, extra)``: the fixed corpus, its query pool in
    an order drawn from ``seed``, and ``n_extra`` further rows (the
    streaming workload's inserts), also in seeded order."""
    from repro.datasets import load

    data = load(
        PROFILE,
        n_base=n_rows + n_extra,
        n_queries=n_queries,
        seed=PROFILE_SEED,
    )
    rng = np.random.default_rng(seed)
    queries = data.queries[rng.permutation(n_queries)]
    extra = data.base[n_rows:][rng.permutation(n_extra)]
    return data.base[:n_rows], queries, extra


def brute_force_topk(base: np.ndarray, queries: np.ndarray, k: int = K):
    """Exact top-``k`` row positions of ``base`` for every query — the
    benchmark's own oracle, independent of ``repro.datasets``."""
    d = (
        (queries * queries).sum(axis=1)[:, None]
        - 2.0 * queries @ base.T
        + (base * base).sum(axis=1)[None, :]
    )
    k = min(k, base.shape[0])
    part = np.argpartition(d, k - 1, axis=1)[:, :k]
    order = np.argsort(np.take_along_axis(d, part, axis=1), axis=1)
    return np.take_along_axis(part, order, axis=1)


def recall_hits(ids: np.ndarray, truth: np.ndarray) -> int:
    """How many of ``truth``'s ids each answer row found, summed."""
    return int((ids[:, :, None] == truth[:, None, :]).any(axis=2).sum())


def same_answer(response, reference) -> bool:
    """Bitwise equality of the parts of an answer that are its
    contract: ids, distances and valid counts."""
    return (
        np.array_equal(response.ids, reference.ids)
        and np.array_equal(response.distances, reference.distances)
        and np.array_equal(response.counts, reference.counts)
    )


# ----------------------------------------------------------------------
# Recording: one run = SEGMENTS equal measured segments
# ----------------------------------------------------------------------


@dataclass
class Segment:
    """What one measured segment saw."""

    busy_s: float = 0.0
    vectors: int = 0
    latencies_ms: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    recall_hits: int = 0
    recall_total: int = 0

    def throughput(self) -> float:
        return self.vectors / self.busy_s if self.busy_s > 0 else 0.0


def median_over_segments(segments: List[Segment], fn) -> float:
    """A timing is the median of its per-segment values, so one host
    stall inside a run cannot own the number."""
    values = [fn(s) for s in segments if s.latencies_ms or s.vectors]
    return float(np.median(values)) if values else 0.0


def percentile_over_segments(segments: List[Segment], q: float) -> float:
    return median_over_segments(
        [s for s in segments if s.latencies_ms],
        lambda s: np.percentile(s.latencies_ms, q),
    )


def segment_loop(step, seconds: float) -> List[Segment]:
    """Closed loop: call ``step(segment)`` until each of the SEGMENTS
    equal wall-clock windows is used up."""
    segments = []
    start = time.perf_counter()
    for i in range(SEGMENTS):
        segment = Segment()
        deadline = start + (i + 1) * seconds / SEGMENTS
        while time.perf_counter() < deadline:
            step(segment)
        segments.append(segment)
    return segments


# ----------------------------------------------------------------------
# Tracing from the outside
# ----------------------------------------------------------------------


class Tracer:
    """In-memory span recorder around the calls the runner makes into a
    layer.  Disabled, ``span()`` hands back one shared no-op context."""

    _NOOP = contextlib.nullcontext()

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        #: (id, name, start, end, parent id, request id)
        self.spans: List[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def span(self, name: str, request: Optional[int] = None):
        if not self.enabled:
            return self._NOOP
        return self._span(name, request)

    @contextlib.contextmanager
    def _span(self, name, request):
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, request))

    def record(self, name, start, end, request=None) -> None:
        """A span whose ends were observed on different threads (a
        request sent by the generator and completed by the reader)."""
        self.spans.append((next(self._ids), name, start, end, None, request))

    def summary(self) -> Dict[str, dict]:
        """Per span name: count, total and self time (a span minus the
        part of it its children cover)."""
        child_time: Dict[int, float] = {}
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        out: Dict[str, dict] = {}
        for span_id, name, start, end, _, _ in self.spans:
            row = out.setdefault(
                name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0}
            )
            row["count"] += 1
            row["total_ms"] += (end - start) * 1e3
            row["self_ms"] += (
                end - start - child_time.get(span_id, 0.0)
            ) * 1e3
        return out

    def write(self, path: str) -> None:
        keys = ("id", "name", "start", "end", "parent", "request")
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


class StageClock:
    """Set-up stage timings, kept in every run (a handful of clock
    reads) and mirrored as spans when tracing is on."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.seconds: Dict[str, float] = {}

    @contextlib.contextmanager
    def stage(self, name: str):
        start = time.perf_counter()
        with self.tracer.span(name):
            yield
        self.seconds[name] = (
            self.seconds.get(name, 0.0) + time.perf_counter() - start
        )
