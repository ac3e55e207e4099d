"""Beam-width sweeps producing recall / efficiency operating points.

Every figure in the paper's §8 is a curve of an efficiency metric
against Recall@10, generated by varying the search beam width.  This
module runs those sweeps for any index answering
``search(SearchRequest)`` — every scenario index and the sharded
fan-out wrapper do.  ``batch_size`` sets how many queries share each
request (1 is the per-query loop; results are bitwise identical at any
size, only QPS changes).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..api.protocol import SearchRequest
from ..datasets.ground_truth import GroundTruth
from ..metrics.counters import QueryStats
from ..metrics.recall import recall_at_k

DEFAULT_BEAMS = (10, 16, 24, 32, 48, 64, 96)


@dataclass
class OperatingPoint:
    """One (beam width -> recall/efficiency) measurement.

    ``qps`` is *effective* QPS: wall-clock compute time plus the
    simulated SSD wait (``mean_io_us``) per query.  For in-memory
    indexes the I/O term is zero, so it reduces to plain wall-clock
    QPS; for the hybrid scenario this folds the device model into the
    clock the way a real DiskANN deployment would experience it.
    """

    beam_width: int
    recall: float
    qps: float
    mean_hops: float
    mean_distance_computations: float
    mean_page_reads: float = 0.0
    mean_io_us: float = 0.0


def run_queries_batched(
    index,
    queries: np.ndarray,
    k: int,
    beam_width: int,
    batch_size: int,
) -> list:
    """Answer ``queries`` in ``batch_size``-row requests, returning one
    :class:`~repro.api.protocol.SearchResponseRow` per query."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    results = []
    for start in range(0, len(queries), batch_size):
        response = index.search(
            SearchRequest(
                queries[start : start + batch_size], k, beam_width
            )
        )
        results.extend(response.row(i) for i in range(response.num_queries))
    return results


def sweep_beam(
    index,
    queries: np.ndarray,
    ground_truth: GroundTruth,
    k: int = 10,
    beam_widths: Sequence[int] = DEFAULT_BEAMS,
    batch_size: int = 1,
) -> List[OperatingPoint]:
    """Measure one operating point per beam width.

    Beam widths smaller than ``k`` are skipped (the index cannot return
    ``k`` results from a narrower beam).  Per-query (``batch_size=1``)
    and batched sweeps route through the same engine and report
    identical recall and counters; the request size only changes how
    much work each kernel call amortizes, i.e. the measured QPS.
    """
    points: List[OperatingPoint] = []
    for beam in beam_widths:
        if beam < k:
            continue
        results = run_queries_batched(index, queries, k, beam, batch_size)
        start = time.perf_counter()
        run_queries_batched(index, queries, k, beam, batch_size)
        total_seconds = time.perf_counter() - start
        recall = recall_at_k([r.ids for r in results], ground_truth.ids)
        stats = QueryStats.aggregate(results)
        io_seconds = stats.mean_io_us * 1e-6 * len(queries)
        effective_qps = len(queries) / max(total_seconds + io_seconds, 1e-12)
        points.append(
            OperatingPoint(
                beam_width=int(beam),
                recall=recall,
                qps=effective_qps,
                mean_hops=stats.mean_hops,
                mean_distance_computations=stats.mean_distance_computations,
                mean_page_reads=stats.mean_page_reads,
                mean_io_us=stats.mean_io_us,
            )
        )
    return points


def metric_at_recall(
    points: Sequence[OperatingPoint],
    target_recall: float,
    attr: str = "qps",
) -> Optional[float]:
    """Interpolate an efficiency metric at a target recall.

    Finds the two operating points bracketing ``target_recall`` (curves
    are swept with increasing beams, so recall is non-strictly
    increasing) and interpolates linearly in recall.  Returns ``None``
    when the target exceeds the best achieved recall.
    """
    usable = sorted(points, key=lambda p: p.recall)
    if not usable:
        return None
    if target_recall > usable[-1].recall + 1e-12:
        return None
    previous = None
    for point in usable:
        if point.recall >= target_recall:
            if previous is None or point.recall == previous.recall:
                return float(getattr(point, attr))
            span = point.recall - previous.recall
            frac = (target_recall - previous.recall) / span
            lo = float(getattr(previous, attr))
            hi = float(getattr(point, attr))
            return lo + frac * (hi - lo)
        previous = point
    return float(getattr(usable[-1], attr))


def max_recall(points: Sequence[OperatingPoint]) -> float:
    """Recall ceiling of a sweep (Fig. 10's quantity)."""
    return max((p.recall for p in points), default=0.0)
