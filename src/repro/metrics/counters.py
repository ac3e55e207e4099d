"""Aggregation of per-query search statistics (hops, I/O, ...)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass
class QueryStats:
    """Aggregated efficiency counters over a query batch."""

    mean_hops: float
    mean_distance_computations: float
    mean_page_reads: float = 0.0
    mean_io_us: float = 0.0

    @staticmethod
    def aggregate(results: Sequence[object]) -> "QueryStats":
        """Average the counters of per-query response rows.

        Accepts :class:`~repro.api.protocol.SearchResponseRow`-shaped
        objects (a ``counters`` mapping with ``hops`` and
        ``distance_computations``); ``page_reads`` and
        ``simulated_io_us`` are picked up when present (hybrid scenario).
        """
        if not results:
            raise ValueError("need at least one result")
        n = len(results)
        rows = [r.counters for r in results]
        hops = sum(c["hops"] for c in rows) / n
        comps = sum(c["distance_computations"] for c in rows) / n
        reads = sum(c.get("page_reads", 0) for c in rows) / n
        io_us = sum(c.get("simulated_io_us", 0.0) for c in rows) / n
        return QueryStats(
            mean_hops=hops,
            mean_distance_computations=comps,
            mean_page_reads=reads,
            mean_io_us=io_us,
        )
