"""The uniform index protocol: typed requests and responses.

One entry point, one result type, for every scenario index, the
sharded fan-out, the dynamic batcher, every shard backend and the
wire:

* :class:`SearchRequest` — queries plus every knob (``k``,
  ``beam_width``, optional per-query ``labels``, the filtered
  scenario's ``max_beam_width`` escalation cap).  Raw query arrays are
  validated (shape, finiteness) exactly once, here, where they enter.
* :class:`SearchResponse` — stacked ``(B, k)`` ids/distances, per-query
  valid ``counts``, and a ``counters`` mapping carrying every
  scenario-specific per-query counter (hops, distance computations,
  I/O rounds, page reads, escalated beam widths, ...).
  :meth:`SearchResponse.row` slices one query out as a
  :class:`SearchResponseRow` — the one row type (batcher futures,
  load-harness outcomes).
* :func:`check_scenario_fields` — the label-uniformity rules every
  ``search(request)`` applies before running.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Protocol, runtime_checkable

import numpy as np


def ensure_finite_queries(queries: np.ndarray) -> None:
    """Reject NaN/inf query components with a clear ``ValueError``.

    Non-finite coordinates produce NaN distances, and NaN poisons every
    comparison downstream — graph routing misorders its beam and the
    sharded merge's boundary-tie selection breaks with an opaque
    reshape error.  The two places raw arrays enter —
    ``SearchRequest`` construction (which also runs on every wire
    decode) and ``DynamicBatcher.submit`` — call this, so the failure
    is immediate and named and nothing downstream re-scans.
    """
    if not np.isfinite(queries).all():
        bad = np.nonzero(~np.isfinite(np.atleast_2d(queries)).all(axis=1))[0]
        raise ValueError(
            f"queries contain non-finite values (NaN/inf) in row(s) "
            f"{bad[:10].tolist()}; distances over non-finite "
            "coordinates are meaningless and would poison the "
            "top-k merge"
        )


@dataclass
class SearchRequest:
    """One search call, described as data.

    Parameters
    ----------
    queries:
        ``(B, dim)`` query matrix or a single ``(dim,)`` query.
    k:
        Neighbors to return per query.
    beam_width:
        Routing beam width.
    labels:
        Filtered scenario only: the target label — a scalar
        (broadcast over the batch) or a ``(B,)`` per-query array.
        Supplying labels to a non-filtered index raises ``ValueError``.
    max_beam_width:
        Filtered scenario only: escalation cap for rare labels.
        ``None`` keeps the index default.
    """

    queries: np.ndarray
    k: int = 10
    beam_width: int = 32
    labels: Optional[np.ndarray] = None
    max_beam_width: Optional[int] = None

    def __post_init__(self) -> None:
        self.queries = np.asarray(self.queries, dtype=np.float64)
        if self.queries.ndim == 0 or self.queries.ndim > 2:
            # A 0-dim scalar would silently become a (1, 1) matrix and
            # fail much later with a confusing dimension mismatch.
            raise ValueError(
                f"queries must be (dim,) or (B, dim), got shape "
                f"{self.queries.shape}"
            )
        ensure_finite_queries(self.queries)
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.beam_width < 1:
            raise ValueError("beam_width must be >= 1")

    @property
    def query_matrix(self) -> np.ndarray:
        """The queries as a 2-D ``(B, dim)`` matrix."""
        return np.atleast_2d(self.queries)

    @property
    def num_queries(self) -> int:
        return self.query_matrix.shape[0]


@dataclass
class SearchResponse:
    """Uniform result of one :class:`SearchRequest`.

    ``ids`` / ``distances`` are ``(B, k)`` with row ``b``'s first
    ``counts[b]`` entries valid (``-1`` / ``inf`` padding beyond);
    ``counters`` maps counter names (``"hops"``,
    ``"distance_computations"``, and scenario extras like
    ``"page_reads"`` or ``"beam_widths_used"``) to per-query arrays.
    """

    ids: np.ndarray
    distances: np.ndarray
    counts: np.ndarray
    counters: Dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def num_queries(self) -> int:
        return self.ids.shape[0]

    @property
    def hops(self) -> np.ndarray:
        return self.counters["hops"]

    @property
    def distance_computations(self) -> np.ndarray:
        return self.counters["distance_computations"]

    def total(self, counter: str) -> float:
        """Aggregate one per-query counter over the batch."""
        return float(np.sum(self.counters[counter]))

    def row_ids(self, i: int) -> np.ndarray:
        """Query ``i``'s valid neighbor ids."""
        return self.ids[i, : int(self.counts[i])]

    def row_distances(self, i: int) -> np.ndarray:
        """Query ``i``'s valid distances."""
        return self.distances[i, : int(self.counts[i])]

    def row(self, i: int) -> "SearchResponseRow":
        """Query ``i`` as a single-query row: copies of its valid-prefix
        ids and distances plus its per-query counter scalars."""
        return SearchResponseRow(
            ids=self.row_ids(i).copy(),
            distances=self.row_distances(i).copy(),
            counters={
                name: values[i] for name, values in self.counters.items()
            },
        )

    def __iter__(self) -> Iterator[np.ndarray]:
        """Iterate per-query valid id arrays (recall-metric friendly)."""
        return (self.row_ids(i) for i in range(self.num_queries))


@dataclass
class SearchResponseRow:
    """One query's slice of a :class:`SearchResponse`."""

    ids: np.ndarray
    distances: np.ndarray
    counters: Dict[str, object] = field(default_factory=dict)

    @property
    def hops(self):
        return self.counters["hops"]

    @property
    def distance_computations(self):
        return self.counters["distance_computations"]


@runtime_checkable
class Index(Protocol):
    """What every scenario index, ``ShardedIndex``, and the batcher
    expose: the uniform request entry point."""

    def search(self, request: SearchRequest) -> SearchResponse:
        ...


def check_scenario_fields(index: object, request: SearchRequest) -> None:
    """The label-uniformity rules of ``index.search(request)``.

    Labels (or the escalation cap) on a non-filtered index raise
    ``ValueError``, and so does the filtered scenario without labels.
    """
    name = type(index).__name__
    # Set by the filtered scenario and by a fan-out over filtered shards.
    if getattr(index, "supports_labels", False):
        if request.labels is None:
            raise ValueError(
                f"{name} is a filtered-scenario index and requires "
                "request.labels (a scalar or per-query array of target "
                "labels)"
            )
    elif request.labels is not None:
        raise ValueError(
            f"labels were supplied but {name} is not a filtered-scenario "
            "index; drop request.labels or build a 'filtered' index"
        )
    elif request.max_beam_width is not None:
        raise ValueError(
            "max_beam_width is the filtered scenario's escalation cap "
            f"but {name} is not a filtered-scenario index; drop "
            "request.max_beam_width"
        )
