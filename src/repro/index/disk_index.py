"""PQ-integrated graph ANNS, SSD-memory hybrid scenario (paper §7).

DiskANN-style search: compact codes + codebook live in memory; the graph
adjacency and the full-precision vectors live on the (simulated) SSD.
Routing distances come from the in-memory ADC tables; every expansion
reads the vertex's page, which also delivers its full vector — those
exact distances drive the final rerank, so the hybrid scenario reaches
high recall even with coarse codes, at the price of I/O per hop.

The routing loop itself is the shared lockstep kernel
(:mod:`repro.engine.kernel`); this module contributes only the disk
*policy*: an expansion hook that models one SSD read per query per
round (``frontier_width = io_width``, DiskANN's pipelined beam),
per-query I/O accounting, and the exact rerank over every vertex whose
page was read.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from ..api.protocol import SearchRequest, SearchResponse
from ..engine import RunStats, execute
from ..graphs.base import ProximityGraph
from ..quantization.adc import BatchLookupTable
from ..quantization.base import BaseQuantizer
from .base import GraphIndex
from .ssd import SimulatedSSD, SSDConfig


class _SSDExpansion:
    """Disk-scenario expansion policy for the lockstep kernel.

    Each kernel round hands over every active query's frontier (its
    ``io_width`` closest unexpanded candidates), flat; the policy
    charges one SSD read per query — so waves and page counts match the
    paper's per-query cost model — through a single
    :meth:`SimulatedSSD.read_round`, scores all fetched vectors with a
    single ``einsum`` for the final exact rerank, and returns the
    adjacency lists the pages delivered.
    """

    def __init__(
        self, ssd: SimulatedSSD, queries: np.ndarray, num_queries: int
    ) -> None:
        self.ssd = ssd
        self.queries = queries
        self.io_rounds = np.zeros(num_queries, dtype=np.int64)
        self.page_reads = np.zeros(num_queries, dtype=np.int64)
        self.io_us = np.zeros(num_queries, dtype=np.float64)
        # One entry per round: the query row, vertex and exact distance
        # of every page read, in read order.
        self._rows: List[np.ndarray] = []
        self._ids: List[np.ndarray] = []
        self._exact: List[np.ndarray] = []

    def __call__(
        self, rows: np.ndarray, vertices: np.ndarray, lens: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        vectors, flat_neighbors, neighbor_lens, io_us = self.ssd.read_round(
            vertices, lens
        )
        self.io_rounds[rows] += 1
        self.page_reads[rows] += lens
        self.io_us[rows] += io_us
        reader = rows.repeat(lens)
        diff = vectors.astype(np.float64) - self.queries[reader]
        self._rows.append(reader)
        self._ids.append(vertices)
        self._exact.append(np.einsum("ij,ij->i", diff, diff))
        return flat_neighbors, neighbor_lens

    def rerank(self, k: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each query's ``k`` exactly-closest read vertices.

        Stacked ``(B, k)`` ids / distances (padded ``-1`` / ``inf``)
        and the per-row counts.  Equal distances keep read order.
        """
        b = self.io_rounds.shape[0]
        out_ids = np.full((b, k), -1, dtype=np.int64)
        out_d = np.full((b, k), np.inf, dtype=np.float64)
        rows = np.concatenate(self._rows)
        exact = np.concatenate(self._exact)
        # lexsort is stable: by row, then distance, then read order.
        order = np.lexsort((exact, rows))
        rows = rows[order]
        reads = np.bincount(rows, minlength=b)
        rank = np.arange(rows.size) - np.repeat(np.cumsum(reads) - reads, reads)
        keep = rank < k
        rows, rank, order = rows[keep], rank[keep], order[keep]
        out_ids[rows, rank] = np.concatenate(self._ids)[order]
        out_d[rows, rank] = exact[order]
        return out_ids, out_d, np.minimum(reads, k)


class DiskIndex(GraphIndex):
    """DiskANN-style hybrid index over a simulated SSD.

    Parameters
    ----------
    graph:
        The Vamana (or other) proximity graph.
    quantizer:
        Fitted quantizer whose codes stay in memory.
    x:
        Full-precision vectors; stored on the simulated SSD together
        with the adjacency.
    ssd_config:
        Latency model of the simulated device.
    io_width:
        W — how many frontier vertices are fetched per I/O round
        (DiskANN's "beam width" for request pipelining).
    table_transform:
        Optional hook applied to each query's ADC lookup table before
        routing (used by the learning-to-route ablation to reweight
        distances without touching the quantizer).
    table_transform_batch:
        Optional batched counterpart taking/returning a
        :class:`BatchLookupTable`; when absent, the table factory falls
        back to applying ``table_transform`` per query row.
    """

    counter_names = (
        "hops",
        "io_rounds",
        "page_reads",
        "simulated_io_us",
        "distance_computations",
        "table_cache_hits",
        "workspace_reused",
    )

    def __init__(
        self,
        graph: ProximityGraph,
        quantizer: BaseQuantizer,
        x: np.ndarray,
        ssd_config: Optional[SSDConfig] = None,
        io_width: int = 4,
        table_transform: Optional[Callable] = None,
        table_transform_batch: Optional[Callable] = None,
    ) -> None:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if graph.num_vertices != x.shape[0]:
            raise ValueError(
                f"graph has {graph.num_vertices} vertices, x has {x.shape[0]}"
            )
        if not quantizer.is_fitted:
            raise ValueError("quantizer must be fitted")
        if io_width < 1:
            raise ValueError("io_width must be >= 1")
        self.graph = graph
        self.quantizer = quantizer
        self.codes = quantizer.encode(x)
        self.ssd = SimulatedSSD(x, graph.packed(), ssd_config)
        self.io_width = int(io_width)
        self.table_transform = table_transform
        self.table_transform_batch = table_transform_batch
        self.dim = x.shape[1]
        self._init_engine(graph, self.codes)

    def _table_fingerprint(self):
        """The frozen quantizer plus the optional routing transforms."""
        return super()._table_fingerprint() + (
            id(self.table_transform),
            id(self.table_transform_batch),
        )

    # ------------------------------------------------------------------
    def _build_tables(self, queries: np.ndarray) -> BatchLookupTable:
        """Batch ADC tables with the optional routing transform applied."""
        tables = self.quantizer.lookup_table_batch(queries)
        if self.table_transform_batch is not None:
            return self.table_transform_batch(tables)
        if self.table_transform is not None:
            return BatchLookupTable(
                tables=np.stack(
                    [
                        self.table_transform(tables.table_for(i)).table
                        for i in range(tables.num_queries)
                    ]
                )
            )
        return tables

    # ------------------------------------------------------------------
    @classmethod
    def from_state(
        cls,
        graph: ProximityGraph,
        quantizer: BaseQuantizer,
        codes: np.ndarray,
        vectors: np.ndarray,
        *,
        ssd_config: Optional[SSDConfig] = None,
        io_width: int = 4,
        table_transform: Optional[Callable] = None,
        table_transform_batch: Optional[Callable] = None,
    ) -> "DiskIndex":
        """Reconstruct from persisted state.  ``vectors`` is the SSD's
        float32 page copy (what the expansion hook actually reads), and
        ``codes`` the in-memory compact codes — both taken as-is so the
        loaded index reranks bitwise identically."""
        self = object.__new__(cls)
        self.graph = graph
        self.quantizer = quantizer
        self.codes = np.asarray(codes)
        self.ssd = SimulatedSSD(vectors, graph.packed(), ssd_config)
        self.io_width = int(io_width)
        self.table_transform = table_transform
        self.table_transform_batch = table_transform_batch
        self.dim = np.asarray(vectors).shape[1]
        self._init_engine(graph, self.codes)
        return self

    # ------------------------------------------------------------------
    def _search(
        self, queries: np.ndarray, request: SearchRequest
    ) -> SearchResponse:
        """DiskANN beam search + exact rerank.

        One lockstep kernel pass with the SSD expansion policy: every
        round selects each active query's ``io_width`` closest
        unexpanded candidates, issues one SSD read per query (so the
        per-query I/O accounting matches the paper's cost model), then
        scores all fetched vectors with one ``einsum`` and all fresh
        neighbors with one ADC gather across the whole batch.
        """
        b = queries.shape[0]
        stats = RunStats()
        tables = self.context.tables(queries, stats=stats)
        self.ssd.reset_counters()
        policy = _SSDExpansion(self.ssd, queries, b)
        pool = self.context.workspace_pool
        ws = pool.acquire()
        stats.workspace_reused = ws.reused
        try:
            result = execute(
                self.graph.packed(),  # only its length: reads go to the SSD
                np.full(b, self.graph.entry_point, dtype=np.int64),
                self.context.dist_fn(tables),
                request.beam_width,
                frontier_width=self.io_width,
                expand=policy,
                expansion_counts_distance=True,
                workspace=ws,
                profile=self.kernel_profile,
            )
        finally:
            pool.release(ws)

        # Exact rerank per query over every vertex whose page was read.
        out_ids, out_d, out_counts = policy.rerank(request.k)
        return self._respond(
            out_ids,
            out_d,
            out_counts,
            stats,
            hops=result.hops,
            io_rounds=policy.io_rounds,
            page_reads=policy.page_reads,
            simulated_io_us=policy.io_us,
            distance_computations=result.distance_computations,
        )

    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Resident (RAM) footprint: codes + codebook only."""
        codes_bytes = self.codes.size * self.codes.dtype.itemsize
        return int(codes_bytes) + self.quantizer.parameter_bytes()

    def ssd_bytes(self) -> int:
        return self.ssd.stored_bytes()

    def memory_fraction(self) -> float:
        """RAM bytes over total dataset + graph bytes (the paper's f)."""
        return self.memory_bytes() / max(self.ssd_bytes(), 1)
