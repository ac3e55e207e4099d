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

from typing import List, Optional, Tuple

import numpy as np

from ..api.protocol import SearchRequest, SearchResponse
from ..api.registry import register_scenario
from ..engine import execute
from ..graphs.base import ProximityGraph
from ..quantization.base import BaseQuantizer
from .base import GraphIndex, check_parts
from .l2r import LearnedRoutingReweighter
from .ssd import SimulatedSSD, SSDConfig


class _SSDExpansion:
    """Disk-scenario expansion policy for the lockstep kernel.

    Each kernel round hands over every active query's frontier (its
    ``io_width`` closest unexpanded candidates), flat; the policy
    charges one SSD read per query — so waves and page counts match the
    paper's per-query cost model — through a single
    :meth:`SimulatedSSD.read_round`, scores all fetched vectors with a
    single ``einsum`` for the final exact rerank, and returns the
    adjacency lists the pages delivered.  The device clock the reads
    are timed on is the search's own (it starts at 0), so searches
    sharing one SSD never see each other's I/O.
    """

    def __init__(
        self, ssd: SimulatedSSD, queries: np.ndarray, num_queries: int
    ) -> None:
        self.ssd = ssd
        self.queries = queries
        self.io_rounds = np.zeros(num_queries, dtype=np.int64)
        self.page_reads = np.zeros(num_queries, dtype=np.int64)
        self.io_us = np.zeros(num_queries, dtype=np.float64)
        self.clock_us = 0.0
        # One entry per round: the query row, vertex and exact distance
        # of every page read, in read order.
        self._rows: List[np.ndarray] = []
        self._ids: List[np.ndarray] = []
        self._exact: List[np.ndarray] = []

    def __call__(
        self, rows: np.ndarray, vertices: np.ndarray, lens: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        vectors, flat_neighbors, neighbor_lens, clock = self.ssd.read_round(
            vertices, lens, self.clock_us
        )
        self.clock_us = float(clock[-1])
        self.io_rounds[rows] += 1
        self.page_reads[rows] += lens
        self.io_us[rows] += clock[1:] - clock[:-1]
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


@register_scenario("hybrid")
class DiskIndex(GraphIndex):
    """DiskANN-style hybrid index over a simulated SSD.

    ``scenario.params``: ``io_width``, ``ssd`` (a mapping of
    :class:`SSDConfig` fields), and ``learned_routing`` + ``l2r_seed``
    for the L2R-reweighted variant (a fitted ``reweighter``).

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
    """

    param_keys = frozenset({"io_width", "ssd", "learned_routing", "l2r_seed"})
    counter_names = (
        "hops",
        "io_rounds",
        "page_reads",
        "simulated_io_us",
        "distance_computations",
        "workspace_reused",
    )

    def __init__(
        self,
        graph: ProximityGraph,
        quantizer: BaseQuantizer,
        x: np.ndarray,
        ssd_config: Optional[SSDConfig] = None,
        io_width: int = 4,
    ) -> None:
        x = check_parts(graph, quantizer, x)
        self._bind(graph, quantizer, quantizer.encode(x), x, ssd_config, io_width)

    def _bind(self, graph, quantizer, codes, vectors, ssd_config, io_width) -> None:
        """The one field-assignment path (constructor and
        :meth:`load_arrays`): ``vectors`` become the SSD's float32 page
        copy — what the expansion hook actually reads."""
        if io_width < 1:
            raise ValueError("io_width must be >= 1")
        self.graph = graph
        self.quantizer = quantizer
        self.codes = np.asarray(codes)
        self.ssd = SimulatedSSD(vectors, graph.packed(), ssd_config)
        self.io_width = int(io_width)
        self.dim = self.ssd._vectors.shape[1]
        self._init_engine(graph, self.codes)

    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, params, graph, quantizer, x, labels=None):
        kwargs = {}
        if params.get("ssd"):
            kwargs["ssd_config"] = SSDConfig(**params["ssd"])
        if "io_width" in params:
            kwargs["io_width"] = int(params["io_width"])
        index = cls(graph, quantizer, x, **kwargs)
        if params.get("learned_routing"):
            index.reweighter = LearnedRoutingReweighter.fit(
                quantizer, x, rng=np.random.default_rng(params.get("l2r_seed", 0))
            )
        return index

    def export_arrays(self):
        config = self.ssd.config
        meta = {
            "dim": int(self.dim),
            "io_width": int(self.io_width),
            "learned_routing": self.reweighter is not None,
            "ssd": {
                "read_latency_us": float(config.read_latency_us),
                "queue_parallelism": int(config.queue_parallelism),
                "page_bytes": int(config.page_bytes),
            },
        }
        arrays = {"codes": self.codes, "vectors": self.ssd._vectors}
        if self.reweighter is not None:
            arrays["l2r_weights"] = self.reweighter.weights
        return meta, arrays

    @classmethod
    def load_arrays(cls, meta, source, graph, quantizer):
        self = object.__new__(cls)
        self._bind(
            graph,
            quantizer,
            source["codes"],
            source["vectors"],
            SSDConfig(**meta["ssd"]),
            meta["io_width"],
        )
        if meta.get("learned_routing"):
            self.reweighter = LearnedRoutingReweighter(source["l2r_weights"])
        return self

    # ------------------------------------------------------------------
    def _search(self, queries: np.ndarray, request: SearchRequest) -> SearchResponse:
        """DiskANN beam search + exact rerank.

        One lockstep kernel pass with the SSD expansion policy: every
        round selects each active query's ``io_width`` closest
        unexpanded candidates, issues one SSD read per query (so the
        per-query I/O accounting matches the paper's cost model), then
        scores all fetched vectors with one ``einsum`` and all fresh
        neighbors with one ADC gather across the whole batch.
        """
        b = queries.shape[0]
        tables = self.context.table_factory(queries)
        policy = _SSDExpansion(self.ssd, queries, b)
        pool = self.context.workspace_pool
        ws = pool.acquire()
        reused = ws.reused  # read before release hands ws to another search
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
            reused,
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
