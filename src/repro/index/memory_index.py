"""PQ-integrated graph ANNS, in-memory scenario (paper §7).

Only the compact codes, the codebook, and the graph stay resident; the
original vectors are dropped after encoding.  Routing and the final
ranking both use ADC lookup-table distances — there is no reranking
step, which is why this scenario's achievable recall is bounded by the
quantizer's quality (the effect Tables 7 / Fig. 10 measure).

All query execution goes through the shared engine binding
(:class:`~repro.index.base.GraphIndex`).  The scenario policy here is
the table build itself — ADC vs SDC mode, table dtype, and the
optional half-precision storage path.
"""

from __future__ import annotations

import numpy as np

from ..api.protocol import SearchRequest, SearchResponse
from ..api.registry import register_scenario
from ..engine import RunStats
from ..graphs.base import ProximityGraph
from ..quantization.adc import BatchLookupTable
from ..quantization.base import BaseQuantizer
from .base import GraphIndex, check_parts


@register_scenario("memory")
class MemoryIndex(GraphIndex):
    """In-memory PQ + proximity-graph index (the default scenario).

    ``scenario.params`` are the three keyword parameters below, dtypes
    by name (``"float64"`` / ``"float32"``).

    Parameters
    ----------
    graph:
        A built proximity graph over the dataset.
    quantizer:
        A fitted quantizer; only its codes/codebook are retained.
    x:
        The dataset — used once to compute the compact codes.
    distance_mode:
        ``"adc"`` (default, the paper's choice — asymmetric distances
        from full-precision queries) or ``"sdc"`` (the query is
        quantized too; cheaper table reuse, noisier estimates — kept to
        reproduce the paper's §3.1 premise that ADC is the better
        trade).
    table_dtype:
        Precision of the per-query ADC tables: ``np.float64`` (default)
        or ``np.float32`` — the opt-in half-bandwidth path for
        table builds; distance estimates then differ by a few ULPs.
    storage_dtype:
        Precision of the resident float storage.  ``np.float32`` opts
        into the full half-precision memory path: the codebook's
        codewords are stored (and the dataset encoded) in float32, and
        the table dtype defaults to float32 too — halving the float
        footprint and bandwidth at the cost of a few ULPs (codes may
        flip on near-tied codeword argmins).  ``np.float64`` (default)
        keeps the double-precision reference path bit-for-bit.
    """

    k_within_beam = True  # ADC-only ranking: no rerank to widen k
    param_keys = frozenset({"distance_mode", "table_dtype", "storage_dtype"})

    def __init__(
        self,
        graph: ProximityGraph,
        quantizer: BaseQuantizer,
        x: np.ndarray,
        distance_mode: str = "adc",
        table_dtype: np.dtype = None,
        storage_dtype: np.dtype = np.float64,
    ) -> None:
        x = check_parts(graph, quantizer, x)
        self._bind(
            graph, quantizer, x.shape[1], distance_mode, table_dtype, storage_dtype
        )
        if self.storage_dtype == np.dtype(np.float32):
            if type(quantizer).lookup_table is not BaseQuantizer.lookup_table:
                raise ValueError(
                    "storage_dtype=float32 supports plain chunked-PQ "
                    "table builds only; "
                    f"{type(quantizer).__name__} customizes its lookup "
                    "tables"
                )
            # Half-precision storage: the dataset is transformed row by
            # row (matching the scalar query path) then encoded against
            # the float32 codewords.
            transformed = np.stack(
                [np.asarray(quantizer.transform(row)).reshape(-1) for row in x]
            )
            self.codes = self._book.encode(transformed)
        else:
            self.codes = quantizer.encode(x)
        self._init_engine(graph, self.codes)

    def _bind(
        self, graph, quantizer, dim, distance_mode, table_dtype, storage_dtype
    ) -> None:
        """Every field but the codes and the engine binding over them
        — the one assignment path the constructor and
        :meth:`load_arrays` share."""
        if distance_mode not in ("adc", "sdc"):
            raise ValueError("distance_mode must be 'adc' or 'sdc'")
        self.distance_mode = distance_mode
        self.storage_dtype = np.dtype(storage_dtype)
        if self.storage_dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise ValueError("storage_dtype must be float64 or float32")
        if table_dtype is None:
            table_dtype = self.storage_dtype
        self.table_dtype = np.dtype(table_dtype)
        self.graph = graph
        self.quantizer = quantizer
        self.dim = int(dim)
        # Half-precision storage keeps float32 codewords resident.
        self._book = quantizer.codebook
        if self.storage_dtype == np.dtype(np.float32):
            self._book = self._book.astype(np.float32)

    # ------------------------------------------------------------------
    def _build_tables(self, queries: np.ndarray) -> BatchLookupTable:
        """One-shot ADC (or SDC) tables for a whole query batch."""
        book = self._book
        if self.distance_mode == "sdc":
            # Row-wise transform AND encode for bitwise parity with the
            # B=1 path: 2-D gemms can take a different BLAS path and
            # flip a near-tied codeword argmin.  decode is a pure
            # gather, so batching it is safe.
            transformed = [
                np.asarray(self.quantizer.transform(q)).reshape(-1)
                for q in np.atleast_2d(queries)
            ]
            codes = np.vstack([book.encode(t[None, :]) for t in transformed])
            recon = book.decode(codes)
            return BatchLookupTable.build(book, recon, dtype=self.table_dtype)
        if self.storage_dtype == np.dtype(np.float64):
            # Reference path: dispatch through the quantizer so table
            # overrides (residual/multi-stage quantizers) stay live.
            return self.quantizer.lookup_table_batch(queries, dtype=self.table_dtype)
        queries = np.atleast_2d(queries)
        transformed = (
            np.stack(
                [
                    np.asarray(self.quantizer.transform(q)).reshape(-1)
                    for q in queries
                ]
            )
            if queries.shape[0]
            else queries
        )
        return BatchLookupTable.build(book, transformed, dtype=self.table_dtype)

    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, params, graph, quantizer, x, labels=None):
        given = {key: value for key, value in params.items() if value is not None}
        return cls(graph, quantizer, x, **given)

    def export_arrays(self):
        meta = {
            "dim": int(self.dim),
            "distance_mode": self.distance_mode,
            "table_dtype": self.table_dtype.name,
            "storage_dtype": self.storage_dtype.name,
        }
        return meta, {"codes": self.codes}

    @classmethod
    def load_arrays(cls, meta, source, graph, quantizer):
        """The codes are taken as-is (the original vectors were dropped
        after encoding, exactly as in the live constructor)."""
        self = object.__new__(cls)
        self._bind(
            graph,
            quantizer,
            meta["dim"],
            meta["distance_mode"],
            meta["table_dtype"],
            meta["storage_dtype"],
        )
        self.codes = np.asarray(source["codes"])
        self._init_engine(graph, self.codes)
        return self

    # ------------------------------------------------------------------
    def _search(self, queries: np.ndarray, request: SearchRequest) -> SearchResponse:
        """Beam search with ADC distances; no rerank."""
        stats = RunStats()
        result = self.context.run(
            queries,
            request.beam_width,
            k=request.k,
            stats=stats,
            profile=self.kernel_profile,
        )
        return self._respond(
            result.ids,
            result.distances,
            result.counts,
            stats.workspace_reused,
            hops=result.hops,
            distance_computations=result.distance_computations,
        )

    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Resident footprint: codes + codebook + graph adjacency."""
        codes_bytes = self.codes.size * self.codes.dtype.itemsize
        return (
            int(codes_bytes)
            + self.quantizer.parameter_bytes()
            + self.graph.memory_bytes()
        )

    def full_precision_bytes(self) -> int:
        """What the same dataset would cost uncompressed (float32)."""
        n = self.graph.num_vertices
        return n * self.dim * 4 + self.graph.memory_bytes()

    def compression_ratio(self) -> float:
        return self.full_precision_bytes() / max(self.memory_bytes(), 1)
