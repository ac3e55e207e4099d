"""Shared per-scenario execution state (:class:`SearchContext`).

Each index scenario owns exactly one context: the compact-code view of
its dataset, the factory that turns a query batch into ADC lookup
tables (where scenario policy like SDC mode, table dtype, or learned
reweighting lives), and the glue that binds both to the lockstep
kernel.  What remains in the index classes is pure policy: I/O
accounting for the hybrid scenario, escalation for filtered search,
tombstone compaction for streaming, exact reranking for disk.

The context also owns the hot-path amortizer: a per-index
:class:`~repro.engine.workspace.WorkspacePool` recycling kernel scratch
buffers.  It is bitwise-invisible; :class:`RunStats` reports its
activity so indexes can surface the reuse counter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, TYPE_CHECKING

import numpy as np

from .kernel import BatchDistanceFn, BatchSearchResult
from .profile import KernelProfile
from .workspace import WorkspacePool

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..graphs.base import ProximityGraph
    from ..quantization.adc import BatchLookupTable


@dataclass
class RunStats:
    """Engine telemetry for one ``run`` invocation.

    ``workspace_reused`` records whether the kernel ran on a recycled
    workspace (surfaced as the result counter of that name).
    """

    workspace_reused: bool = False


@dataclass
class SearchContext:
    """Dataset view + lookup-table factory + kernel invocation.

    Parameters
    ----------
    graph:
        The routing structure (flat graph or HNSW — the context goes
        through ``graph.search_batch`` so upper-layer descent stays a
        graph concern).
    codes:
        ``(n, M)`` compact codes of the dataset rows.
    table_factory:
        ``queries (B, dim) -> BatchLookupTable`` — one broadcasted
        table build per batch; scenario policy (ADC vs SDC, dtype,
        learned reweighting) is baked into the factory.
    workspace_pool:
        Recycled kernel scratch buffers, one pool per index.
    """

    graph: "ProximityGraph"
    codes: np.ndarray
    table_factory: Callable[[np.ndarray], "BatchLookupTable"]
    workspace_pool: WorkspacePool = field(default_factory=WorkspacePool)

    def dist_fn(
        self,
        tables: "BatchLookupTable",
        qmap: Optional[np.ndarray] = None,
    ) -> BatchDistanceFn:
        """Paired ADC distance callback over the context's codes.

        ``qmap`` remaps kernel-local query rows to table rows — the
        filtered scenario's escalation rounds run the kernel over the
        still-unsatisfied subset while reusing the full table batch.
        """
        codes = self.codes
        if qmap is None:
            def fn(query_idx: np.ndarray, vertex_ids: np.ndarray):
                return tables.pair_distance(query_idx, codes[vertex_ids])
        else:
            qmap = np.asarray(qmap, dtype=np.int64)

            def fn(query_idx: np.ndarray, vertex_ids: np.ndarray):
                return tables.pair_distance(
                    qmap[query_idx], codes[vertex_ids]
                )
        return fn

    def run(
        self,
        queries: np.ndarray,
        beam_width: int,
        k: Optional[int] = None,
        tables: Optional["BatchLookupTable"] = None,
        qmap: Optional[np.ndarray] = None,
        num_queries: Optional[int] = None,
        stats: Optional[RunStats] = None,
        profile: Optional[KernelProfile] = None,
    ) -> BatchSearchResult:
        """One lockstep routing pass for ``queries`` (or a subset).

        With ``qmap`` given, the kernel runs ``num_queries`` rows whose
        tables are ``tables[qmap]`` — otherwise one row per query.  The
        kernel runs on a pooled workspace; ``stats`` (if given) records
        whether it was recycled.
        """
        if tables is None:
            tables = self.table_factory(queries)
        if num_queries is None:
            num_queries = int(np.atleast_2d(queries).shape[0])
        ws = self.workspace_pool.acquire()
        if stats is not None:
            stats.workspace_reused = ws.reused
        try:
            return self.graph.search_batch(
                self.dist_fn(tables, qmap),
                beam_width,
                num_queries,
                k=k,
                workspace=ws,
                profile=profile,
            )
        finally:
            self.workspace_pool.release(ws)
