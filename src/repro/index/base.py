"""The one engine binding and query surface every scenario shares.

:class:`GraphIndex` owns what used to be re-declared per scenario: the
:class:`~repro.engine.SearchContext` with its cross-request amortizers
(table cache + workspace pool), the table-cache fingerprint token, the
``kernel_profile`` hook, and ``search(SearchRequest) ->
SearchResponse`` with its field checks and ``B = 0`` handling.  A
scenario class *is* the policy on top — it overrides
:meth:`GraphIndex._build_tables` / :meth:`GraphIndex._table_fingerprint`
when its tables are special and implements :meth:`GraphIndex._search`
(expand hook + rerank, escalation, tombstone compaction).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..api.protocol import SearchRequest, SearchResponse, check_scenario_fields
from ..engine import KernelProfile, RunStats, SearchContext
from ..quantization.adc import BatchLookupTable
from ..quantization.table_cache import TableCache

#: The only per-query counter that is not an int64 count.
_FLOAT_COUNTERS = frozenset({"simulated_io_us"})


def compact_rows(ids: np.ndarray, distances: np.ndarray, keep: np.ndarray, k: int):
    """Stable per-row compaction of kernel candidates to ``k`` columns.

    Candidates flagged in ``keep`` move to the front with their ranking
    order preserved — the batched equivalent of boolean masking per
    query — then each row is cut (or padded) to ``k``: returns
    ``(ids, distances, counts)`` with ``-1`` / ``inf`` past ``counts``.
    """
    order = np.argsort(~keep, axis=1, kind="stable")
    ids = np.take_along_axis(ids, order, axis=1)
    distances = np.take_along_axis(distances, order, axis=1)
    if ids.shape[1] < k:
        pad = ((0, 0), (0, k - ids.shape[1]))
        ids, distances = np.pad(ids, pad), np.pad(distances, pad)
    counts = np.minimum(keep.sum(axis=1), k)
    valid = np.arange(k)[None, :] < counts[:, None]
    return (
        np.where(valid, ids[:, :k], -1),
        np.where(valid, distances[:, :k], np.inf),
        counts,
    )


class GraphIndex:
    """Engine binding + typed query surface; subclasses are policy."""

    #: Whether requests carry (and require) per-query target labels.
    supports_labels = False
    #: No rerank: ``k`` results must fit the routing beam.
    k_within_beam = False
    #: The exact counter keys of this scenario's responses, in order.
    counter_names: Tuple[str, ...] = (
        "hops",
        "distance_computations",
        "table_cache_hits",
        "workspace_reused",
    )

    def _init_engine(self, graph, codes) -> None:
        """Bind the context with its cross-request amortizers (table
        cache + workspace pool); shared by every construction path.
        (Streaming binds a template and fills in the live graph and
        codes per call.)"""
        self._fp_token = object()  # per-index cache-key identity anchor
        self.kernel_profile: Optional[KernelProfile] = None
        self.context = SearchContext(
            graph=graph,
            codes=codes,
            table_factory=self._build_tables,
            table_cache=TableCache(),
            fingerprint=self._table_fingerprint,
        )

    def _build_tables(self, queries: np.ndarray) -> BatchLookupTable:
        """One-shot ADC tables for a whole query batch."""
        return self.quantizer.lookup_table_batch(queries)

    def _table_fingerprint(self):
        """Everything that shapes a table row.  ``_fp_token`` pins index
        identity (a shared cache can never mix indexes); refresh it
        (:meth:`invalidate_table_cache`) after mutating anything the
        table build closes over."""
        return (self._fp_token, id(self.quantizer))

    def invalidate_table_cache(self) -> None:
        """Drop cached tables and refresh the fingerprint token (call
        after any quantizer/codebook/transform mutation)."""
        self._fp_token = object()
        if self.context.table_cache is not None:
            self.context.table_cache.clear()

    @property
    def table_cache(self):
        """The cross-request ADC table cache (``None`` = disabled)."""
        return self.context.table_cache

    @table_cache.setter
    def table_cache(self, cache) -> None:
        self.context.table_cache = cache

    def engine_status(self) -> dict:
        """Hot-path introspection: table-cache and workspace-pool stats."""
        cache = self.context.table_cache
        return {
            "table_cache": cache.stats() if cache is not None else None,
            "workspace_pool": self.context.workspace_pool.stats(),
        }

    # ------------------------------------------------------------------
    def search(self, request: SearchRequest) -> SearchResponse:
        """Answer one typed request.

        Row ``b`` of the response — ids, distances and every counter —
        is bitwise independent of the batch it rode in: one table build
        and one lockstep routing pass serve the whole batch, and the
        kernel runs each row's trajectory identically whether it shares
        the batch with 0 or 999 other queries.
        """
        check_scenario_fields(self, request)
        if self.k_within_beam and request.k > request.beam_width:
            raise ValueError("k cannot exceed beam_width")
        queries = request.query_matrix
        if queries.shape[0] == 0:
            return self._padding(0, request.k)
        return self._search(queries, request)

    def _search(self, queries: np.ndarray, request: SearchRequest) -> SearchResponse:
        """The scenario policy over a non-empty ``(B, dim)`` batch."""
        raise NotImplementedError

    def _respond(
        self, ids, distances, counts, stats: RunStats, **counters
    ) -> SearchResponse:
        """Package one answer under this scenario's counter schema."""
        b = ids.shape[0]
        counters.setdefault("table_cache_hits", stats.hits_vector(b))
        counters.setdefault("workspace_reused", stats.reuse_vector(b))
        assert len(counters) == len(self.counter_names), sorted(counters)
        return SearchResponse(
            ids=ids,
            distances=distances,
            counts=counts,
            counters={name: counters[name] for name in self.counter_names},
        )

    def _padding(self, b: int, k: int) -> SearchResponse:
        """``b`` rows of pure padding (``-1`` / ``inf``) with all-zero
        counters: the ``B = 0`` answer, and an empty index's."""
        counters = {}
        for name in self.counter_names:
            dtype = np.float64 if name in _FLOAT_COUNTERS else np.int64
            counters[name] = np.zeros(b, dtype=dtype)
        return SearchResponse(
            ids=np.full((b, k), -1, dtype=np.int64),
            distances=np.full((b, k), np.inf, dtype=np.float64),
            counts=np.zeros(b, dtype=np.int64),
            counters=counters,
        )
