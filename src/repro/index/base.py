"""The one engine binding, query surface and registry contract every
scenario shares.

:class:`GraphIndex` owns what used to be re-declared per scenario: the
:class:`~repro.engine.SearchContext` with its workspace pool, the
optional learned ``reweighter`` applied to every table build, the
``kernel_profile`` hook, and ``search(SearchRequest) ->
SearchResponse`` with its field checks and ``B = 0`` handling.  A
scenario class *is* the policy on top — it overrides
:meth:`GraphIndex._build_tables` when its tables are special and
implements :meth:`GraphIndex._search` (expand hook + rerank,
escalation, tombstone compaction) — and *is* its own entry in the
:mod:`repro.api.registry`: ``@register_scenario(name)`` decorates the
class, which declares what ``scenario.params`` it takes and implements
:meth:`GraphIndex.from_spec`, :meth:`GraphIndex.export_arrays` and
:meth:`GraphIndex.load_arrays`.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from ..api.protocol import SearchRequest, SearchResponse, check_scenario_fields
from ..engine import KernelProfile, RunStats, SearchContext
from ..quantization.adc import BatchLookupTable

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


def check_parts(graph, quantizer, x) -> np.ndarray:
    """``x`` as the ``(n, dim)`` float64 rows a scenario constructor
    indexes, checked against the graph and the quantizer it is given."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if graph.num_vertices != x.shape[0]:
        raise ValueError(f"graph has {graph.num_vertices} vertices, x has {x.shape[0]}")
    if not quantizer.is_fitted:
        raise ValueError("quantizer must be fitted")
    return x


class GraphIndex:
    """Engine binding + typed query surface; subclasses are policy."""

    #: The name ``@register_scenario`` filed this class under.
    scenario = ""
    #: Every key ``scenario.params`` may carry — unknown keys are
    #: rejected by :meth:`validate_params` (typos fail loudly, matching
    #: the spec layer's section/field validation).
    param_keys: frozenset = frozenset()
    #: Whether :func:`repro.api.build` must construct a proximity graph
    #: first (and persistence stores one).
    needs_graph = True
    #: Whether requests carry (and require) per-query target labels.
    supports_labels = False
    #: Names returned by :meth:`export_arrays` that hold PQ code
    #: matrices — ``save_index(compress=True)`` entropy-codes exactly these.
    code_arrays: Tuple[str, ...] = ("codes",)
    #: No rerank: ``k`` results must fit the routing beam.
    k_within_beam = False
    #: The exact counter keys of this scenario's responses, in order.
    counter_names: Tuple[str, ...] = (
        "hops",
        "distance_computations",
        "workspace_reused",
    )
    #: Optional learned routing (a
    #: :class:`~repro.index.l2r.LearnedRoutingReweighter`): applied to
    #: every batch of tables :meth:`_build_tables` returns.
    reweighter = None

    # -- registry contract ----------------------------------------------
    @classmethod
    def validate_params(cls, params: Mapping[str, Any]) -> None:
        unknown = set(params) - set(cls.param_keys)
        if unknown:
            raise ValueError(
                f"unknown scenario params {sorted(unknown)} for "
                f"{cls.scenario!r}; expected a subset of "
                f"{sorted(cls.param_keys)}"
            )

    @classmethod
    def resolve_labels(
        cls, params: Mapping[str, Any], n: int, labels: Optional[np.ndarray]
    ) -> Optional[np.ndarray]:
        """Per-row side array for ``n`` rows, resolved before the rows
        are split across shards (the filtered scenario overrides)."""
        return labels

    @classmethod
    def from_spec(
        cls,
        params: Mapping[str, Any],
        graph,
        quantizer,
        x: np.ndarray,
        labels: Optional[np.ndarray] = None,
    ) -> "GraphIndex":
        """Construct a live index over the rows of ``x`` from resolved
        parts; ``params`` is ``scenario.params``, already validated."""
        raise NotImplementedError

    def export_arrays(self) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
        """Return ``(meta, arrays)``: the scenario's JSON-able state
        plus every per-row array, named.  Nothing touches disk here —
        the persistence layer owns layout and compression."""
        raise NotImplementedError

    @classmethod
    def load_arrays(
        cls, meta: Dict[str, Any], source, graph, quantizer
    ) -> "GraphIndex":
        """Inverse of :meth:`export_arrays`.  ``source`` maps array
        name → ndarray (read-only memmap views when the container was
        opened mapped; ``source.mapped`` says which — a format-1
        directory arrives through the same interface, unmapped) and
        the result must answer searches bitwise-identically to the
        saved index."""
        raise NotImplementedError

    # -- engine binding -------------------------------------------------
    def _init_engine(self, graph, codes) -> None:
        """Bind the context (and with it the workspace pool); shared by
        every construction path.  (Streaming fills in the live graph
        and codes per call.)"""
        self.kernel_profile: Optional[KernelProfile] = None
        self.context = SearchContext(
            graph=graph, codes=codes, table_factory=self._tables
        )

    def _build_tables(self, queries: np.ndarray) -> BatchLookupTable:
        """One-shot ADC tables for a whole query batch."""
        return self.quantizer.lookup_table_batch(queries)

    def _tables(self, queries: np.ndarray) -> BatchLookupTable:
        """The context's table factory: the scenario's tables with the
        learned reweighting, if any, on top."""
        tables = self._build_tables(queries)
        if self.reweighter is not None:
            tables = self.reweighter.reweight_batch(tables)
        return tables

    def engine_status(self) -> dict:
        """Hot-path introspection: the workspace pool's stats."""
        return {"workspace_pool": self.context.workspace_pool.stats()}

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
        self, ids, distances, counts, workspace_reused, **counters
    ) -> SearchResponse:
        """Package one answer under this scenario's counter schema.
        ``workspace_reused`` is one kernel pass's flag, or a per-query
        count over several passes."""
        counters["workspace_reused"] = np.full(
            ids.shape[0], workspace_reused, dtype=np.int64
        )
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
