"""Label-filtered search (Filter-DiskANN-style [28]).

The paper lists Filtered-DiskANN among the DiskANN variants its
quantizer integrates with; this module supplies that capability for the
in-memory index: every vertex carries an integer label, and queries ask
for the nearest neighbors *within a label*.

Routing is unrestricted (off-label vertices still act as stepping
stones — the key insight of filtered graph search), while the result
set is label-filtered.  If a beam does not surface ``k`` matching
vertices, the search escalates the beam width geometrically up to
``max_beam_width``.
"""

from __future__ import annotations

import numpy as np

from ..api.protocol import SearchRequest, SearchResponse
from ..api.registry import register_scenario
from ..engine import RunStats
from ..graphs.base import ProximityGraph
from ..quantization.base import BaseQuantizer
from .base import GraphIndex, check_parts, compact_rows


@register_scenario("filtered")
class FilteredMemoryIndex(GraphIndex):
    """In-memory PQ+graph index with per-vertex labels.

    ``scenario.params``: ``num_labels`` + ``label_seed`` generate the
    per-vertex labels when the caller passes no ``labels`` array (so a
    JSON spec alone fully determines the index).

    Parameters
    ----------
    graph, quantizer, x:
        As in :class:`~repro.index.memory_index.MemoryIndex`.
    labels:
        ``(n,)`` integer label per vertex.
    """

    supports_labels = True  # requests carry per-query target labels
    param_keys = frozenset({"num_labels", "label_seed"})
    counter_names = (
        "hops",
        "distance_computations",
        "beam_widths_used",
        "workspace_reused",
    )

    def __init__(
        self,
        graph: ProximityGraph,
        quantizer: BaseQuantizer,
        x: np.ndarray,
        labels: np.ndarray,
    ) -> None:
        x = check_parts(graph, quantizer, x)
        labels = np.asarray(labels).reshape(-1)
        if labels.shape[0] != x.shape[0]:
            raise ValueError(f"got {labels.shape[0]} labels for {x.shape[0]} vectors")
        self._bind(graph, quantizer, quantizer.encode(x), labels)

    def _bind(self, graph, quantizer, codes, labels) -> None:
        """The one field-assignment path (constructor and
        :meth:`load_arrays`), label histogram included: labels are
        immutable, so one ``np.unique`` serves every request."""
        self.graph = graph
        self.quantizer = quantizer
        self.codes = np.asarray(codes)
        self.labels = np.asarray(labels).reshape(-1)
        self._label_values, self._label_counts = np.unique(
            self.labels, return_counts=True
        )
        self._init_engine(graph, self.codes)

    # ------------------------------------------------------------------
    @classmethod
    def resolve_labels(cls, params, n, labels):
        if labels is not None:
            return np.asarray(labels).reshape(-1)
        rng = np.random.default_rng(int(params.get("label_seed", 0)))
        return rng.integers(int(params.get("num_labels", 4)), size=n)

    @classmethod
    def from_spec(cls, params, graph, quantizer, x, labels=None):
        labels = cls.resolve_labels(params, x.shape[0], labels)
        return cls(graph, quantizer, x, labels)

    def export_arrays(self):
        return {}, {"codes": self.codes, "labels": self.labels}

    @classmethod
    def load_arrays(cls, meta, source, graph, quantizer):
        self = object.__new__(cls)
        self._bind(graph, quantizer, source["codes"], source["labels"])
        return self

    # ------------------------------------------------------------------
    def _available(self, labels: np.ndarray) -> np.ndarray:
        """Vertices carrying each of ``labels`` (0 for absent ones)."""
        values = self._label_values
        if not values.size:
            return np.zeros(labels.shape[0], dtype=np.int64)
        pos = np.minimum(np.searchsorted(values, labels), values.size - 1)
        return np.where(values[pos] == labels, self._label_counts[pos], 0)

    def label_count(self, label: int) -> int:
        """Number of vertices carrying ``label``."""
        return int(self._available(np.asarray([label]))[0])

    def _search(self, queries: np.ndarray, request: SearchRequest) -> SearchResponse:
        """Nearest vertices with ``labels == request.labels``, with
        shared escalation rounds.

        ``request.labels`` is a scalar (one label for the whole batch)
        or a ``(B,)`` array.  Every query follows the same beam
        schedule (``max(beam_width, k)`` doubling to
        ``max_beam_width``, default 256), so each escalation round is
        one lockstep routing pass over the still-unsatisfied queries.
        """
        k = request.k
        max_beam_width = (
            256 if request.max_beam_width is None else request.max_beam_width
        )
        b = queries.shape[0]
        labels_arr = np.asarray(request.labels).reshape(-1)
        if labels_arr.size == 1:
            qlabels = np.full(b, labels_arr[0])
        elif labels_arr.size == b:
            qlabels = labels_arr
        else:
            raise ValueError(f"labels must be a scalar or a ({b},) array")
        out_ids = np.full((b, k), -1, dtype=np.int64)
        out_d = np.full((b, k), np.inf, dtype=np.float64)
        counts = np.zeros(b, dtype=np.int64)
        hops = np.zeros(b, dtype=np.int64)
        comps = np.zeros(b, dtype=np.int64)
        beams_used = np.zeros(b, dtype=np.int64)
        available = self._available(qlabels)
        tables = self.context.table_factory(queries)
        ws_reused = np.zeros(b, dtype=np.int64)
        vertex_labels = self.labels

        active = np.ones(b, dtype=bool)
        beam = max(request.beam_width, k)
        while active.any():
            sub = np.flatnonzero(active)
            round_stats = RunStats()
            result = self.context.run(
                queries,
                beam,
                tables=tables,
                qmap=sub,
                num_queries=sub.size,
                stats=round_stats,
                profile=self.kernel_profile,
            )
            hops[sub] += result.hops
            comps[sub] += result.distance_computations
            ws_reused[sub] += int(round_stats.workspace_reused)

            width = result.ids.shape[1]
            valid = np.arange(width)[None, :] < result.counts[:, None]
            safe_ids = np.where(valid, result.ids, 0)
            match = valid & (vertex_labels[safe_ids] == qlabels[sub][:, None])
            matched_counts = match.sum(axis=1)
            done = (matched_counts >= np.minimum(k, available[sub])) | (
                beam >= max_beam_width
            )
            if done.any():
                rows = np.flatnonzero(done)
                done_global = sub[rows]
                # Matched candidates first, ranking order preserved.
                (
                    out_ids[done_global],
                    out_d[done_global],
                    counts[done_global],
                ) = compact_rows(
                    result.ids[rows], result.distances[rows], match[rows], k
                )
                beams_used[done_global] = beam
                active[done_global] = False
            beam = min(2 * beam, max_beam_width)
        return self._respond(
            out_ids,
            out_d,
            counts,
            ws_reused,
            hops=hops,
            distance_computations=comps,
            beam_widths_used=beams_used,
        )
