"""HNSW (Malkov & Yashunin [48]) built from scratch.

Hierarchical navigable small world graph: every point gets a random
level; upper layers provide long-range "highways" and the base layer a
dense neighborhood graph.  Search descends greedily through the upper
layers, then beam-searches the base layer.

This reproduction implements the standard construction: per-layer beam
search with ``ef_construction``, the Alg.-4 neighbor-selection heuristic
(the RNG-style prune, :func:`~repro.graphs.prune.prune` with
``strict=True``), bidirectional linking, and degree capping (``M`` per
upper layer, ``2M`` at the base layer).  Points are inserted in
deterministic batches, as Vamana's are (:mod:`repro.graphs.vamana`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .base import ProximityGraph
from .beam import (
    BatchDistanceFn,
    BatchSearchResult,
    DistanceFn,
    SearchResult,
    beam_search,
    beam_search_batch,
    greedy_search,
)
from .block import BlockGraph
from .prune import prune
from .vamana import _concat_runs, _reverse_edges, batches


#: HNSW's batches grow more slowly than Vamana's: each holds at most a
#: sixteenth of the points already linked (:func:`batches`).  A point
#: never sees its batch-mates, and HNSW has no second pass to repair
#: what it missed: at most 1 in 17 of the points it could link to are
#: batch-mates (``docs/architecture.md`` has recall at divisors 1, 4
#: and 16).
GROWTH_DIVISOR = 16


@dataclass
class HNSW(ProximityGraph):
    """HNSW index.  ``adjacency`` holds the base layer; ``upper_layers``
    the sparse routing layers (vertex -> neighbor array)."""

    upper_layers: List[Dict[int, np.ndarray]] = field(default_factory=list)
    max_level: int = 0

    def search(
        self,
        dist_fn: DistanceFn,
        beam_width: int,
        k: Optional[int] = None,
        record_trace: bool = False,
        entry: Optional[int] = None,
    ) -> SearchResult:
        """Greedy descent through upper layers, then base-layer beam."""
        start = self.entry_point if entry is None else entry
        for layer in reversed(self.upper_layers):
            adjacency = _LayerView(layer, self.num_vertices)
            start = greedy_search(adjacency, start, dist_fn)
        return beam_search(
            self.packed(),
            start,
            dist_fn,
            beam_width,
            k=k,
            record_trace=record_trace,
        )

    def search_batch(
        self,
        dist_fn: "BatchDistanceFn",
        beam_width: int,
        num_queries: int,
        k: Optional[int] = None,
        entries: Optional[np.ndarray] = None,
        workspace=None,
        profile=None,
    ) -> "BatchSearchResult":
        """Per-query upper-layer descent, then one lockstep base beam.

        The descent re-uses the scalar :func:`greedy_search` (upper
        layers are tiny), handing :func:`beam_search_batch` a per-query
        entry array; each row therefore matches :meth:`search` bitwise.
        """
        if entries is None:
            entries = np.full(num_queries, self.entry_point, dtype=np.int64)
        else:
            entries = np.asarray(entries, dtype=np.int64).reshape(-1)
            if entries.shape[0] != num_queries:
                raise ValueError(
                    f"got {entries.shape[0]} entries for "
                    f"{num_queries} queries"
                )
        starts = np.empty(num_queries, dtype=np.int64)
        for qi in range(num_queries):
            start = int(entries[qi])
            per_query = _per_query_fn(dist_fn, qi)
            for layer in reversed(self.upper_layers):
                adjacency = _LayerView(layer, self.num_vertices)
                start = greedy_search(adjacency, start, per_query)
            starts[qi] = start
        return beam_search_batch(
            self.packed(),
            starts,
            dist_fn,
            beam_width,
            k=k,
            workspace=workspace,
            profile=profile,
        )


def _per_query_fn(dist_fn: "BatchDistanceFn", qi: int) -> DistanceFn:
    """Bind a paired batch callback to one query index."""

    def fn(vertex_ids: np.ndarray) -> np.ndarray:
        vertex_ids = np.asarray(vertex_ids, dtype=np.int64)
        qidx = np.full(vertex_ids.shape[0], qi, dtype=np.int64)
        return dist_fn(qidx, vertex_ids)

    return fn


class _LayerView:
    """Adapter exposing a sparse upper layer as an indexable adjacency."""

    _EMPTY = np.empty(0, dtype=np.int64)

    def __init__(self, layer: Dict[int, np.ndarray], n: int) -> None:
        self._layer = layer
        self._n = n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, vertex: int) -> np.ndarray:
        return self._layer.get(vertex, self._EMPTY)


def build_hnsw(
    x: np.ndarray,
    m: int = 16,
    ef_construction: int = 100,
    seed: Optional[int] = 0,
    build_batch_size: int = 32,
) -> HNSW:
    """Construct an HNSW graph over the rows of ``x``.

    Points are inserted in deterministic batches
    (:func:`~repro.graphs.vamana.batches`, at most a
    :data:`GROWTH_DIVISOR`-th of the linked points each).  A batch walks
    down the layers against the graph as it stood before the batch: at
    each layer its points below that level descend greedily, and the
    rest search it at ``ef_construction`` in one lockstep call, get
    their lists from one lockstep prune and add their back edges with
    Vamana's reverse-edge step.  The entry point moves after the batch,
    in batch order.  At ``build_batch_size=1`` every batch is one point
    and the build is exactly sequential insertion.

    Parameters
    ----------
    x:
        ``(n, d)`` dataset.
    m:
        Target out-degree on upper layers; the base layer allows ``2m``.
    ef_construction:
        Beam width used while inserting points.
    seed:
        Level-sampling seed.
    build_batch_size:
        Largest insert batch; ``1`` is strictly sequential insertion.
    """
    x = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    n = x.shape[0]
    if n == 0:
        raise ValueError("cannot build HNSW over an empty dataset")
    rng = np.random.default_rng(seed)
    level_mult = 1.0 / math.log(max(m, 2))
    levels = np.floor(
        -np.log(rng.uniform(low=1e-12, high=1.0, size=n)) * level_mult
    ).astype(np.int64)

    # layers[0] is the base layer.  An upper layer's vertices are the
    # ones written into it, kept in the order of their first write:
    # the order of its dict in the built graph.
    layers = [BlockGraph(2 * m if lvl == 0 else m) for lvl in range(levels.max() + 1)]
    for layer in layers:
        layer.resize(n)
        layer.n = n
    written = np.zeros((len(layers), n), dtype=bool)
    order = [[np.empty(0, dtype=np.int64)] for _ in layers]

    entry, max_level = 0, int(levels[0])
    for start, stop in batches(n - 1, 1, build_batch_size, GROWTH_DIVISOR):
        points = np.arange(start + 1, stop + 1, dtype=np.int64)
        point_levels = levels[points]
        starts = np.full(points.size, entry, dtype=np.int64)
        for lvl in range(max_level, -1, -1):
            layer = layers[lvl]
            link = point_levels >= lvl
            descend = ~link
            if descend.any():
                # Beam width 1 is the greedy descent: the kernel stops
                # where greedy_search does.
                found = beam_search_batch(
                    layer, starts[descend], _rows_dist_fn(x, points[descend]), 1
                )
                starts[descend] = found.ids[:, 0]
            if not link.any():
                continue
            linked = points[link]
            found = beam_search_batch(
                layer, starts[link], _rows_dist_fn(x, linked), ef_construction
            )
            starts[link] = found.ids[:, 0]
            valid = np.arange(found.ids.shape[1]) < found.counts[:, None]
            flat, lens = prune(
                x, linked, found.ids[valid], found.counts, m, alpha=1.0, strict=True
            )
            layer.set_rows(linked, flat, lens)
            _reverse_edges(
                layer,
                x,
                np.repeat(linked, lens),
                flat,
                r=layer.ids.shape[1],
                alpha=1.0,
                strict=True,
            )
            if lvl:
                # Each linked point, then the neighbours it wrote to.
                runs, _ = _concat_runs(linked, np.ones_like(lens), flat, lens)
                _, first = np.unique(runs, return_index=True)
                runs = runs[np.sort(first)]
                runs = runs[~written[lvl, runs]]
                written[lvl, runs] = True
                order[lvl].append(runs)
        top = int(point_levels.argmax())
        if point_levels[top] > max_level:
            entry, max_level = int(points[top]), int(point_levels[top])

    neighbors, offsets = layers[0].to_csr()
    graph = HNSW(
        adjacency=np.split(neighbors.astype(np.int64), offsets[1:-1]),
        entry_point=entry,
        name="hnsw",
        upper_layers=[
            {
                int(v): layers[lvl][v].astype(np.int64)
                for v in np.concatenate(order[lvl])
            }
            for lvl in range(1, max_level + 1)
        ],
        max_level=max_level,
        build_stats={"m": m, "ef_construction": ef_construction},
    )
    graph.packed()  # prewarm the CSR view the search kernel routes over
    return graph


def _rows_dist_fn(x: np.ndarray, rows: np.ndarray) -> BatchDistanceFn:
    """Squared distances from the rows ``rows`` of ``x`` (query ``i``
    is row ``rows[i]``) to vertices (rows of ``x``)."""
    queries = x[rows]

    def fn(qidx: np.ndarray, vertex_ids: np.ndarray) -> np.ndarray:
        diff = x[vertex_ids] - queries[qidx]
        return np.einsum("ij,ij->i", diff, diff)

    return fn
