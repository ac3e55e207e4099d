"""HNSW (Malkov & Yashunin [48]) built from scratch.

Hierarchical navigable small world graph: every point gets a random
level; upper layers provide long-range "highways" and the base layer a
dense neighborhood graph.  Search descends greedily through the upper
layers, then beam-searches the base layer.

This reproduction implements the standard construction: per-layer beam
search with ``ef_construction``, the Alg.-4 neighbor-selection heuristic
(the RNG-style prune, :func:`~repro.graphs.prune.prune` with
``strict=True``), bidirectional linking, and degree capping (``M`` per
upper layer, ``2M`` at the base layer).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..engine import lockstep_apply
from .base import ProximityGraph
from .beam import (
    BatchDistanceFn,
    BatchSearchResult,
    DistanceFn,
    SearchResult,
    beam_search,
    beam_search_batch,
    greedy_search,
    greedy_search_with_path,
    singleton_dist_fn,
)
from .prune import prune


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
        collect_visited: bool = False,
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
            collect_visited=collect_visited,
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

    The per-point layer searches run in speculative lockstep windows of
    ``build_batch_size`` (see :mod:`repro.engine.construction`): each
    point's upper-layer descent and searches are computed against a
    graph snapshot while its dominant base-layer ``ef_construction``
    search joins one lockstep kernel call for the whole window; a
    cached pipeline is reused only if nothing it read — upper-layer
    adjacency, base adjacency, or the entry point — changed before the
    point's strictly-ordered insertion, so the graph is bitwise
    identical to ``build_batch_size=1`` (sequential insertion).

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
        Lockstep window of the construction-time searches.
    """
    x = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    n = x.shape[0]
    if n == 0:
        raise ValueError("cannot build HNSW over an empty dataset")
    rng = np.random.default_rng(seed)
    level_mult = 1.0 / math.log(max(m, 2))
    m_base = 2 * m

    # Every layer maps a vertex to its neighbor list and is written as
    # a dict.  The base layer holds every vertex from the start; an
    # upper layer only the vertices linked into it, and searches read
    # it through a _LayerView, so a read never adds an empty list.
    base: Dict[int, List[int]] = {v: [] for v in range(n)}
    upper: List[Dict[int, List[int]]] = []
    levels = np.floor(
        -np.log(rng.uniform(low=1e-12, high=1.0, size=n)) * level_mult
    ).astype(np.int64)
    entry_point = 0
    max_level = int(levels[0])

    # Mutation log for the speculative driver: per-vertex last-modified
    # apply number for the base layer and each upper layer, plus the
    # apply number of the last entry-point/max-level change.
    base_mod = np.full(n, -1, dtype=np.int64)
    upper_mod: List[Dict[int, int]] = []
    entry_epoch = -1
    epoch = 0

    def upper_view(level: int) -> _LayerView:
        return _LayerView(upper[level - 1], n)

    def select(point: int, pool: List[int], cap: int) -> List[int]:
        selected, _ = prune(x, [point], pool, [len(pool)], cap, alpha=1.0, strict=True)
        return selected.tolist()

    # The upper-layer phase (descents + upper ef searches) is cached
    # separately from the base search: upper layers mutate ~log(m)
    # times less often than the base layer, so when a base search is
    # invalidated its point's upper chain usually survives and only
    # the base search is redone.
    upper_cache: Dict[int, dict] = {}

    def upper_reads_valid(part) -> bool:
        if entry_epoch >= part["epoch"]:
            return False
        stamp = part["epoch"]
        for lvl, verts in part["reads"]:
            mod = upper_mod[lvl - 1] if lvl - 1 < len(upper_mod) else {}
            if any(mod.get(int(v), -1) >= stamp for v in verts):
                return False
        return True

    def batch_search(points):
        """Speculative search pipelines for ``points`` on the current
        graph: scalar upper-layer work (tiny sparse layers, and only
        ~1/log(m) of points have upper levels), then one lockstep
        base-layer search for the whole window."""
        payloads = []
        base_entries = np.empty(len(points), dtype=np.int64)

        def snapshot_layer(lvl: int):
            # A layer the sequential builder would have materialized as
            # an empty dict may not exist yet at snapshot time; an
            # empty view routes identically.
            if lvl - 1 < len(upper):
                return upper_view(lvl)
            return _LayerView({}, n)

        def upper_phase(i: int) -> dict:
            cached = upper_cache.get(i)
            if cached is not None and upper_reads_valid(cached):
                return cached
            level = int(levels[i])
            dist_fn = _point_distance_fn(x, x[i])
            start = entry_point
            reads = []  # (layer, vertices whose adjacency was read)
            # Descend layers above the new point's level greedily.
            for lvl in range(max_level, level, -1):
                if lvl > len(upper):
                    continue
                start, path = greedy_search_with_path(
                    upper_view(lvl), start, dist_fn
                )
                reads.append((lvl, np.array(path, dtype=np.int64)))
            # Upper-layer ef searches (results are linked at apply time).
            upper_results = []
            for lvl in range(min(level, max_level), 0, -1):
                result = beam_search_batch(
                    snapshot_layer(lvl),
                    np.array([start], dtype=np.int64),
                    singleton_dist_fn(dist_fn),
                    ef_construction,
                    collect_visited=True,
                )
                assert result.visited_lists is not None
                cand_ids = list(result.row(0).ids)
                reads.append((lvl, result.visited_lists[0]))
                upper_results.append((lvl, cand_ids))
                start = cand_ids[0] if cand_ids else start
            part = {
                "epoch": epoch,
                "reads": reads,
                "upper_results": upper_results,
                "base_entry": int(start),
            }
            upper_cache[i] = part
            return part

        for t, i in enumerate(points):
            if i == 0:
                payloads.append({"first": True})
                base_entries[t] = entry_point
                continue
            part = upper_phase(i)
            base_entries[t] = part["base_entry"]
            payloads.append(
                {
                    "first": False,
                    "epoch": epoch,
                    "upper": part,
                }
            )

        sub = [t for t, i in enumerate(points) if i != 0]
        if sub:
            queries = x[np.array([points[t] for t in sub], dtype=np.int64)]

            def dist_fn_batch(qidx: np.ndarray, vertex_ids: np.ndarray):
                diff = x[vertex_ids] - queries[qidx]
                return np.einsum("ij,ij->i", diff, diff)

            result = beam_search_batch(
                base,
                base_entries[np.array(sub, dtype=np.int64)],
                dist_fn_batch,
                ef_construction,
                collect_visited=True,
            )
            assert result.visited_lists is not None
            for pos, t in enumerate(sub):
                row = result.row(pos)
                payloads[t]["base_ids"] = list(row.ids)
                payloads[t]["base_visited"] = result.visited_lists[pos]
        return payloads

    def is_valid(payload) -> bool:
        if payload["first"]:
            return True
        if not upper_reads_valid(payload["upper"]):
            return False
        return not (
            base_mod[payload["base_visited"]] >= payload["epoch"]
        ).any()

    def apply(i: int, payload) -> None:
        nonlocal entry_point, max_level, entry_epoch, epoch
        level = int(levels[i])
        while len(upper) < level:
            upper.append({})
            upper_mod.append({})
        if i == 0:
            max_level = level
            entry_point = 0
            epoch += 1
            return

        def mark(lvl: int, vertex: int) -> None:
            if lvl == 0:
                base_mod[vertex] = epoch
            else:
                upper_mod[lvl - 1][vertex] = epoch

        upper_cache.pop(i, None)
        # Link at each layer from min(level, max_level) down to 0 using
        # the validated search results (exactly the sequential order).
        layer_results = list(payload["upper"]["upper_results"]) + [
            (0, payload["base_ids"])
        ]
        for lvl, cand_ids in layer_results:
            cap = m_base if lvl == 0 else m
            layer = base if lvl == 0 else upper[lvl - 1]
            chosen = select(i, cand_ids, m)
            layer[i] = chosen
            mark(lvl, i)
            for c in chosen:
                layer.setdefault(c, []).append(i)
                mark(lvl, c)
                if len(layer[c]) > cap:
                    layer[c] = select(c, layer[c], cap)
                    mark(lvl, c)

        if level > max_level:
            max_level = level
            entry_point = i
            entry_epoch = epoch
        epoch += 1

    lockstep_apply(n, batch_search, is_valid, apply, build_batch_size)

    graph = HNSW(
        adjacency=[np.array(base[v], dtype=np.int64) for v in range(n)],
        entry_point=entry_point,
        name="hnsw",
        upper_layers=[
            {v: np.array(nbrs, dtype=np.int64) for v, nbrs in layer.items()}
            for layer in upper[:max_level]
        ],
        max_level=max_level,
        build_stats={"m": m, "ef_construction": ef_construction},
    )
    graph.packed()  # prewarm the CSR view the search kernel routes over
    return graph


def _point_distance_fn(x: np.ndarray, query: np.ndarray) -> DistanceFn:
    def fn(vertex_ids: np.ndarray) -> np.ndarray:
        rows = x[vertex_ids]
        diff = rows - query
        return np.einsum("ij,ij->i", diff, diff)

    return fn
