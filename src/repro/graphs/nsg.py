"""NSG — Navigating Spreading-out Graph (Fu et al. [26]).

Built from an exact kNN graph:

1. the *navigating node* is the dataset medoid;
2. for each vertex, candidates are gathered by searching the kNN graph
   toward the vertex from the navigating node, unioned with its kNN
   list, then filtered with the MRNG edge-selection rule (an edge
   ``(v, c)`` survives only if no already-selected neighbor ``s`` is
   closer to ``c`` than ``v`` is) — :func:`~repro.graphs.prune.prune`
   with ``strict=True``, one call per window of ``build_batch_size``
   vertices;
3. an InterInsert pass adds pruned reverse edges (as in the reference
   implementation);
4. a spanning pass guarantees every vertex is reachable from the
   navigating node.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .base import ProximityGraph, medoid
from .beam import beam_search, beam_search_batch, exact_distance_fn
from .knn_graph import exact_knn
from .prune import prune


def build_nsg(
    x: np.ndarray,
    knn_k: int = 32,
    r: int = 32,
    search_l: int = 64,
    seed: Optional[int] = 0,
    build_batch_size: int = 32,
) -> ProximityGraph:
    """Construct an NSG over the rows of ``x``.

    The candidate-gathering searches all run against the *static*
    bootstrap kNN graph, so — unlike Vamana/HNSW insertion — they
    batch trivially: ``build_batch_size`` of them share each lockstep
    kernel call with no validation needed, and the result is bitwise
    identical to searching one point at a time.

    Parameters
    ----------
    x:
        ``(n, d)`` dataset.
    knn_k:
        Neighbors in the bootstrap exact kNN graph.
    r:
        Maximum out-degree of the final graph.
    search_l:
        Beam width of candidate-gathering searches.
    seed:
        Reserved for interface symmetry (NSG construction here is
        deterministic given the data).
    build_batch_size:
        Lockstep window of the candidate-gathering searches.
    """
    if build_batch_size < 1:
        raise ValueError("build_batch_size must be >= 1")
    del seed  # deterministic build
    x = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    n = x.shape[0]
    if n == 0:
        raise ValueError("cannot build NSG over an empty dataset")
    knn_k = min(knn_k, n - 1) if n > 1 else 0
    navigating = medoid(x)

    if knn_k == 0:
        return ProximityGraph(
            adjacency=[np.empty(0, dtype=np.int64)],
            entry_point=0,
            name="nsg",
        )

    # Candidate pool per vertex: its exact nearest neighbors, topped up
    # with a navigating-node search over the kNN graph.  (The reference
    # implementation uses only the search because exact kNN at 1M+ scale
    # is prohibitive; at this scale the exact list is already computed
    # and strictly better.)
    pool_k = min(max(knn_k, search_l), n - 1)
    knn_idx, _ = exact_knn(x, pool_k)
    knn_adj = [knn_idx[i][:knn_k] for i in range(n)]

    adjacency: List[List[int]] = []
    beam = min(search_l, 24)
    for start in range(0, n, build_batch_size):
        points = np.arange(start, min(start + build_batch_size, n))
        queries = x[points]

        def dist_fn(qidx: np.ndarray, vertex_ids: np.ndarray):
            diff = x[vertex_ids] - queries[qidx]
            return np.einsum("ij,ij->i", diff, diff)

        result = beam_search_batch(
            knn_adj,
            np.full(points.size, navigating, dtype=np.int64),
            dist_fn,
            beam,
        )
        pools = [
            np.concatenate([knn_idx[i], result.row(t).ids])
            for t, i in enumerate(points)
        ]
        flat, lens = prune(
            x,
            points,
            np.concatenate(pools),
            [pool.size for pool in pools],
            r,
            alpha=1.0,
            strict=True,
        )
        adjacency.extend(
            selected.tolist() for selected in np.split(flat, np.cumsum(lens)[:-1])
        )

    _inter_insert(x, adjacency, r)
    _ensure_reachable(x, adjacency, navigating, search_l)

    graph = ProximityGraph(
        adjacency=[np.array(nbrs, dtype=np.int64) for nbrs in adjacency],
        entry_point=navigating,
        name="nsg",
        build_stats={"knn_k": knn_k, "r": r, "search_l": search_l},
    )
    graph.packed()  # prewarm the CSR view the search kernel routes over
    return graph


def _inter_insert(x: np.ndarray, adjacency: List[List[int]], r: int) -> None:
    """NSG's InterInsert step: add reverse edges, re-pruning any vertex
    whose degree exceeds ``r``.  Without it the graph is one-directional
    and hard datasets (normalized, high-LID) route poorly."""
    n = len(adjacency)
    for v in range(n):
        for u in list(adjacency[v]):
            if v not in adjacency[u]:
                adjacency[u].append(v)
                if len(adjacency[u]) > r:
                    selected, _ = prune(
                        x,
                        [u],
                        adjacency[u],
                        [len(adjacency[u])],
                        r,
                        alpha=1.0,
                        strict=True,
                    )
                    adjacency[u] = selected.tolist()


def _ensure_reachable(
    x: np.ndarray,
    adjacency: List[List[int]],
    root: int,
    search_l: int,
) -> None:
    """Attach unreachable vertices: search toward each orphan from the
    root and link it from the closest reachable vertex found (NSG's
    spanning-tree step)."""
    n = len(adjacency)
    while True:
        reached = np.zeros(n, dtype=bool)
        stack = [root]
        reached[root] = True
        while stack:
            v = stack.pop()
            for u in adjacency[v]:
                if not reached[u]:
                    reached[u] = True
                    stack.append(int(u))
        orphans = np.flatnonzero(~reached)
        if orphans.size == 0:
            return
        v = int(orphans[0])
        dist_fn = exact_distance_fn(x, x[v])
        result = beam_search(adjacency, root, dist_fn, search_l)
        # Closest vertex the search reached; guaranteed reachable.
        anchor = int(result.ids[0]) if result.ids.size else root
        if anchor == v:  # can't happen unless already reachable, but guard
            anchor = root
        adjacency[anchor].append(v)
