"""NSG — Navigating Spreading-out Graph (Fu et al. [26]).

Built from an exact kNN graph:

1. the *navigating node* is the dataset medoid;
2. for each vertex, candidates are gathered by searching the kNN graph
   toward the vertex from the navigating node, unioned with its kNN
   list, then filtered with the MRNG edge-selection rule (an edge
   ``(v, c)`` survives only if no already-selected neighbor ``s`` is
   closer to ``c`` than ``v`` is);
3. an InterInsert pass adds pruned reverse edges (as in the reference
   implementation);
4. a spanning pass guarantees every vertex is reachable from the
   navigating node.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .base import ProximityGraph, medoid
from .beam import beam_search, beam_search_batch
from .hnsw import _point_distance_fn
from .knn_graph import exact_knn


def _mrng_select(
    x: np.ndarray,
    vertex: int,
    candidates: List[int],
    r: int,
    min_degree: int = 0,
) -> List[int]:
    """MRNG rule: keep candidates not 'occluded' by a selected neighbor.

    Candidates are visited nearest first; ``c`` is occluded when some
    already-selected ``s`` has ``|c - s|^2 < |c - vertex|^2``.  Each
    selection kills the live candidates it occludes in one vectorised
    step, so a candidate still alive at its turn is selected.  The pair
    distances come from a stacked ``matmul`` — one dot product per
    pair, rounded exactly like ``diff @ diff`` — so the edges are those
    of the candidate-by-candidate test against every selected neighbor.

    ``min_degree`` re-adds the nearest pruned candidates when occlusion
    leaves fewer than that many edges — the ``keepPrunedConnections``
    practice of production NSG/HNSW builds, which prevents degenerate
    sparsity on hard (e.g. unit-normalized, high-LID) data.
    """
    pool = [c for c in dict.fromkeys(candidates) if c != vertex]
    if not pool:
        return []
    pool_arr = np.array(pool, dtype=np.int64)
    diff = x[pool_arr] - x[vertex]
    d_vc = np.einsum("ij,ij->i", diff, diff)
    order = np.argsort(d_vc, kind="stable")
    ids, d_vc = pool_arr[order], d_vc[order]
    points = x[ids]

    alive = np.ones(ids.size, dtype=bool)
    selected: List[int] = []
    pruned: List[int] = []
    for i in range(ids.size):
        if not alive[i]:
            pruned.append(int(ids[i]))
            continue
        selected.append(int(ids[i]))
        if len(selected) >= r:
            break
        later = i + 1 + np.flatnonzero(alive[i + 1 :])
        diff_sc = points[later] - points[i]
        d_sc = np.matmul(diff_sc[:, None, :], diff_sc[:, :, None])[:, 0, 0]
        alive[later[d_sc < d_vc[later]]] = False
    if len(selected) < min_degree:
        refill = pruned[: min_degree - len(selected)]
        selected.extend(refill)
    return selected


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
        for t, i in enumerate(points):
            candidates = list(knn_idx[i]) + list(result.row(t).ids)
            adjacency.append(_mrng_select(x, int(i), candidates, r))

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
                    adjacency[u] = _mrng_select(x, u, adjacency[u], r)


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
        dist_fn = _point_distance_fn(x, x[v])
        result = beam_search(adjacency, root, dist_fn, search_l)
        # Closest vertex the search reached; guaranteed reachable.
        anchor = int(result.ids[0]) if result.ids.size else root
        if anchor == v:  # can't happen unless already reachable, but guard
            anchor = root
        adjacency[anchor].append(v)
