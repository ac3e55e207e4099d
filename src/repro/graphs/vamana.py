"""Vamana graph (Jayaram Subramanya et al., DiskANN [36]).

The graph DiskANN stores on SSD.  Construction:

1. start from a random ``R``-regular digraph;
2. two passes over the points in random order — greedy-search the
   current graph for each point, then *robust prune* (α-RNG rule) its
   candidate set; first pass uses α = 1, second the target α > 1 which
   keeps longer "highway" edges;
3. insert reverse edges, pruning any vertex whose degree exceeds ``R``.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..engine import lockstep_apply
from .base import ProximityGraph, medoid
from .beam import beam_search_batch
from .prune import prune


def build_vamana(
    x: np.ndarray,
    r: int = 32,
    search_l: int = 64,
    alpha: float = 1.2,
    seed: Optional[int] = 0,
    build_batch_size: int = 32,
) -> ProximityGraph:
    """Construct a Vamana graph over the rows of ``x``.

    Construction-time searches are issued in speculative lockstep
    windows of ``build_batch_size`` (see
    :mod:`repro.engine.construction`): a search is reused only if no
    adjacency list its trajectory read was modified by an earlier
    insertion, and re-run otherwise — so the produced graph is bitwise
    identical to ``build_batch_size=1`` (strictly sequential
    insertion) at a ~3x lower build time.

    Parameters
    ----------
    x:
        ``(n, d)`` dataset.
    r:
        Maximum out-degree.
    search_l:
        Beam width of the construction-time greedy searches.
    alpha:
        α of the second robust-prune pass (>1 keeps long edges).
    seed:
        Random-initialization and pass-order seed.
    build_batch_size:
        Lockstep window of the construction-time searches.
    """
    x = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    n = x.shape[0]
    if n == 0:
        raise ValueError("cannot build Vamana over an empty dataset")
    rng = np.random.default_rng(seed)
    entry = medoid(x)

    adjacency: List[List[int]] = []
    degree = min(r, max(n - 1, 0))
    for i in range(n):
        if degree == 0:
            adjacency.append([])
            continue
        choices = rng.choice(n - 1, size=degree, replace=False)
        choices = np.where(choices >= i, choices + 1, choices)
        adjacency.append(list(map(int, choices)))

    for pass_alpha in (1.0, alpha):
        order = rng.permutation(n)
        last_mod = np.full(n, -1, dtype=np.int64)
        epoch = 0

        def batch_search(positions):
            points = np.array(
                [int(order[p]) for p in positions], dtype=np.int64
            )
            queries = x[points]

            def dist_fn(qidx: np.ndarray, vertex_ids: np.ndarray):
                diff = x[vertex_ids] - queries[qidx]
                return np.einsum("ij,ij->i", diff, diff)

            result = beam_search_batch(
                adjacency,
                np.full(points.size, entry, dtype=np.int64),
                dist_fn,
                search_l,
                collect_visited=True,
            )
            assert result.visited_lists is not None
            return [
                {
                    "epoch": epoch,
                    "ids": list(result.row(t).ids),
                    "visited": result.visited_lists[t],
                }
                for t in range(points.size)
            ]

        def is_valid(payload) -> bool:
            # A payload searched after ``epoch`` applies is stale once
            # any adjacency list it read is modified by apply number
            # ``epoch`` or later.
            return not (
                last_mod[payload["visited"]] >= payload["epoch"]
            ).any()

        def select(point: int, pool: List[int]) -> List[int]:
            selected, _ = prune(
                x, [point], pool, [len(pool)], r, alpha=pass_alpha, strict=False
            )
            return selected.tolist()

        def apply(position: int, payload) -> None:
            nonlocal epoch
            i = int(order[position])
            adjacency[i] = select(i, payload["ids"] + adjacency[i])
            last_mod[i] = epoch
            for j in adjacency[i]:
                if i not in adjacency[j]:
                    adjacency[j].append(i)
                    last_mod[j] = epoch
                if len(adjacency[j]) > r:
                    adjacency[j] = select(j, adjacency[j])
                    last_mod[j] = epoch
            epoch += 1

        lockstep_apply(n, batch_search, is_valid, apply, build_batch_size)

    graph = ProximityGraph(
        adjacency=[np.array(nbrs, dtype=np.int64) for nbrs in adjacency],
        entry_point=entry,
        name="vamana",
        build_stats={"r": r, "search_l": search_l, "alpha": alpha},
    )
    graph.packed()  # prewarm the CSR view the search kernel routes over
    return graph
