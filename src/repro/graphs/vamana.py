"""Vamana graph (Jayaram Subramanya et al., DiskANN [36]).

The graph DiskANN stores on SSD.  Construction:

1. start from a random ``R``-regular digraph;
2. two passes over the points in random order — greedy-search the
   current graph for each point, then *robust prune* (α-RNG rule) its
   candidate set; first pass uses α = 1, second the target α > 1 which
   keeps longer "highway" edges;
3. insert reverse edges, pruning any vertex whose degree exceeds ``R``.

Robust prune comes in two forms: :func:`robust_prune` for one point
(construction and streaming inserts, which prune one point at a time)
and :func:`robust_prune_batch` for many independent points at once
(streaming delete consolidation), equal list for list.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..engine import lockstep_apply
from .base import ProximityGraph, medoid
from .beam import beam_search_batch


def robust_prune(
    x: np.ndarray,
    point: int,
    candidates: List[int],
    alpha: float,
    r: int,
) -> List[int]:
    """DiskANN's RobustPrune: greedily keep the closest candidate and
    drop everything α-dominated by it.

    A candidate ``c`` is dropped when some selected ``s`` satisfies
    ``alpha * d(s, c) <= d(point, c)`` — i.e. routing through ``s``
    makes ``c`` redundant.
    """
    pool = [c for c in dict.fromkeys(candidates) if c != point]
    if not pool:
        return []
    pool_arr = np.array(pool, dtype=np.int64)
    diff = x[pool_arr] - x[point]
    dist_to_p = np.einsum("ij,ij->i", diff, diff)
    order = np.argsort(dist_to_p, kind="stable")
    pool_arr = pool_arr[order]
    dist_to_p = dist_to_p[order]

    selected: List[int] = []
    alive = np.ones(pool_arr.size, dtype=bool)
    for idx in range(pool_arr.size):
        if not alive[idx]:
            continue
        s = int(pool_arr[idx])
        selected.append(s)
        if len(selected) >= r:
            break
        remaining = np.flatnonzero(alive[idx + 1 :]) + idx + 1
        if remaining.size:
            diff_s = x[pool_arr[remaining]] - x[s]
            d_sc = np.einsum("ij,ij->i", diff_s, diff_s)
            dominated = alpha * d_sc <= dist_to_p[remaining]
            alive[remaining[dominated]] = False
    return selected


#: Points per lockstep prune pass.  A pass holds one ``(pairs, dim)``
#: float64 difference block, so this bounds its memory whatever the
#: number of points.
PRUNE_CHUNK = 128


def robust_prune_batch(
    x: np.ndarray,
    points: np.ndarray,
    candidates: np.ndarray,
    lens: np.ndarray,
    alpha: float,
    r: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`robust_prune` for many independent points at once.

    ``candidates`` holds the pools back to back, ``lens[i]`` of them
    for ``points[i]`` (the kernel's ``(flat, lens)`` gather shape), and
    the answer comes back in the same shape: point ``i``'s share of
    ``selected`` is ``robust_prune(x, points[i], pool_i, alpha, r)``,
    list for list.  Points run :data:`PRUNE_CHUNK` at a time; within a
    chunk every selection round serves all points in one pass over
    flat (point, candidate) pairs, with the scalar prune's per-pair
    distances and α test, so ties break identically.  One-point callers
    keep the scalar prune, which is cheaper for a single pool.
    """
    points = np.asarray(points, dtype=np.int64).reshape(-1)
    candidates = np.asarray(candidates, dtype=np.int64).reshape(-1)
    lens = np.asarray(lens, dtype=np.int64).reshape(-1)
    offsets = np.zeros(points.size + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    none = np.empty(0, dtype=np.int64)
    selected, selected_lens = [none], [none]
    for a in range(0, points.size, PRUNE_CHUNK):
        b = min(a + PRUNE_CHUNK, points.size)
        flat, counts = _prune_lockstep(
            x,
            points[a:b],
            candidates[offsets[a] : offsets[b]],
            lens[a:b],
            alpha,
            r,
        )
        selected.append(flat)
        selected_lens.append(counts)
    return np.concatenate(selected), np.concatenate(selected_lens)


def _prune_lockstep(
    x: np.ndarray,
    points: np.ndarray,
    candidates: np.ndarray,
    lens: np.ndarray,
    alpha: float,
    r: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """One chunk of :func:`robust_prune_batch`."""
    owner = np.repeat(np.arange(points.size, dtype=np.int64), lens)
    # Each pool keeps the first occurrence of a candidate, in order,
    # and never the point itself.
    _, first = np.unique(owner * x.shape[0] + candidates, return_index=True)
    first.sort()
    first = first[candidates[first] != points[owner[first]]]
    owner, pool = owner[first], candidates[first]
    diff = x[pool] - x[points[owner]]
    dist_to_p = np.einsum("ij,ij->i", diff, diff)
    # Group by point, closest first; a stable sort keeps pool order on
    # ties, as the scalar prune's stable argsort does.
    order = np.lexsort((dist_to_p, owner))
    owner, pool, dist_to_p = owner[order], pool[order], dist_to_p[order]

    alive = np.ones(pool.size, dtype=bool)
    picked = np.zeros(points.size, dtype=np.int64)
    anchor = np.zeros(points.size, dtype=np.int64)
    none = np.empty(0, dtype=np.int64)
    rounds_owner, rounds_pool = [none], [none]
    while True:
        live = alive.nonzero()[0]
        if not live.size:
            break
        # Every point with a candidate left selects its closest one.
        group = owner[live]
        head = np.ones(live.size, dtype=bool)
        head[1:] = group[1:] != group[:-1]
        chosen, chooser = live[head], group[head]
        alive[chosen] = False
        picked[chooser] += 1
        anchor[chooser] = pool[chosen]
        rounds_owner.append(chooser)
        rounds_pool.append(pool[chosen])
        # The rest of each pool: dropped once its point holds r, else
        # tested for α-domination by what its point just selected.
        rest = live[~head]
        full = picked[owner[rest]] >= r
        alive[rest[full]] = False
        rest = rest[~full]
        if rest.size:
            diff = x[pool[rest]] - x[anchor[owner[rest]]]
            d_sc = np.einsum("ij,ij->i", diff, diff)
            alive[rest[alpha * d_sc <= dist_to_p[rest]]] = False
    chooser = np.concatenate(rounds_owner)
    order = np.argsort(chooser, kind="stable")
    selected = np.concatenate(rounds_pool)[order]
    return selected, np.bincount(chooser, minlength=points.size)


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

        def apply(position: int, payload) -> None:
            nonlocal epoch
            i = int(order[position])
            candidates = payload["ids"] + adjacency[i]
            adjacency[i] = robust_prune(x, i, candidates, pass_alpha, r)
            last_mod[i] = epoch
            for j in adjacency[i]:
                if i not in adjacency[j]:
                    adjacency[j].append(i)
                    last_mod[j] = epoch
                if len(adjacency[j]) > r:
                    adjacency[j] = robust_prune(
                        x, j, adjacency[j], pass_alpha, r
                    )
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
