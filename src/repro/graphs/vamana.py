"""Vamana graph (Jayaram Subramanya et al., DiskANN [36]).

The graph DiskANN stores on SSD.  Construction:

1. start from a random ``R``-regular digraph;
2. two passes over the points in random order — greedy-search the
   current graph for each point, then *robust prune* (α-RNG rule) its
   candidate set; first pass uses α = 1, second the target α > 1 which
   keeps longer "highway" edges;
3. insert reverse edges, pruning any vertex whose degree exceeds ``R``.

Points are inserted in deterministic batches, as ParlayANN does
(Manohar et al., PPoPP 2024).  :func:`insert_batch` links one batch in
four steps: every point is searched in one lockstep
:func:`~repro.graphs.beam.beam_search_batch` call against the graph as
it stood before the batch; every new list is selected in one lockstep
:func:`~repro.graphs.prune.prune` call; the reverse edges are grouped
by target, a target that fits appends them, and the targets that would
overflow ``R`` are re-pruned together in one more lockstep call.
:func:`batches` sizes the batches: each holds at most as many points
as are already linked, and at most ``build_batch_size``, so sizes
double up to that cap and the schedule depends only on ``n``, the cap
and the seed.  At cap 1 every batch is one point and the build is
exactly sequential insertion.  The streaming index
(:mod:`repro.index.streaming`) inserts through the same
:func:`insert_batch`, and HNSW (:mod:`repro.graphs.hnsw`) links each
of its layers in the same batches, with the same reverse-edge step.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from .base import ProximityGraph, medoid
from .beam import beam_search_batch
from .block import BlockGraph
from .prune import prune


def batches(
    count: int, linked: int, cap: int, divisor: int = 1
) -> Iterator[Tuple[int, int]]:
    """``(start, stop)`` of each batch of ``count`` points inserted into
    a graph where ``linked`` points already are: a batch holds at most
    one ``divisor``-th of the points linked before it (and at least
    one point), and at most ``cap``."""
    if cap < 1:
        raise ValueError("build_batch_size must be >= 1")
    start = 0
    while start < count:
        size = min(cap, max((linked + start) // divisor, 1))
        stop = min(count, start + size)
        yield start, stop
        start = stop


def insert_batch(
    graph: BlockGraph,
    x: np.ndarray,
    points: np.ndarray,
    entry: int,
    *,
    r: int,
    search_l: int,
    alpha: float,
) -> None:
    """Link ``points`` (vertices of ``graph``, rows of ``x``) as one
    batch: search them all on the graph as it stands, give each the
    prune of its search result plus its current list, then add the
    reverse edges (:func:`_reverse_edges`)."""
    queries = x[points]

    def dist_fn(qidx: np.ndarray, vertex_ids: np.ndarray) -> np.ndarray:
        diff = x[vertex_ids] - queries[qidx]
        return np.einsum("ij,ij->i", diff, diff)

    found = beam_search_batch(
        graph, np.full(points.size, entry, dtype=np.int64), dist_fn, search_l
    )
    # Each pool: the search's ids, then the point's current list.
    found_ids = found.ids[np.arange(found.ids.shape[1]) < found.counts[:, None]]
    pools, pool_lens = _concat_runs(found_ids, found.counts, *graph.gather(points))
    flat, lens = prune(x, points, pools, pool_lens, r, alpha=alpha, strict=False)
    graph.set_rows(points, flat, lens)
    _reverse_edges(
        graph, x, np.repeat(points, lens), flat, r=r, alpha=alpha, strict=False
    )


def _reverse_edges(
    graph: BlockGraph,
    x: np.ndarray,
    sources: np.ndarray,
    targets: np.ndarray,
    *,
    r: int,
    alpha: float,
    strict: bool,
) -> None:
    """Add each edge ``targets[i] -> sources[i]`` a list lacks, grouped
    by target in source order: a target that fits appends its new
    edges, and the targets that would pass ``r`` re-prune their list
    plus the new edges, all in one lockstep :func:`prune` call with
    ``alpha`` and ``strict``."""
    rows = graph.ids[targets]
    present = (rows == sources[:, None]) & (
        graph.cols < graph.deg[targets][:, None]
    )
    keep = ~present.any(axis=1)
    order = np.argsort(targets[keep], kind="stable")
    sources, targets = sources[keep][order], targets[keep][order]
    heads, counts = np.unique(targets, return_counts=True)
    fits = graph.deg[heads] + counts <= r
    fit_edges = np.repeat(fits, counts)
    graph.append(heads[fits], sources[fit_edges], counts[fits])
    over, over_counts = heads[~fits], counts[~fits]
    if not over.size:
        return
    pools, pool_lens = _concat_runs(
        *graph.gather(over), sources[~fit_edges], over_counts
    )
    flat, lens = prune(x, over, pools, pool_lens, r, alpha=alpha, strict=strict)
    graph.set_rows(over, flat, lens)


def _concat_runs(a, a_lens, b, b_lens) -> Tuple[np.ndarray, np.ndarray]:
    """Runs of ``(a, a_lens)`` and ``(b, b_lens)`` joined owner by
    owner, ``a``'s run first: the pools :func:`prune` reads."""
    seat = np.arange(a_lens.size)
    owner = np.concatenate([np.repeat(seat, a_lens), np.repeat(seat, b_lens)])
    joined = np.concatenate([a, b])[np.argsort(owner, kind="stable")]
    return joined, a_lens + b_lens


def build_vamana(
    x: np.ndarray,
    r: int = 32,
    search_l: int = 64,
    alpha: float = 1.2,
    seed: Optional[int] = 0,
    build_batch_size: int = 32,
) -> ProximityGraph:
    """Construct a Vamana graph over the rows of ``x``.

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
        Largest insert batch (:func:`batches`); ``1`` is strictly
        sequential insertion.
    """
    x = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    n = x.shape[0]
    if n == 0:
        raise ValueError("cannot build Vamana over an empty dataset")
    rng = np.random.default_rng(seed)
    entry = medoid(x)

    graph = BlockGraph(r)
    graph.resize(n)
    graph.n = n
    degree = min(r, max(n - 1, 0))
    for i in range(n):
        if degree == 0:
            continue
        choices = rng.choice(n - 1, size=degree, replace=False)
        graph.ids[i, :degree] = np.where(choices >= i, choices + 1, choices)
        graph.deg[i] = degree

    for pass_alpha in (1.0, alpha):
        order = rng.permutation(n)
        for start, stop in batches(n, 1, build_batch_size):
            insert_batch(
                graph,
                x,
                order[start:stop],
                entry,
                r=r,
                search_l=search_l,
                alpha=pass_alpha,
            )

    neighbors, offsets = graph.to_csr()
    adjacency = np.split(neighbors.astype(np.int64), offsets[1:-1])
    result = ProximityGraph(
        adjacency=adjacency,
        entry_point=entry,
        name="vamana",
        build_stats={"r": r, "search_l": search_l, "alpha": alpha},
    )
    result.packed()  # prewarm the CSR view the search kernel routes over
    return result
