"""The occlusion prune every graph builder selects neighbors with.

HNSW, NSG and Vamana keep or drop an edge by one greedy rule: walk a
point's candidates nearest first, keep the nearest one still live, and
drop every candidate ``c`` that a kept neighbor ``s`` *covers* — one
the point ``p`` reaches as well through ``s``.  The builders differ
only in when ``s`` covers ``c``:

* RobustPrune (DiskANN, Subramanya et al., NeurIPS 2019) — Vamana and
  the streaming index: ``alpha * d(s, c) <= d(p, c)`` (``strict=False``);
* MRNG (NSG, Fu et al., VLDB 2019) and HNSW's Alg. 4 — NSG and HNSW:
  ``d(s, c) < d(p, c)`` (``strict=True``, ``alpha = 1``).

:func:`prune` takes the pools in the kernel's ``(flat, lens)`` gather
shape and answers in it.  Every squared distance is one stacked
``matmul`` dot product per pair, which rounds like ``diff @ diff``
(``einsum`` does not), so a candidate on a bisector gets the same
verdict whichever way it is computed.  The input size picks the way:
one point runs the per-point greedy loop; more points run lockstep
rounds over flat (point, candidate) pairs, :data:`PRUNE_CHUNK` points
at a time, equal list for list.  The loop stays because one point
routed through the lockstep rounds costs 1.7x as much (about 370
against 210 us for a 48-candidate pool of 64-dim rows, ``r = 16``, on
a 2-CPU x86 box), and one-point calls are common: NSG's InterInsert
re-prunes one vertex per call, and the batch inserters (HNSW, Vamana,
the streaming index) prune one point whenever a batch holds one (every
batch at ``build_batch_size = 1``, the first batches of every build),
whenever one point of a batch reaches an HNSW upper layer, and
whenever one target of a batch's reverse edges overflows.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

#: Points per lockstep pass.  A pass holds one ``(pairs, dim)``
#: float64 difference block, so this bounds its memory whatever the
#: number of points.
PRUNE_CHUNK = 128

Covers = Callable[[np.ndarray, np.ndarray], np.ndarray]


def prune(
    x: np.ndarray,
    points,
    pools,
    lens,
    r: int,
    *,
    alpha: float,
    strict: bool,
) -> Tuple[np.ndarray, np.ndarray]:
    """Select at most ``r`` neighbors of each of ``points`` among the
    rows of ``x``.

    ``pools`` holds the candidate pools back to back, ``lens[i]`` of
    them for ``points[i]``.  A pool keeps the first occurrence of each
    candidate and never the point itself; candidates at equal distance
    keep pool order.  ``c`` is dropped once a selected ``s`` has
    ``alpha * d(s, c) < d(p, c)`` (``strict``) or ``<=`` (not strict).
    Returns ``(flat, lens)``: point ``i``'s selection, in the order it
    was made (nearest first), is the ``i``-th run of ``flat``.
    """
    points = np.asarray(points, dtype=np.int64).reshape(-1)
    pools = np.asarray(pools, dtype=np.int64).reshape(-1)
    covers: Covers = np.less if strict else np.less_equal
    if points.size == 1:
        selected = _greedy(x, int(points[0]), pools, r, alpha, covers)
        return selected, np.array([selected.size], dtype=np.int64)
    lens = np.asarray(lens, dtype=np.int64).reshape(-1)
    offsets = np.zeros(points.size + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    none = np.empty(0, dtype=np.int64)
    selected, selected_lens = [none], [none]
    for a in range(0, points.size, PRUNE_CHUNK):
        b = min(a + PRUNE_CHUNK, points.size)
        flat, counts = _lockstep(
            x,
            points[a:b],
            pools[offsets[a] : offsets[b]],
            lens[a:b],
            r,
            alpha,
            covers,
        )
        selected.append(flat)
        selected_lens.append(counts)
    return np.concatenate(selected), np.concatenate(selected_lens)


def _sq_norms(diff: np.ndarray) -> np.ndarray:
    """Squared norm of every row of ``diff``, each one dot product
    rounded like ``diff[i] @ diff[i]``."""
    return np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0]


def _greedy(
    x: np.ndarray,
    point: int,
    pool: np.ndarray,
    r: int,
    alpha: float,
    covers: Covers,
) -> np.ndarray:
    """One point's prune: each selection drops, in one vectorised step,
    the live candidates it covers, so a candidate still live at its
    turn is selected."""
    pool = np.array(
        [c for c in dict.fromkeys(pool.tolist()) if c != point], dtype=np.int64
    )
    if not pool.size:
        return pool
    dist_to_p = _sq_norms(x[pool] - x[point])
    order = np.argsort(dist_to_p, kind="stable")
    pool, dist_to_p = pool[order], dist_to_p[order]
    rows = x[pool]

    alive = np.ones(pool.size, dtype=bool)
    selected = []
    for i in range(pool.size):
        if not alive[i]:
            continue
        selected.append(i)
        if len(selected) >= r:
            break
        rest = i + 1 + np.flatnonzero(alive[i + 1 :])
        if rest.size:
            d_sc = _sq_norms(rows[rest] - rows[i])
            alive[rest[covers(alpha * d_sc, dist_to_p[rest])]] = False
    return pool[selected]


def _lockstep(
    x: np.ndarray,
    points: np.ndarray,
    pools: np.ndarray,
    lens: np.ndarray,
    r: int,
    alpha: float,
    covers: Covers,
) -> Tuple[np.ndarray, np.ndarray]:
    """One chunk of points: every selection round serves all of them in
    one pass over flat (point, candidate) pairs."""
    owner = np.repeat(np.arange(points.size, dtype=np.int64), lens)
    # Each pool keeps the first occurrence of a candidate, in order,
    # and never the point itself.
    _, first = np.unique(owner * x.shape[0] + pools, return_index=True)
    first.sort()
    first = first[pools[first] != points[owner[first]]]
    owner, pool = owner[first], pools[first]
    dist_to_p = _sq_norms(x[pool] - x[points[owner]])
    # Group by point, closest first; a stable sort keeps pool order on
    # ties, as the per-point loop's stable argsort does.
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
        # tested against what its point just selected.
        rest = live[~head]
        full = picked[owner[rest]] >= r
        alive[rest[full]] = False
        rest = rest[~full]
        if rest.size:
            d_sc = _sq_norms(x[pool[rest]] - x[anchor[owner[rest]]])
            alive[rest[covers(alpha * d_sc, dist_to_p[rest])]] = False
    chooser = np.concatenate(rounds_owner)
    order = np.argsort(chooser, kind="stable")
    selected = np.concatenate(rounds_pool)[order]
    return selected, np.bincount(chooser, minlength=points.size)
