"""The one occlusion prune against the three loops it replaced.

``graphs.prune.prune`` serves Vamana and the streaming index
(RobustPrune, ``strict=False``) and NSG and HNSW (MRNG / Alg. 4,
``strict=True``).  Each rule was first written as its own loop; the
three loops are kept here as the oracles, each with its own rule
operator swapped by ``strict`` and every distance a ``diff @ diff``:

* :func:`reference_robust_prune` — DiskANN's RobustPrune (Vamana);
* :func:`reference_mrng` — NSG's MRNG, candidate by candidate against
  every selected neighbor;
* :func:`reference_hnsw` — HNSW's Alg. 4 neighbor-selection heuristic.

``prune`` must return each reference's list, in order, under both
rules and through both of its paths: the per-point loop (one point per
call) and the lockstep rounds (many points per call).  The MRNG
reference's property test and the bisector cases, where rounding
decides the verdict, are in ``tests/test_nsg_mrng.py``; the lockstep
rounds against the per-point loop, and consolidation, in
``tests/test_robust_prune.py``.
"""

from __future__ import annotations

from typing import List

import numpy as np
import pytest

from repro.graphs.prune import prune

PATHS = ("per-point", "lockstep")


def sqdist(a: np.ndarray, b: np.ndarray) -> float:
    diff = a - b
    return float(diff @ diff)


def covers(strict: bool, d_sc: float, d_pc: float) -> bool:
    return d_sc < d_pc if strict else d_sc <= d_pc


def reference_robust_prune(
    x: np.ndarray,
    point: int,
    candidates: List[int],
    alpha: float,
    r: int,
    strict: bool = False,
) -> List[int]:
    """DiskANN's RobustPrune: greedily keep the closest candidate and
    drop everything α-dominated by it."""
    pool = [c for c in dict.fromkeys(candidates) if c != point]
    if not pool:
        return []
    pool_arr = np.array(pool, dtype=np.int64)
    dist_to_p = np.array([sqdist(x[c], x[point]) for c in pool_arr])
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
        for j in range(idx + 1, pool_arr.size):
            if alive[j]:
                d_sc = sqdist(x[pool_arr[j]], x[s])
                alive[j] = not covers(strict, alpha * d_sc, dist_to_p[j])
    return selected


def reference_mrng(
    x: np.ndarray,
    vertex: int,
    candidates: List[int],
    r: int,
    strict: bool = True,
) -> List[int]:
    """NSG's MRNG: every candidate, nearest first, tested against every
    neighbor selected so far."""
    pool = [c for c in dict.fromkeys(candidates) if c != vertex]
    if not pool:
        return []
    pool_arr = np.array(pool, dtype=np.int64)
    d_vc = np.array([sqdist(x[c], x[vertex]) for c in pool_arr])
    order = np.argsort(d_vc, kind="stable")

    selected: List[int] = []
    for pos in order:
        c = int(pool_arr[pos])
        d_c = float(d_vc[pos])
        keep = True
        for s in selected:
            if covers(strict, sqdist(x[c], x[s]), d_c):
                keep = False
                break
        if keep:
            selected.append(c)
            if len(selected) >= r:
                break
    return selected


def reference_hnsw(
    x: np.ndarray,
    candidates: List[int],
    distances: List[float],
    m: int,
    strict: bool = True,
) -> List[int]:
    """HNSW Alg. 4: keep a candidate only if it is closer to the query
    point than to every already-selected neighbor (diversity prune)."""
    order = np.argsort(distances, kind="stable")
    selected: List[int] = []
    for pos in order:
        c = candidates[pos]
        d_cq = distances[pos]
        keep = True
        for s in selected:
            if covers(strict, sqdist(x[c], x[s]), d_cq):
                keep = False
                break
        if keep:
            selected.append(c)
            if len(selected) >= m:
                break
    return selected


def split(flat: np.ndarray, lens: np.ndarray) -> List[List[int]]:
    return [a.tolist() for a in np.split(flat, np.cumsum(lens)[:-1])]


def run_prune(x, points, pools, r, alpha, strict, path) -> List[List[int]]:
    """``prune`` on every (point, pool) pair: one call per point, or
    one call for all of them."""
    if path == "per-point":
        out = []
        for p, pool in zip(points, pools):
            flat, lens = prune(x, [p], pool, [len(pool)], r, alpha=alpha, strict=strict)
            assert lens.tolist() == [flat.size]
            out.append(flat.tolist())
        return out
    assert len(points) > 1  # the lockstep rounds
    flat, lens = prune(
        x,
        np.array(points, dtype=np.int64),
        np.array([c for pool in pools for c in pool], dtype=np.int64),
        [len(pool) for pool in pools],
        r,
        alpha=alpha,
        strict=strict,
    )
    assert lens.shape == (len(points),)
    return split(flat, lens)


def random_case(rng: np.random.Generator, distinct: bool = False):
    """A random point set, ``r`` and a dozen (point, pool) pairs over it.

    Half the sets are small integers (exact distance ties, repeated
    points).  Pools repeat ids and may hold their point, unless
    ``distinct`` (HNSW's pools come from a search that cannot return
    the point being linked, each id once).
    """
    n = int(rng.integers(2, 80))
    dim = int(rng.choice([2, 3, 8, 64]))
    if rng.random() < 0.5:
        x = rng.integers(0, 4, size=(n, dim)).astype(np.float64)
    else:
        x = rng.normal(size=(n, dim)) * rng.choice([1e-3, 1.0, 300.0])
    points, pools = [], []
    for _ in range(12):
        point = int(rng.integers(n))
        pool = [int(c) for c in rng.integers(0, n, size=rng.integers(0, 2 * n))]
        if rng.random() < 0.5:
            pool.insert(int(rng.integers(len(pool) + 1)), point)
        if distinct:
            pool = [c for c in dict.fromkeys(pool) if c != point]
        points.append(point)
        pools.append(pool)
    return x, int(rng.integers(1, 12)), points, pools


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("alpha", [1.0, 1.2])
def test_equals_robust_prune_on_random_pools(alpha, strict, path):
    rng = np.random.default_rng(int(10 * alpha) + 2 * strict)
    for _ in range(60):
        x, r, points, pools = random_case(rng)
        want = [
            reference_robust_prune(x, p, pool, alpha, r, strict)
            for p, pool in zip(points, pools)
        ]
        assert run_prune(x, points, pools, r, alpha, strict, path) == want


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("strict", [False, True])
def test_equals_hnsw_alg4_on_random_pools(strict, path):
    rng = np.random.default_rng(30 + strict)
    for _ in range(60):
        x, r, points, pools = random_case(rng, distinct=True)
        want = [
            reference_hnsw(x, pool, [sqdist(x[c], x[p]) for c in pool], r, strict)
            for p, pool in zip(points, pools)
        ]
        assert run_prune(x, points, pools, r, 1.0, strict, path) == want
