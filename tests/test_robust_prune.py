"""The lockstep RobustPrune against the scalar one it batches.

``robust_prune_batch`` must select, for every point, exactly the list
``robust_prune`` selects for that point alone — the scalar prune stays
the oracle (and the one-point path).  Consolidation is the lockstep
prune's caller: it must equal the sequential Fresh-DiskANN
consolidation list for list, and reach it without a single scalar
prune.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.datasets import load
from repro.graphs import vamana
from repro.graphs.vamana import PRUNE_CHUNK, robust_prune, robust_prune_batch
from repro.index import StreamingIndex
from repro.index import streaming
from repro.quantization import ProductQuantizer

from .helpers import stream_state


def split(flat, lens):
    if not len(lens):
        return []
    return [a.tolist() for a in np.split(flat, np.cumsum(lens)[:-1])]


def assert_matches_scalar(x, points, pools, alpha, r):
    lens = np.array([len(p) for p in pools], dtype=np.int64)
    flat = np.array([c for p in pools for c in p], dtype=np.int64)
    selected, selected_lens = robust_prune_batch(x, points, flat, lens, alpha, r)
    assert selected_lens.shape == (len(points),)
    expected = [
        robust_prune(x, int(p), list(pool), alpha, r)
        for p, pool in zip(points, pools)
    ]
    assert split(selected, selected_lens) == expected


def random_case(rng, n, dim, num_points, max_pool, integer=False):
    if integer:
        # Few distinct values: many exact distance ties.
        x = rng.integers(0, 3, size=(n, dim)).astype(np.float64)
    else:
        x = rng.standard_normal((n, dim))
    points = rng.integers(0, n, size=num_points)
    pools = [
        rng.integers(0, n, size=int(rng.integers(0, max_pool + 1))).tolist()
        for _ in range(num_points)
    ]
    return x, points, pools


@pytest.mark.parametrize("alpha", [1.0, 1.2])
@pytest.mark.parametrize("r", [1, 3, 8, 64])
@pytest.mark.parametrize("integer", [False, True])
def test_batch_equals_scalar_on_random_pools(alpha, r, integer):
    rng = np.random.default_rng(1000 * r + 10 * int(alpha * 10) + integer)
    # Ids drawn from few vertices: duplicates in almost every pool.
    x, points, pools = random_case(rng, 60, 6, 40, 30, integer=integer)
    assert_matches_scalar(x, points, pools, alpha, r)


def test_point_in_its_own_pool_and_duplicates():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((20, 4))
    points = np.array([0, 1, 2, 3])
    pools = [
        [0, 0, 0],  # only itself
        [1, 5, 5, 1, 7, 5],  # itself between duplicates
        [4, 4, 4, 4],  # one candidate, repeated
        [2, 9, 3, 9, 2],  # another point's id, and itself
    ]
    assert_matches_scalar(x, points, pools, 1.2, 4)


def test_empty_pools_and_no_points():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((10, 3))
    assert_matches_scalar(x, np.array([3, 4, 5]), [[], [1, 2], []], 1.2, 4)
    selected, lens = robust_prune_batch(
        x, np.empty(0, dtype=np.int64), np.empty(0), np.empty(0), 1.2, 4
    )
    assert selected.size == 0 and lens.size == 0


def test_exact_ties_keep_pool_order():
    # Four candidates at the same distance from the point, none of
    # which dominates another at alpha 1.0: the pool order decides.
    x = np.array([[0, 0], [1, 0], [0, 1], [-1, 0], [0, -1]], dtype=np.float64)
    pools = [[3, 1, 4, 2], [2, 4, 1, 3]]
    assert_matches_scalar(x, np.array([0, 0]), pools, 1.0, 4)
    flat = np.array(pools[0] + pools[1])
    selected, _ = robust_prune_batch(x, np.array([0, 0]), flat, [4, 4], 1.0, 4)
    assert selected.tolist() == pools[0] + pools[1]


def test_pools_straddle_chunk_boundaries():
    rng = np.random.default_rng(5)
    # 2.5 chunks of points; uneven pools so chunk edges fall anywhere.
    num_points = 2 * PRUNE_CHUNK + PRUNE_CHUNK // 2
    x, points, pools = random_case(rng, 300, 8, num_points, 25)
    assert_matches_scalar(x, points, pools, 1.2, 6)


# ----------------------------------------------------------------------
# Consolidation runs its prunes in lockstep
# ----------------------------------------------------------------------


def sequential_consolidation(lists, deleted, x, alpha, r):
    """Fresh-DiskANN consolidation, one scalar prune per point."""
    dead = {v for v, d in enumerate(deleted) if d}
    out = [list(nbrs) for nbrs in lists]
    for v, nbrs in enumerate(lists):
        if v in dead or not dead & set(nbrs):
            continue
        survivors = [u for u in nbrs if u not in dead]
        inherited = [
            w
            for u in nbrs
            if u in dead
            for w in lists[u]
            if w not in dead and w != v
        ]
        out[v] = robust_prune(x, v, survivors + inherited, alpha, r)
    for v in dead:
        out[v] = []
    return out


@pytest.fixture
def churned():
    data = load("sift", n_base=400, n_queries=1, seed=7)
    quantizer = ProductQuantizer(8, 16, seed=0).fit(data.base)
    index = StreamingIndex(quantizer, dim=data.dim, r=8, search_l=16)
    index.insert_batch(data.base)
    for v in range(0, 320, 5):  # 64 tombstones
        index.delete(v)
    return index


def test_consolidation_is_lockstep_and_equals_the_sequential_one(
    churned, monkeypatch
):
    before = stream_state(churned)
    dead = set(np.flatnonzero(before.deleted).tolist())
    assert len(dead) == 64
    points = sum(
        1
        for v, nbrs in enumerate(before.lists)
        if v not in dead and dead & set(nbrs)
    )
    assert points > PRUNE_CHUNK  # at least two lockstep calls

    scalar_calls = []
    lockstep_points = []
    real_prune, real_lockstep = robust_prune, vamana._prune_lockstep

    def counted_prune(*args, **kwargs):
        scalar_calls.append(1)
        return real_prune(*args, **kwargs)

    def counted_lockstep(x, chunk_points, *args, **kwargs):
        lockstep_points.append(len(chunk_points))
        return real_lockstep(x, chunk_points, *args, **kwargs)

    monkeypatch.setattr(streaming, "robust_prune", counted_prune)
    monkeypatch.setattr(vamana, "robust_prune", counted_prune)
    monkeypatch.setattr(vamana, "_prune_lockstep", counted_lockstep)
    assert churned.consolidate() == 64

    assert not scalar_calls
    assert len(lockstep_points) == math.ceil(points / PRUNE_CHUNK)
    assert sum(lockstep_points) == points
    expected = sequential_consolidation(
        before.lists, before.deleted, before.vectors, churned.alpha, churned.r
    )
    assert stream_state(churned).lists == expected
