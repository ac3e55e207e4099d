"""The prune's lockstep rounds against its per-point loop.

:func:`repro.graphs.prune.prune` picks its path by input size: one
point runs the per-point loop, more run lockstep rounds over flat
(point, candidate) pairs, ``PRUNE_CHUNK`` points at a time.  The
lockstep rounds must select, for every point, exactly the list the
loop selects for that point alone, under either rule
(``tests/test_prune.py`` pins both paths to the original loops).
Consolidation is the lockstep rounds' caller: it must equal the
sequential Fresh-DiskANN consolidation list for list, and reach it
without a single per-point prune.
"""

from __future__ import annotations

import importlib
import math

import numpy as np
import pytest

from repro.datasets import load
from repro.graphs.prune import PRUNE_CHUNK, prune
from repro.index import StreamingIndex
from repro.quantization import ProductQuantizer

from .helpers import stream_state

prune_module = importlib.import_module("repro.graphs.prune")


def split(flat, lens):
    if not len(lens):
        return []
    return [a.tolist() for a in np.split(flat, np.cumsum(lens)[:-1])]


def prune_one(x, point, pool, alpha, r, strict=False):
    """The per-point loop's list for one point."""
    flat, _ = prune(x, [point], pool, [len(pool)], r, alpha=alpha, strict=strict)
    return flat.tolist()


def assert_paths_agree(x, points, pools, alpha, r):
    lens = np.array([len(p) for p in pools], dtype=np.int64)
    flat = np.array([c for p in pools for c in p], dtype=np.int64)
    for strict in (False, True):
        selected, selected_lens = prune(
            x, points, flat, lens, r, alpha=alpha, strict=strict
        )
        assert selected_lens.shape == (len(points),)
        expected = [
            prune_one(x, int(p), list(pool), alpha, r, strict)
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
    assert_paths_agree(x, points, pools, alpha, r)


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
    assert_paths_agree(x, points, pools, 1.2, 4)


def test_empty_pools_and_no_points():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((10, 3))
    assert_paths_agree(x, np.array([3, 4, 5]), [[], [1, 2], []], 1.2, 4)
    selected, lens = prune(
        x, np.empty(0, dtype=np.int64), [], [], 4, alpha=1.2, strict=False
    )
    assert selected.size == 0 and lens.size == 0


def test_exact_ties_keep_pool_order():
    # Four candidates at the same distance from the point, none of
    # which dominates another at alpha 1.0: the pool order decides.
    x = np.array([[0, 0], [1, 0], [0, 1], [-1, 0], [0, -1]], dtype=np.float64)
    pools = [[3, 1, 4, 2], [2, 4, 1, 3]]
    assert_paths_agree(x, np.array([0, 0]), pools, 1.0, 4)
    flat = np.array(pools[0] + pools[1])
    selected, _ = prune(x, [0, 0], flat, [4, 4], 4, alpha=1.0, strict=False)
    assert selected.tolist() == pools[0] + pools[1]


def test_pools_straddle_chunk_boundaries():
    rng = np.random.default_rng(5)
    # 2.5 chunks of points; uneven pools so chunk edges fall anywhere.
    num_points = 2 * PRUNE_CHUNK + PRUNE_CHUNK // 2
    x, points, pools = random_case(rng, 300, 8, num_points, 25)
    assert_paths_agree(x, points, pools, 1.2, 6)


# ----------------------------------------------------------------------
# Consolidation runs its prunes in lockstep
# ----------------------------------------------------------------------


def sequential_consolidation(lists, deleted, x, alpha, r):
    """Fresh-DiskANN consolidation, one per-point prune per point."""
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
        out[v] = prune_one(x, v, survivors + inherited, alpha, r)
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

    per_point_calls = []
    lockstep_points = []
    real_greedy, real_lockstep = prune_module._greedy, prune_module._lockstep

    def counted_greedy(*args, **kwargs):
        per_point_calls.append(1)
        return real_greedy(*args, **kwargs)

    def counted_lockstep(x, chunk_points, *args, **kwargs):
        lockstep_points.append(len(chunk_points))
        return real_lockstep(x, chunk_points, *args, **kwargs)

    monkeypatch.setattr(prune_module, "_greedy", counted_greedy)
    monkeypatch.setattr(prune_module, "_lockstep", counted_lockstep)
    assert churned.consolidate() == 64

    assert not per_point_calls
    assert len(lockstep_points) == math.ceil(points / PRUNE_CHUNK)
    assert sum(lockstep_points) == points
    expected = sequential_consolidation(
        before.lists, before.deleted, before.vectors, churned.alpha, churned.r
    )
    assert stream_state(churned).lists == expected
