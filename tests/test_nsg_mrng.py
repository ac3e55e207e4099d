"""NSG's MRNG edge selection against the candidate-by-candidate loop.

NSG selects through :func:`repro.graphs.prune.prune` with
``strict=True``: a window of vertices per call at build time (the
lockstep rounds), one vertex per InterInsert re-prune (the per-point
loop).  ``reference_mrng`` (``tests/test_prune.py``) is the selection
as first written: every candidate, nearest first, tested against every
neighbor selected so far.  Both paths must return its list, in the
same order, on any pool, under either rule.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs.prune import prune

from .test_prune import (
    PATHS,
    random_case,
    reference_mrng,
    reference_robust_prune,
    run_prune,
)


def mrng(x, vertex, candidates, r):
    """NSG's selection for one vertex (the InterInsert call)."""
    flat, _ = prune(
        x, [vertex], candidates, [len(candidates)], r, alpha=1.0, strict=True
    )
    return flat.tolist()


@pytest.mark.parametrize("seed", range(4))
def test_property_equals_the_loop_on_random_pools(seed):
    rng = np.random.default_rng(seed)
    for _ in range(40):
        x, r, points, pools = random_case(rng)
        for strict in (True, False):
            want = [
                reference_mrng(x, p, pool, r, strict)
                for p, pool in zip(points, pools)
            ]
            for path in PATHS:
                got = run_prune(x, points, pools, r, 1.0, strict, path)
                assert got == want, (strict, path, points, pools, r)


def test_an_exact_tie_is_not_an_occlusion():
    # 2 lies on the bisector of the vertex 0 and 1: |2 - 1|^2 == |2 - 0|^2
    # = 5, so 1 does not occlude it.  3 repeats 1's point: of the two,
    # the one listed first is selected and occludes the other.
    x = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 2.0], [2.0, 0.0]])
    assert mrng(x, 0, [3, 2, 1, 0, 1], r=8) == [3, 2]
    assert mrng(x, 0, [1, 2, 3], r=8) == [1, 2]


def test_rounding_on_the_bisector_is_the_loops():
    # Every c lies on the bisector of the vertex and its nearest
    # candidate s, so |c - s|^2 == |c - vertex|^2 up to rounding: under
    # either rule the verdict is decided by how the distances round.
    rng = np.random.default_rng(11)
    for _ in range(60):
        vertex = rng.normal(size=64)
        s = vertex + 0.1 * rng.normal(size=64)
        u = s - vertex
        w = rng.normal(size=(40, 64))
        w -= np.outer(w @ u / (u @ u), u)
        x = np.vstack([vertex, s, 0.5 * (vertex + s) + w])
        pool = list(range(1, len(x)))
        for strict in (True, False):
            want = reference_mrng(x, 0, pool, 64, strict)
            assert want == reference_robust_prune(x, 0, pool, 1.0, 64, strict)
            for path in PATHS:
                got = run_prune(x, [0, 0], [pool, pool], 64, 1.0, strict, path)
                assert got == [want, want], (strict, path)


def test_r_cuts_off_nearest_first():
    # 1..4 at distance 1 around the vertex 0; 5, 6, 7 behind 1, each
    # occluded by it.
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0],
                  [0.0, -1.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]])
    pool = [1, 2, 3, 4, 7, 6, 5]
    assert mrng(x, 0, pool, r=8) == [1, 2, 3, 4]
    assert mrng(x, 0, pool, r=2) == [1, 2]
    assert mrng(x, 0, [0], r=4) == []
    for r in (8, 3, 2):
        assert mrng(x, 0, pool, r) == reference_mrng(x, 0, pool, r)
