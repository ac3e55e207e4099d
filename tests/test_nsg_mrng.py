"""NSG's MRNG edge selection against the candidate-by-candidate loop.

``reference_mrng_select`` is the selection as first written: every
candidate, nearest first, is tested against every neighbor selected so
far.  ``graphs.nsg._mrng_select`` kills the candidates a selection
occludes in one vectorised step instead; it must return the same list,
in the same order, on any pool.
"""

from __future__ import annotations

from typing import List

import numpy as np
import pytest

from repro.graphs.nsg import _mrng_select


def reference_mrng_select(
    x: np.ndarray,
    vertex: int,
    candidates: List[int],
    r: int,
    min_degree: int = 0,
) -> List[int]:
    """The per-candidate loop over the selected set (the oracle)."""
    pool = [c for c in dict.fromkeys(candidates) if c != vertex]
    if not pool:
        return []
    pool_arr = np.array(pool, dtype=np.int64)
    diff = x[pool_arr] - x[vertex]
    d_vc = np.einsum("ij,ij->i", diff, diff)
    order = np.argsort(d_vc, kind="stable")

    selected: List[int] = []
    pruned: List[int] = []
    for pos in order:
        c = int(pool_arr[pos])
        d_c = float(d_vc[pos])
        keep = True
        for s in selected:
            diff_sc = x[c] - x[s]
            if float(diff_sc @ diff_sc) < d_c:
                keep = False
                break
        if keep:
            selected.append(c)
            if len(selected) >= r:
                break
        else:
            pruned.append(c)
    if len(selected) < min_degree:
        refill = pruned[: min_degree - len(selected)]
        selected.extend(refill)
    return selected


def random_case(rng: np.random.Generator):
    """A random point set and one selection call over it.

    Half the cases are small integers (exact distance ties, repeated
    points); pools repeat ids and may contain the vertex itself.
    """
    n = int(rng.integers(2, 80))
    dim = int(rng.choice([2, 3, 8, 64]))
    if rng.random() < 0.5:
        x = rng.integers(0, 4, size=(n, dim)).astype(np.float64)
    else:
        x = rng.normal(size=(n, dim)) * rng.choice([1e-3, 1.0, 300.0])
    vertex = int(rng.integers(n))
    candidates = [int(c) for c in rng.integers(0, n, size=rng.integers(0, 2 * n))]
    if rng.random() < 0.5:
        candidates.insert(int(rng.integers(len(candidates) + 1)), vertex)
    r = int(rng.integers(1, 12))
    min_degree = int(rng.integers(0, 14))
    return x, vertex, candidates, r, min_degree


@pytest.mark.parametrize("seed", range(4))
def test_property_equals_the_loop_on_random_pools(seed):
    rng = np.random.default_rng(seed)
    for _ in range(250):
        x, vertex, candidates, r, min_degree = random_case(rng)
        want = reference_mrng_select(x, vertex, candidates, r, min_degree)
        got = _mrng_select(x, vertex, candidates, r, min_degree)
        assert got == want, (vertex, candidates, r, min_degree)


def test_an_exact_tie_is_not_an_occlusion():
    # 2 lies on the bisector of the vertex 0 and 1: |2 - 1|^2 == |2 - 0|^2
    # = 5, so 1 does not occlude it.  3 repeats 1's point: of the two,
    # the one listed first is selected and occludes the other.
    x = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 2.0], [2.0, 0.0]])
    assert _mrng_select(x, 0, [3, 2, 1, 0, 1], r=8) == [3, 2]
    assert _mrng_select(x, 0, [1, 2, 3], r=8) == [1, 2]
    assert _mrng_select(x, 0, [1, 2, 3], r=8, min_degree=3) == [1, 2, 3]


def test_rounding_on_the_bisector_is_the_loops():
    # Every c lies on the bisector of the vertex and its nearest
    # candidate s, so |c - s|^2 == |c - vertex|^2 up to rounding: the
    # verdict is decided by how the pair distance rounds.
    rng = np.random.default_rng(11)
    for _ in range(60):
        vertex = rng.normal(size=64)
        s = vertex + 0.1 * rng.normal(size=64)
        u = s - vertex
        w = rng.normal(size=(40, 64))
        w -= np.outer(w @ u / (u @ u), u)
        x = np.vstack([vertex, s, 0.5 * (vertex + s) + w])
        pool = list(range(1, len(x)))
        assert _mrng_select(x, 0, pool, 64) == reference_mrng_select(
            x, 0, pool, 64
        )


def test_r_cuts_off_and_min_degree_refills_nearest_pruned_first():
    # 1..4 at distance 1 around the vertex 0; 5, 6, 7 behind 1, each
    # occluded by it.
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0],
                  [0.0, -1.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]])
    pool = [1, 2, 3, 4, 7, 6, 5]
    assert _mrng_select(x, 0, pool, r=8) == [1, 2, 3, 4]
    assert _mrng_select(x, 0, pool, r=2) == [1, 2]
    assert _mrng_select(x, 0, pool, r=8, min_degree=6) == [1, 2, 3, 4, 5, 6]
    assert _mrng_select(x, 0, [0], r=4, min_degree=2) == []
    for r, min_degree in ((8, 0), (2, 0), (8, 6), (3, 9)):
        want = reference_mrng_select(x, 0, pool, r, min_degree)
        assert _mrng_select(x, 0, pool, r, min_degree) == want
