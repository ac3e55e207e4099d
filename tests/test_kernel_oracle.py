"""The kernel against a naive oracle.

Every other parity test compares :func:`repro.engine.kernel.execute`
with itself (batch vs ``B=1``, packed vs lists, new vs vendored old
kernel).  This one compares it with an independent, deliberately naive
reference — Python lists and a ``set``, no NumPy, no code shared with
the kernel — so the *semantics* are pinned, not just self-consistency:

* each round expands a query's ``frontier_width`` closest unexpanded
  candidates, in ranking order;
* freshness is sequential inside a frontier: a later member's
  neighbours already delivered by an earlier member are not fresh;
* one adjacency list is probed as a whole before its vertices are
  marked seen, so a vertex repeated *inside* one list is delivered
  twice (and later expanded twice);
* fresh candidates append in adjacency order, the list is re-ranked by
  a stable sort and cut to ``beam_width``.

Distances are drawn from a handful of levels so ties are everywhere and
stability is exercised, not assumed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.kernel import execute
from repro.graphs.packed import PackedAdjacency

FRONTIER_WIDTHS = (1, 2, 4, 8)
BATCH_SIZES = (1, 7, 32)


def reference_search(adjacency, entry, dist, beam_width, k, width, count_hops):
    """One query, the slow obvious way.  ``dist`` maps vertex -> float."""
    candidates = [[dist[entry], entry, False]]  # distance, vertex, expanded
    seen = {entry}
    expanded = []
    comps = 1
    while True:
        frontier = [c for c in candidates if not c[2]][:width]
        if not frontier:
            break
        fresh = []
        for member in frontier:
            member[2] = True
            expanded.append(member[1])
            delivered = [v for v in adjacency[member[1]] if v not in seen]
            seen.update(delivered)
            fresh.extend(delivered)
        comps += len(fresh) + (len(frontier) if count_hops else 0)
        candidates.extend([dist[v], v, False] for v in fresh)
        candidates.sort(key=lambda c: c[0])  # list.sort is stable
        del candidates[beam_width:]
    top = candidates[: min(k, beam_width)]
    return {
        "ids": [c[1] for c in top],
        "distances": [c[0] for c in top],
        "hops": len(expanded),
        "comps": comps,
    }


# ----------------------------------------------------------------------
# Graphs: plain Python lists of ints, vertex -> neighbour list.
# ----------------------------------------------------------------------


def ragged_random(seed):
    rng = np.random.default_rng(seed)
    n = 70
    return [
        [int(v) for v in rng.integers(0, n, size=rng.integers(0, 13))]
        for _ in range(n)
    ]


def shared_neighbours(seed):
    """Frontier members whose lists overlap almost entirely."""
    rng = np.random.default_rng(seed)
    n = 48
    hub = [int(v) for v in rng.permutation(n)[:14]]
    graph = []
    for _ in range(n):
        own = [int(v) for v in rng.integers(0, n, size=2)]
        order = rng.permutation(len(hub))
        graph.append([hub[i] for i in order] + own)
    return graph


def repeated_in_list(seed):
    """A vertex listed several times by the same neighbour list."""
    rng = np.random.default_rng(seed)
    n = 40
    graph = []
    for _ in range(n):
        base = [int(v) for v in rng.integers(0, n, size=5)]
        graph.append(base + [base[0], base[2], base[0]])
    return graph


def zero_degree(seed):
    """Half the vertices are dead ends; some entries start on one."""
    rng = np.random.default_rng(seed)
    n = 50
    return [
        []
        if v % 2
        else [int(u) for u in rng.integers(0, n, size=rng.integers(1, 9))]
        for v in range(n)
    ]


def tiny(seed):
    """Fewer vertices than the frontier is wide."""
    del seed
    return [[1, 2], [2, 0, 3], [0], [4, 4, 1], []]


GRAPHS = {
    "ragged": ragged_random,
    "shared": shared_neighbours,
    "repeated": repeated_in_list,
    "zero_degree": zero_degree,
    "tiny": tiny,
}


def run_case(graph, b, width, beam_width, k, seed, packed, count_hops):
    rng = np.random.default_rng(seed)
    n = len(graph)
    # Six distance levels over dozens of vertices: ties on every sort.
    table = rng.integers(0, 6, size=(b, n)).astype(np.float64) / 4.0
    entries = rng.integers(0, n, size=b)
    arrays = [np.asarray(nbrs, dtype=np.int64) for nbrs in graph]
    adjacency = PackedAdjacency.from_lists(arrays) if packed else arrays
    got = execute(
        adjacency,
        entries,
        lambda qidx, vids: table[qidx, vids],
        beam_width,
        k,
        frontier_width=width,
        expansion_counts_distance=count_hops,
    )
    out_w = min(k, beam_width)
    assert got.ids.shape == (b, out_w)
    for row in range(b):
        want = reference_search(
            graph,
            int(entries[row]),
            [float(d) for d in table[row]],
            beam_width,
            k,
            width,
            count_hops,
        )
        where = f"row {row}"
        count = len(want["ids"])
        assert int(got.counts[row]) == count, where
        pad = out_w - count
        np.testing.assert_array_equal(
            got.ids[row], want["ids"] + [-1] * pad, err_msg=where
        )
        np.testing.assert_array_equal(
            got.distances[row], want["distances"] + [np.inf] * pad,
            err_msg=where,
        )
        assert int(got.hops[row]) == want["hops"], where
        assert int(got.visited_counts[row]) == want["hops"], where
        assert int(got.distance_computations[row]) == want["comps"], where


@pytest.mark.parametrize("packed", [False, True], ids=["lists", "packed"])
@pytest.mark.parametrize("b", BATCH_SIZES)
@pytest.mark.parametrize("width", FRONTIER_WIDTHS)
@pytest.mark.parametrize("kind", sorted(GRAPHS))
def test_kernel_matches_naive_reference(kind, width, b, packed):
    graph = GRAPHS[kind](seed=11)
    for beam_width, k in ((1, 1), (3, 5), (16, 10)):
        run_case(
            graph,
            b,
            width,
            beam_width,
            k,
            seed=100 * width + b,
            packed=packed,
            count_hops=(beam_width == 3),
        )


@pytest.mark.parametrize("seed", range(6))
def test_ragged_graphs_across_seeds(seed):
    graph = ragged_random(seed)
    for width in FRONTIER_WIDTHS:
        run_case(
            graph, 7, width, 8, 8, seed=seed, packed=bool(seed % 2),
            count_hops=True,
        )
