"""Construction parity: what each builder's ``build_batch_size`` may
and may not change.

* NSG batches only its construction-time searches, against its static
  kNN graph, so it must emit byte-identical graphs at every batch
  size, including degenerate ones (batch of 1, batch larger than the
  dataset).
* HNSW, Vamana and the streaming index insert in deterministic batches
  (ParlayANN's scheme, :mod:`repro.graphs.vamana`): a batch is searched
  on the graph as it stood before it, so the cap changes the graph on
  purpose.  At cap 1 each must equal sequential insertion — the loops
  kept here as the oracles (:func:`sequential_hnsw`,
  :func:`sequential_vamana`, :func:`sequential_inserts`).  At any cap
  a build is deterministic, keeps every list within its degree bound
  without self-loops or repeats, and routes as well as the cap-1 graph
  (exact-routing recall@10 at beam 10 within ``RECALL_SLACK``).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro.datasets import load
from repro.eval.harness import RECALL_SLACK, exact_routing_recall
from repro.graphs import (
    beam_search,
    build_hnsw,
    build_nsg,
    build_vamana,
    exact_distance_fn,
    greedy_search,
    medoid,
    prune,
)
from repro.index import StreamingIndex
from repro.quantization import ProductQuantizer

from .helpers import search, search_one, stream_state

# Heavyweight parity suite: every case rebuilds graphs twice.  Runs
# in tier-1 (`make test`) and the nightly CI lane, not the fast lane.
pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def x():
    return load("sift", n_base=400, n_queries=1, seed=7).base


def assert_graphs_equal(a, b):
    assert a.num_vertices == b.num_vertices
    assert a.entry_point == b.entry_point
    for v, (na, nb) in enumerate(zip(a.adjacency, b.adjacency)):
        np.testing.assert_array_equal(na, nb, err_msg=f"vertex {v}")


def assert_hnsw_equal(a, b):
    assert_graphs_equal(a, b)
    assert a.max_level == b.max_level
    assert len(a.upper_layers) == len(b.upper_layers)
    for lvl, (la, lb) in enumerate(zip(a.upper_layers, b.upper_layers)):
        assert set(la) == set(lb), f"layer {lvl} vertex sets differ"
        for v in la:
            np.testing.assert_array_equal(
                la[v], lb[v], err_msg=f"layer {lvl} vertex {v}"
            )


def assert_well_formed(lists, r: int):
    """Every list within ``r``, without its own vertex or a repeat."""
    n = len(lists)
    for v, nbrs in enumerate(lists):
        nbrs = list(nbrs)
        assert len(nbrs) <= r, f"vertex {v} has {len(nbrs)} > {r} neighbors"
        assert v not in nbrs, f"vertex {v} links to itself"
        assert len(set(nbrs)) == len(nbrs), f"vertex {v} repeats a neighbor"
        assert all(0 <= u < n for u in nbrs), f"vertex {v} out of range"


def assert_hnsw_well_formed(graph, levels: np.ndarray, m: int):
    """Base lists within ``2m``, upper lists within ``m``, none with
    its own vertex or a repeat, and every vertex of upper layer ``l``
    (a list's owner or a neighbour in it) of level ``l`` or more."""
    assert_well_formed(graph.adjacency, r=2 * m)
    for lvl, layer in enumerate(graph.upper_layers, start=1):
        for v, nbrs in layer.items():
            nbrs = nbrs.tolist()
            assert len(nbrs) <= m, f"layer {lvl} vertex {v}: {len(nbrs)} > {m}"
            assert v not in nbrs, f"layer {lvl} vertex {v} links to itself"
            assert len(set(nbrs)) == len(nbrs), f"layer {lvl} vertex {v} repeats"
            assert (levels[[v] + nbrs] >= lvl).all(), f"layer {lvl} vertex {v}"


def select(
    x: np.ndarray, point: int, pool, r: int, alpha: float, strict: bool = False
) -> List[int]:
    selected, _ = prune(x, [point], pool, [len(pool)], r, alpha=alpha, strict=strict)
    return selected.tolist()


def hnsw_levels(n: int, m: int, seed: int) -> np.ndarray:
    """The levels :func:`build_hnsw` draws for ``n`` points."""
    rng = np.random.default_rng(seed)
    level_mult = 1.0 / math.log(max(m, 2))
    return np.floor(
        -np.log(rng.uniform(low=1e-12, high=1.0, size=n)) * level_mult
    ).astype(np.int64)


def sequential_hnsw(
    x: np.ndarray, m: int, ef: int, seed: int
) -> Tuple[int, List[Dict[int, List[int]]]]:
    """HNSW by sequential insertion (Malkov & Yashunin's Alg. 1): one
    point's greedy descent, then per layer its search, its prune and
    its back edges, after another.  Returns the entry point and each
    layer's lists, base first; an upper layer holds the vertices
    written into it, in the order of their first write."""
    n = x.shape[0]
    levels = hnsw_levels(n, m, seed)
    layers: List[Dict[int, List[int]]] = [{v: [] for v in range(n)}]
    layers += [{} for _ in range(levels.max())]
    entry, max_level = 0, int(levels[0])
    for i in range(1, n):
        dist_fn = exact_distance_fn(x, x[i])
        start = entry
        for lvl in range(max_level, -1, -1):
            layer = layers[lvl]
            lists = [np.array(layer.get(v, []), dtype=np.int64) for v in range(n)]
            if lvl > levels[i]:
                start = greedy_search(lists, start, dist_fn)
                continue
            found = beam_search(lists, start, dist_fn, ef).ids.tolist()
            start = found[0]
            layer[i] = select(x, i, found, m, 1.0, strict=True)
            cap = 2 * m if lvl == 0 else m
            for c in layer[i]:
                layer.setdefault(c, []).append(i)
                if len(layer[c]) > cap:
                    layer[c] = select(x, c, layer[c], cap, 1.0, strict=True)
        if levels[i] > max_level:
            entry, max_level = i, int(levels[i])
    return entry, layers


def sequential_vamana(
    x: np.ndarray, r: int, search_l: int, alpha: float, seed: int
) -> Tuple[int, List[List[int]]]:
    """Vamana by sequential insertion: the builder's body before it
    inserted in batches, one point's search, prune and reverse edges
    after another."""
    n = x.shape[0]
    rng = np.random.default_rng(seed)
    entry = medoid(x)
    adjacency: List[List[int]] = []
    degree = min(r, max(n - 1, 0))
    for i in range(n):
        choices = rng.choice(n - 1, size=degree, replace=False)
        adjacency.append(np.where(choices >= i, choices + 1, choices).tolist())
    for pass_alpha in (1.0, alpha):
        for i in rng.permutation(n).tolist():
            found = beam_search(
                [np.array(a, dtype=np.int64) for a in adjacency],
                entry,
                exact_distance_fn(x, x[i]),
                search_l,
            )
            adjacency[i] = select(
                x, i, found.ids.tolist() + adjacency[i], r, pass_alpha
            )
            for j in adjacency[i]:
                if i not in adjacency[j]:
                    adjacency[j].append(i)
                if len(adjacency[j]) > r:
                    adjacency[j] = select(x, j, adjacency[j], r, pass_alpha)
    return entry, adjacency


def sequential_inserts(
    rows: np.ndarray, r: int, search_l: int, alpha: float
) -> Tuple[Optional[int], List[List[int]]]:
    """The streaming index's lists after inserting ``rows`` one at a
    time into an empty index: the ``_link`` body (and the scalar
    search) it used before it inserted in batches."""
    lists: List[List[int]] = []
    entry = None
    for new_id in range(rows.shape[0]):
        if entry is None:
            entry = new_id
            lists.append([])
            continue
        found = beam_search(
            [np.array(a, dtype=np.int64) for a in lists],
            entry,
            exact_distance_fn(rows, rows[new_id]),
            search_l,
        )
        lists.append(select(rows, new_id, found.ids.tolist(), r, alpha))
        for j in lists[new_id]:
            lists[j].append(new_id)
            if len(lists[j]) > r:
                lists[j] = select(rows, j, lists[j], r, alpha)
    return entry, lists


class TestVamanaBuildParity:
    def test_cap_one_is_sequential_insertion(self, x):
        small = x[:150]
        entry, lists = sequential_vamana(small, r=8, search_l=16, alpha=1.2, seed=4)
        built = build_vamana(
            small, r=8, search_l=16, alpha=1.2, seed=4, build_batch_size=1
        )
        assert built.entry_point == entry
        assert [a.tolist() for a in built.adjacency] == lists

    @pytest.mark.parametrize("batch_size", [2, 16, 32])
    def test_batched_build_is_deterministic(self, x, batch_size):
        a = build_vamana(x, r=10, search_l=20, seed=3, build_batch_size=batch_size)
        b = build_vamana(x, r=10, search_l=20, seed=3, build_batch_size=batch_size)
        assert_graphs_equal(a, b)
        assert_well_formed(a.adjacency, r=10)

    def test_batched_recall_stays_at_cap_one(self):
        data = load("sift", n_base=400, n_queries=200, seed=7)
        recall = {
            cap: exact_routing_recall(
                build_vamana(
                    data.base, r=10, search_l=20, seed=3, build_batch_size=cap
                ),
                data.base,
                data.queries,
            )
            for cap in (1, 32)
        }
        assert recall[32] >= recall[1] - RECALL_SLACK, recall

    def test_batch_larger_than_dataset(self, x):
        small = x[:40]
        a = build_vamana(small, r=6, search_l=12, seed=0, build_batch_size=1000)
        b = build_vamana(small, r=6, search_l=12, seed=0, build_batch_size=1000)
        assert_graphs_equal(a, b)
        assert_well_formed(a.adjacency, r=6)

    def test_invalid_batch_size(self, x):
        with pytest.raises(ValueError):
            build_vamana(x[:20], r=4, search_l=8, build_batch_size=0)


class TestHnswBuildParity:
    @pytest.mark.parametrize(
        "n, m, ef, seed", [(150, 6, 24, 5), (120, 4, 12, 1)]
    )
    def test_cap_one_is_sequential_insertion(self, x, n, m, ef, seed):
        small = x[:n]
        entry, layers = sequential_hnsw(small, m=m, ef=ef, seed=seed)
        built = build_hnsw(
            small, m=m, ef_construction=ef, seed=seed, build_batch_size=1
        )
        assert built.entry_point == entry
        assert built.max_level == len(layers) - 1
        assert [a.tolist() for a in built.adjacency] == list(layers[0].values())
        assert [
            [(v, nbrs.tolist()) for v, nbrs in layer.items()]
            for layer in built.upper_layers
        ] == [list(layer.items()) for layer in layers[1:]]

    @pytest.mark.parametrize("batch_size", [2, 16, 32])
    def test_batched_build_is_deterministic(self, x, batch_size):
        a = build_hnsw(
            x, m=6, ef_construction=24, seed=5, build_batch_size=batch_size
        )
        b = build_hnsw(
            x, m=6, ef_construction=24, seed=5, build_batch_size=batch_size
        )
        assert_hnsw_equal(a, b)
        assert_hnsw_well_formed(a, hnsw_levels(x.shape[0], 6, 5), m=6)

    def test_batched_recall_stays_at_cap_one(self):
        data = load("sift", n_base=400, n_queries=200, seed=7)
        recall = {
            cap: exact_routing_recall(
                build_hnsw(
                    data.base, m=6, ef_construction=24, seed=5,
                    build_batch_size=cap,
                ),
                data.base,
                data.queries,
            )
            for cap in (1, 32)
        }
        assert recall[32] >= recall[1] - RECALL_SLACK, recall

    def test_batch_larger_than_dataset(self, x):
        small = x[:40]
        a = build_hnsw(small, m=4, ef_construction=12, seed=1, build_batch_size=1000)
        b = build_hnsw(small, m=4, ef_construction=12, seed=1, build_batch_size=1000)
        assert_hnsw_equal(a, b)
        assert_hnsw_well_formed(a, hnsw_levels(40, 4, 1), m=4)

    def test_invalid_batch_size(self, x):
        with pytest.raises(ValueError):
            build_hnsw(x[:20], m=4, ef_construction=8, build_batch_size=0)


class TestNsgBuildParity:
    @pytest.mark.parametrize("batch_size", [2, 32])
    def test_batched_equals_sequential(self, x, batch_size):
        sequential = build_nsg(
            x, knn_k=10, r=10, search_l=20, build_batch_size=1
        )
        batched = build_nsg(
            x, knn_k=10, r=10, search_l=20, build_batch_size=batch_size
        )
        assert_graphs_equal(sequential, batched)

    def test_batch_larger_than_dataset(self, x):
        small = x[:40]
        sequential = build_nsg(
            small, knn_k=6, r=6, search_l=12, build_batch_size=1
        )
        batched = build_nsg(
            small, knn_k=6, r=6, search_l=12, build_batch_size=1000
        )
        assert_graphs_equal(sequential, batched)

    def test_invalid_batch_size(self, x):
        with pytest.raises(ValueError):
            build_nsg(x[:20], knn_k=4, r=4, build_batch_size=0)


class TestStreamingInsertParity:
    def test_insert_batch_equals_scalar_inserts(self, x):
        quantizer = ProductQuantizer(8, 16, seed=0).fit(x)
        entry, lists = sequential_inserts(x[:150], r=8, search_l=16, alpha=1.2)
        batched = StreamingIndex(
            quantizer, dim=x.shape[1], r=8, search_l=16, build_batch_size=1
        )
        assert batched.insert_batch(x[:150]) == list(range(150))
        scalar = StreamingIndex(quantizer, dim=x.shape[1], r=8, search_l=16)
        assert [scalar.insert(v) for v in x[:150]] == list(range(150))
        for index in (batched, scalar):
            state = stream_state(index)
            assert state.entry == entry
            assert state.lists == lists
        # One batch encode writes the codes row-at-a-time encodes wrote.
        a, b = stream_state(scalar), stream_state(batched)
        np.testing.assert_array_equal(a.codes, b.codes)
        np.testing.assert_array_equal(a.vectors, b.vectors)

    def test_insert_batch_from_empty_and_tiny_windows(self, x):
        quantizer = ProductQuantizer(8, 16, seed=0).fit(x)
        for batch_size in (3, 32, 500):
            states = []
            for _ in range(2):
                index = StreamingIndex(
                    quantizer, dim=x.shape[1], r=6, search_l=12,
                    build_batch_size=batch_size,
                )
                index.insert_batch(x[:60])
                index.insert_batch(x[60:100])
                states.append(stream_state(index))
            assert states[0].lists == states[1].lists, batch_size
            assert states[0].entry == states[1].entry == 0
            assert_well_formed(states[0].lists, r=6)

    def test_searches_after_batched_inserts_match(self, x):
        quantizer = ProductQuantizer(8, 16, seed=0).fit(x)
        index = StreamingIndex(quantizer, dim=x.shape[1], r=8, search_l=16)
        index.insert_batch(x[:120])
        scalars = [search_one(index, q, k=5, beam_width=16) for q in x[120:130]]
        batch = search(index, x[120:130], k=5, beam_width=16)
        for i, scalar in enumerate(scalars):
            row = batch.row(i)
            np.testing.assert_array_equal(scalar.ids, row.ids)
            np.testing.assert_array_equal(scalar.distances, row.distances)
