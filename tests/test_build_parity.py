"""Construction parity: what each builder's ``build_batch_size`` may
and may not change.

* HNSW and NSG batch only their construction-time searches (HNSW
  through the speculative driver, :mod:`repro.engine.construction`;
  NSG against its static kNN graph), so they must emit byte-identical
  graphs at every batch size, including degenerate ones (batch of 1,
  batch larger than the dataset).
* Vamana and the streaming index insert in deterministic batches
  (ParlayANN's scheme, :func:`repro.graphs.vamana.insert_batch`): a
  batch is searched on the graph as it stood before it, so the cap
  changes the graph on purpose.  At cap 1 both must equal sequential
  insertion — the loops they replaced, kept here as the oracles
  (:func:`sequential_vamana`, :func:`sequential_inserts`).  At any
  cap a build is deterministic, keeps every list within ``r`` without
  self-loops or repeats, and routes as well as the cap-1 graph
  (exact-routing recall@10 at beam 10 within ``RECALL_SLACK``).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

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


def select(x: np.ndarray, point: int, pool, r: int, alpha: float) -> List[int]:
    selected, _ = prune(x, [point], pool, [len(pool)], r, alpha=alpha, strict=False)
    return selected.tolist()


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
    @pytest.mark.parametrize("batch_size", [2, 16, 32])
    def test_batched_equals_sequential(self, x, batch_size):
        sequential = build_hnsw(
            x, m=6, ef_construction=24, seed=5, build_batch_size=1
        )
        batched = build_hnsw(
            x, m=6, ef_construction=24, seed=5, build_batch_size=batch_size
        )
        assert_hnsw_equal(sequential, batched)

    def test_batch_larger_than_dataset(self, x):
        small = x[:40]
        sequential = build_hnsw(
            small, m=4, ef_construction=12, seed=1, build_batch_size=1
        )
        batched = build_hnsw(
            small, m=4, ef_construction=12, seed=1, build_batch_size=1000
        )
        assert_hnsw_equal(sequential, batched)


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
