"""Tests for the Fresh-DiskANN-style streaming index and the
Filter-DiskANN-style label-filtered index."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import compute_ground_truth, load
from repro.graphs import build_vamana, exact_knn
from repro.index import FilteredMemoryIndex, FreshVamanaIndex
from repro.metrics import recall_at_k
from repro.quantization import ProductQuantizer

from .helpers import search_one, stream_state

RNG = np.random.default_rng(91)


@pytest.fixture(scope="module")
def sift_small():
    data = load("sift", n_base=500, n_queries=12, seed=3)
    quantizer = ProductQuantizer(8, 32, seed=3).fit(data.train)
    return data, quantizer


class TestFreshVamana:
    def make_index(self, data, quantizer, n=200):
        index = FreshVamanaIndex(quantizer, dim=data.dim, r=12, search_l=24)
        index.insert_batch(data.base[:n])
        return index

    def test_requires_fitted_quantizer(self, sift_small):
        data, _ = sift_small
        with pytest.raises(ValueError):
            FreshVamanaIndex(ProductQuantizer(4, 8), dim=data.dim)
        with pytest.raises(ValueError):
            FreshVamanaIndex(
                ProductQuantizer(8, 32, seed=0).fit(data.train), dim=data.dim, r=0
            )

    def test_empty_index_search(self, sift_small):
        data, quantizer = sift_small
        index = FreshVamanaIndex(quantizer, dim=data.dim)
        res = search_one(index, data.queries[0], k=5)
        assert res.ids.size == 0

    def test_insert_and_search(self, sift_small):
        data, quantizer = sift_small
        index = self.make_index(data, quantizer)
        assert index.num_vertices == 200
        assert index.num_active == 200
        res = search_one(index, data.queries[0], k=10, beam_width=32)
        assert res.ids.shape == (10,)
        assert res.hops > 0

    def test_incremental_recall_close_to_batch(self, sift_small):
        # An index built by streaming inserts should roughly match a
        # batch-built Vamana graph on recall.
        data, quantizer = sift_small
        n = 300
        index = self.make_index(data, quantizer, n=n)
        gt = compute_ground_truth(data.base[:n], data.queries, k=10)
        stream_ids = [
            search_one(index, q, k=10, beam_width=48).ids for q in data.queries
        ]
        graph = build_vamana(data.base[:n], r=12, search_l=24, seed=0)
        from repro.index import MemoryIndex

        batch = MemoryIndex(graph, quantizer, data.base[:n])
        batch_ids = [
            search_one(batch, q, k=10, beam_width=48).ids for q in data.queries
        ]
        r_stream = recall_at_k(stream_ids, gt.ids)
        r_batch = recall_at_k(batch_ids, gt.ids)
        assert r_stream >= r_batch - 0.15

    def test_dimension_validation(self, sift_small):
        data, quantizer = sift_small
        index = FreshVamanaIndex(quantizer, dim=data.dim)
        with pytest.raises(ValueError):
            index.insert(np.zeros(3))

    def test_degree_bound_maintained(self, sift_small):
        data, quantizer = sift_small
        index = self.make_index(data, quantizer, n=150)
        assert max(len(a) for a in stream_state(index).lists) <= 12

    def test_delete_hides_results(self, sift_small):
        data, quantizer = sift_small
        index = self.make_index(data, quantizer, n=150)
        query = data.base[7]  # exact match exists
        res = search_one(index, query, k=1, beam_width=32)
        target = int(res.ids[0])
        index.delete(target)
        assert index.num_deleted == 1
        res2 = search_one(index, query, k=5, beam_width=32)
        assert target not in res2.ids

    def test_delete_validation(self, sift_small):
        data, quantizer = sift_small
        index = self.make_index(data, quantizer, n=50)
        with pytest.raises(KeyError):
            index.delete(999)
        index.delete(3)
        with pytest.raises(KeyError):
            index.delete(3)

    def test_consolidate_removes_tombstone_edges(self, sift_small):
        data, quantizer = sift_small
        index = self.make_index(data, quantizer, n=150)
        victims = [5, 17, 40]
        for v in victims:
            index.delete(v)
        cleaned = index.consolidate()
        assert cleaned == 3
        state = stream_state(index)
        for v in victims:
            assert state.lists[v] == []
        # No live vertex should still point at a tombstone.
        for v, nbrs in enumerate(state.lists):
            if not state.deleted[v]:
                assert not set(nbrs) & set(victims)

    def test_search_quality_survives_consolidation(self, sift_small):
        data, quantizer = sift_small
        n = 250
        index = self.make_index(data, quantizer, n=n)
        victims = list(range(0, 50))
        for v in victims:
            index.delete(v)
        index.consolidate()
        alive = np.arange(50, n)
        gt_ids, _ = exact_knn(data.base[alive], 10, queries=data.queries)
        got = []
        for q in data.queries:
            res = search_one(index, q, k=10, beam_width=48)
            got.append([int(np.flatnonzero(alive == i)[0]) for i in res.ids])
        recall = recall_at_k([np.array(g) for g in got], gt_ids)
        assert recall > 0.4

    def test_entry_reassignment_after_entry_delete(self, sift_small):
        data, quantizer = sift_small
        index = self.make_index(data, quantizer, n=100)
        entry = stream_state(index).entry
        index.delete(entry)
        index.consolidate()
        assert stream_state(index).entry != entry
        res = search_one(index, data.queries[0], k=5, beam_width=24)
        assert res.ids.size == 5

    def test_consolidate_noop_without_deletes(self, sift_small):
        data, quantizer = sift_small
        index = self.make_index(data, quantizer, n=60)
        assert index.consolidate() == 0


class TestFilteredIndex:
    def make(self, data, quantizer, num_labels=4, n=400):
        graph = build_vamana(data.base[:n], r=12, search_l=24, seed=0)
        labels = np.arange(n) % num_labels
        index = FilteredMemoryIndex(graph, quantizer, data.base[:n], labels)
        return index, labels, n

    def test_label_validation(self, sift_small):
        data, quantizer = sift_small
        graph = build_vamana(data.base[:100], r=8, search_l=16, seed=0)
        with pytest.raises(ValueError):
            FilteredMemoryIndex(graph, quantizer, data.base[:100], np.zeros(5))

    def test_results_respect_filter(self, sift_small):
        data, quantizer = sift_small
        index, labels, n = self.make(data, quantizer)
        for label in range(4):
            res = search_one(index, data.queries[0], k=5, labels=label)
            assert (labels[res.ids] == label).all()
            assert res.ids.size == 5

    def test_escalation_for_rare_labels(self, sift_small):
        data, quantizer = sift_small
        n = 300
        graph = build_vamana(data.base[:n], r=12, search_l=24, seed=0)
        labels = np.zeros(n, dtype=int)
        labels[:5] = 7  # rare label: only 5 carriers
        index = FilteredMemoryIndex(graph, quantizer, data.base[:n], labels)
        res = search_one(
            index, data.queries[0], k=5, beam_width=10, labels=7, max_beam_width=512
        )
        assert res.ids.size == 5
        assert res.counters["beam_widths_used"] > 10  # had to escalate

    def test_filtered_recall_against_exact(self, sift_small):
        data, quantizer = sift_small
        index, labels, n = self.make(data, quantizer)
        label = 2
        members = np.flatnonzero(labels == label)
        hits = 0
        for q in data.queries:
            d = ((data.base[members] - q) ** 2).sum(axis=1)
            exact = set(members[np.argsort(d)[:5]].tolist())
            res = search_one(index, q, k=5, labels=label, beam_width=32)
            hits += len(exact & set(res.ids.tolist()))
        assert hits / (len(data.queries) * 5) > 0.4

    def test_k_validation(self, sift_small):
        data, quantizer = sift_small
        index, _, _ = self.make(data, quantizer, n=100)
        with pytest.raises(ValueError):
            search_one(index, data.queries[0], k=0, labels=0)

    def test_label_count(self, sift_small):
        data, quantizer = sift_small
        index, labels, n = self.make(data, quantizer, n=100)
        assert index.label_count(0) == (labels == 0).sum()
        assert index.label_count(99) == 0
