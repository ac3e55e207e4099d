"""Tests for the proximity-graph substrate."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    HNSW,
    ProximityGraph,
    beam_search,
    build_hnsw,
    build_nsg,
    build_vamana,
    exact_distance_fn,
    exact_knn,
    greedy_search,
    knn_graph_adjacency,
    medoid,
    prune,
)

RNG = np.random.default_rng(21)


def make_dataset(n=300, d=8, clusters=6, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=5.0, size=(clusters, d))
    labels = rng.integers(clusters, size=n)
    return centers[labels] + 0.5 * rng.normal(size=(n, d))


def recall_of_graph(graph, x, queries, k=10, beam=40):
    gt, _ = exact_knn(x, k, queries=queries)
    hits = 0
    for qi, q in enumerate(queries):
        res = graph.search(exact_distance_fn(x, q), beam, k=k)
        hits += len(set(res.ids.tolist()) & set(gt[qi].tolist()))
    return hits / (len(queries) * k)


class TestExactKnn:
    def test_matches_naive(self):
        x = RNG.normal(size=(60, 5))
        idx, dist = exact_knn(x, 3)
        d = ((x[:, None, :] - x[None, :, :]) ** 2).sum(-1)
        np.fill_diagonal(d, np.inf)
        naive = np.argsort(d, axis=1)[:, :3]
        np.testing.assert_array_equal(idx, naive)
        np.testing.assert_allclose(
            dist, np.take_along_axis(d, naive, axis=1), atol=1e-9
        )

    def test_external_queries(self):
        x = RNG.normal(size=(50, 4))
        q = RNG.normal(size=(7, 4))
        idx, dist = exact_knn(x, 5, queries=q)
        assert idx.shape == (7, 5)
        assert (np.diff(dist, axis=1) >= -1e-12).all()

    def test_self_included_when_not_excluded(self):
        x = RNG.normal(size=(20, 3))
        idx, dist = exact_knn(x, 1, queries=x, exclude_self=False)
        # Nearest to each row is itself at distance ~0.
        np.testing.assert_allclose(dist[:, 0], 0.0, atol=1e-12)

    def test_k_validation(self):
        x = RNG.normal(size=(10, 3))
        with pytest.raises(ValueError):
            exact_knn(x, 10)  # only 9 valid neighbors with self excluded
        with pytest.raises(ValueError):
            exact_knn(x, 0)

    def test_blocking_is_invisible(self):
        x = RNG.normal(size=(97, 4))
        a, _ = exact_knn(x, 4, block_size=10)
        b, _ = exact_knn(x, 4, block_size=1000)
        np.testing.assert_array_equal(a, b)

    def test_knn_graph_adjacency(self):
        x = RNG.normal(size=(30, 3))
        adj = knn_graph_adjacency(x, 5)
        assert len(adj) == 30
        assert all(len(nbrs) == 5 for nbrs in adj)


class TestProximityGraph:
    def line_graph(self, n=6):
        adjacency = [
            np.array([v for v in (i - 1, i + 1) if 0 <= v < n]) for i in range(n)
        ]
        return ProximityGraph(adjacency=adjacency, entry_point=0)

    def test_basic_props(self):
        g = self.line_graph()
        assert g.num_vertices == 6
        assert g.num_edges == 10
        stats = g.degree_stats()
        assert stats["min"] == 1 and stats["max"] == 2

    def test_connectivity(self):
        g = self.line_graph()
        assert g.is_connected_from_entry()
        disconnected = ProximityGraph(
            adjacency=[np.array([1]), np.array([0]), np.array([], dtype=int)],
            entry_point=0,
        )
        assert not disconnected.is_connected_from_entry()

    def test_entry_validation(self):
        with pytest.raises(ValueError):
            ProximityGraph(adjacency=[np.array([0])], entry_point=5)

    def test_neighbor_range_validation(self):
        with pytest.raises(ValueError):
            ProximityGraph(adjacency=[np.array([3])], entry_point=0)

    def test_n_hop_neighborhood(self):
        g = self.line_graph()
        np.testing.assert_array_equal(g.n_hop_neighborhood(0, 1), [1])
        np.testing.assert_array_equal(g.n_hop_neighborhood(0, 2), [1, 2])
        np.testing.assert_array_equal(g.n_hop_neighborhood(2, 2), [0, 1, 3, 4])

    def test_medoid_of_symmetric_data(self):
        x = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [5.0, 5.0]])
        # Centroid is (1.25, 1.25); the closest point is (1, 0).
        assert medoid(x) == 1


class TestBeamSearch:
    def test_finds_nearest_on_line(self):
        # Vertices on a line; query nearest vertex 7.
        n = 10
        x = np.arange(n, dtype=float)[:, None]
        adjacency = [
            np.array([v for v in (i - 1, i + 1) if 0 <= v < n]) for i in range(n)
        ]
        res = beam_search(adjacency, 0, exact_distance_fn(x, np.array([7.2])), 3)
        assert res.ids[0] == 7
        assert res.hops >= 7  # must walk along the line

    def test_beam_width_one_is_greedy(self):
        x = make_dataset(n=100, seed=1)
        g = build_vamana(x, r=8, search_l=20, seed=0)
        q = x[3] + 0.01
        res = beam_search(g.adjacency, g.entry_point, exact_distance_fn(x, q), 1)
        greedy = greedy_search(g.adjacency, g.entry_point, exact_distance_fn(x, q))
        assert res.ids[0] == greedy

    def test_trace_records_choices(self):
        x = make_dataset(n=80, seed=2)
        g = build_vamana(x, r=8, search_l=20, seed=0)
        res = g.search(exact_distance_fn(x, x[5]), 10, record_trace=True)
        assert res.trace is not None
        assert len(res.trace) == res.hops
        for step in res.trace:
            assert step.chosen in step.candidates
            assert (np.diff(step.candidate_distances) >= -1e-12).all()
            assert len(step.candidates) <= 10

    def test_counters(self):
        x = make_dataset(n=60, seed=3)
        g = build_vamana(x, r=6, search_l=15, seed=0)
        res = g.search(exact_distance_fn(x, x[0]), 8)
        assert res.hops >= 1
        assert res.distance_computations >= res.visited_count
        assert res.visited_count == res.hops

    def test_larger_beam_never_reduces_result_quality(self):
        x = make_dataset(n=200, seed=4)
        g = build_vamana(x, r=10, search_l=30, seed=0)
        q = RNG.normal(size=x.shape[1])
        d_small = g.search(exact_distance_fn(x, q), 2).distances[0]
        d_large = g.search(exact_distance_fn(x, q), 50).distances[0]
        assert d_large <= d_small + 1e-12

    def test_validation(self):
        adjacency = [np.array([0])]
        with pytest.raises(ValueError):
            beam_search(adjacency, 0, lambda ids: np.zeros(len(ids)), 0)
        with pytest.raises(ValueError):
            beam_search(adjacency, 5, lambda ids: np.zeros(len(ids)), 2)

    def test_isolated_entry(self):
        adjacency = [np.empty(0, dtype=int), np.array([0])]
        res = beam_search(adjacency, 0, lambda ids: np.ones(len(ids)), 4)
        assert list(res.ids) == [0]
        assert res.hops == 1


def robust_prune(x, point, candidates, alpha, r):
    """Vamana's selection for one point."""
    flat, _ = prune(
        x, [point], candidates, [len(candidates)], r, alpha=alpha, strict=False
    )
    return flat.tolist()


class TestRobustPrune:
    def test_respects_degree_bound(self):
        x = make_dataset(n=100, seed=5)
        out = robust_prune(x, 0, list(range(1, 100)), alpha=1.2, r=8)
        assert len(out) <= 8
        assert 0 not in out

    def test_keeps_nearest(self):
        x = make_dataset(n=50, seed=6)
        d = ((x - x[0]) ** 2).sum(axis=1)
        d[0] = np.inf
        nearest = int(d.argmin())
        out = robust_prune(x, 0, list(range(1, 50)), alpha=1.2, r=4)
        assert out[0] == nearest

    def test_alpha_one_prunes_more_aggressively(self):
        x = make_dataset(n=150, seed=7)
        tight = robust_prune(x, 0, list(range(1, 150)), alpha=1.0, r=64)
        loose = robust_prune(x, 0, list(range(1, 150)), alpha=1.5, r=64)
        assert len(tight) <= len(loose)

    def test_empty_and_self_candidates(self):
        x = make_dataset(n=10, seed=8)
        assert robust_prune(x, 0, [], alpha=1.2, r=4) == []
        assert robust_prune(x, 0, [0, 0], alpha=1.2, r=4) == []


class TestBuilders:
    def test_vamana_properties(self):
        x = make_dataset(n=250, seed=9)
        g = build_vamana(x, r=12, search_l=30, seed=0)
        assert g.num_vertices == 250
        assert g.degree_stats()["max"] <= 12
        assert g.name == "vamana"

    def test_vamana_recall(self):
        x = make_dataset(n=400, seed=10)
        g = build_vamana(x, r=16, search_l=40, seed=0)
        queries = make_dataset(n=20, seed=11)
        assert recall_of_graph(g, x, queries) > 0.85

    def test_nsg_properties(self):
        x = make_dataset(n=250, seed=12)
        g = build_nsg(x, knn_k=16, r=12, search_l=30)
        assert g.num_vertices == 250
        assert g.is_connected_from_entry()
        assert g.name == "nsg"

    def test_nsg_recall(self):
        x = make_dataset(n=400, seed=13)
        g = build_nsg(x, knn_k=20, r=16, search_l=40)
        queries = make_dataset(n=20, seed=14)
        assert recall_of_graph(g, x, queries) > 0.85

    def test_hnsw_properties(self):
        x = make_dataset(n=250, seed=15)
        g = build_hnsw(x, m=8, ef_construction=40, seed=0)
        assert isinstance(g, HNSW)
        assert g.num_vertices == 250
        assert g.degree_stats()["max"] <= 16  # 2 * m at base layer
        assert g.max_level == len(g.upper_layers)

    def test_hnsw_recall(self):
        x = make_dataset(n=400, seed=16)
        g = build_hnsw(x, m=12, ef_construction=60, seed=0)
        queries = make_dataset(n=20, seed=17)
        assert recall_of_graph(g, x, queries) > 0.85

    def test_hnsw_search_uses_layers(self):
        x = make_dataset(n=300, seed=18)
        g = build_hnsw(x, m=8, ef_construction=40, seed=0)
        q = x[7] + 0.01
        res = g.search(exact_distance_fn(x, q), 20, k=5)
        assert res.ids[0] == 7 or res.distances[0] <= 0.1

    def test_builders_reject_empty(self):
        empty = np.zeros((0, 4))
        for builder in (build_vamana, build_nsg, build_hnsw):
            with pytest.raises(ValueError):
                builder(empty)

    def test_single_point_graphs(self):
        x = np.zeros((1, 4))
        g = build_vamana(x, r=4, search_l=4, seed=0)
        assert g.num_vertices == 1
        g2 = build_nsg(x)
        assert g2.num_vertices == 1
        g3 = build_hnsw(x, m=4, ef_construction=4, seed=0)
        assert g3.num_vertices == 1


@settings(max_examples=8, deadline=None)
@given(st.integers(30, 90), st.integers(0, 1000))
def test_property_vamana_degree_bounded_and_searchable(n, seed):
    x = np.random.default_rng(seed).normal(size=(n, 4))
    g = build_vamana(x, r=8, search_l=16, seed=seed)
    assert g.degree_stats()["max"] <= 8
    q = x[0] + 1e-6
    res = g.search(exact_distance_fn(x, q), 16, k=1)
    # Must find the exact point (distance ~0) with a modest beam.
    assert res.distances[0] < 1e-6 or res.ids[0] == 0
