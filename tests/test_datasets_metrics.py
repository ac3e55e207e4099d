"""Tests for synthetic datasets, LID estimation, and metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import SearchResponseRow
from repro.datasets import (
    PROFILES,
    compute_ground_truth,
    generate,
    lid_mle,
    lid_two_nn,
    load,
)
from repro.metrics import QueryStats, recall_at_k, time_queries

RNG = np.random.default_rng(61)


class TestSynthetic:
    def test_all_profiles_generate(self):
        for name in PROFILES:
            data = load(name, n_base=200, n_queries=10, seed=0)
            assert data.base.shape == (200, PROFILES[name].dim)
            assert data.queries.shape == (10, PROFILES[name].dim)
            assert data.train.shape[0] == 100
            assert np.isfinite(data.base).all()

    def test_unknown_profile(self):
        with pytest.raises(KeyError):
            load("imagenet")

    def test_seed_determinism(self):
        a = load("sift", n_base=100, seed=5)
        b = load("sift", n_base=100, seed=5)
        np.testing.assert_array_equal(a.base, b.base)
        np.testing.assert_array_equal(a.queries, b.queries)

    def test_seeds_differ(self):
        a = load("sift", n_base=100, seed=1)
        b = load("sift", n_base=100, seed=2)
        assert np.abs(a.base - b.base).max() > 0

    def test_deep_profile_is_normalized(self):
        data = load("deep", n_base=150, seed=0)
        norms = np.linalg.norm(data.base, axis=1)
        np.testing.assert_allclose(norms, np.ones_like(norms), atol=1e-9)

    def test_variance_profile_is_imbalanced(self):
        # The decaying scale must leave unequal per-dimension variance
        # (otherwise Fig. 4 would have nothing to show).
        data = load("sift", n_base=500, seed=0)
        var = data.base.var(axis=0)
        assert var.max() / var.min() > 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            generate(PROFILES["sift"], n_base=1)

    def test_queries_held_out(self):
        data = load("sift", n_base=100, n_queries=10, seed=0)
        # No query row should exactly equal a base row.
        for q in data.queries:
            assert not (np.abs(data.base - q).sum(axis=1) < 1e-12).any()


class TestLID:
    def test_gaussian_lid_tracks_dimension(self):
        # LID of an isotropic Gaussian approaches its dimension.
        for d in (4, 8):
            x = RNG.normal(size=(1500, d))
            est = lid_mle(x, k=20)
            assert 0.5 * d < est < 1.8 * d

    def test_low_dimensional_manifold(self):
        # 2-D manifold embedded in 10-D: LID should be near 2, not 10.
        t = RNG.normal(size=(1200, 2))
        basis = RNG.normal(size=(2, 10))
        x = t @ basis
        est = lid_mle(x, k=20)
        assert est < 4.0

    def test_two_nn_agrees_roughly(self):
        x = RNG.normal(size=(2000, 5))
        mle = lid_mle(x, k=20)
        two = lid_two_nn(x)
        assert abs(mle - two) < 3.0

    def test_sampled_estimation(self):
        x = RNG.normal(size=(800, 6))
        full = lid_mle(x, k=15)
        sampled = lid_mle(x, k=15, sample=200, seed=0)
        assert abs(full - sampled) < 2.5

    def test_degenerate_data(self):
        x = np.ones((50, 4))
        assert lid_mle(x, k=5) == 0.0
        assert lid_two_nn(x) == 0.0

    def test_profile_lid_ordering_matches_paper(self):
        # Table 3: Ukbench (8.3) < Sift (16.6) <= Deep (17.6) < Gist (35).
        lids = {}
        for name in ("ukbench", "sift", "gist"):
            data = load(name, n_base=1200, seed=0)
            lids[name] = lid_mle(data.base, k=20, sample=400, seed=0)
        assert lids["ukbench"] < lids["sift"] < lids["gist"]


class TestGroundTruthAndRecall:
    def test_ground_truth_shapes(self):
        base = RNG.normal(size=(100, 5))
        queries = RNG.normal(size=(8, 5))
        gt = compute_ground_truth(base, queries, k=7)
        assert gt.ids.shape == (8, 7)
        assert gt.k == 7
        assert gt.num_queries == 8

    def test_recall_perfect_and_empty(self):
        gt = np.array([[0, 1, 2], [3, 4, 5]])
        assert recall_at_k([np.array([0, 1, 2]), np.array([3, 4, 5])], gt) == 1.0
        assert recall_at_k([np.array([9]), np.array([9])], gt) == 0.0

    def test_recall_partial(self):
        gt = np.array([[0, 1, 2, 3]])
        assert recall_at_k([np.array([0, 1, 7, 8])], gt) == 0.5

    def test_recall_order_invariant(self):
        gt = np.array([[0, 1, 2]])
        assert recall_at_k([np.array([2, 0, 1])], gt) == 1.0

    def test_recall_validation(self):
        with pytest.raises(ValueError):
            recall_at_k([np.array([0])], np.array([[0], [1]]))


class TestTimingAndCounters:
    def test_time_queries(self):
        calls = []
        timing = time_queries(lambda q: calls.append(q), [1, 2, 3])
        assert timing.num_queries == 3
        assert len(calls) == 3
        assert timing.qps > 0
        assert timing.mean_latency_ms >= 0

    def test_query_stats_aggregation(self):
        def R(hops, comps, reads, io):
            return SearchResponseRow(
                ids=np.empty(0),
                distances=np.empty(0),
                counters={
                    "hops": hops,
                    "distance_computations": comps,
                    "page_reads": reads,
                    "simulated_io_us": io,
                },
            )

        stats = QueryStats.aggregate([R(2, 10, 1, 100.0), R(4, 30, 3, 300.0)])
        assert stats.mean_hops == 3.0
        assert stats.mean_distance_computations == 20.0
        assert stats.mean_page_reads == 2.0
        assert stats.mean_io_us == 200.0

    def test_query_stats_without_io_fields(self):
        row = SearchResponseRow(
            ids=np.empty(0),
            distances=np.empty(0),
            counters={"hops": 5, "distance_computations": 9},
        )
        stats = QueryStats.aggregate([row, row])
        assert stats.mean_page_reads == 0.0

    def test_query_stats_empty(self):
        with pytest.raises(ValueError):
            QueryStats.aggregate([])
