"""Tests for the in-memory and hybrid indexes and the L2R baseline."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.api import SearchRequest
from repro.datasets import compute_ground_truth, load
from repro.graphs import build_vamana
from repro.index import (
    DiskIndex,
    L2RIndex,
    LearnedRoutingReweighter,
    MemoryIndex,
    SimulatedSSD,
    SSDConfig,
)
from repro.metrics import recall_at_k
from repro.quantization import ProductQuantizer

from .helpers import search_one

RNG = np.random.default_rng(71)


@pytest.fixture(scope="module")
def setup():
    data = load("sift", n_base=600, n_queries=15, seed=0)
    graph = build_vamana(data.base, r=12, search_l=30, seed=0)
    quantizer = ProductQuantizer(8, 32, seed=0).fit(data.train)
    gt = compute_ground_truth(data.base, data.queries, k=10)
    return data, graph, quantizer, gt


class TestSimulatedSSD:
    def test_read_accounting(self):
        x = RNG.normal(size=(20, 4)).astype(np.float32)
        adj = [np.array([(i + 1) % 20]) for i in range(20)]
        ssd = SimulatedSSD(x, adj, SSDConfig(read_latency_us=50.0))
        vec, neighbors = ssd.read_vertex(3)
        np.testing.assert_allclose(vec, x[3])
        np.testing.assert_array_equal(neighbors, [4])
        assert ssd.page_reads == 1
        assert ssd.simulated_io_us == 50.0

    def test_batch_parallelism(self):
        x = RNG.normal(size=(20, 4)).astype(np.float32)
        adj = [np.array([0]) for _ in range(20)]
        cfg = SSDConfig(read_latency_us=100.0, queue_parallelism=4)
        ssd = SimulatedSSD(x, adj, cfg)
        ssd.read_batch(np.arange(8))
        # 8 reads at parallelism 4 -> 2 waves.
        assert ssd.simulated_io_us == 200.0
        assert ssd.page_reads == 8

    def test_empty_batch(self):
        x = RNG.normal(size=(5, 3)).astype(np.float32)
        ssd = SimulatedSSD(x, [np.array([0])] * 5)
        vecs, adjs = ssd.read_batch(np.array([], dtype=np.int64))
        assert vecs.shape == (0, 3)
        assert adjs == []
        assert ssd.page_reads == 0
        # An empty read is a slice of the store, so stacking it with
        # real reads cannot change their dtype.
        full, _ = ssd.read_batch(np.array([1, 2]))
        assert vecs.dtype == full.dtype
        assert np.vstack([vecs, full]).dtype == full.dtype

    @pytest.mark.parametrize(
        "latency,parallelism", [(100.0, 8), (37.3, 3), (0.1, 1)]
    )
    def test_read_round_matches_one_read_batch_per_request(
        self, latency, parallelism
    ):
        rng = np.random.default_rng(7)
        n = 30
        x = rng.normal(size=(n, 4)).astype(np.float32)
        adj = [rng.integers(0, n, size=rng.integers(0, 6)) for _ in range(n)]
        cfg = SSDConfig(read_latency_us=latency, queue_parallelism=parallelism)
        looped, batched = SimulatedSSD(x, adj, cfg), SimulatedSSD(x, adj, cfg)
        clock_us = 0.0  # the caller's clock carries over between rounds
        for _ in range(5):
            lens = rng.integers(1, 9, size=6)
            vertices = rng.integers(0, n, size=int(lens.sum()))
            vec_parts, lists, io_us = [], [], []
            for chunk in np.split(vertices, np.cumsum(lens)[:-1]):
                before = looped.simulated_io_us
                vecs, adjs = looped.read_batch(chunk)
                io_us.append(looped.simulated_io_us - before)
                vec_parts.append(vecs)
                lists.extend(adjs)
            vecs, flat, nbr_lens, clock = batched.read_round(
                vertices, lens, clock_us
            )
            assert clock[0] == clock_us
            clock_us = float(clock[-1])
            np.testing.assert_array_equal(vecs, np.vstack(vec_parts))
            np.testing.assert_array_equal(flat, np.concatenate(lists))
            np.testing.assert_array_equal(nbr_lens, [a.size for a in lists])
            np.testing.assert_array_equal(clock[1:] - clock[:-1], io_us)  # bitwise
            assert clock_us == looped.simulated_io_us  # bitwise
            assert batched.page_reads == looped.page_reads
            assert batched.batched_requests == looped.batched_requests
            # The device's own lifetime total adds whole rounds.
            assert batched.simulated_io_us == pytest.approx(clock_us)

    def test_reset(self):
        x = RNG.normal(size=(5, 3)).astype(np.float32)
        ssd = SimulatedSSD(x, [np.array([0])] * 5)
        ssd.read_vertex(0)
        ssd.reset_counters()
        assert ssd.page_reads == 0
        assert ssd.simulated_io_us == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SimulatedSSD(np.zeros(5), [np.array([0])])
        with pytest.raises(ValueError):
            SimulatedSSD(np.zeros((5, 2)), [np.array([0])] * 3)

    def test_stored_bytes_page_rounded(self):
        x = RNG.normal(size=(5, 3)).astype(np.float32)
        ssd = SimulatedSSD(x, [np.array([0])] * 5, SSDConfig(page_bytes=4096))
        assert ssd.stored_bytes() % 4096 == 0


class TestMemoryIndex:
    def test_search_returns_k(self, setup):
        data, graph, quantizer, gt = setup
        index = MemoryIndex(graph, quantizer, data.base)
        res = search_one(index, data.queries[0], k=10, beam_width=32)
        assert res.ids.shape == (10,)
        assert res.hops > 0

    def test_recall_improves_with_beam(self, setup):
        data, graph, quantizer, gt = setup
        index = MemoryIndex(graph, quantizer, data.base)

        def run(beam):
            ids = [search_one(index, q, k=10, beam_width=beam).ids for q in data.queries]
            return recall_at_k(ids, gt.ids)

        assert run(64) >= run(10) - 0.05

    def test_validation(self, setup):
        data, graph, quantizer, gt = setup
        with pytest.raises(ValueError):
            MemoryIndex(graph, quantizer, data.base[:-5])
        with pytest.raises(ValueError):
            MemoryIndex(graph, ProductQuantizer(4, 8), data.base)
        index = MemoryIndex(graph, quantizer, data.base)
        with pytest.raises(ValueError):
            search_one(index, data.queries[0], k=0)
        with pytest.raises(ValueError):
            search_one(index, data.queries[0], k=20, beam_width=10)

    def test_memory_accounting(self, setup):
        data, graph, quantizer, gt = setup
        index = MemoryIndex(graph, quantizer, data.base)
        assert index.memory_bytes() < index.full_precision_bytes()
        assert index.compression_ratio() > 1.0


class TestDiskIndex:
    def test_search_returns_exact_reranked(self, setup):
        data, graph, quantizer, gt = setup
        index = DiskIndex(graph, quantizer, data.base)
        res = search_one(index, data.queries[0], k=10, beam_width=32)
        assert res.ids.shape == (10,)
        # Distances are exact: recompute and compare.
        expected = ((data.base[res.ids] - data.queries[0]) ** 2).sum(axis=1)
        np.testing.assert_allclose(res.distances, expected, rtol=1e-5)
        assert (np.diff(res.distances) >= -1e-9).all()

    def test_io_counters_track_hops(self, setup):
        data, graph, quantizer, gt = setup
        index = DiskIndex(graph, quantizer, data.base)
        res = search_one(index, data.queries[1], k=10, beam_width=32)
        assert res.counters["page_reads"] == res.hops
        assert res.counters["io_rounds"] <= res.hops
        assert res.counters["simulated_io_us"] > 0

    def test_concurrent_searches_share_the_ssd_without_interference(self, setup):
        """Thread replicas share one live index: every counter of every
        response — the float ``simulated_io_us`` at a non-integer
        latency included — must equal the unloaded reference bitwise,
        and the device's lifetime totals must lose no update.  (~0.3 s)"""
        data, graph, quantizer, gt = setup
        index = DiskIndex(
            graph, quantizer, data.base, ssd_config=SSDConfig(read_latency_us=33.3)
        )
        requests = [
            SearchRequest(data.queries[i : i + 3], k=10, beam_width=24)
            for i in range(0, 9, 3)
        ]
        expected = [index.search(request) for request in requests]
        reads_per_pass = sum(int(r.counters["page_reads"].sum()) for r in expected)
        assert index.ssd.page_reads == reads_per_pass  # lifetime, never reset
        workers, passes, got = 4, 8, {}

        def worker(w):
            got[w] = [
                [index.search(request) for request in requests]
                for _ in range(passes)
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(w,)) for w in range(workers)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(got) == list(range(workers))
        for answers in got.values():
            for one_pass in answers:
                for want, response in zip(expected, one_pass):
                    np.testing.assert_array_equal(response.ids, want.ids)
                    for name in set(want.counters) - {"workspace_reused"}:
                        np.testing.assert_array_equal(
                            response.counters[name], want.counters[name], err_msg=name
                        )
        assert index.ssd.page_reads == (1 + workers * passes) * reads_per_pass

    def test_hybrid_recall_beats_memory_at_same_beam(self, setup):
        # Rerank with exact distances must dominate code-only ranking.
        data, graph, quantizer, gt = setup
        mem = MemoryIndex(graph, quantizer, data.base)
        disk = DiskIndex(graph, quantizer, data.base)
        beam = 32
        mem_ids = [search_one(mem, q, k=10, beam_width=beam).ids for q in data.queries]
        disk_ids = [search_one(disk, q, k=10, beam_width=beam).ids for q in data.queries]
        assert recall_at_k(disk_ids, gt.ids) >= recall_at_k(mem_ids, gt.ids)

    def test_hybrid_reaches_high_recall(self, setup):
        data, graph, quantizer, gt = setup
        disk = DiskIndex(graph, quantizer, data.base)
        ids = [search_one(disk, q, k=10, beam_width=64).ids for q in data.queries]
        assert recall_at_k(ids, gt.ids) > 0.9

    def test_memory_fraction_is_small(self, setup):
        data, graph, quantizer, gt = setup
        disk = DiskIndex(graph, quantizer, data.base)
        # Codes + codebook should be a small fraction of the SSD payload
        # (the paper's f = 1/32 regime directionally).
        assert disk.memory_fraction() < 0.6

    def test_validation(self, setup):
        data, graph, quantizer, gt = setup
        with pytest.raises(ValueError):
            DiskIndex(graph, quantizer, data.base, io_width=0)
        index = DiskIndex(graph, quantizer, data.base)
        with pytest.raises(ValueError):
            search_one(index, data.queries[0], k=0)


class TestL2R:
    def test_reweighter_improves_distance_fit(self, setup):
        data, graph, quantizer, gt = setup
        rew = LearnedRoutingReweighter.fit(
            quantizer, data.base, rng=np.random.default_rng(0)
        )
        assert rew.weights.shape == (8,)
        assert (rew.weights >= 0).all()

    def test_reweighter_validation(self):
        with pytest.raises(ValueError):
            LearnedRoutingReweighter(np.array([-1.0, 2.0]))

    def test_l2r_index_searches(self, setup):
        data, graph, quantizer, gt = setup
        index = L2RIndex(
            graph, quantizer, data.base, rng=np.random.default_rng(0)
        )
        res = search_one(index, data.queries[0], k=10, beam_width=32)
        assert res.ids.shape == (10,)
        ids = [search_one(index, q, k=10, beam_width=48).ids for q in data.queries]
        assert recall_at_k(ids, gt.ids) > 0.3

    def test_l2r_search_validation(self, setup):
        data, graph, quantizer, gt = setup
        index = L2RIndex(graph, quantizer, data.base, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            search_one(index, data.queries[0], k=0)
        with pytest.raises(ValueError):
            search_one(index, data.queries[0], k=20, beam_width=10)
