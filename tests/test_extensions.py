"""Tests for library extensions: serialization, SDC search mode,
networkx export, and additional cross-cutting property tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RPQ, RPQTrainingConfig
from repro.datasets import compute_ground_truth, load
from repro.graphs import beam_search, build_vamana, exact_distance_fn
from repro.index import MemoryIndex
from repro.metrics import recall_at_k
from repro.quantization import (
    LinkAndCodeQuantizer,
    OptimizedProductQuantizer,
    ProductQuantizer,
    load_quantizer,
    save_quantizer,
)

from .helpers import search_one

RNG = np.random.default_rng(81)


def clustered(n=300, d=16, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=4.0, size=(6, d))
    return centers[rng.integers(6, size=n)] + 0.3 * rng.normal(size=(n, d))


class TestSerialization:
    def roundtrip(self, quantizer, tmp_path, x):
        path = tmp_path / "model.npz"
        save_quantizer(quantizer, path)
        loaded = load_quantizer(path)
        np.testing.assert_array_equal(
            quantizer.encode(x[:20]), loaded.encode(x[:20])
        )
        np.testing.assert_allclose(
            quantizer.lookup_table(x[0]).table,
            loaded.lookup_table(x[0]).table,
            atol=1e-12,
        )
        return loaded

    def test_pq_roundtrip(self, tmp_path):
        x = clustered()
        self.roundtrip(ProductQuantizer(4, 16, seed=0).fit(x), tmp_path, x)

    def test_opq_roundtrip(self, tmp_path):
        x = clustered()
        self.roundtrip(
            OptimizedProductQuantizer(4, 16, opq_iter=3, seed=0).fit(x),
            tmp_path,
            x,
        )

    def test_lnc_roundtrip(self, tmp_path):
        x = clustered()
        self.roundtrip(
            LinkAndCodeQuantizer(4, 16, n_sq=2, seed=0).fit(x), tmp_path, x
        )

    def test_rpq_roundtrip(self, tmp_path):
        x = clustered(n=250, d=8)
        graph = build_vamana(x, r=8, search_l=20, seed=0)
        config = RPQTrainingConfig(
            epochs=1, num_triplets=32, num_queries=3, records_per_query=3,
            batch_triplets=16, batch_records=4, beam_width=6, seed=0,
        )
        rpq = RPQ(2, 8, config=config, seed=0).fit(x, graph)
        loaded = self.roundtrip(rpq.quantizer, tmp_path, x)
        np.testing.assert_allclose(loaded.rotation, rpq.quantizer.rotation)

    def test_unfitted_raises(self, tmp_path):
        with pytest.raises(ValueError):
            save_quantizer(ProductQuantizer(4, 16), tmp_path / "x.npz")

    def test_unsupported_type_raises(self, tmp_path):
        class Fake:
            codebook = ProductQuantizer(2, 4, seed=0).fit(clustered(d=4)).codebook

        with pytest.raises(TypeError):
            save_quantizer(Fake(), tmp_path / "x.npz")


class TestSDCMode:
    def test_sdc_index_searches(self):
        data = load("ukbench", n_base=400, n_queries=12, seed=0)
        graph = build_vamana(data.base, r=10, search_l=24, seed=0)
        quantizer = ProductQuantizer(8, 32, seed=0).fit(data.train)
        gt = compute_ground_truth(data.base, data.queries, k=10)

        adc = MemoryIndex(graph, quantizer, data.base, distance_mode="adc")
        sdc = MemoryIndex(graph, quantizer, data.base, distance_mode="sdc")
        r_adc = recall_at_k(
            [search_one(adc, q, k=10, beam_width=48).ids for q in data.queries], gt.ids
        )
        r_sdc = recall_at_k(
            [search_one(sdc, q, k=10, beam_width=48).ids for q in data.queries], gt.ids
        )
        # Paper §3.1: ADC yields lower distance error, hence >= recall.
        assert r_adc >= r_sdc - 0.05
        assert r_sdc > 0.2

    def test_invalid_mode(self):
        data = load("ukbench", n_base=100, n_queries=5, seed=0)
        graph = build_vamana(data.base, r=8, search_l=16, seed=0)
        quantizer = ProductQuantizer(4, 8, seed=0).fit(data.train)
        with pytest.raises(ValueError):
            MemoryIndex(graph, quantizer, data.base, distance_mode="exact")


class TestNetworkxExport:
    def test_export_structure(self):
        x = clustered(n=120, d=8)
        graph = build_vamana(x, r=8, search_l=16, seed=0)
        nx_graph = graph.to_networkx()
        assert nx_graph.number_of_nodes() == graph.num_vertices
        assert nx_graph.number_of_edges() == graph.num_edges
        for v in range(graph.num_vertices):
            assert set(nx_graph.successors(v)) == set(
                int(u) for u in graph.neighbors(v)
            )

    def test_export_connectivity_agrees(self):
        import networkx as nx

        x = clustered(n=100, d=8)
        graph = build_vamana(x, r=8, search_l=16, seed=0)
        nx_graph = graph.to_networkx()
        reachable = set(nx.descendants(nx_graph, graph.entry_point))
        reachable.add(graph.entry_point)
        assert graph.is_connected_from_entry() == (
            len(reachable) == graph.num_vertices
        )


class TestSearchProperties:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_beam_results_sorted_and_unique(self, seed):
        x = np.random.default_rng(seed).normal(size=(80, 6))
        graph = build_vamana(x, r=8, search_l=16, seed=seed)
        q = np.random.default_rng(seed + 1).normal(size=6)
        res = beam_search(
            graph.adjacency, graph.entry_point, exact_distance_fn(x, q), 12
        )
        assert (np.diff(res.distances) >= -1e-12).all()
        assert len(set(res.ids.tolist())) == len(res.ids)

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 10_000))
    def test_full_beam_on_connected_graph_is_exhaustive(self, seed):
        # With beam width >= n, beam search visits the whole connected
        # component and finds the exact nearest neighbor.
        x = np.random.default_rng(seed).normal(size=(50, 4))
        graph = build_vamana(x, r=6, search_l=12, seed=seed)
        if not graph.is_connected_from_entry():
            return
        q = np.random.default_rng(seed + 7).normal(size=4)
        res = beam_search(
            graph.adjacency, graph.entry_point, exact_distance_fn(x, q), 50
        )
        true_best = int(((x - q) ** 2).sum(axis=1).argmin())
        assert res.ids[0] == true_best
