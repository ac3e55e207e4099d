"""Edge cases of the batched query engine's public API."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import load
from repro.graphs import build_vamana
from repro.graphs.beam import beam_search_batch
from repro.index import DiskIndex, MemoryIndex, StreamingIndex
from repro.quantization import ProductQuantizer

from .helpers import search, search_one


@pytest.fixture(scope="module")
def setup():
    data = load("sift", n_base=400, n_queries=12, seed=1)
    quantizer = ProductQuantizer(8, 16, seed=0).fit(data.train)
    graph = build_vamana(data.base, r=10, search_l=24, seed=0)
    return data, quantizer, graph


class TestEmptyBatch:
    def test_memory(self, setup):
        data, quantizer, graph = setup
        index = MemoryIndex(graph, quantizer, data.base)
        batch = search(index, np.empty((0, data.base.shape[1])), k=10, beam_width=24)
        assert batch.num_queries == 0
        assert batch.ids.shape == (0, 10)
        assert batch.total("hops") == 0

    def test_disk(self, setup):
        data, quantizer, graph = setup
        index = DiskIndex(graph, quantizer, data.base)
        batch = search(index, np.empty((0, data.base.shape[1])), k=10, beam_width=24)
        assert batch.num_queries == 0
        assert batch.total("page_reads") == 0

    def test_kernel(self, setup):
        data, _, graph = setup
        result = beam_search_batch(
            graph.adjacency,
            np.empty(0, dtype=np.int64),
            lambda qi, vi: np.zeros(len(vi)),
            beam_width=8,
        )
        assert result.num_queries == 0


class TestBatchOfOne:
    def test_matches_scalar(self, setup):
        data, quantizer, graph = setup
        index = MemoryIndex(graph, quantizer, data.base)
        q = data.queries[0]
        scalar = search_one(index, q, k=10, beam_width=24)
        batch = search(index, q[None, :], k=10, beam_width=24)
        assert batch.num_queries == 1
        row = batch.row(0)
        np.testing.assert_array_equal(scalar.ids, row.ids)
        np.testing.assert_array_equal(scalar.distances, row.distances)
        assert scalar.hops == row.hops

    def test_1d_query_accepted(self, setup):
        data, quantizer, graph = setup
        index = MemoryIndex(graph, quantizer, data.base)
        batch = search(index, data.queries[0], k=5, beam_width=16)
        assert batch.num_queries == 1


class TestKEqualsBeamWidth:
    def test_memory(self, setup):
        data, quantizer, graph = setup
        index = MemoryIndex(graph, quantizer, data.base)
        scalars = [
            search_one(index, q, k=16, beam_width=16) for q in data.queries
        ]
        batch = search(index, data.queries, k=16, beam_width=16)
        for i, scalar in enumerate(scalars):
            row = batch.row(i)
            np.testing.assert_array_equal(scalar.ids, row.ids)
            np.testing.assert_array_equal(scalar.distances, row.distances)

    def test_k_above_beam_rejected(self, setup):
        data, quantizer, graph = setup
        index = MemoryIndex(graph, quantizer, data.base)
        with pytest.raises(ValueError):
            search(index, data.queries, k=20, beam_width=16)

    def test_k_below_one_rejected(self, setup):
        data, quantizer, graph = setup
        index = MemoryIndex(graph, quantizer, data.base)
        with pytest.raises(ValueError):
            search(index, data.queries, k=0, beam_width=16)


class TestDuplicateQueries:
    def test_identical_rows(self, setup):
        data, quantizer, graph = setup
        index = MemoryIndex(graph, quantizer, data.base)
        queries = np.vstack([data.queries[0]] * 5)
        batch = search(index, queries, k=10, beam_width=24)
        for i in range(1, 5):
            np.testing.assert_array_equal(batch.ids[0], batch.ids[i])
            np.testing.assert_array_equal(
                batch.distances[0], batch.distances[i]
            )
            assert batch.hops[0] == batch.hops[i]

    def test_mixed_duplicates_match_scalar(self, setup):
        data, quantizer, graph = setup
        index = MemoryIndex(graph, quantizer, data.base)
        queries = np.vstack(
            [data.queries[0], data.queries[1], data.queries[0]]
        )
        batch = search(index, queries, k=10, beam_width=24)
        for i, q in enumerate(queries):
            scalar = search_one(index, q, k=10, beam_width=24)
            np.testing.assert_array_equal(scalar.ids, batch.row(i).ids)


class TestFloat32Tables:
    def test_agreement_within_tolerance(self, setup):
        data, quantizer, graph = setup
        f64 = MemoryIndex(graph, quantizer, data.base)
        f32 = MemoryIndex(
            graph, quantizer, data.base, table_dtype=np.float32
        )
        b64 = search(f64, data.queries, k=10, beam_width=32)
        b32 = search(f32, data.queries, k=10, beam_width=32)
        # Distances agree to float32 resolution; the candidate ranking
        # may differ on near-ties, so compare distances, not ids.
        np.testing.assert_allclose(
            b32.distances, b64.distances, rtol=1e-4, atol=1e-4
        )

    def test_float32_table_dtype_propagates(self, setup):
        data, quantizer, _ = setup
        table = quantizer.lookup_table(data.queries[0], dtype=np.float32)
        assert table.table.dtype == np.float32
        tables = quantizer.lookup_table_batch(
            data.queries, dtype=np.float32
        )
        assert tables.tables.dtype == np.float32

    def test_scalar_and_batch_f32_parity(self, setup):
        # The float32 path must still be batch/scalar bitwise-parity.
        data, quantizer, graph = setup
        index = MemoryIndex(
            graph, quantizer, data.base, table_dtype=np.float32
        )
        scalars = [
            search_one(index, q, k=10, beam_width=24) for q in data.queries
        ]
        batch = search(index, data.queries, k=10, beam_width=24)
        for i, scalar in enumerate(scalars):
            row = batch.row(i)
            np.testing.assert_array_equal(scalar.ids, row.ids)
            np.testing.assert_array_equal(scalar.distances, row.distances)


class TestStreamingEdgeCases:
    def test_empty_index(self, setup):
        data, quantizer, _ = setup
        index = StreamingIndex(
            quantizer, dim=data.base.shape[1], r=8, search_l=16
        )
        batch = search(index, data.queries, k=5, beam_width=16)
        assert batch.num_queries == len(data.queries)
        assert (batch.counts == 0).all()
        assert (batch.ids == -1).all()

    def test_fewer_alive_than_k(self, setup):
        data, quantizer, _ = setup
        index = StreamingIndex(
            quantizer, dim=data.base.shape[1], r=8, search_l=16
        )
        index.insert_batch(data.base[:6])
        for v in (0, 2, 4):
            index.delete(v)
        scalars = [
            search_one(index, q, k=5, beam_width=16) for q in data.queries
        ]
        batch = search(index, data.queries, k=5, beam_width=16)
        for i, scalar in enumerate(scalars):
            row = batch.row(i)
            np.testing.assert_array_equal(scalar.ids, row.ids)
            assert row.ids.size <= 3
