"""Construction parity: lockstep-batched builds must produce
byte-identical graphs to sequential (``build_batch_size=1``) builds.

The speculative construction driver (:mod:`repro.engine.construction`)
only changes *when* construction-time searches run — any search whose
read adjacency lists were touched by an earlier insertion is re-run at
its sequential turn — so Vamana, HNSW, and NSG must emit exactly the
same edges at every batch size, including degenerate ones (batch of 1,
batch larger than the dataset).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import load
from repro.graphs import build_hnsw, build_nsg, build_vamana
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


class TestVamanaBuildParity:
    @pytest.mark.parametrize("batch_size", [2, 16, 32])
    def test_batched_equals_sequential(self, x, batch_size):
        sequential = build_vamana(
            x, r=10, search_l=20, seed=3, build_batch_size=1
        )
        batched = build_vamana(
            x, r=10, search_l=20, seed=3, build_batch_size=batch_size
        )
        assert_graphs_equal(sequential, batched)

    def test_batch_larger_than_dataset(self, x):
        small = x[:40]
        sequential = build_vamana(
            small, r=6, search_l=12, seed=0, build_batch_size=1
        )
        batched = build_vamana(
            small, r=6, search_l=12, seed=0, build_batch_size=1000
        )
        assert_graphs_equal(sequential, batched)

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
        scalar = StreamingIndex(quantizer, dim=x.shape[1], r=8, search_l=16)
        for v in x[:150]:
            scalar.insert(v)
        batched = StreamingIndex(quantizer, dim=x.shape[1], r=8, search_l=16)
        ids = batched.insert_batch(x[:150])
        assert ids == list(range(150))
        a, b = stream_state(scalar), stream_state(batched)
        assert a.entry == b.entry
        assert a.lists == b.lists
        # One batch encode writes the codes row-at-a-time encodes wrote.
        np.testing.assert_array_equal(a.codes, b.codes)
        np.testing.assert_array_equal(a.vectors, b.vectors)

    def test_insert_batch_from_empty_and_tiny_windows(self, x):
        quantizer = ProductQuantizer(8, 16, seed=0).fit(x)
        a = StreamingIndex(
            quantizer, dim=x.shape[1], r=6, search_l=12, build_batch_size=1
        )
        a.insert_batch(x[:60])
        b = StreamingIndex(
            quantizer, dim=x.shape[1], r=6, search_l=12, build_batch_size=500
        )
        b.insert_batch(x[:60])
        assert stream_state(a).lists == stream_state(b).lists
        assert stream_state(a).entry == stream_state(b).entry

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
