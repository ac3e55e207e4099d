"""Half-precision memory path: ``storage_dtype=np.float32`` end-to-end.

The float32 opt-in covers codewords, dataset encoding, and the ADC
tables.  Distances then differ from the float64 reference by ULP-level
noise (a near-tied codeword argmin may flip), so these are
*tolerance* parity tests — unlike the engine's bitwise batch/scalar
guarantees, which must still hold exactly *within* the float32 path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import compute_ground_truth, load
from repro.graphs import build_vamana
from repro.index import MemoryIndex
from repro.metrics import recall_at_k
from repro.quantization import OptimizedProductQuantizer, ProductQuantizer

from .helpers import search, search_one


@pytest.fixture(scope="module")
def setup():
    data = load("sift", n_base=500, n_queries=16, seed=3)
    quantizer = ProductQuantizer(8, 16, seed=0).fit(data.train)
    graph = build_vamana(data.base, r=10, search_l=24, seed=0)
    gt = compute_ground_truth(data.base, data.queries, k=10)
    return data, quantizer, graph, gt


class TestCodebookDtype:
    def test_astype_roundtrip(self, setup):
        _, quantizer, _, _ = setup
        book32 = quantizer.codebook.astype(np.float32)
        assert book32.codewords.dtype == np.float32
        assert quantizer.codebook.codewords.dtype == np.float64
        np.testing.assert_allclose(
            book32.codewords, quantizer.codebook.codewords, rtol=1e-6
        )

    def test_float32_encode_decode_dtypes(self, setup):
        data, quantizer, _, _ = setup
        book32 = quantizer.codebook.astype(np.float32)
        codes = book32.encode(data.base[:32].astype(np.float32))
        assert codes.dtype == book32.code_dtype
        assert book32.decode(codes).dtype == np.float32

    def test_float32_codes_near_reference(self, setup):
        data, quantizer, _, _ = setup
        book64 = quantizer.codebook
        book32 = book64.astype(np.float32)
        codes64 = book64.encode(data.base)
        codes32 = book32.encode(data.base)
        # Argmin flips happen only on near-ties; the overwhelming
        # majority of sub-vector assignments must agree.
        assert (codes64 == codes32).mean() > 0.99


class TestFloat32MemoryPath:
    def test_recall_parity_tolerance(self, setup):
        data, quantizer, graph, gt = setup
        ref = MemoryIndex(graph, quantizer, data.base)
        half = MemoryIndex(
            graph, quantizer, data.base, storage_dtype=np.float32
        )
        assert half.table_dtype == np.dtype(np.float32)
        r64 = [search_one(ref, q, k=10, beam_width=32) for q in data.queries]
        r32 = [search_one(half, q, k=10, beam_width=32) for q in data.queries]
        recall64 = recall_at_k([r.ids for r in r64], gt.ids)
        recall32 = recall_at_k([r.ids for r in r32], gt.ids)
        assert abs(recall64 - recall32) <= 0.05

    def test_distance_parity_tolerance(self, setup):
        data, quantizer, graph, _ = setup
        ref = MemoryIndex(graph, quantizer, data.base)
        half = MemoryIndex(
            graph, quantizer, data.base, storage_dtype=np.float32
        )
        for q in data.queries[:4]:
            r64 = search_one(ref, q, k=5, beam_width=24)
            r32 = search_one(half, q, k=5, beam_width=24)
            shared = np.intersect1d(r64.ids, r32.ids)
            assert shared.size >= 3  # rankings may reshuffle near-ties
            d64 = dict(zip(r64.ids.tolist(), r64.distances.tolist()))
            d32 = dict(zip(r32.ids.tolist(), r32.distances.tolist()))
            for v in shared:
                assert d64[int(v)] == pytest.approx(
                    d32[int(v)], rel=1e-3, abs=1e-3
                )

    def test_float32_batch_is_bitwise_to_scalar(self, setup):
        data, quantizer, graph, _ = setup
        half = MemoryIndex(
            graph, quantizer, data.base, storage_dtype=np.float32
        )
        scalars = [
            search_one(half, q, k=10, beam_width=24) for q in data.queries
        ]
        batch = search(half, data.queries, k=10, beam_width=24)
        for i, scalar in enumerate(scalars):
            row = batch.row(i)
            np.testing.assert_array_equal(scalar.ids, row.ids)
            np.testing.assert_array_equal(scalar.distances, row.distances)
            assert scalar.hops == row.hops

    def test_rotated_quantizer_float32(self, setup):
        data, _, graph, gt = setup
        opq = OptimizedProductQuantizer(8, 16, opq_iter=3, seed=0).fit(
            data.train
        )
        ref = MemoryIndex(graph, opq, data.base)
        half = MemoryIndex(graph, opq, data.base, storage_dtype=np.float32)
        r64 = [search_one(ref, q, k=10, beam_width=32) for q in data.queries]
        r32 = [search_one(half, q, k=10, beam_width=32) for q in data.queries]
        recall64 = recall_at_k([r.ids for r in r64], gt.ids)
        recall32 = recall_at_k([r.ids for r in r32], gt.ids)
        assert abs(recall64 - recall32) <= 0.08

    def test_default_path_unchanged(self, setup):
        data, quantizer, graph, _ = setup
        index = MemoryIndex(graph, quantizer, data.base)
        assert index.storage_dtype == np.dtype(np.float64)
        assert index.table_dtype == np.dtype(np.float64)
        assert index._build_tables(data.queries[:2]).tables.dtype == np.float64

    def test_invalid_storage_dtype(self, setup):
        data, quantizer, graph, _ = setup
        with pytest.raises(ValueError):
            MemoryIndex(
                graph, quantizer, data.base, storage_dtype=np.float16
            )
