"""Regression tests for the batched ADC table build.

``BatchLookupTable.build`` must reproduce, for every query in the
batch, the brute-force per-chunk squared distances to every codeword —
and match the scalar ``LookupTable.build`` bitwise (both reduce over
the sub-dimension axis in the same order).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.quantization import BatchLookupTable, LookupTable
from repro.quantization.codebook import Codebook

RNG = np.random.default_rng(17)


def random_codebook(m=4, k=8, d_sub=5):
    return Codebook(codewords=RNG.normal(size=(m, k, d_sub)))


def brute_force_table(codebook, query):
    """Per-chunk distances computed the slow, obvious way."""
    m, k, d_sub = codebook.codewords.shape
    table = np.zeros((m, k))
    for j in range(m):
        sub_q = query[j * d_sub : (j + 1) * d_sub]
        for c in range(k):
            diff = sub_q - codebook.codewords[j, c]
            table[j, c] = float(np.dot(diff, diff))
    return table


class TestBuildBatchRegression:
    @pytest.mark.parametrize("m,k,d_sub", [(2, 4, 3), (4, 8, 5), (8, 16, 2)])
    def test_against_brute_force(self, m, k, d_sub):
        codebook = random_codebook(m, k, d_sub)
        queries = RNG.normal(size=(6, m * d_sub))
        tables = BatchLookupTable.build(codebook, queries)
        assert tables.tables.shape == (6, m, k)
        for b in range(6):
            np.testing.assert_allclose(
                tables.tables[b],
                brute_force_table(codebook, queries[b]),
                rtol=1e-12,
                atol=1e-12,
            )

    def test_bitwise_matches_scalar_build(self):
        codebook = random_codebook()
        queries = RNG.normal(size=(9, codebook.dim))
        tables = BatchLookupTable.build(codebook, queries)
        for b in range(9):
            single = LookupTable.build(codebook, queries[b])
            np.testing.assert_array_equal(tables.tables[b], single.table)

    def test_table_for_view(self):
        codebook = random_codebook()
        queries = RNG.normal(size=(3, codebook.dim))
        tables = BatchLookupTable.build(codebook, queries)
        view = tables.table_for(1)
        np.testing.assert_array_equal(view.table, tables.tables[1])
        assert view.num_chunks == tables.num_chunks

    def test_dim_mismatch_rejected(self):
        codebook = random_codebook()
        with pytest.raises(ValueError):
            BatchLookupTable.build(
                codebook, RNG.normal(size=(2, codebook.dim + 1))
            )


class TestBoundedBuild:
    """The batch build runs in fixed blocks of rows: every row stays
    bitwise equal to the scalar build across block edges, and the
    working set does not grow with the batch."""

    @staticmethod
    def paper_codebook():
        # The paper-standard 16 x 256 code budget at 128 dimensions.
        return random_codebook(m=16, k=256, d_sub=8)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("b", [0, 1, 7, 8, 9, 33, 64])
    def test_rows_bitwise_equal_scalar_build(self, b, dtype):
        codebook = self.paper_codebook()
        queries = RNG.normal(size=(b, codebook.dim))
        tables = BatchLookupTable.build(codebook, queries, dtype=dtype)
        assert tables.tables.shape == (b, 16, 256)
        assert tables.tables.dtype == dtype
        for i in range(b):
            single = LookupTable.build(codebook, queries[i], dtype=dtype)
            np.testing.assert_array_equal(tables.tables[i], single.table)

    def test_peak_memory_bounded_at_b64(self):
        codebook = self.paper_codebook()
        queries = RNG.normal(size=(64, codebook.dim))
        tracemalloc.start()
        try:
            BatchLookupTable.build(codebook, queries)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One (64, 16, 256, 8) float64 difference temporary alone is
        # 16 MiB; the tables themselves are 2 MiB.
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestBatchDistances:
    def test_distance_matrix_matches_scalar(self):
        codebook = random_codebook(m=4, k=8, d_sub=3)
        queries = RNG.normal(size=(5, codebook.dim))
        codes = RNG.integers(0, 8, size=(20, 4))
        tables = BatchLookupTable.build(codebook, queries)
        matrix = tables.distance(codes)
        assert matrix.shape == (5, 20)
        for b in range(5):
            scalar = LookupTable.build(codebook, queries[b]).distance(codes)
            np.testing.assert_array_equal(matrix[b], scalar)

    def test_pair_distance_matches_scalar(self):
        codebook = random_codebook(m=4, k=8, d_sub=3)
        queries = RNG.normal(size=(5, codebook.dim))
        codes = RNG.integers(0, 8, size=(12, 4))
        qidx = RNG.integers(0, 5, size=12)
        tables = BatchLookupTable.build(codebook, queries)
        paired = tables.pair_distance(qidx, codes)
        for p in range(12):
            scalar = LookupTable.build(codebook, queries[qidx[p]]).distance(
                codes[p]
            )
            assert paired[p] == scalar

    @pytest.mark.parametrize("table_dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("code_dtype", [np.uint8, np.uint16])
    @pytest.mark.parametrize("m", [1, 2, 8, 16])
    def test_pair_distance_bitwise_for_every_pair_count(
        self, m, code_dtype, table_dtype
    ):
        """``pair_distance`` sums chunks in ascending order, like the
        scalar path, whatever the number of pairs.  An axis-0
        ``np.add.reduce`` over the ``(M, P)`` gather keeps that order
        only while the gather is C-contiguous with P >= 2: at P = 1
        NumPy coalesces it into a pairwise sum, and an F-ordered gather
        (what indexing with ``codes.T + offsets`` yields) reduces
        pairwise too.  Either is 1-2 ULP off and flips answers."""
        rng = np.random.default_rng(1000 * m + np.dtype(code_dtype).itemsize)
        k, b = 64, 6
        codebook = Codebook(codewords=rng.normal(size=(m, k, 3)))
        queries = rng.normal(size=(b, codebook.dim)) * 7.3
        tables = BatchLookupTable.build(codebook, queries, dtype=table_dtype)
        scalars = [
            LookupTable.build(codebook, q, dtype=table_dtype) for q in queries
        ]
        for p in range(1, 41):
            codes = rng.integers(0, k, size=(p, m)).astype(code_dtype)
            qidx = rng.integers(0, b, size=p)
            paired = tables.pair_distance(qidx, codes)
            assert paired.dtype == np.dtype(table_dtype)
            assert paired.shape == (p,)
            expected = np.array(
                [scalars[q].distance(c) for q, c in zip(qidx, codes)],
                dtype=table_dtype,
            )
            np.testing.assert_array_equal(paired, expected, err_msg=f"P={p}")

    def test_pair_distance_shape_checks(self):
        codebook = random_codebook(m=4, k=8, d_sub=3)
        tables = BatchLookupTable.build(
            codebook, RNG.normal(size=(3, codebook.dim))
        )
        with pytest.raises(ValueError):
            tables.pair_distance(
                np.array([0, 1]), RNG.integers(0, 8, size=(3, 4))
            )
        with pytest.raises(ValueError):
            tables.distance(RNG.integers(0, 8, size=(3, 5)))

    def test_float32_build(self):
        codebook = random_codebook()
        queries = RNG.normal(size=(4, codebook.dim))
        t32 = BatchLookupTable.build(codebook, queries, dtype=np.float32)
        t64 = BatchLookupTable.build(codebook, queries)
        assert t32.tables.dtype == np.float32
        np.testing.assert_allclose(t32.tables, t64.tables, rtol=1e-5)
