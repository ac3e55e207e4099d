"""Tests for codebooks, ADC tables, and the four classical quantizers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quantization import (
    CatalystQuantizer,
    Codebook,
    LinkAndCodeQuantizer,
    LookupTable,
    OptimizedProductQuantizer,
    ProductQuantizer,
    adc_distances,
    code_dtype_for,
    sdc_distances,
)

RNG = np.random.default_rng(11)


def clustered_data(n=400, d=16, clusters=8, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=4.0, size=(clusters, d))
    labels = rng.integers(clusters, size=n)
    return centers[labels] + 0.3 * rng.normal(size=(n, d))


class TestCodeDtype:
    def test_boundaries(self):
        assert code_dtype_for(2) == np.uint8
        assert code_dtype_for(256) == np.uint8
        assert code_dtype_for(257) == np.uint16
        assert code_dtype_for(65536) == np.uint16
        assert code_dtype_for(65537) == np.uint32

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            code_dtype_for(0)


class TestCodebook:
    def make(self, m=4, k=8, d_sub=4, seed=0):
        rng = np.random.default_rng(seed)
        return Codebook(rng.normal(size=(m, k, d_sub)))

    def test_shapes_and_props(self):
        book = self.make()
        assert book.num_chunks == 4
        assert book.num_codewords == 8
        assert book.sub_dim == 4
        assert book.dim == 16
        assert book.bits_per_vector() == 4 * 3

    def test_encode_decode_roundtrip_on_codewords(self):
        # Encoding an exact codeword concatenation must reproduce it.
        book = self.make()
        vec = np.concatenate([book.codewords[j, j % 8] for j in range(4)])
        codes = book.encode(vec[None, :])
        np.testing.assert_array_equal(codes[0], [0 % 8, 1 % 8, 2 % 8, 3 % 8])
        np.testing.assert_allclose(book.decode(codes)[0], vec)

    def test_encode_is_nearest_codeword(self):
        book = self.make()
        x = RNG.normal(size=(20, 16))
        codes = book.encode(x)
        for j in range(4):
            chunk = x[:, j * 4 : (j + 1) * 4]
            d = ((chunk[:, None, :] - book.codewords[j][None, :, :]) ** 2).sum(-1)
            np.testing.assert_array_equal(codes[:, j], d.argmin(axis=1))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            Codebook(np.zeros((3, 4)))
        book = self.make()
        with pytest.raises(ValueError):
            book.encode(np.zeros((2, 10)))
        with pytest.raises(ValueError):
            book.decode(np.zeros((2, 3), dtype=np.uint8))

    def test_reconstruction_error_zero_for_codewords(self):
        book = self.make()
        vecs = np.stack(
            [np.concatenate(book.codewords[:, i]) for i in range(3)]
        )
        assert book.reconstruction_error(vecs) < 1e-18


class TestLookupTable:
    def test_adc_matches_explicit_distance(self):
        book = Codebook(RNG.normal(size=(4, 8, 4)))
        x = RNG.normal(size=(30, 16))
        q = RNG.normal(size=16)
        codes = book.encode(x)
        recon = book.decode(codes)
        expected = ((recon - q) ** 2).sum(axis=1)
        got = adc_distances(book, q, codes)
        np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_single_code_vector(self):
        book = Codebook(RNG.normal(size=(2, 4, 3)))
        q = RNG.normal(size=6)
        table = LookupTable.build(book, q)
        codes = book.encode(RNG.normal(size=(1, 6)))
        single = table.distance(codes[0])
        batch = table.distance(codes)
        assert np.isscalar(single) or single.ndim == 0
        np.testing.assert_allclose(single, batch[0])

    def test_dim_validation(self):
        book = Codebook(RNG.normal(size=(2, 4, 3)))
        with pytest.raises(ValueError):
            LookupTable.build(book, np.zeros(5))
        table = LookupTable.build(book, np.zeros(6))
        with pytest.raises(ValueError):
            table.distance(np.zeros((2, 3), dtype=np.uint8))

    def test_sdc_is_noisier_but_correlated(self):
        x = clustered_data(n=300, d=8, clusters=6)
        book = ProductQuantizer(2, 16, seed=0).fit(x).codebook
        q = x[0] + 0.05
        codes = book.encode(x)
        true_d = ((x - q) ** 2).sum(axis=1)
        adc = adc_distances(book, q, codes)
        sdc = sdc_distances(book, q, codes)
        corr_adc = np.corrcoef(true_d, adc)[0, 1]
        corr_sdc = np.corrcoef(true_d, sdc)[0, 1]
        assert corr_adc > 0.9
        assert corr_sdc > 0.5


class TestProductQuantizer:
    def test_fit_encode_shapes(self):
        x = clustered_data()
        pq = ProductQuantizer(4, 16, seed=0).fit(x)
        codes = pq.encode(x)
        assert codes.shape == (400, 4)
        assert codes.dtype == np.uint8
        assert pq.decode(codes).shape == (400, 16)

    def test_unfitted_raises(self):
        pq = ProductQuantizer(4, 16)
        with pytest.raises(RuntimeError):
            pq.encode(np.zeros((2, 16)))

    def test_dim_divisibility(self):
        with pytest.raises(ValueError):
            ProductQuantizer(5, 8).fit(np.zeros((10, 16)))

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ProductQuantizer(0, 8)
        with pytest.raises(ValueError):
            ProductQuantizer(2, 1)

    def test_more_codewords_reduce_error(self):
        x = clustered_data(n=600)
        errs = [
            ProductQuantizer(4, k, seed=0).fit(x).quantization_error(x)
            for k in (4, 16, 64)
        ]
        assert errs[0] > errs[1] > errs[2]

    def test_code_bytes(self):
        x = clustered_data()
        pq = ProductQuantizer(8, 256, seed=0).fit(np.repeat(x, 1, axis=0))
        assert pq.code_bytes_per_vector() == 8

    def test_lookup_table_consistency(self):
        x = clustered_data()
        pq = ProductQuantizer(4, 16, seed=0).fit(x)
        q = x[5]
        codes = pq.encode(x[:50])
        table_d = pq.lookup_table(q).distance(codes)
        recon = pq.decode(codes)
        np.testing.assert_allclose(
            table_d, ((recon - q) ** 2).sum(axis=1), atol=1e-9
        )


class TestOPQ:
    def test_rotation_is_orthonormal(self):
        x = clustered_data()
        opq = OptimizedProductQuantizer(4, 16, opq_iter=3, seed=0).fit(x)
        r = opq.rotation
        np.testing.assert_allclose(r @ r.T, np.eye(16), atol=1e-9)

    def test_opq_not_worse_than_pq_on_correlated_data(self):
        # Strongly correlated dimensions: OPQ's rotation should help.
        rng = np.random.default_rng(3)
        latent = rng.normal(size=(500, 4))
        mixing = rng.normal(size=(4, 16))
        x = latent @ mixing + 0.05 * rng.normal(size=(500, 16))
        pq_err = ProductQuantizer(4, 16, seed=0).fit(x).quantization_error(x)
        opq = OptimizedProductQuantizer(4, 16, opq_iter=8, seed=0).fit(x)
        # OPQ error is measured in rotated space; rotation preserves norms
        # so errors are comparable.
        assert opq.quantization_error(x) <= pq_err * 1.05

    def test_transform_preserves_norms(self):
        x = clustered_data()
        opq = OptimizedProductQuantizer(4, 8, opq_iter=2, seed=0).fit(x)
        np.testing.assert_allclose(
            np.linalg.norm(opq.transform(x), axis=1),
            np.linalg.norm(x, axis=1),
            rtol=1e-9,
        )

    def test_unfitted_transform_raises(self):
        with pytest.raises(RuntimeError):
            OptimizedProductQuantizer(4, 8).transform(np.zeros((1, 16)))

    def test_fit_rotation_is_fits_rotation(self):
        x = clustered_data()
        full = OptimizedProductQuantizer(4, 8, opq_iter=3, seed=5).fit(x)
        alone = OptimizedProductQuantizer(4, 8, opq_iter=3, seed=5)
        assert np.array_equal(alone.fit_rotation(x), full.rotation)
        assert alone.codebook is None

    def test_parameter_bytes_include_rotation(self):
        x = clustered_data()
        opq = OptimizedProductQuantizer(4, 8, opq_iter=2, seed=0).fit(x)
        pq = ProductQuantizer(4, 8, seed=0).fit(x)
        assert opq.parameter_bytes() > pq.parameter_bytes()


class TestCatalyst:
    def test_fit_and_shapes(self):
        x = clustered_data(n=300, d=16)
        cat = CatalystQuantizer(
            4, 16, out_dim=8, hidden_dim=16, epochs=2, batch_size=64, seed=0
        ).fit(x)
        codes = cat.encode(x[:10])
        assert codes.shape == (10, 4)
        assert cat.decode(codes).shape == (10, 8)

    def test_transform_is_on_sphere(self):
        x = clustered_data(n=200, d=16)
        cat = CatalystQuantizer(
            2, 8, out_dim=8, hidden_dim=16, epochs=1, batch_size=64, seed=0
        ).fit(x)
        norms = np.linalg.norm(cat.transform(x), axis=1)
        np.testing.assert_allclose(norms, np.ones_like(norms), atol=1e-6)

    def test_training_reduces_loss(self):
        x = clustered_data(n=400, d=16)
        cat = CatalystQuantizer(
            2, 8, out_dim=8, hidden_dim=32, epochs=6, batch_size=128, seed=0
        ).fit(x)
        assert cat.training_loss[-1] < cat.training_loss[0]

    def test_out_dim_divisibility(self):
        with pytest.raises(ValueError):
            CatalystQuantizer(3, 8, out_dim=8)

    def test_parameter_bytes_exceed_plain_pq(self):
        x = clustered_data(n=200, d=16)
        cat = CatalystQuantizer(
            2, 8, out_dim=8, hidden_dim=16, epochs=1, batch_size=64, seed=0
        ).fit(x)
        assert cat.parameter_bytes() > cat.codebook.parameter_bytes()


class TestLinkAndCode:
    def test_codes_include_refinement_bytes(self):
        x = clustered_data()
        lnc = LinkAndCodeQuantizer(4, 16, n_sq=2, seed=0).fit(x)
        codes = lnc.encode(x[:7])
        assert codes.shape == (7, 6)
        assert lnc.code_bytes_per_vector() == 6

    def test_refinement_reduces_error(self):
        x = clustered_data(n=600)
        plain = LinkAndCodeQuantizer(4, 16, n_sq=0, seed=0).fit(x)
        refined = LinkAndCodeQuantizer(4, 16, n_sq=2, seed=0).fit(x)

        def err(q):
            recon = q.decode(q.encode(x))
            return ((x - recon) ** 2).sum(axis=1).mean()

        assert err(refined) < err(plain)

    def test_decode_validation(self):
        x = clustered_data()
        lnc = LinkAndCodeQuantizer(4, 16, n_sq=1, seed=0).fit(x)
        with pytest.raises(ValueError):
            lnc.decode(np.zeros((2, 4), dtype=np.uint8))

    def test_lookup_table_correlates_with_true_distance(self):
        x = clustered_data(n=500)
        lnc = LinkAndCodeQuantizer(4, 16, n_sq=1, seed=0).fit(x)
        q = x[3] + 0.1
        codes = lnc.encode(x)
        est = lnc.lookup_table(q).distance(codes)
        true_d = ((x - q) ** 2).sum(axis=1)
        assert np.corrcoef(est, true_d)[0, 1] > 0.8

    def test_n_sq_validation(self):
        with pytest.raises(ValueError):
            LinkAndCodeQuantizer(4, 16, n_sq=-1)


@settings(max_examples=10, deadline=None)
@given(st.integers(2, 4), st.integers(4, 16))
def test_property_pq_decode_vectors_are_codeword_concats(m, k):
    x = clustered_data(n=120, d=8 * m, clusters=5, seed=k)
    pq = ProductQuantizer(m, k, seed=0, max_iter=5).fit(x)
    recon = pq.decode(pq.encode(x[:20]))
    book = pq.codebook
    for row in recon:
        for j in range(m):
            sub = row[j * book.sub_dim : (j + 1) * book.sub_dim]
            d = ((book.codewords[j] - sub) ** 2).sum(axis=1).min()
            assert d < 1e-18
