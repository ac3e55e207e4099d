"""Tests for adaptive rotation and the differentiable quantizer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autodiff import Adam, Tensor
from repro.core import (
    AdaptiveRotation,
    DifferentiableQuantizer,
    RPQQuantizer,
    chunk_balance_score,
    dimension_value_profile,
)

RNG = np.random.default_rng(31)


def imbalanced_data(n=300, d=16, seed=0):
    """Data whose variance concentrates in the first dimensions."""
    rng = np.random.default_rng(seed)
    scales = np.linspace(4.0, 0.05, d)
    return rng.normal(size=(n, d)) * scales


class TestAdaptiveRotation:
    def test_initial_matrix_is_identity(self):
        rot = AdaptiveRotation(8)
        np.testing.assert_allclose(rot.matrix_numpy(), np.eye(8), atol=1e-12)

    def test_random_init_is_orthogonal(self):
        rot = AdaptiveRotation(8, init_scale=0.5, rng=np.random.default_rng(0))
        r = rot.matrix_numpy()
        np.testing.assert_allclose(r @ r.T, np.eye(8), atol=1e-9)

    def test_stays_orthogonal_under_training(self):
        # Optimize an arbitrary loss and confirm orthogonality persists.
        rot = AdaptiveRotation(6)
        target = np.random.default_rng(1).normal(size=(6, 6))
        opt = Adam([rot.params], lr=1e-2)
        for _ in range(30):
            opt.zero_grad()
            r = rot.matrix()
            loss = ((r - Tensor(target)) ** 2.0).sum()
            loss.backward()
            opt.step()
        r = rot.matrix_numpy()
        np.testing.assert_allclose(r @ r.T, np.eye(6), atol=1e-8)

    def test_rotate_preserves_norms(self):
        rot = AdaptiveRotation(8, init_scale=1.0, rng=np.random.default_rng(2))
        x = RNG.normal(size=(20, 8))
        rotated = rot.rotate(Tensor(x)).data
        np.testing.assert_allclose(
            np.linalg.norm(rotated, axis=1), np.linalg.norm(x, axis=1), rtol=1e-9
        )

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            AdaptiveRotation(0)

    def test_parameter_count(self):
        assert AdaptiveRotation(8).parameter_count() == 28


class TestDimensionProfile:
    def test_profile_shape_and_mass(self):
        x = imbalanced_data()
        profile = dimension_value_profile(x, 4)
        assert profile.shape == (4, 4)
        np.testing.assert_allclose(profile.ravel(), x.var(axis=0))

    def test_balance_score_detects_imbalance(self):
        x = imbalanced_data()
        skewed = chunk_balance_score(dimension_value_profile(x, 4))
        balanced_data = RNG.normal(size=(300, 16))
        balanced = chunk_balance_score(dimension_value_profile(balanced_data, 4))
        assert skewed > balanced

    def test_divisibility_check(self):
        with pytest.raises(ValueError):
            dimension_value_profile(np.zeros((5, 10)), 4)

    def test_zero_variance_score(self):
        assert chunk_balance_score(np.zeros((4, 4))) == 0.0


class TestDifferentiableQuantizer:
    def make(self, d=16, m=4, k=8, seed=0):
        q = DifferentiableQuantizer(d, m, k, seed=seed)
        x = imbalanced_data(d=d, seed=seed)
        q.warm_start(x)
        return q, x

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            DifferentiableQuantizer(10, 3, 8)
        with pytest.raises(ValueError):
            DifferentiableQuantizer(8, 2, 8, temperature=0.0)
        with pytest.raises(ValueError):
            DifferentiableQuantizer(8, 2, 8, gumbel_tau=-1.0)

    def test_warm_start_matches_pq_error(self):
        # With an identity rotation, warm-started hard encoding should be
        # close to a plain PQ at the same geometry.
        from repro.quantization import ProductQuantizer

        q, x = self.make()
        pq = ProductQuantizer(4, 8, seed=0).fit(x)
        assert q.quantization_error(x) <= pq.quantization_error(x) * 1.25

    def test_assignment_probabilities_are_simplex(self):
        q, x = self.make()
        probs = q.assignment_probabilities(Tensor(x[:10]), chunk=0).data
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(10), atol=1e-9)
        assert (probs >= 0).all()

    def test_soft_encode_shapes(self):
        q, x = self.make()
        codes = q.soft_encode(Tensor(x[:5]), use_gumbel=False)
        assert len(codes) == 4
        for c in codes:
            assert c.shape == (5, 8)
            np.testing.assert_allclose(c.data.sum(axis=1), np.ones(5), atol=1e-9)

    def test_soft_reconstruct_approaches_hard_at_low_temperature(self):
        q, x = self.make()
        q.temperature = 0.01
        q.gumbel_tau = 0.01
        soft = q.soft_reconstruct(Tensor(x[:20]), use_gumbel=False).data
        hard = q.reconstruct_hard(x[:20])
        np.testing.assert_allclose(soft, hard, atol=1e-3)

    def test_one_call_over_blocks_draws_the_separate_calls_noise(self):
        """``blocks`` makes one call over concatenated batches draw the
        Gumbel noise of one call per batch, in order, and share ``R``."""
        q_sep, x = self.make()
        q_one, _ = self.make()
        parts = [x[:5], x[5:12], x[12:14]]
        separate = [q_sep.soft_reconstruct(Tensor(p)).data for p in parts]
        together = q_one.soft_reconstruct(
            Tensor(np.concatenate(parts)),
            rotation=q_one.rotation.matrix(),
            blocks=[len(p) for p in parts],
        ).data
        np.testing.assert_allclose(
            together, np.concatenate(separate), rtol=0, atol=1e-12
        )
        assert q_sep.rng.random() == q_one.rng.random()

    def test_encode_hard_matches_codebook_encode(self):
        q, x = self.make()
        codes = q.encode_hard(x[:15])
        book = q.codebook_numpy()
        rotated = x[:15] @ q.rotation_matrix().T
        np.testing.assert_array_equal(codes, book.encode(rotated))

    def test_gradients_reach_all_parameters(self):
        q, x = self.make()
        recon = q.soft_reconstruct(Tensor(x[:8]), use_gumbel=False)
        loss = (recon * recon).sum()
        loss.backward()
        assert q.rotation.params.grad is not None
        assert any(np.abs(q.rotation.params.grad).max() > 0 for _ in [0])
        for book in q.codebooks:
            assert book.grad is not None

    def test_freeze_roundtrip(self):
        q, x = self.make()
        frozen = q.freeze()
        assert isinstance(frozen, RPQQuantizer)
        np.testing.assert_array_equal(frozen.encode(x[:10]), q.encode_hard(x[:10]))

    def test_training_reduces_distortion(self):
        # Pure reconstruction training (no graph) must reduce hard error:
        # a smoke test that gradients point the right way end-to-end.
        q, x = self.make(d=8, m=2, k=4, seed=3)
        before = q.quantization_error(x)
        opt = Adam(q.parameters(), lr=5e-3)
        for _ in range(60):
            batch = x[RNG.integers(x.shape[0], size=64)]
            xt = Tensor(batch)
            rotated = q.rotation.rotate(xt)
            recon = q.soft_reconstruct(xt, use_gumbel=False)
            loss = ((recon - rotated.detach()) ** 2.0).sum(axis=1).mean()
            opt.zero_grad()
            loss.backward()
            opt.step()
        after = q.quantization_error(x)
        assert after <= before * 1.02  # must not regress; usually improves


class TestRPQQuantizer:
    def test_rotation_shape_validation(self):
        from repro.quantization import Codebook

        book = Codebook(RNG.normal(size=(2, 4, 3)))
        with pytest.raises(ValueError):
            RPQQuantizer(rotation=np.eye(5), codebook=book)

    def test_fit_is_disabled(self):
        from repro.quantization import Codebook

        book = Codebook(RNG.normal(size=(2, 4, 3)))
        quant = RPQQuantizer(rotation=np.eye(6), codebook=book)
        with pytest.raises(RuntimeError):
            quant.fit(np.zeros((2, 6)))

    def test_parameter_bytes_smaller_than_catalyst(self):
        # Table 5's shape: RPQ's model is a skew vector + codebook,
        # substantially smaller than Catalyst's MLP.
        from repro.quantization import CatalystQuantizer, Codebook

        d, m, k = 16, 4, 16
        book = Codebook(RNG.normal(size=(m, k, d // m)))
        rpq = RPQQuantizer(rotation=np.eye(d), codebook=book)
        x = RNG.normal(size=(300, d))
        cat = CatalystQuantizer(
            m, k, out_dim=16, hidden_dim=128, epochs=1, batch_size=64, seed=0
        ).fit(x)
        assert rpq.parameter_bytes() < cat.parameter_bytes()

    def test_lookup_table_adc_consistency(self):
        from repro.quantization import Codebook

        d, m, k = 12, 3, 8
        rng = np.random.default_rng(5)
        # Random orthonormal rotation.
        q_mat, _ = np.linalg.qr(rng.normal(size=(d, d)))
        book = Codebook(rng.normal(size=(m, k, d // m)))
        quant = RPQQuantizer(rotation=q_mat, codebook=book)
        x = rng.normal(size=(40, d))
        query = rng.normal(size=d)
        codes = quant.encode(x)
        est = quant.lookup_table(query).distance(codes)
        recon = quant.decode(codes)  # rotated space
        expected = ((recon - query @ q_mat.T) ** 2).sum(axis=1)
        np.testing.assert_allclose(est, expected, atol=1e-9)
