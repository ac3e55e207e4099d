"""Tests for fused functional ops, expm, and optimizers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm as scipy_expm

from repro.autodiff import (
    Adam,
    OneCycleLR,
    SGD,
    Tensor,
    expm,
    gumbel_softmax,
    log_softmax,
    pairwise_sqdist,
    sample_gumbel,
    segment_log_softmax,
    skew_symmetric_from_flat,
    softmax,
    sqdist,
)

from .helpers import gradcheck

RNG = np.random.default_rng(1)


class TestSoftmax:
    def test_softmax_values(self):
        x = Tensor([[0.0, 0.0], [1.0, 3.0]])
        s = softmax(x, axis=-1)
        np.testing.assert_allclose(s.data.sum(axis=-1), [1.0, 1.0])
        np.testing.assert_allclose(s.data[0], [0.5, 0.5])

    def test_softmax_gradient(self):
        gradcheck(
            lambda ts: (softmax(ts[0], axis=-1) * np.arange(4.0)).sum(),
            [RNG.normal(size=(3, 4))],
        )

    def test_softmax_stability(self):
        x = Tensor([[1000.0, 1000.0]])
        s = softmax(x)
        np.testing.assert_allclose(s.data, [[0.5, 0.5]])

    def test_log_softmax_gradient(self):
        gradcheck(
            lambda ts: (log_softmax(ts[0], axis=-1) * np.arange(4.0)).sum(),
            [RNG.normal(size=(2, 4))],
        )

    def test_log_softmax_matches_log_of_softmax(self):
        x = Tensor(RNG.normal(size=(5, 6)))
        np.testing.assert_allclose(
            log_softmax(x).data, np.log(softmax(x).data), atol=1e-12
        )


class TestSegmentLogSoftmax:
    OFFSETS = np.array([0, 3, 4, 9])

    def test_equals_log_softmax_per_segment(self):
        x = RNG.normal(size=9) * 4.0
        out = segment_log_softmax(Tensor(x), self.OFFSETS).data
        for lo, hi in zip(self.OFFSETS[:-1], self.OFFSETS[1:]):
            want = log_softmax(Tensor(x[lo:hi]), axis=-1).data
            np.testing.assert_allclose(out[lo:hi], want, rtol=0, atol=1e-15)

    def test_gradient(self):
        weights = RNG.normal(size=9)
        gradcheck(
            lambda t: (segment_log_softmax(t[0], self.OFFSETS) * weights).sum(),
            [RNG.normal(size=9)],
        )


class TestGumbelSoftmax:
    def test_noiseless_is_softmax(self):
        logits = Tensor(RNG.normal(size=(4, 5)))
        out = gumbel_softmax(logits, tau=1.0, rng=None)
        np.testing.assert_allclose(out.data, softmax(logits).data)

    def test_rows_sum_to_one(self):
        logits = Tensor(RNG.normal(size=(10, 8)))
        out = gumbel_softmax(logits, tau=0.5, rng=np.random.default_rng(3))
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(10))

    def test_hard_is_one_hot(self):
        logits = Tensor(RNG.normal(size=(6, 4)))
        out = gumbel_softmax(logits, tau=1.0, rng=np.random.default_rng(4), hard=True)
        assert set(np.unique(out.data)) <= {0.0, 1.0}
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(6))

    def test_hard_straight_through_gradient_flows(self):
        logits = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        out = gumbel_softmax(logits, tau=1.0, rng=np.random.default_rng(5), hard=True)
        (out * np.arange(4.0)).sum().backward()
        assert logits.grad is not None
        assert np.any(logits.grad != 0.0)

    def test_low_temperature_sharpens(self):
        logits = Tensor(np.array([[2.0, 0.0, -1.0]]))
        soft = gumbel_softmax(logits, tau=1.0, rng=None)
        sharp = gumbel_softmax(logits, tau=0.05, rng=None)
        assert sharp.data.max() > soft.data.max()

    def test_sample_gumbel_statistics(self):
        samples = sample_gumbel((200_000,), np.random.default_rng(6))
        # Standard Gumbel has mean = Euler-Mascheroni constant ~ 0.5772.
        assert abs(samples.mean() - 0.5772) < 0.02


class TestDistances:
    def test_pairwise_matches_naive(self):
        x = RNG.normal(size=(7, 5))
        c = RNG.normal(size=(4, 5))
        out = pairwise_sqdist(Tensor(x), Tensor(c)).data
        naive = ((x[:, None, :] - c[None, :, :]) ** 2).sum(axis=-1)
        np.testing.assert_allclose(out, naive, atol=1e-9)

    def test_pairwise_gradients(self):
        gradcheck(
            lambda ts: pairwise_sqdist(ts[0], ts[1]).sum(),
            [RNG.normal(size=(3, 4)), RNG.normal(size=(2, 4))],
        )

    def test_sqdist_gradients(self):
        gradcheck(
            lambda ts: sqdist(ts[0], ts[1]).sum(),
            [RNG.normal(size=(3, 4)), RNG.normal(size=(3, 4))],
        )

    @settings(max_examples=20, deadline=None)
    @given(
        arrays(np.float64, (4, 3), elements=st.floats(-2, 2)),
        arrays(np.float64, (5, 3), elements=st.floats(-2, 2)),
    )
    def test_property_pairwise_nonnegative(self, x, c):
        out = pairwise_sqdist(Tensor(x), Tensor(c)).data
        assert (out > -1e-8).all()


class TestExpm:
    def test_matches_scipy(self):
        a = RNG.normal(size=(5, 5))
        np.testing.assert_allclose(expm(Tensor(a)).data, scipy_expm(a))

    def test_gradient(self):
        gradcheck(
            lambda ts: (expm(ts[0]) * RNG2_WEIGHTS).sum(),
            [0.1 * RNG.normal(size=(4, 4))],
            atol=1e-4,
        )

    def test_requires_square(self):
        with pytest.raises(ValueError):
            expm(Tensor(np.zeros((2, 3))))

    def test_skew_from_flat_is_skew(self):
        dim = 6
        flat = Tensor(RNG.normal(size=(dim * (dim - 1) // 2,)), requires_grad=True)
        a = skew_symmetric_from_flat(flat, dim)
        np.testing.assert_allclose(a.data, -a.data.T)

    def test_skew_from_flat_gradient(self):
        dim = 4
        n = dim * (dim - 1) // 2
        weights = RNG.normal(size=(dim, dim))
        gradcheck(
            lambda ts: (skew_symmetric_from_flat(ts[0], dim) * weights).sum(),
            [RNG.normal(size=(n,))],
        )

    def test_skew_flat_wrong_size(self):
        with pytest.raises(ValueError):
            skew_symmetric_from_flat(Tensor(np.zeros(5)), 4)

    def test_expm_of_skew_is_orthogonal(self):
        dim = 8
        flat = Tensor(RNG.normal(size=(dim * (dim - 1) // 2,)))
        r = expm(skew_symmetric_from_flat(flat, dim)).data
        np.testing.assert_allclose(r @ r.T, np.eye(dim), atol=1e-10)
        assert abs(np.linalg.det(r) - 1.0) < 1e-9


RNG2_WEIGHTS = np.random.default_rng(2).normal(size=(4, 4))


class TestOptim:
    @staticmethod
    def _quadratic_param():
        # Minimize ||p - target||^2; optimum is the target.
        target = np.array([1.0, -2.0, 3.0])
        p = Tensor(np.zeros(3), requires_grad=True)
        return p, target

    def test_sgd_converges(self):
        p, target = self._quadratic_param()
        opt = SGD([p], lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            loss = ((p - Tensor(target)) ** 2.0).sum()
            loss.backward()
            opt.step()
        np.testing.assert_allclose(p.data, target, atol=1e-4)

    def test_sgd_momentum_converges(self):
        p, target = self._quadratic_param()
        opt = SGD([p], lr=0.05, momentum=0.9)
        for _ in range(200):
            opt.zero_grad()
            ((p - Tensor(target)) ** 2.0).sum().backward()
            opt.step()
        np.testing.assert_allclose(p.data, target, atol=1e-3)

    def test_adam_converges(self):
        p, target = self._quadratic_param()
        opt = Adam([p], lr=0.1)
        for _ in range(400):
            opt.zero_grad()
            ((p - Tensor(target)) ** 2.0).sum().backward()
            opt.step()
        np.testing.assert_allclose(p.data, target, atol=1e-3)

    def test_adam_weight_decay_shrinks(self):
        p = Tensor(np.full(3, 10.0), requires_grad=True)
        opt = Adam([p], lr=0.5, weight_decay=1.0)
        for _ in range(100):
            opt.zero_grad()
            (p * 0.0).sum().backward()
            opt.step()
        assert np.abs(p.data).max() < 10.0

    def test_optimizer_rejects_non_grad_params(self):
        with pytest.raises(ValueError):
            SGD([Tensor([1.0])], lr=0.1)

    def test_optimizer_rejects_empty(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_one_cycle_shape(self):
        p = Tensor(np.zeros(1), requires_grad=True)
        opt = Adam([p], lr=1e-3)
        sched = OneCycleLR(opt, max_lr=1e-2, total_steps=100, pct_start=0.3)
        lrs = [sched.step() for _ in range(100)]
        peak = int(np.argmax(lrs))
        assert 25 <= peak <= 35  # warm-up ends around 30%
        assert lrs[-1] == pytest.approx(1e-2 * 0.2, rel=1e-6)
        assert max(lrs) == pytest.approx(1e-2, rel=1e-6)

    def test_one_cycle_validation(self):
        p = Tensor(np.zeros(1), requires_grad=True)
        opt = Adam([p], lr=1e-3)
        with pytest.raises(ValueError):
            OneCycleLR(opt, max_lr=1e-2, total_steps=0)
        with pytest.raises(ValueError):
            OneCycleLR(opt, max_lr=1e-2, total_steps=10, pct_start=1.5)
