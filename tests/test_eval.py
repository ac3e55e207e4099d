"""Tests for the sweep machinery, table formatting, and harness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import compute_ground_truth, load
from repro.eval import (
    OperatingPoint,
    format_grid,
    format_table,
    max_recall,
    metric_at_recall,
    sweep_beam,
)
from repro.eval.harness import (
    adaptive_recall_target,
    make_index,
    make_quantizer,
    prepare,
    quick_rpq_config,
    run_table2,
)
from repro.graphs import build_vamana
from repro.index import MemoryIndex
from repro.quantization import ProductQuantizer

from .helpers import search_one


def point(beam, recall, qps):
    return OperatingPoint(
        beam_width=beam,
        recall=recall,
        qps=qps,
        mean_hops=float(beam),
        mean_distance_computations=10.0 * beam,
    )


class TestMetricAtRecall:
    CURVE = [point(10, 0.5, 1000.0), point(20, 0.8, 500.0), point(40, 0.9, 250.0)]

    def test_exact_hit(self):
        assert metric_at_recall(self.CURVE, 0.8) == 500.0

    def test_interpolation(self):
        got = metric_at_recall(self.CURVE, 0.65)
        assert 500.0 < got < 1000.0
        np.testing.assert_allclose(got, 750.0)

    def test_unreachable_target(self):
        assert metric_at_recall(self.CURVE, 0.95) is None

    def test_below_curve_start(self):
        assert metric_at_recall(self.CURVE, 0.1) == 1000.0

    def test_other_attribute(self):
        got = metric_at_recall(self.CURVE, 0.8, attr="mean_hops")
        assert got == 20.0

    def test_empty(self):
        assert metric_at_recall([], 0.5) is None

    def test_max_recall(self):
        assert max_recall(self.CURVE) == 0.9
        assert max_recall([]) == 0.0

    def test_adaptive_target_uses_weakest_method(self):
        curves = {"a": self.CURVE, "b": [point(10, 0.6, 100.0)]}
        target = adaptive_recall_target(curves, fraction=0.95)
        np.testing.assert_allclose(target, 0.95 * 0.6)


class TestSweep:
    def test_sweep_produces_monotone_recall(self):
        data = load("ukbench", n_base=400, n_queries=10, seed=0)
        graph = build_vamana(data.base, r=10, search_l=24, seed=0)
        quantizer = ProductQuantizer(8, 16, seed=0).fit(data.train)
        index = MemoryIndex(graph, quantizer, data.base)
        gt = compute_ground_truth(data.base, data.queries, k=10)
        points = sweep_beam(index, data.queries, gt, k=10, beam_widths=(10, 32, 64))
        assert len(points) == 3
        recalls = [p.recall for p in points]
        # Wider beams should not lose much recall.
        assert recalls[-1] >= recalls[0] - 0.05
        hops = [p.mean_hops for p in points]
        assert hops[-1] >= hops[0]

    def test_sweep_skips_beams_below_k(self):
        data = load("ukbench", n_base=200, n_queries=5, seed=0)
        graph = build_vamana(data.base, r=8, search_l=16, seed=0)
        quantizer = ProductQuantizer(4, 8, seed=0).fit(data.train)
        index = MemoryIndex(graph, quantizer, data.base)
        gt = compute_ground_truth(data.base, data.queries, k=10)
        points = sweep_beam(index, data.queries, gt, k=10, beam_widths=(5, 16))
        assert [p.beam_width for p in points] == [16]


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["name", "qps"], [["pq", 12.5], ["rpq", 40.0]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert "rpq" in lines[3]

    def test_format_table_title(self):
        text = format_table(["a"], [[1]], title="Table X")
        assert text.splitlines()[0] == "Table X"

    def test_format_grid(self):
        text = format_grid(["K=8"], ["M=4", "M=8"], [[1, 2]], corner="K\\M")
        assert "K\\M" in text
        assert "M=8" in text


class TestHarness:
    def test_prepare_builds_consistent_state(self):
        prepared = prepare("ukbench", "vamana", n_base=300, n_queries=8, seed=0)
        assert prepared.graph.num_vertices == 300
        assert prepared.ground_truth.num_queries == 8

    def test_prepare_validates_graph_kind(self):
        with pytest.raises(KeyError):
            prepare("sift", "delaunay")

    def test_make_quantizer_all_names(self):
        prepared = prepare("ukbench", "vamana", n_base=250, n_queries=5, seed=0)
        config = quick_rpq_config(epochs=1, num_triplets=32, num_queries=3)
        for name in ("pq", "opq", "lnc"):
            q = make_quantizer(name, prepared, num_chunks=4, num_codewords=8)
            assert q.is_fitted
        q = make_quantizer(
            "rpq", prepared, num_chunks=4, num_codewords=8, rpq_config=config
        )
        assert q.is_fitted
        with pytest.raises(KeyError):
            make_quantizer("lsh", prepared)

    def test_make_index_scenarios(self):
        prepared = prepare("ukbench", "vamana", n_base=250, n_queries=5, seed=0)
        quantizer = make_quantizer("pq", prepared, 4, 8)
        mem = make_index("memory", prepared, quantizer)
        hyb = make_index("hybrid", prepared, quantizer)
        l2r = make_index("memory", prepared, quantizer, method="l2r")
        for index in (mem, hyb, l2r):
            res = search_one(index, prepared.dataset.queries[0], k=5, beam_width=16)
            assert len(res.ids) == 5
        with pytest.raises(KeyError):
            make_index("gpu", prepared, quantizer)

    def test_run_table2_full_ranking_wins(self):
        out = run_table2(("ukbench",), n_base=500, n_queries=15, seed=0)
        truncated, full = out["ukbench"]
        assert full > truncated
        assert full > 0.8
