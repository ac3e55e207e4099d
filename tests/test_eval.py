"""Tests for the sweep machinery, table formatting, and workbench."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import (
    DatasetSpec,
    IndexSpec,
    QuantizerSpec,
    ScenarioSpec,
    ShardingSpec,
    SearchRequest,
    build,
    load_index,
    save_index,
)
from repro.datasets import compute_ground_truth, load
from repro.eval import (
    OperatingPoint,
    Workbench,
    format_grid,
    format_table,
    laptop_graph,
    max_recall,
    metric_at_recall,
    sweep_beam,
)
from repro.eval.paper import PAPER, Reduce, render, run
from repro.graphs import build_vamana
from repro.index import MemoryIndex
from repro.quantization import ProductQuantizer

from .helpers import search_one, shrunk


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
        target, values = Reduce("qps", "min", 0.95).apply(curves)
        np.testing.assert_allclose(target, 0.95 * 0.6)
        assert values["b"] == 100.0 and 500.0 < values["a"] < 1000.0

    def test_median_anchor_leaves_weak_methods_unreached(self):
        curves = {"a": self.CURVE, "b": [point(10, 0.6, 100.0)]}
        target, values = Reduce("qps", "median", 1.0).apply(curves)
        np.testing.assert_allclose(target, 0.9)
        assert values["a"] == 250.0 and np.isnan(values["b"])

    def test_own_anchor_and_ceiling(self):
        curves = {"a": self.CURVE, "b": [point(10, 0.6, 100.0)]}
        target, values = Reduce("qps", "own", 1.0).apply(curves)
        assert target is None and values == {"a": 250.0, "b": 100.0}
        assert Reduce().apply(curves) == (None, {"a": 0.9, "b": 0.6})


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


def small_spec(**sections) -> IndexSpec:
    sections.setdefault("quantizer", QuantizerSpec("pq", 4, 8))
    return IndexSpec(
        dataset=DatasetSpec("ukbench", n_base=250, n_queries=5),
        graph=laptop_graph("vamana"),
        **sections,
    )


def same_answers(a, b, queries) -> None:
    request = SearchRequest(queries, k=5, beam_width=16)
    got, want = a.search(request), b.search(request)
    np.testing.assert_array_equal(got.ids, want.ids)
    np.testing.assert_array_equal(got.distances, want.distances)


class TestHarness:
    """The workbench (test ids kept from the `prepare` / `make_quantizer`
    / `make_index` harness these were ported from)."""

    def test_prepare_builds_consistent_state(self):
        bench, spec = Workbench(), small_spec()
        assert bench.graph(spec).num_vertices == 250
        assert bench.ground_truth(spec).num_queries == 5
        assert bench.graph(spec) is bench.graph(small_spec())
        assert bench.quantizer(spec) is bench.quantizer(small_spec())
        sharded = small_spec(sharding=ShardingSpec(num_shards=2))
        assert bench.shards(sharded) is bench.shards(sharded)

    def test_prepare_validates_graph_kind(self):
        with pytest.raises(KeyError):
            laptop_graph("delaunay")
        with pytest.raises(KeyError):
            Workbench().quantizer(small_spec(quantizer=QuantizerSpec("lsh")))
        with pytest.raises(KeyError):
            Workbench().build(small_spec(scenario=ScenarioSpec("gpu")))

    def test_make_quantizer_all_names(self):
        bench = Workbench()
        quick = {"epochs": 1, "num_triplets": 32, "num_queries": 3}
        for kind, params in (
            ("pq", {}), ("opq", {}), ("lnc", {}), ("rpq", quick)
        ):
            spec = small_spec(quantizer=QuantizerSpec(kind, 4, 8, params=params))
            assert bench.quantizer(spec).is_fitted

    def test_make_index_scenarios(self):
        bench = Workbench()
        for scenario in (
            ScenarioSpec("memory"),
            ScenarioSpec("hybrid"),
            ScenarioSpec("l2r", {"seed": 0}),
        ):
            spec = small_spec(scenario=scenario)
            index = bench.build(spec)
            assert index.spec == spec
            res = search_one(
                index, bench.dataset(spec).queries[0], k=5, beam_width=16
            )
            assert len(res.ids) == 5

    def test_run_table2_full_ranking_wins(self):
        # The cheapest row of the paper table, end to end on a shrunk
        # copy: runner -> renderer -> shape check.
        artifact = shrunk(PAPER["table2"], ("ukbench",), 400, 12)
        result = run(artifact)
        lines = render(result).splitlines()
        artifact.check(result)
        assert lines[0] == (
            "Table 2: Recall@10 under different candidate rankings"
        )
        assert lines[1].split(" | ") == ["Features             ", "ukbench"]
        assert lines[3].startswith("ranking w/ two terms")
        assert lines[4].startswith("ranking by full Eq. 5")
        row = result.values[("", "ukbench")]
        assert row["full"] > row["two_terms"] and row["full"] > 0.8

    @pytest.mark.parametrize("num_shards", [1, 2])
    def test_saved_spec_is_the_spec_that_was_used(self, tmp_path, num_shards):
        # The harness this replaces rebuilt a spec after the fact, and
        # `spec.json` said graph.params = {} / num_codewords = 32 for a
        # degree-16, 16-codeword index.
        bench = Workbench()
        spec = IndexSpec(
            dataset=DatasetSpec("sift", n_base=300, n_queries=6),
            graph=laptop_graph("vamana"),
            quantizer=QuantizerSpec("pq", 8, 16),
            sharding=ShardingSpec(num_shards=num_shards),
        )
        built = bench.build(spec)
        save_index(built, str(tmp_path))
        loaded = load_index(str(tmp_path))
        rebuilt = build(loaded.spec)
        try:
            assert loaded.spec == spec
            assert loaded.spec.graph.params == {"r": 16, "search_l": 40}
            shard = loaded.shards[0] if num_shards > 1 else loaded
            assert max(len(a) for a in shard.graph.adjacency) <= 16
            assert shard.quantizer.num_codewords == 16
            assert shard.quantizer.num_chunks == 8
            same_answers(rebuilt, loaded, bench.dataset(spec).queries)
        finally:
            for index in (built, loaded, rebuilt):
                if num_shards > 1:
                    index.close()
