"""Batch/scalar parity: a ``B``-row request must be bitwise identical
to ``B`` single-row requests over the same queries, for every index
scenario.

The batched engine only amortizes work (one broadcasted table build,
one lockstep routing kernel, shared visited-set buffers); it performs
the same arithmetic in the same order per query, so ids, distances,
and every counter must match *exactly* — no tolerances.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import load
from repro.graphs import build_hnsw, build_vamana
from repro.index import (
    DiskIndex,
    FilteredIndex,
    L2RIndex,
    MemoryIndex,
    StreamingIndex,
)
from repro.quantization import OptimizedProductQuantizer, ProductQuantizer

from .helpers import search, search_one

# Heavyweight parity suite (full scalar-vs-batch sweeps per scenario).
# Runs in tier-1 (`make test`) and the nightly CI lane, not the fast lane.
pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def setup():
    data = load("sift", n_base=500, n_queries=16, seed=3)
    quantizer = ProductQuantizer(8, 16, seed=0).fit(data.train)
    vamana = build_vamana(data.base, r=10, search_l=24, seed=0)
    hnsw = build_hnsw(data.base, m=6, ef_construction=24, seed=0)
    return data, quantizer, vamana, hnsw


def assert_rows_match(scalar_results, batch_result, extra_attrs=()):
    """Every row of the batch result equals its scalar counterpart."""
    assert batch_result.num_queries == len(scalar_results)
    for i, scalar in enumerate(scalar_results):
        row = batch_result.row(i)
        np.testing.assert_array_equal(scalar.ids, row.ids, err_msg=f"q{i} ids")
        np.testing.assert_array_equal(
            scalar.distances, row.distances, err_msg=f"q{i} distances"
        )
        assert scalar.hops == row.hops, f"q{i} hops"
        assert (
            scalar.distance_computations == row.distance_computations
        ), f"q{i} distance_computations"
        for attr in extra_attrs:
            assert scalar.counters[attr] == pytest.approx(
                row.counters[attr]
            ), f"q{i} {attr}"


class TestMemoryParity:
    @pytest.mark.parametrize("graph_kind", ["vamana", "hnsw"])
    @pytest.mark.parametrize("mode", ["adc", "sdc"])
    def test_modes_and_graphs(self, setup, graph_kind, mode):
        data, quantizer, vamana, hnsw = setup
        graph = vamana if graph_kind == "vamana" else hnsw
        index = MemoryIndex(graph, quantizer, data.base, distance_mode=mode)
        scalars = [
            search_one(index, q, k=10, beam_width=24) for q in data.queries
        ]
        batch = search(index, data.queries, k=10, beam_width=24)
        assert_rows_match(scalars, batch)

    def test_aggregated_counters(self, setup):
        data, quantizer, vamana, _ = setup
        index = MemoryIndex(vamana, quantizer, data.base)
        scalars = [
            search_one(index, q, k=10, beam_width=24) for q in data.queries
        ]
        batch = search(index, data.queries, k=10, beam_width=24)
        assert batch.total("hops") == sum(r.hops for r in scalars)
        assert batch.total("distance_computations") == sum(
            r.distance_computations for r in scalars
        )

    def test_rotated_quantizer(self, setup):
        # OPQ transforms queries through a rotation; the batch path
        # must apply it row-wise (a 2-D gemm takes a different BLAS
        # path and drifts by ULPs, breaking bitwise parity).
        data, _, vamana, _ = setup
        opq = OptimizedProductQuantizer(8, 16, opq_iter=3, seed=0).fit(
            data.train
        )
        index = MemoryIndex(vamana, opq, data.base)
        scalars = [
            search_one(index, q, k=10, beam_width=24) for q in data.queries
        ]
        batch = search(index, data.queries, k=10, beam_width=24)
        assert_rows_match(scalars, batch)

    def test_rotated_quantizer_sdc(self, setup):
        data, _, vamana, _ = setup
        opq = OptimizedProductQuantizer(8, 16, opq_iter=3, seed=0).fit(
            data.train
        )
        index = MemoryIndex(vamana, opq, data.base, distance_mode="sdc")
        scalars = [
            search_one(index, q, k=10, beam_width=24) for q in data.queries
        ]
        batch = search(index, data.queries, k=10, beam_width=24)
        assert_rows_match(scalars, batch)

    def test_stacked_shapes(self, setup):
        data, quantizer, vamana, _ = setup
        batch = search(
            MemoryIndex(vamana, quantizer, data.base),
            data.queries,
            k=7,
            beam_width=24,
        )
        assert batch.ids.shape == (len(data.queries), 7)
        assert batch.distances.shape == (len(data.queries), 7)
        assert batch.ids.dtype == np.int64


class TestL2RParity:
    def test_reweighted_tables(self, setup):
        data, quantizer, vamana, _ = setup
        index = L2RIndex(
            vamana, quantizer, data.base, rng=np.random.default_rng(5)
        )
        scalars = [
            search_one(index, q, k=10, beam_width=24) for q in data.queries
        ]
        batch = search(index, data.queries, k=10, beam_width=24)
        assert_rows_match(scalars, batch)


class TestDiskParity:
    @pytest.mark.parametrize("io_width", [1, 4])
    def test_hybrid(self, setup, io_width):
        data, quantizer, vamana, _ = setup
        index = DiskIndex(vamana, quantizer, data.base, io_width=io_width)
        scalars = [
            search_one(index, q, k=10, beam_width=24) for q in data.queries
        ]
        batch = search(index, data.queries, k=10, beam_width=24)
        assert_rows_match(scalars, batch)

    def test_io_accounting(self, setup):
        data, quantizer, vamana, _ = setup
        index = DiskIndex(vamana, quantizer, data.base, io_width=4)
        scalars = [
            search_one(index, q, k=10, beam_width=24) for q in data.queries
        ]
        batch = search(index, data.queries, k=10, beam_width=24)
        for i, scalar in enumerate(scalars):
            row = batch.row(i)
            for name in ("io_rounds", "page_reads"):
                assert scalar.counters[name] == row.counters[name], f"q{i}"
            assert scalar.counters["simulated_io_us"] == pytest.approx(
                row.counters["simulated_io_us"]
            ), f"q{i}"
        assert batch.total("page_reads") == sum(
            r.counters["page_reads"] for r in scalars
        )


class TestStreamingParity:
    def test_with_tombstones(self, setup):
        data, quantizer, _, _ = setup
        index = StreamingIndex(
            quantizer, dim=data.base.shape[1], r=10, search_l=24
        )
        index.insert_batch(data.base[:250])
        for v in (3, 20, 77, 120):
            index.delete(v)
        scalars = [
            search_one(index, q, k=10, beam_width=24) for q in data.queries
        ]
        batch = search(index, data.queries, k=10, beam_width=24)
        assert_rows_match(scalars, batch)

    def test_after_consolidation(self, setup):
        data, quantizer, _, _ = setup
        index = StreamingIndex(
            quantizer, dim=data.base.shape[1], r=10, search_l=24
        )
        index.insert_batch(data.base[:150])
        for v in (1, 5, 30):
            index.delete(v)
        index.consolidate()
        scalars = [
            search_one(index, q, k=8, beam_width=20) for q in data.queries
        ]
        batch = search(index, data.queries, k=8, beam_width=20)
        assert_rows_match(scalars, batch)


class TestFilteredParity:
    def test_per_query_labels(self, setup):
        data, quantizer, vamana, _ = setup
        labels = np.arange(data.base.shape[0]) % 5
        index = FilteredIndex(vamana, quantizer, data.base, labels)
        qlabels = np.arange(len(data.queries)) % 5
        scalars = [
            search_one(
                index, q, k=5, beam_width=12, labels=int(lab), max_beam_width=64
            )
            for q, lab in zip(data.queries, qlabels)
        ]
        batch = search(
            index,
            data.queries,
            k=5,
            beam_width=12,
            labels=qlabels,
            max_beam_width=64,
        )
        assert_rows_match(scalars, batch, extra_attrs=("beam_widths_used",))

    def test_scalar_label_broadcast(self, setup):
        data, quantizer, vamana, _ = setup
        labels = np.arange(data.base.shape[0]) % 3
        index = FilteredIndex(vamana, quantizer, data.base, labels)
        scalars = [
            search_one(
                index, q, k=5, beam_width=12, labels=1, max_beam_width=64
            )
            for q in data.queries
        ]
        batch = search(
            index, data.queries, k=5, beam_width=12, labels=1, max_beam_width=64
        )
        assert_rows_match(scalars, batch, extra_attrs=("beam_widths_used",))

    def test_escalation_tracked(self, setup):
        # A rare label forces some queries to escalate the beam; the
        # batch path must follow the same schedule per query.
        data, quantizer, vamana, _ = setup
        n = data.base.shape[0]
        labels = np.zeros(n, dtype=np.int64)
        labels[:7] = 1  # rare label
        index = FilteredIndex(vamana, quantizer, data.base, labels)
        scalars = [
            search_one(
                index, q, k=5, beam_width=8, labels=1, max_beam_width=128
            )
            for q in data.queries
        ]
        batch = search(
            index, data.queries, k=5, beam_width=8, labels=1, max_beam_width=128
        )
        assert_rows_match(scalars, batch, extra_attrs=("beam_widths_used",))
        assert (batch.counters["beam_widths_used"] >= 8).all()


class TestTableOverrideQuantizers:
    """Quantizers that customize per-query table construction (L&C's
    concatenated refinement table, RQ's additive level table) must work
    through every engine path: the batch table factory dispatches
    through their ``lookup_table`` override, and scalar search is the
    B=1 batch."""

    @pytest.mark.parametrize("kind", ["lnc", "rq"])
    def test_memory_and_disk_paths(self, setup, kind):
        from repro.quantization import LinkAndCodeQuantizer, ResidualQuantizer

        data, _, vamana, _ = setup
        if kind == "lnc":
            quantizer = LinkAndCodeQuantizer(4, 16, n_sq=1, seed=0).fit(
                data.train
            )
        else:
            quantizer = ResidualQuantizer(
                num_levels=2, num_codewords=16, seed=0
            ).fit(data.train)

        memory = MemoryIndex(vamana, quantizer, data.base)
        scalars = [
            search_one(memory, q, k=5, beam_width=16) for q in data.queries
        ]
        assert_rows_match(
            scalars, search(memory, data.queries, k=5, beam_width=16)
        )

        disk = DiskIndex(vamana, quantizer, data.base)
        scalars = [search_one(disk, q, k=5, beam_width=16) for q in data.queries]
        assert_rows_match(
            scalars, search(disk, data.queries, k=5, beam_width=16)
        )

    def test_float32_storage_rejects_table_overrides(self, setup):
        from repro.quantization import ResidualQuantizer

        data, _, vamana, _ = setup
        quantizer = ResidualQuantizer(
            num_levels=2, num_codewords=16, seed=0
        ).fit(data.train)
        with pytest.raises(ValueError, match="float32"):
            MemoryIndex(
                vamana, quantizer, data.base, storage_dtype=np.float32
            )
