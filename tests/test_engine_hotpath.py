"""Hot-path engine overhaul invariants.

Two amortizers are layered under the lockstep kernel — the packed CSR
adjacency and the reusable kernel workspaces — and both must be
*bitwise invisible*:

* routing over :class:`~repro.graphs.PackedAdjacency` equals routing
  over the original list-of-arrays adjacency;
* a search on a recycled (dirty) workspace equals a search on fresh
  buffers, on every scenario including the filtered qmap path and the
  sharded and dynamic-batching serving paths.

The telemetry (the ``workspace_reused`` counter, ``engine_status()``)
is asserted separately — it is *allowed* to vary between executions;
the answers are not.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.datasets import load
from repro.engine import KernelProfile, KernelWorkspace, WorkspacePool
from repro.graphs import PackedAdjacency, beam_search_batch, build_vamana
from repro.index import (
    DiskIndex,
    FilteredIndex,
    L2RIndex,
    MemoryIndex,
    StreamingIndex,
)
from repro.quantization import ProductQuantizer
from repro.quantization.adc import BatchLookupTable, LookupTable
from repro.serving import DynamicBatcher, ShardedIndex

from .helpers import search, search_one, stream_state

VOLATILE_COUNTERS = {"workspace_reused"}


@pytest.fixture(scope="module")
def setup():
    data = load("sift", n_base=300, n_queries=8, seed=7)
    quantizer = ProductQuantizer(8, 16, seed=0).fit(data.train)
    graph = build_vamana(data.base, r=8, search_l=20, seed=0)
    return data, quantizer, graph


def make_index(name, setup):
    data, quantizer, graph = setup
    if name == "memory":
        return MemoryIndex(graph, quantizer, data.base)
    if name == "l2r":
        return L2RIndex(
            graph, quantizer, data.base, rng=np.random.default_rng(0)
        )
    if name == "disk":
        return DiskIndex(graph, quantizer, data.base)
    if name == "filtered":
        labels = np.arange(data.base.shape[0]) % 3
        return FilteredIndex(graph, quantizer, data.base, labels)
    if name == "streaming":
        index = StreamingIndex(
            quantizer, dim=data.base.shape[1], r=8, search_l=20
        )
        index.insert_batch(data.base[:120])
        return index
    raise AssertionError(name)


def run_search(name, index, queries):
    if name == "filtered":
        qlabels = np.arange(queries.shape[0]) % 3
        return search(index, queries, k=5, beam_width=16, labels=qlabels)
    return search(index, queries, k=5, beam_width=16)


def assert_same_answers(a, b):
    """Everything except the volatile amortizer telemetry, bitwise."""
    np.testing.assert_array_equal(a.ids, b.ids)
    np.testing.assert_array_equal(a.distances, b.distances)
    np.testing.assert_array_equal(a.counts, b.counts)
    assert list(a.counters) == list(b.counters)
    for name in set(a.counters) - VOLATILE_COUNTERS:
        np.testing.assert_array_equal(
            a.counters[name], b.counters[name], err_msg=name
        )


# ----------------------------------------------------------------------
# Packed adjacency
# ----------------------------------------------------------------------


class TestPackedAdjacency:
    def test_round_trip_and_views(self):
        lists = [[1, 2], [], [0, 3, 1], [2]]
        packed = PackedAdjacency.from_lists(lists)
        assert len(packed) == 4
        np.testing.assert_array_equal(packed.degrees(), [2, 0, 3, 1])
        for v, nbrs in enumerate(lists):
            np.testing.assert_array_equal(packed[v], nbrs)
        round_trip = packed.to_lists()
        assert len(round_trip) == len(lists)
        for got, want in zip(round_trip, lists):
            np.testing.assert_array_equal(got, want)

    def test_gather_matches_concatenation(self):
        rng = np.random.default_rng(0)
        lists = [
            list(rng.integers(0, 50, size=rng.integers(0, 9)))
            for _ in range(50)
        ]
        packed = PackedAdjacency.from_lists(lists)
        vertices = np.array([3, 3, 0, 49, 7], dtype=np.int64)
        flat, lens = packed.gather(vertices)
        expected = np.concatenate(
            [np.asarray(lists[v], dtype=np.int64) for v in vertices]
        )
        np.testing.assert_array_equal(flat, expected)
        np.testing.assert_array_equal(
            lens, [len(lists[v]) for v in vertices]
        )

    def test_rejects_inconsistent_offsets(self):
        with pytest.raises(ValueError, match="offsets"):
            PackedAdjacency(
                neighbors=np.arange(3, dtype=np.int64),
                offsets=np.array([0, 2], dtype=np.int64),
            )

    # The three id-width tests below run in < 0.05 s together.
    def test_ids_are_int32_at_rest_int64_in_flight(self):
        packed = PackedAdjacency.from_lists([[1, 2], [], [0, 3, 1], [2]])
        assert packed.neighbors.dtype == np.int32
        assert packed[2].dtype == np.int32  # a view, not a widened copy
        assert packed.offsets.dtype == np.int64
        for vertices in ([2, 0], [1], []):
            flat, lens = packed.gather(np.array(vertices, dtype=np.int64))
            assert flat.dtype == np.int64 and lens.dtype == np.int64
        # ids already at rest are adopted, not scanned or copied
        stored = np.array([1, 0], dtype=np.int32)
        adopted = PackedAdjacency(stored, np.array([0, 1, 2]))
        assert np.shares_memory(adopted.neighbors, stored)

    def test_narrowing_never_wraps(self):
        offsets = np.array([0, 1, 2], dtype=np.int64)
        top = 2**31 - 1
        ok = PackedAdjacency(np.array([0, top], dtype=np.int64), offsets)
        assert ok.neighbors.tolist() == [0, top]
        for bad in (2**31, 2**32 + 1, -1):
            with pytest.raises(ValueError, match=r"2\^31 - 1"):
                PackedAdjacency(np.array([0, bad], dtype=np.int64), offsets)
            with pytest.raises(ValueError, match=str(bad)):
                PackedAdjacency.from_lists([[0], [bad]])

    def test_refuses_2_31_vertices_without_allocating(self):
        """``n = 2^31`` is one past what int32 ids address.  The offsets
        here are a zero-stride view (16 GiB if ever copied) and the
        "lists" a ``range``: both must be refused by length alone."""
        n = 2**31
        offsets = np.broadcast_to(np.int64(0), (n + 1,))
        with pytest.raises(ValueError, match=f"vertex count {n}"):
            PackedAdjacency(np.empty(0, dtype=np.int32), offsets)
        with pytest.raises(ValueError, match=f"vertex count {n}"):
            PackedAdjacency.from_lists(range(n))

    def test_kernel_parity_packed_vs_lists(self, setup):
        data, _, graph = setup
        lists = [np.asarray(nbrs) for nbrs in graph.adjacency]
        packed = PackedAdjacency.from_lists(lists)
        queries = data.queries
        base = data.base

        def dist_fn(qidx, vertex_ids):
            diff = base[vertex_ids] - queries[qidx]
            return np.einsum("ij,ij->i", diff, diff)

        entries = np.full(
            queries.shape[0], graph.entry_point, dtype=np.int64
        )
        a = beam_search_batch(lists, entries, dist_fn, 16, k=5)
        b = beam_search_batch(packed, entries, dist_fn, 16, k=5)
        for field in dataclasses.fields(type(a)):
            np.testing.assert_array_equal(
                getattr(a, field.name), getattr(b, field.name),
                err_msg=field.name,
            )

    def test_graph_survives_array_round_trip(self, setup):
        from repro.graphs import graph_from_arrays, graph_to_arrays

        _, _, graph = setup
        meta, arrays = graph_to_arrays(graph)
        loaded = graph_from_arrays(meta, arrays.__getitem__)
        packed = loaded.packed()
        np.testing.assert_array_equal(
            packed.neighbors, graph.packed().neighbors
        )
        np.testing.assert_array_equal(
            packed.offsets, graph.packed().offsets
        )


# ----------------------------------------------------------------------
# Workspace reuse
# ----------------------------------------------------------------------


class TestWorkspaceReuse:
    def test_dirty_workspace_is_invisible(self, setup):
        data, quantizer, graph = setup
        index = MemoryIndex(graph, quantizer, data.base)
        fresh = search(index, data.queries, k=5, beam_width=16)
        assert not fresh.counters["workspace_reused"].any()
        again = search(index, data.queries, k=5, beam_width=16)
        assert again.counters["workspace_reused"].all()
        assert_same_answers(fresh, again)

    def test_workspace_resizes_across_batch_shapes(self, setup):
        data, quantizer, graph = setup
        index = MemoryIndex(graph, quantizer, data.base)
        # Grow, shrink, regrow: the recycled buffers must re-shape
        # without leaking state between shapes.
        small_cold = search(index, data.queries[:2], k=5, beam_width=8)
        search(index, data.queries, k=5, beam_width=32)
        small_warm = search(index, data.queries[:2], k=5, beam_width=8)
        assert small_warm.counters["workspace_reused"].all()
        assert_same_answers(small_cold, small_warm)

    def test_pool_recycles_and_reports(self):
        pool = WorkspacePool()
        ws = pool.acquire()
        assert isinstance(ws, KernelWorkspace)
        assert not ws.reused
        pool.release(ws)
        ws2 = pool.acquire()
        assert ws2 is ws
        assert ws2.reused
        pool.release(ws2)
        stats = pool.stats()
        assert stats["created"] == 1
        assert stats["reuses"] == 1

    def test_concurrent_acquires_get_distinct_workspaces(self):
        pool = WorkspacePool()
        a, b = pool.acquire(), pool.acquire()
        assert a is not b
        pool.release(a)
        pool.release(b)


# ----------------------------------------------------------------------
# Warm vs cold (recycled workspace): every scenario, bitwise
# ----------------------------------------------------------------------


SCENARIOS = ["memory", "l2r", "disk", "filtered", "streaming"]


class TestCachedSearchParity:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_warm_equals_cold(self, setup, name):
        data, _, _ = setup
        index = make_index(name, setup)
        cold = run_search(name, index, data.queries)
        warm = run_search(name, index, data.queries)
        assert warm.counters["workspace_reused"].all()
        assert_same_answers(cold, warm)

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_partial_overlap_stream(self, setup, name):
        data, _, _ = setup
        index = make_index(name, setup)
        run_search(name, index, data.queries[:4])
        mixed = run_search(name, index, data.queries)
        fresh = run_search(name, make_index(name, setup), data.queries)
        assert_same_answers(fresh, mixed)

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_engine_status_surfaces_counters(self, setup, name):
        data, _, _ = setup
        index = make_index(name, setup)
        run_search(name, index, data.queries)
        run_search(name, index, data.queries)
        status = index.engine_status()
        assert status["workspace_pool"]["reuses"] >= 1

    def test_scalar_search_reports_hit(self, setup):
        # The one-row view of the pool telemetry: a hit on the recycled
        # workspace reads 1, and never changes the answer.
        data, _, _ = setup
        index = make_index("memory", setup)
        cold = search_one(index, data.queries[0], k=5, beam_width=16)
        assert cold.counters["workspace_reused"] == 0
        warm = search_one(index, data.queries[0], k=5, beam_width=16)
        assert warm.counters["workspace_reused"] == 1
        np.testing.assert_array_equal(cold.ids, warm.ids)
        np.testing.assert_array_equal(cold.distances, warm.distances)


class TestStreamingWritesInPlace:
    """The streaming index keeps one adjacency, the block the kernel
    gathers from: writes update it in place and no search rebuilds it."""

    @staticmethod
    def no_repacking(monkeypatch):
        def repack(adjacency):
            raise AssertionError("a streaming search re-packed the graph")

        monkeypatch.setattr(PackedAdjacency, "from_lists", repack)

    def test_inserts_update_the_gathered_block_in_place(self, setup, monkeypatch):
        data, quantizer, _ = setup
        index = StreamingIndex(
            quantizer, dim=data.base.shape[1], r=8, search_l=20
        )
        index.insert_batch(data.base[:100])
        index.insert_batch(data.base[100:130])  # capacity doubles to 200
        search(index, data.queries, k=5, beam_width=16)
        graph = index._graph
        block = graph.ids
        index.insert_batch(data.base[130:140])
        # Within capacity the write lands in the very block...
        assert index._graph is graph and graph.ids is block
        # ...which already gathers the post-write lists.
        flat, lens = graph.gather(np.arange(140))
        gathered = [a.tolist() for a in np.split(flat, np.cumsum(lens)[:-1])]
        assert gathered == stream_state(index).lists
        self.no_repacking(monkeypatch)
        warm = search(index, data.queries, k=5, beam_width=16)
        assert graph.ids is block
        # The workspace pool is the cache an insert leaves alone.
        assert warm.counters["workspace_reused"].all()

        # The in-place route must equal a fresh index given the same
        # insert schedule (the batches depend on it).
        reference = StreamingIndex(
            quantizer, dim=data.base.shape[1], r=8, search_l=20
        )
        for rows in np.split(data.base[:140], [100, 130]):
            reference.insert_batch(rows)
        expected = search(reference, data.queries, k=5, beam_width=16)
        assert_same_answers(expected, warm)

    def test_delete_and_consolidate_write_in_place(self, setup, monkeypatch):
        data, quantizer, _ = setup
        index = StreamingIndex(
            quantizer, dim=data.base.shape[1], r=8, search_l=20
        )
        index.insert_batch(data.base[:60])
        search(index, data.queries, k=5, beam_width=16)
        graph = index._graph
        block = graph.ids
        lists = stream_state(index).lists
        index.delete(3)  # tombstones do not touch adjacency
        assert stream_state(index).lists == lists
        index.consolidate()  # edge inheritance rewrites lists in place
        assert index._graph is graph and graph.ids is block
        state = stream_state(index)
        assert state.lists != lists and state.lists[3] == []
        self.no_repacking(monkeypatch)
        result = search(index, data.queries, k=5, beam_width=16)
        assert graph.ids is block
        assert not (result.ids == 3).any()


# ----------------------------------------------------------------------
# Serving paths: sharded fan-out and dynamic batching
# ----------------------------------------------------------------------


class TestServingPaths:
    def test_sharded_warm_equals_cold(self, setup):
        data, quantizer, _ = setup
        sharded = ShardedIndex.build(
            data.base,
            num_shards=2,
            factory=lambda rows: MemoryIndex(
                build_vamana(rows, r=8, search_l=20, seed=0),
                quantizer,
                rows,
            ),
        )
        with sharded:
            cold = search(sharded, data.queries, k=5, beam_width=16)
            warm = search(sharded, data.queries, k=5, beam_width=16)
            assert_same_answers(cold, warm)
            # Summed across shards: both recycled on the warm pass.
            np.testing.assert_array_equal(
                warm.counters["workspace_reused"],
                np.full(data.queries.shape[0], 2, dtype=np.int64),
            )
            status = sharded.engine_status()
            assert len(status) == 2
            assert all(
                row["workspace_pool"]["reuses"] > 0 for row in status
            )

    def test_batcher_reports_cache_counters(self, setup):
        from repro.api import SearchRequest

        data, _, _ = setup
        index = make_index("memory", setup)
        with DynamicBatcher(
            index, k=5, beam_width=16, max_wait_ms=0.0
        ) as batcher:
            request = SearchRequest(
                queries=data.queries, k=5, beam_width=16
            )
            cold = batcher.search(request)
            warm = batcher.search(request)
        assert "workspace_reused" in cold.counters
        assert warm.counters["workspace_reused"].all()
        np.testing.assert_array_equal(cold.ids, warm.ids)
        np.testing.assert_array_equal(cold.distances, warm.distances)
        np.testing.assert_array_equal(cold.counts, warm.counts)

    def test_response_counters_include_telemetry(self, setup):
        from repro.api import SearchRequest

        data, _, _ = setup
        index = make_index("memory", setup)
        request = SearchRequest(queries=data.queries, k=5, beam_width=16)
        index.search(request)
        warm = index.search(request)
        assert warm.counters["workspace_reused"].all()


# ----------------------------------------------------------------------
# Profiling hooks
# ----------------------------------------------------------------------


class TestKernelProfile:
    def test_profile_collects_stage_timers(self, setup):
        data, _, _ = setup
        index = make_index("memory", setup)
        baseline = run_search("memory", index, data.queries)
        index.kernel_profile = KernelProfile()
        profiled = run_search("memory", index, data.queries)
        assert_same_answers(baseline, profiled)
        profile = index.kernel_profile
        assert profile.rounds > 0
        assert profile.calls == 1
        report = profile.report()
        for stage in ("gather", "score", "rank", "truncate"):
            assert profile.seconds[stage] >= 0.0
            assert stage in report


# ----------------------------------------------------------------------
# Satellite fixes: top_k copies, ADC dtype validation
# ----------------------------------------------------------------------


class TestTopKCopies:
    def test_batch_top_k_is_a_copy(self, setup):
        data, _, _ = setup
        index = make_index("memory", setup)
        batch = index.context.run(data.queries, 16, k=None)
        top = batch.top_k(3)
        assert top.ids.shape == (data.queries.shape[0], 3)
        original = batch.ids.copy()
        top.ids[:] = -7
        top.distances[:] = np.nan
        np.testing.assert_array_equal(batch.ids, original)

    def test_scalar_top_k_is_a_copy(self, setup):
        data, quantizer, graph = setup
        from repro.graphs import beam_search, exact_distance_fn

        result = beam_search(
            graph.adjacency,
            graph.entry_point,
            exact_distance_fn(data.base, data.queries[0]),
            16,
        )
        top = result.top_k(3)
        original = result.ids.copy()
        top.ids[:] = -7
        np.testing.assert_array_equal(result.ids, original)


class TestLookupTableDtypeValidation:
    @staticmethod
    def codebook():
        from repro.quantization.codebook import Codebook

        return Codebook(codewords=np.zeros((2, 4, 3)))

    def test_rejects_non_float_dtypes(self):
        book = self.codebook()
        with pytest.raises(ValueError, match="float32 or float64"):
            LookupTable.build(book, np.zeros(6), dtype=np.int32)
        with pytest.raises(ValueError, match="float32 or float64"):
            BatchLookupTable.build(
                book, np.zeros((1, 6)), dtype=np.float16
            )

    def test_accepts_both_float_widths(self):
        book = self.codebook()
        for dtype in (np.float32, np.float64):
            table = LookupTable.build(book, np.zeros(6), dtype=dtype)
            assert table.table.dtype == np.dtype(dtype)
