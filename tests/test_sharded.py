"""Sharded fan-out search: merge exactness, routing, and parity.

The shard merge is a pure selection over the union of per-shard
candidates — distances pass through untouched and ties break by
(distance, shard, within-shard rank) — so three properties are
testable exactly, with no tolerances:

* a single-shard :class:`ShardedIndex` is bitwise identical to the
  unsharded index it wraps, for every scenario (the merge is an
  identity transformation);
* with exhaustive beams every shard enumerates its whole partition, so
  the merged result *is* the exact ADC top-k over the full dataset;
* tie-breaking and thread fan-out are deterministic: repeated calls,
  threaded or not, return identical arrays.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import load
from repro.graphs import build_vamana
from repro.index import (
    DiskIndex,
    FilteredIndex,
    L2RIndex,
    MemoryIndex,
    StreamingIndex,
)
from repro.quantization import ProductQuantizer
from repro.serving import ShardedIndex, partition_rows

from .helpers import search, search_one, stream_state


@pytest.fixture(scope="module")
def setup():
    data = load("sift", n_base=240, n_queries=8, seed=5)
    quantizer = ProductQuantizer(8, 16, seed=0).fit(data.train)
    return data, quantizer


def build_memory(x, quantizer, **kwargs):
    return MemoryIndex(
        build_vamana(x, r=8, search_l=20, seed=0), quantizer, x, **kwargs
    )


def make_streaming(quantizer, dim):
    return StreamingIndex(quantizer, dim=dim, r=8, search_l=20)


def assert_batches_equal(a, b, fields=()):
    np.testing.assert_array_equal(a.ids, b.ids)
    np.testing.assert_array_equal(a.distances, b.distances)
    np.testing.assert_array_equal(a.counts, b.counts)
    np.testing.assert_array_equal(a.hops, b.hops)
    np.testing.assert_array_equal(
        a.distance_computations, b.distance_computations
    )
    for name in fields:
        np.testing.assert_array_equal(
            a.counters[name], b.counters[name], err_msg=name
        )


class TestSingleShardParity:
    """One shard == the unsharded index, bitwise, on all five scenarios."""

    def test_memory(self, setup):
        data, quantizer = setup
        index = build_memory(data.base, quantizer)
        sharded = ShardedIndex([index], [np.arange(data.base.shape[0])])
        plain = search(index, data.queries, k=10, beam_width=24)
        merged = search(sharded, data.queries, k=10, beam_width=24)
        assert type(merged) is type(plain)
        assert_batches_equal(plain, merged)

    def test_hybrid(self, setup):
        data, quantizer = setup
        graph = build_vamana(data.base, r=8, search_l=20, seed=0)
        index = DiskIndex(graph, quantizer, data.base, io_width=2)
        plain = search(index, data.queries, k=10, beam_width=24)
        sharded = ShardedIndex([index], [np.arange(data.base.shape[0])])
        merged = search(sharded, data.queries, k=10, beam_width=24)
        assert_batches_equal(
            plain,
            merged,
            fields=("io_rounds", "page_reads", "simulated_io_us"),
        )

    def test_streaming(self, setup):
        data, quantizer = setup
        dim = data.base.shape[1]
        plain_index = make_streaming(quantizer, dim)
        plain_index.insert_batch(data.base[:80])
        sharded = ShardedIndex([make_streaming(quantizer, dim)])
        ids = sharded.insert_batch(data.base[:80])
        assert ids == list(range(80))
        plain = search(plain_index, data.queries, k=5, beam_width=16)
        merged = search(sharded, data.queries, k=5, beam_width=16)
        assert_batches_equal(plain, merged)

    def test_filtered(self, setup):
        data, quantizer = setup
        n = data.base.shape[0]
        labels = np.arange(n) % 3
        graph = build_vamana(data.base, r=8, search_l=20, seed=0)
        index = FilteredIndex(graph, quantizer, data.base, labels)
        qlabels = np.arange(len(data.queries)) % 3
        plain = search(index, data.queries, labels=qlabels, k=5, beam_width=16)
        sharded = ShardedIndex([index], [np.arange(n)])
        merged = search(
            sharded, data.queries, labels=qlabels, k=5, beam_width=16
        )
        assert_batches_equal(plain, merged, fields=("beam_widths_used",))

    def test_l2r(self, setup):
        data, quantizer = setup
        graph = build_vamana(data.base, r=8, search_l=20, seed=0)
        index = L2RIndex(
            graph,
            quantizer,
            data.base,
            rng=np.random.default_rng(0),
        )
        plain = search(index, data.queries, k=10, beam_width=24)
        sharded = ShardedIndex([index], [np.arange(data.base.shape[0])])
        merged = search(sharded, data.queries, k=10, beam_width=24)
        assert_batches_equal(plain, merged)

    def test_scalar_search_matches_batch_row(self, setup):
        data, quantizer = setup
        sharded = ShardedIndex.build(
            data.base, 3, lambda xs: build_memory(xs, quantizer)
        )
        batch = search(sharded, data.queries, k=10, beam_width=24)
        scalar = search_one(sharded, data.queries[0], k=10, beam_width=24)
        row = batch.row(0)
        np.testing.assert_array_equal(scalar.ids, row.ids)
        np.testing.assert_array_equal(scalar.distances, row.distances)
        assert scalar.hops == row.hops


class TestMergeExactness:
    """Exhaustive-beam merges are the exact ADC top-k over all shards."""

    def adc_reference(self, quantizer, x, queries, k):
        """Brute-force ADC top-k distances (the merge's ground truth)."""
        codes = quantizer.encode(x)
        tables = quantizer.lookup_table_batch(queries)
        dists = np.stack(
            [
                tables.pair_distance(
                    np.full(x.shape[0], i), codes
                )
                for i in range(queries.shape[0])
            ]
        )
        return np.sort(dists, axis=1)[:, :k]

    def test_merge_matches_reference_merge(self, setup):
        """The argpartition merge == a naive sort-based reference merge.

        Bitwise, including ids: ties order by (distance, shard,
        within-shard rank) in both implementations.
        """
        data, quantizer = setup
        k, beam = 10, 48
        sharded = ShardedIndex.build(
            data.base, 4, lambda xs: build_memory(xs, quantizer)
        )
        merged = search(sharded, data.queries, k=k, beam_width=beam)
        shard_results = [
            search(shard, data.queries, k=k, beam_width=beam)
            for shard in sharded.shards
        ]
        for q in range(len(data.queries)):
            cands = []
            for s, result in enumerate(shard_results):
                gids = sharded._global_ids[s]
                for rank in range(int(result.counts[q])):
                    cands.append(
                        (
                            result.distances[q, rank],
                            s,
                            rank,
                            int(gids[result.ids[q, rank]]),
                        )
                    )
            cands.sort(key=lambda t: (t[0], t[1], t[2]))
            top = cands[:k]
            np.testing.assert_array_equal(
                merged.ids[q], [t[3] for t in top], err_msg=f"q{q} ids"
            )
            np.testing.assert_array_equal(
                merged.distances[q],
                [t[0] for t in top],
                err_msg=f"q{q} distances",
            )
        # Counters aggregate across shards.
        np.testing.assert_array_equal(
            merged.hops, np.sum([r.hops for r in shard_results], axis=0)
        )

    def test_single_vertex_shards_are_exact(self, setup):
        data, quantizer = setup
        x = data.base[:12]
        sharded = ShardedIndex.build(
            x, 12, lambda xs: build_memory(xs, quantizer)
        )
        assert sharded.shard_sizes() == [1] * 12
        result = search(sharded, data.queries, k=3, beam_width=8)
        ref = self.adc_reference(quantizer, x, data.queries, 3)
        np.testing.assert_array_equal(result.distances, ref)
        assert (result.counts == 3).all()

    def test_k_larger_than_shard(self, setup):
        data, quantizer = setup
        x = data.base[:60]
        sharded = ShardedIndex.build(
            x, 6, lambda xs: build_memory(xs, quantizer)
        )
        result = search(sharded, data.queries, k=16, beam_width=60)
        # Each shard holds only 10 vertices, so every shard contributes
        # fewer than k — the union still fills all 16 slots exactly.
        assert (result.counts == 16).all()
        np.testing.assert_array_equal(
            result.distances,
            self.adc_reference(quantizer, x, data.queries, 16),
        )
        for row in result.ids:
            assert np.unique(row).size == 16

    def test_k_larger_than_dataset_pads(self, setup):
        data, quantizer = setup
        x = data.base[:30]
        sharded = ShardedIndex.build(
            x, 3, lambda xs: build_memory(xs, quantizer)
        )
        result = search(sharded, data.queries, k=40, beam_width=64)
        assert (result.counts == 30).all()
        assert (result.ids[:, 30:] == -1).all()
        assert np.isinf(result.distances[:, 30:]).all()
        assert (result.ids[:, :30] >= 0).all()

    def test_duplicate_distances_tie_break(self, setup):
        data, quantizer = setup
        # Shard 1 is an exact copy of shard 0: every candidate's ADC
        # distance appears twice across shards.
        half = data.base[:10]
        x = np.vstack([half, half])
        sharded = ShardedIndex.build(
            x, 2, lambda xs: build_memory(xs, quantizer)
        )
        assert sharded.shard_sizes() == [10, 10]
        result = search(sharded, data.queries, k=10, beam_width=16)
        # The top-10 of the duplicated union holds the 5 best distances
        # twice each; within every tied pair the shard-0 twin must come
        # first (ids 0..9), immediately followed by its shard-1 copy
        # (same vector, global id + 10).
        for row_ids, row_d in zip(result.ids, result.distances):
            for j in range(0, 10, 2):
                assert row_ids[j] < 10
                assert row_ids[j + 1] == row_ids[j] + 10
                assert row_d[j] == row_d[j + 1]
        again = search(sharded, data.queries, k=10, beam_width=16)
        np.testing.assert_array_equal(result.ids, again.ids)
        np.testing.assert_array_equal(result.distances, again.distances)

    def test_threaded_matches_sequential(self, setup):
        data, quantizer = setup

        def factory(xs):
            return build_memory(xs, quantizer)

        threaded = ShardedIndex.build(data.base, 4, factory)
        sequential = ShardedIndex.build(
            data.base, 4, factory, max_workers=1
        )
        a = search(threaded, data.queries, k=10, beam_width=24)
        b = search(sequential, data.queries, k=10, beam_width=24)
        assert_batches_equal(a, b)
        threaded.close()

    def test_empty_batch(self, setup):
        data, quantizer = setup
        sharded = ShardedIndex.build(
            data.base, 3, lambda xs: build_memory(xs, quantizer)
        )
        result = search(
            sharded, np.empty((0, data.base.shape[1])), k=5, beam_width=16
        )
        assert result.ids.shape == (0, 5)
        assert result.counts.shape == (0,)


class TestStreamingRouting:
    def fresh(self, setup, num_shards):
        data, quantizer = setup
        dim = data.base.shape[1]
        return data, ShardedIndex(
            [make_streaming(quantizer, dim) for _ in range(num_shards)]
        )

    def test_least_loaded_routing_balances(self, setup):
        data, sharded = self.fresh(setup, 3)
        ids = sharded.insert_batch(data.base[:20])
        assert ids == list(range(20))
        assert sharded.shard_sizes() == [7, 7, 6]
        assert sharded.num_active == 20

    def test_empty_shard_is_harmless(self, setup):
        data, sharded = self.fresh(setup, 3)
        sharded.insert_batch(data.base[:2])
        assert sharded.shard_sizes() == [1, 1, 0]
        result = search(sharded, data.queries, k=5, beam_width=8)
        assert (result.counts == 2).all()
        assert (result.ids[:, 2:] == -1).all()

    def test_delete_routes_to_owner(self, setup):
        data, sharded = self.fresh(setup, 3)
        sharded.insert_batch(data.base[:30])
        target = search_one(sharded, data.queries[0], k=1, beam_width=16)
        victim = int(target.ids[0])
        sharded.delete(victim)
        assert sharded.num_active == 29
        after = search_one(sharded, data.queries[0], k=10, beam_width=16)
        assert victim not in after.ids
        with pytest.raises(KeyError):
            sharded.delete(victim)  # already tombstoned on its shard
        with pytest.raises(KeyError):
            sharded.delete(10_000)

    def test_consolidate_sums_shards(self, setup):
        data, sharded = self.fresh(setup, 2)
        ids = sharded.insert_batch(data.base[:12])
        for g in ids[:4]:
            sharded.delete(g)
        assert sharded.consolidate() == 4
        result = search(sharded, data.queries, k=8, beam_width=16)
        assert (result.counts == 8).all()
        for g in ids[:4]:
            assert g not in result.ids

    def test_inserts_after_static_build_rejected(self, setup):
        data, quantizer = setup
        sharded = ShardedIndex.build(
            data.base, 2, lambda xs: build_memory(xs, quantizer)
        )
        with pytest.raises(TypeError):
            sharded.insert_batch(data.base[:2])
        with pytest.raises(TypeError):
            sharded.delete(0)

    def test_mixed_insert_batches_stay_consistent(self, setup):
        data, sharded = self.fresh(setup, 2)
        first = sharded.insert_batch(data.base[:5])
        second = sharded.insert_batch(data.base[5:9])
        assert first + second == list(range(9))
        # Every global id must map to the vector it was assigned for.
        for g in range(9):
            shard, local = sharded._owner[g]
            np.testing.assert_array_equal(
                stream_state(sharded.shards[shard]).vectors[local], data.base[g]
            )

    def test_partial_insert_failure_keeps_bookkeeping_coherent(
        self, setup
    ):
        """A shard failing mid-insert_batch must not desync the router.

        Shard sub-batches that succeeded before the failure stay fully
        recorded; the failed shard's rows are not recorded anywhere;
        and a follow-up insert assigns fresh, collision-free ids.
        """
        data, sharded = self.fresh(setup, 3)
        sharded.insert_batch(data.base[:6])  # balanced: 2 rows per shard

        boom = RuntimeError("injected shard failure")
        real_insert = sharded.shards[1].insert_batch

        def failing_insert(rows):
            raise boom

        sharded._shards[1].insert_batch = failing_insert
        try:
            with pytest.raises(RuntimeError, match="injected"):
                sharded.insert_batch(data.base[6:12])
        finally:
            sharded._shards[1].insert_batch = real_insert

        # Shard 0 ran before the failure and is recorded; shards 1/2
        # never mutated (2 is after the failing shard in the loop).
        sizes = sharded.shard_sizes()
        assert sizes[1] == 2 and sizes[2] == 2
        # Router maps exactly match shard contents: every recorded
        # global id dereferences to the vector it was assigned for.
        for gids in sharded._global_ids:
            for g in gids:
                shard, local = sharded._owner[int(g)]
                assert len(stream_state(sharded.shards[shard]).vectors) > local
        recorded = {
            int(g) for gids in sharded._global_ids for g in gids
        }
        assert sharded.num_vertices == sum(sizes)
        # _next_global sits past every recorded id, so the next batch
        # cannot collide with anything recorded.
        assert sharded._next_global > max(recorded)
        fresh = sharded.insert_batch(data.base[12:15])
        assert not set(fresh) & recorded
        result = search(sharded, data.queries, k=5, beam_width=16)
        assert (result.counts == 5).all()


class TestNonFiniteQueryRejection:
    """NaN/inf queries fail loudly at the boundary, not deep in the
    merge's boundary-tie reshape (see ISSUE 6: a NaN candidate makes
    ``pos.reshape(b, k)`` blow up with an opaque error)."""

    def test_plain_index_rejects_nan(self, setup):
        data, quantizer = setup
        index = build_memory(data.base, quantizer)
        bad = data.queries.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            search(index, bad, k=5, beam_width=16)

    def test_sharded_rejects_nan_and_inf(self, setup):
        data, quantizer = setup
        sharded = ShardedIndex.build(
            data.base, 2, lambda xs: build_memory(xs, quantizer)
        )
        for poison in (np.nan, np.inf, -np.inf):
            bad = data.queries.copy()
            bad[1, 3] = poison
            with pytest.raises(ValueError, match="non-finite"):
                search(sharded, bad, k=5, beam_width=16)
        # The error names the offending row(s).
        bad = data.queries.copy()
        bad[2, 0] = np.nan
        with pytest.raises(ValueError, match=r"row\(s\) \[2\]"):
            search(sharded, bad, k=5, beam_width=16)
        # And the index still works after the rejection.
        result = search(sharded, data.queries, k=5, beam_width=16)
        assert (result.counts == 5).all()


class TestConstructionAndValidation:
    def test_partition_rows_contiguous(self):
        parts = partition_rows(10, 3)
        assert [p.tolist() for p in parts] == [
            [0, 1, 2, 3],
            [4, 5, 6],
            [7, 8, 9],
        ]

    def test_partition_rows_round_robin(self):
        parts = partition_rows(7, 3, strategy="round_robin")
        assert [p.tolist() for p in parts] == [[0, 3, 6], [1, 4], [2, 5]]

    def test_partition_rows_validation(self):
        with pytest.raises(ValueError):
            partition_rows(5, 0)
        with pytest.raises(ValueError):
            partition_rows(3, 4)
        with pytest.raises(ValueError):
            partition_rows(5, 2, strategy="hash")

    def test_round_robin_build(self, setup):
        data, quantizer = setup
        sharded = ShardedIndex.build(
            data.base,
            3,
            lambda xs: build_memory(xs, quantizer),
            strategy="round_robin",
        )
        result = search(sharded, data.queries, k=5, beam_width=16)
        assert (result.counts == 5).all()
        assert result.ids.max() < data.base.shape[0]

    def test_row_arrays_partition_with_the_data(self, setup):
        data, quantizer = setup
        n = data.base.shape[0]
        labels = np.arange(n) % 4

        def factory(xs, labels):
            graph = build_vamana(xs, r=8, search_l=20, seed=0)
            return FilteredIndex(graph, quantizer, xs, labels)

        sharded = ShardedIndex.build(
            data.base, 3, factory, row_arrays={"labels": labels}
        )
        result = search(sharded, data.queries, labels=2, k=5, beam_width=16)
        assert (result.counts == 5).all()
        # Returned global ids must actually carry the requested label.
        assert (labels[result.ids[result.ids >= 0]] == 2).all()

    def test_invalid_global_ids_rejected(self, setup):
        data, quantizer = setup
        index = build_memory(data.base[:10], quantizer)
        with pytest.raises(ValueError, match="id map"):
            ShardedIndex([index], [np.arange(5)])  # size mismatch
        with pytest.raises(ValueError):
            ShardedIndex([index], [np.array([0, 1, 1] + list(range(2, 9)))])
        with pytest.raises(ValueError):
            ShardedIndex([index], [np.arange(10) - 1])
        with pytest.raises(ValueError):
            ShardedIndex([])
        with pytest.raises(ValueError):
            ShardedIndex([index], [np.arange(10)], max_workers=0)

    def test_k_validation(self, setup):
        data, quantizer = setup
        sharded = ShardedIndex.build(
            data.base, 2, lambda xs: build_memory(xs, quantizer)
        )
        with pytest.raises(ValueError):
            search(sharded, data.queries, k=0, beam_width=16)
