"""Dynamic batcher: trigger behavior, shutdown semantics, correctness.

Timing-dependent assertions use generous margins (a trigger that
*should* fire within milliseconds is given seconds) so the suite stays
deterministic on loaded CI runners; the correctness assertions are
exact — batch composition cannot change any answer.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.api import SearchRequest
from repro.datasets import load
from repro.graphs import build_vamana
from repro.index import MemoryIndex
from repro.quantization import ProductQuantizer
from repro.serving import DynamicBatcher, ShardedIndex

from .helpers import search, search_one


@pytest.fixture(scope="module")
def setup():
    data = load("sift", n_base=200, n_queries=8, seed=9)
    quantizer = ProductQuantizer(8, 16, seed=0).fit(data.train)
    graph = build_vamana(data.base, r=8, search_l=20, seed=0)
    index = MemoryIndex(graph, quantizer, data.base)
    return data, index


class TestCorrectness:
    def test_answers_match_direct_search_bitwise(self, setup):
        data, index = setup
        with DynamicBatcher(
            index, k=10, beam_width=24, max_batch_size=4, max_wait_ms=50
        ) as batcher:
            futures = [batcher.submit(q) for q in data.queries]
            rows = [f.result(timeout=30) for f in futures]
        for q, row in zip(data.queries, rows):
            direct = search_one(index, q, k=10, beam_width=24)
            np.testing.assert_array_equal(row.ids, direct.ids)
            np.testing.assert_array_equal(row.distances, direct.distances)
            assert row.hops == direct.hops
            assert row.distance_computations == direct.distance_computations

    def test_over_sharded_index(self, setup):
        data, _ = setup
        quantizer = ProductQuantizer(8, 16, seed=0).fit(data.train)
        sharded = ShardedIndex.build(
            data.base,
            3,
            lambda xs: MemoryIndex(
                build_vamana(xs, r=8, search_l=20, seed=0), quantizer, xs
            ),
        )
        with DynamicBatcher(
            sharded, k=5, beam_width=16, max_batch_size=8, max_wait_ms=20
        ) as batcher:
            futures = [batcher.submit(q) for q in data.queries]
            rows = [f.result(timeout=30) for f in futures]
        direct = search(sharded, data.queries, k=5, beam_width=16)
        for i, row in enumerate(rows):
            np.testing.assert_array_equal(row.ids, direct.row(i).ids)

    def test_stats_account_for_every_request(self, setup):
        data, index = setup
        batcher = DynamicBatcher(
            index, max_batch_size=3, max_wait_ms=10
        )
        futures = [batcher.submit(q) for q in data.queries]
        for f in futures:
            f.result(timeout=30)
        stats = batcher.close()
        assert stats.requests == len(data.queries)
        assert stats.answered == len(data.queries)
        assert sum(stats.recent_batch_sizes) == len(data.queries)
        assert (
            stats.size_triggered
            + stats.deadline_triggered
            + stats.flush_triggered
            == stats.batches
        )


class TestRequestEntryPoint:
    """``submit_request`` queues a whole request without blocking;
    ``search`` is it plus ``.result()`` and ``assemble``."""

    def test_submit_request_returns_one_future_per_row(self, setup):
        data, index = setup
        request = SearchRequest(data.queries, k=10, beam_width=24)
        with DynamicBatcher(
            index, k=10, beam_width=24, max_batch_size=4, max_wait_ms=50
        ) as batcher:
            futures = batcher.submit_request(request)
            assert len(futures) == data.queries.shape[0]
            rows = [f.result(timeout=30) for f in futures]
            assembled = batcher.assemble(rows)
        direct = index.search(request)
        np.testing.assert_array_equal(assembled.ids, direct.ids)
        np.testing.assert_array_equal(assembled.distances, direct.distances)
        np.testing.assert_array_equal(assembled.counts, direct.counts)

    def test_request_straddling_micro_batches_reassembles_bitwise(
        self, setup
    ):
        data, index = setup
        request = SearchRequest(data.queries, k=10, beam_width=24)
        direct = index.search(request)
        # 8 rows through batches of at most 3: the request's rows land
        # in three different micro-batches.
        with DynamicBatcher(
            index, k=10, beam_width=24, max_batch_size=3, max_wait_ms=50
        ) as batcher:
            served = batcher.search(request)
        assert batcher.stats.batches >= 3
        assert max(batcher.stats.recent_batch_sizes) <= 3
        np.testing.assert_array_equal(served.ids, direct.ids)
        np.testing.assert_array_equal(served.distances, direct.distances)
        np.testing.assert_array_equal(served.counts, direct.counts)
        for name, values in direct.counters.items():
            np.testing.assert_array_equal(
                served.counters[name], values, err_msg=name
            )

    def test_empty_request_queues_nothing(self, setup):
        data, index = setup
        request = SearchRequest(data.queries[:0], k=10, beam_width=32)
        with DynamicBatcher(index) as batcher:
            assert batcher.submit_request(request) == []
            served = batcher.search(request)
        assert batcher.stats.requests == 0
        assert served.ids.shape == (0, 10)
        assert served.counters["batcher_dequeue_s"].shape == (0,)

    def test_rejected_request_queues_nothing(self, setup):
        data, index = setup
        with DynamicBatcher(index, k=10, beam_width=32) as batcher:
            with pytest.raises(ValueError, match="fixed"):
                batcher.submit_request(
                    SearchRequest(data.queries, k=5, beam_width=32)
                )
        assert batcher.stats.requests == 0


class TestTriggers:
    def test_size_trigger_dispatches_full_batches(self, setup):
        data, index = setup
        # The deadline is far away: only the size trigger can fire.
        with DynamicBatcher(
            index, max_batch_size=4, max_wait_ms=60_000
        ) as batcher:
            futures = [batcher.submit(q) for q in data.queries]
            for f in futures:
                f.result(timeout=30)
        assert list(batcher.stats.recent_batch_sizes) == [4, 4]
        assert batcher.stats.size_triggered == 2
        assert batcher.stats.deadline_triggered == 0

    def test_deadline_trigger_fires_for_partial_batches(self, setup):
        data, index = setup
        # Submit fewer than max_batch_size: only the deadline can fire.
        with DynamicBatcher(
            index, max_batch_size=100, max_wait_ms=30
        ) as batcher:
            futures = [batcher.submit(q) for q in data.queries[:3]]
            start = time.perf_counter()
            for f in futures:
                f.result(timeout=30)
            waited = time.perf_counter() - start
        assert batcher.stats.deadline_triggered >= 1
        assert batcher.stats.answered == 3
        assert waited < 20  # resolved far before any 100-size batch

    def test_zero_wait_is_greedy(self, setup):
        data, index = setup
        with DynamicBatcher(
            index, max_batch_size=100, max_wait_ms=0
        ) as batcher:
            futures = [batcher.submit(q) for q in data.queries]
            for f in futures:
                f.result(timeout=30)
        stats = batcher.stats
        # No waiting: every batch is whatever was queued at dispatch
        # time — sizes are racy but accounting must still add up.
        assert stats.answered == len(data.queries)
        assert stats.batches >= 1


class TestShutdown:
    def test_close_flushes_in_flight_requests(self, setup):
        data, index = setup
        # A far deadline and an unreachable size: without the flush,
        # these requests would sit in the queue for a minute.
        batcher = DynamicBatcher(
            index, max_batch_size=100, max_wait_ms=60_000
        )
        futures = [batcher.submit(q) for q in data.queries]
        stats = batcher.close(flush=True, timeout=30)
        assert all(f.done() and not f.cancelled() for f in futures)
        assert stats.answered == len(data.queries)
        assert stats.flush_triggered >= 1
        direct = search_one(index, data.queries[0], k=10, beam_width=32)
        np.testing.assert_array_equal(
            futures[0].result().ids, direct.ids
        )

    def test_close_flushes_even_if_worker_never_started(self, setup):
        data, index = setup
        batcher = DynamicBatcher(
            index, max_batch_size=100, max_wait_ms=60_000, start=False
        )
        futures = [batcher.submit(q) for q in data.queries[:3]]
        stats = batcher.close(flush=True, timeout=30)
        assert stats.answered == 3
        direct = search_one(index, data.queries[0], k=10, beam_width=32)
        np.testing.assert_array_equal(futures[0].result().ids, direct.ids)

    def test_close_without_flush_cancels_unclaimed(self, setup):
        data, index = setup
        # Worker never started: everything is still queued, so a
        # no-flush close must cancel every future deterministically.
        batcher = DynamicBatcher(
            index, max_batch_size=100, max_wait_ms=60_000, start=False
        )
        futures = [batcher.submit(q) for q in data.queries]
        batcher.close(flush=False)
        assert all(f.cancelled() for f in futures)
        assert batcher.stats.answered == 0

    def test_submit_after_close_raises(self, setup):
        data, index = setup
        batcher = DynamicBatcher(index)
        batcher.close()
        with pytest.raises(RuntimeError):
            batcher.submit(data.queries[0])
        with pytest.raises(RuntimeError):
            batcher.start()

    def test_close_is_idempotent(self, setup):
        data, index = setup
        batcher = DynamicBatcher(index)
        batcher.close()
        batcher.close()

    def test_concurrent_submitters(self, setup):
        data, index = setup
        results = {}
        with DynamicBatcher(
            index, max_batch_size=8, max_wait_ms=20
        ) as batcher:

            def client(i):
                future = batcher.submit(data.queries[i % 8])
                results[i] = future.result(timeout=30)

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(16)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert len(results) == 16
        for i, row in results.items():
            direct = search_one(
                index, data.queries[i % 8], k=10, beam_width=32
            )
            np.testing.assert_array_equal(row.ids, direct.ids)


class TestErrorsAndValidation:
    def test_search_errors_propagate_to_futures(self, setup):
        data, _ = setup

        class ExplodingIndex:
            def search(self, request):
                raise ValueError("boom")

        with DynamicBatcher(
            ExplodingIndex(), max_batch_size=4, max_wait_ms=10
        ) as batcher:
            futures = [batcher.submit(q) for q in data.queries[:4]]
            for f in futures:
                with pytest.raises(ValueError, match="boom"):
                    f.result(timeout=30)

    def test_failed_batch_fails_every_request_with_one_exception(
        self, setup
    ):
        data, index = setup
        calls = []

        class FailFirstBatch:
            def search(self, request):
                calls.append(request.query_matrix.shape[0])
                if len(calls) == 1:
                    raise RuntimeError("batch failed")
                return index.search(request)

        request = SearchRequest(data.queries[:5], k=10, beam_width=32)
        # Not started: both requests' rows are queued before the worker
        # runs, so all seven ride the first (failing) micro-batch.
        batcher = DynamicBatcher(
            FailFirstBatch(), max_batch_size=100, max_wait_ms=0, start=False
        )
        try:
            futures = batcher.submit_request(request)
            futures += batcher.submit_request(
                SearchRequest(data.queries[5:7], k=10, beam_width=32)
            )
            batcher.start()
            errors = {id(f.exception(timeout=30)) for f in futures}
            assert len(errors) == 1
            with pytest.raises(RuntimeError, match="batch failed"):
                futures[0].result()
            # The worker survives: the next request is answered.
            served = batcher.search(request)
        finally:
            batcher.close()
        assert calls[0] == 7
        np.testing.assert_array_equal(served.ids, index.search(request).ids)

    def test_ragged_queries_fail_the_batch_not_the_worker(self, setup):
        data, index = setup
        # A mis-dimensioned query makes np.stack raise before the index
        # is even called; the batch's futures must carry the error and
        # the worker must survive to answer later requests.
        with DynamicBatcher(
            index, max_batch_size=2, max_wait_ms=60_000
        ) as batcher:
            bad = [
                batcher.submit(data.queries[0]),
                batcher.submit(data.queries[1][:-3]),
            ]
            for f in bad:
                with pytest.raises(ValueError):
                    f.result(timeout=30)
            good = [
                batcher.submit(data.queries[2]),
                batcher.submit(data.queries[3]),
            ]
            rows = [f.result(timeout=30) for f in good]
        direct = search_one(index, data.queries[2], k=10, beam_width=32)
        np.testing.assert_array_equal(rows[0].ids, direct.ids)

    def test_constructor_validation(self, setup):
        _, index = setup
        with pytest.raises(ValueError):
            DynamicBatcher(index, max_batch_size=0)
        with pytest.raises(ValueError):
            DynamicBatcher(index, max_wait_ms=-1.0)

    def test_non_finite_query_rejected_at_submit(self, setup):
        data, index = setup
        # Rejection happens at submit, in the poisoned caller's frame —
        # a NaN query must never reach a micro-batch where it would
        # fail the innocent requests batched alongside it.
        with DynamicBatcher(
            index, max_batch_size=2, max_wait_ms=60_000
        ) as batcher:
            good_before = batcher.submit(data.queries[0])
            with pytest.raises(ValueError, match="non-finite"):
                batcher.submit(np.full_like(data.queries[1], np.nan))
            good_after = batcher.submit(data.queries[1])
            rows = [
                f.result(timeout=30) for f in (good_before, good_after)
            ]
        for row, q in zip(rows, data.queries[:2]):
            direct = search_one(index, q, k=10, beam_width=32)
            np.testing.assert_array_equal(row.ids, direct.ids)
