"""Shard-execution backends: thread/process parity and lifecycle.

The backend only decides *where* each shard's ``search`` runs —
the persistence layer round-trips every array exactly and the engine is
deterministic, so results must be bitwise identical across backends on
every scenario.  The full five-scenario parity matrix and the streaming
write path are ``slow`` (each process backend spawns worker processes);
a single memory-scenario smoke test stays in the fast lane so backend
regressions surface on every push.
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
from repro.serving import ShardedIndex, make_shard_backend
from repro.serving.backends import ThreadBackend

from .helpers import search


@pytest.fixture(scope="module")
def setup():
    data = load("sift", n_base=160, n_queries=6, seed=5)
    quantizer = ProductQuantizer(8, 16, seed=0).fit(data.train)
    return data, quantizer


def build_memory(x, quantizer):
    return MemoryIndex(
        build_vamana(x, r=8, search_l=20, seed=0), quantizer, x
    )


def make_streaming(quantizer, dim):
    return StreamingIndex(quantizer, dim=dim, r=8, search_l=20, seed=0)


#: Engine-amortizer telemetry: legitimately varies between executions
#: (cache warmth, pool state) while answers stay bitwise identical.
VOLATILE_COUNTERS = {"table_cache_hits", "workspace_reused"}


def assert_results_identical(a, b):
    """Every response field — ids, distances, all counters — bitwise."""
    np.testing.assert_array_equal(a.ids, b.ids)
    np.testing.assert_array_equal(a.distances, b.distances)
    np.testing.assert_array_equal(a.counts, b.counts)
    assert list(a.counters) == list(b.counters)
    for name in set(a.counters) - VOLATILE_COUNTERS:
        np.testing.assert_array_equal(
            a.counters[name], b.counters[name], err_msg=name
        )


def thread_vs_process(sharded, run):
    """Run ``run`` under both backends on the same shards; compare."""
    assert sharded.backend == "thread"
    expected = run(sharded)
    sharded.set_backend("process")
    try:
        assert sharded.backend == "process"
        assert_results_identical(expected, run(sharded))
    finally:
        sharded.close()
        sharded.set_backend("thread")
    return expected


# ----------------------------------------------------------------------
# Fast lane: registry, thread-pool sizing, and one process smoke test
# ----------------------------------------------------------------------


class TestBackendSelection:
    def test_unknown_backend_rejected(self, setup):
        data, quantizer = setup
        index = build_memory(data.base, quantizer)
        with pytest.raises(ValueError, match="unknown shard backend"):
            ShardedIndex(
                [index], [np.arange(data.base.shape[0])], backend="rpc"
            )
        with pytest.raises(ValueError, match="unknown shard backend"):
            make_shard_backend("rpc", [index])

    def test_set_backend_same_name_is_noop(self, setup):
        data, quantizer = setup
        sharded = ShardedIndex.build(
            data.base, 2, lambda xs: build_memory(xs, quantizer)
        )
        before = sharded._backend
        sharded.set_backend("thread")
        assert sharded._backend is before

    def test_set_backend_unknown_keeps_current(self, setup):
        data, quantizer = setup
        sharded = ShardedIndex.build(
            data.base, 2, lambda xs: build_memory(xs, quantizer)
        )
        with pytest.raises(ValueError, match="unknown shard backend"):
            sharded.set_backend("rpc")
        assert sharded.backend == "thread"
        result = search(sharded, data.queries, k=5, beam_width=16)
        assert (result.counts == 5).all()

    def test_spec_and_build_carry_backend(self, setup):
        data, quantizer = setup
        sharded = ShardedIndex.build(
            data.base,
            2,
            lambda xs: build_memory(xs, quantizer),
            backend="process",
        )
        assert sharded.backend == "process"
        sharded.close()

    def test_set_backend_keeps_attached_spec_truthful(self, setup):
        from repro.api import IndexSpec, ShardingSpec

        data, quantizer = setup
        sharded = ShardedIndex.build(
            data.base, 2, lambda xs: build_memory(xs, quantizer)
        )
        original = IndexSpec(sharding=ShardingSpec(num_shards=2))
        sharded.spec = original
        sharded.set_backend("process")
        # The attached spec follows the live backend (save_index writes
        # it verbatim), while the caller's spec object is untouched.
        assert sharded.spec.sharding.backend == "process"
        assert original.sharding.backend == "thread"
        sharded.set_backend("thread")
        assert sharded.spec.sharding.backend == "thread"
        sharded.close()


class TestThreadPoolSizing:
    """The effective width resolves once; width 1 never builds a pool."""

    def test_explicit_single_worker_skips_pool(self, setup):
        data, quantizer = setup
        sharded = ShardedIndex.build(
            data.base,
            3,
            lambda xs: build_memory(xs, quantizer),
            max_workers=1,
        )
        backend = sharded._backend
        assert isinstance(backend, ThreadBackend)
        assert backend._workers == 1
        search(sharded, data.queries, k=5, beam_width=16)
        assert backend._pool is None

    def test_single_cpu_default_skips_pool(self, setup, monkeypatch):
        # max_workers=None on a single-usable-CPU host resolves to 1:
        # the old code still spun up a one-thread pool plus GC
        # finalizer for zero overlap.
        import repro.serving.backends as backends

        monkeypatch.setattr(
            backends.os, "sched_getaffinity", lambda pid: {0}
        )
        data, quantizer = setup
        sharded = ShardedIndex.build(
            data.base, 3, lambda xs: build_memory(xs, quantizer)
        )
        backend = sharded._backend
        assert backend._workers == 1
        search(sharded, data.queries, k=5, beam_width=16)
        assert backend._pool is None

    def test_multi_cpu_default_builds_pool(self, setup, monkeypatch):
        import repro.serving.backends as backends

        monkeypatch.setattr(
            backends.os, "sched_getaffinity", lambda pid: set(range(8))
        )
        data, quantizer = setup
        sharded = ShardedIndex.build(
            data.base, 3, lambda xs: build_memory(xs, quantizer)
        )
        backend = sharded._backend
        assert backend._workers == 3
        search(sharded, data.queries, k=5, beam_width=16)
        assert backend._pool is not None
        sharded.close()
        assert backend._pool is None

    def test_pool_width_uses_affinity_not_cpu_count(self, monkeypatch):
        # An affinity-restricted container (cgroup quota, taskset) may
        # report many cpu_count() cores while only a few are usable;
        # the pool must size from the usable set or it oversubscribes.
        import repro.serving.backends as backends

        monkeypatch.setattr(backends.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(
            backends.os, "sched_getaffinity", lambda pid: {0, 1}
        )
        assert backends.usable_cpu_count() == 2

    def test_usable_cpu_count_falls_back_without_affinity(
        self, monkeypatch
    ):
        import repro.serving.backends as backends

        # Simulate a platform without the syscall surface entirely.
        monkeypatch.delattr(backends.os, "sched_getaffinity")
        monkeypatch.setattr(backends.os, "cpu_count", lambda: 6)
        assert backends.usable_cpu_count() == 6


class TestProcessSmoke:
    """Fast-lane smoke: one memory-scenario parity check per push."""

    def test_memory_parity_and_reuse_after_close(self, setup):
        data, quantizer = setup
        sharded = ShardedIndex.build(
            data.base, 2, lambda xs: build_memory(xs, quantizer)
        )
        try:
            expected = search(sharded, data.queries, k=10, beam_width=24)
            sharded.set_backend("process")
            assert_results_identical(
                expected,
                search(sharded, data.queries, k=10, beam_width=24),
            )
            # Closing tears the live workers down; the next search
            # respawns them from freshly shipped state.
            sharded.close()
            assert_results_identical(
                expected,
                search(sharded, data.queries, k=10, beam_width=24),
            )
        finally:
            sharded.close()


# ----------------------------------------------------------------------
# Slow lane: full scenario matrix, write path, error handling
# ----------------------------------------------------------------------


@pytest.mark.slow
class TestScenarioParity:
    """Thread and process backends agree bitwise on all five scenarios."""

    def test_memory(self, setup):
        data, quantizer = setup
        sharded = ShardedIndex.build(
            data.base, 2, lambda xs: build_memory(xs, quantizer)
        )
        thread_vs_process(
            sharded,
            lambda idx: search(idx, data.queries, k=10, beam_width=24),
        )

    def test_hybrid(self, setup):
        data, quantizer = setup

        def factory(xs):
            graph = build_vamana(xs, r=8, search_l=20, seed=0)
            return DiskIndex(graph, quantizer, xs, io_width=2)

        sharded = ShardedIndex.build(data.base, 2, factory)
        thread_vs_process(
            sharded,
            lambda idx: search(idx, data.queries, k=10, beam_width=24),
        )

    def test_l2r(self, setup):
        data, quantizer = setup

        def factory(xs):
            graph = build_vamana(xs, r=8, search_l=20, seed=0)
            return L2RIndex(
                graph, quantizer, xs, rng=np.random.default_rng(0)
            )

        sharded = ShardedIndex.build(data.base, 2, factory)
        thread_vs_process(
            sharded,
            lambda idx: search(idx, data.queries, k=10, beam_width=24),
        )

    def test_filtered(self, setup):
        data, quantizer = setup
        n = data.base.shape[0]
        labels = np.arange(n) % 3
        qlabels = np.arange(len(data.queries)) % 3

        def factory(xs, labels):
            graph = build_vamana(xs, r=8, search_l=20, seed=0)
            return FilteredIndex(graph, quantizer, xs, labels)

        sharded = ShardedIndex.build(
            data.base, 2, factory, row_arrays={"labels": labels}
        )
        thread_vs_process(
            sharded,
            lambda idx: search(
                idx, data.queries, labels=qlabels, k=5, beam_width=16
            ),
        )

    def test_streaming(self, setup):
        data, quantizer = setup
        dim = data.base.shape[1]
        sharded = ShardedIndex(
            [make_streaming(quantizer, dim) for _ in range(2)]
        )
        sharded.insert_batch(data.base[:60])
        thread_vs_process(
            sharded,
            lambda idx: search(idx, data.queries, k=5, beam_width=16),
        )


@pytest.mark.slow
class TestStreamingWritePath:
    """Mutations re-ship shard state to the live worker processes."""

    def twins(self, setup):
        data, quantizer = setup
        dim = data.base.shape[1]

        def fresh(backend):
            return ShardedIndex(
                [make_streaming(quantizer, dim) for _ in range(2)],
                backend=backend,
            )

        return data, fresh("thread"), fresh("process")

    def test_mutations_between_searches_stay_bitwise(self, setup):
        data, thread, proc = self.twins(setup)
        try:
            # Routing is deterministic, so both route identically.
            assert thread.insert_batch(data.base[:40]) == proc.insert_batch(
                data.base[:40]
            )
            assert_results_identical(
                search(thread, data.queries, k=5, beam_width=16),
                search(proc, data.queries, k=5, beam_width=16),
            )
            # Workers are live now: further writes must invalidate and
            # re-ship the mutated shards before the next search.
            thread.insert_batch(data.base[40:60])
            proc.insert_batch(data.base[40:60])
            thread.delete(3)
            proc.delete(3)
            assert thread.consolidate() == proc.consolidate()
            assert_results_identical(
                search(thread, data.queries, k=8, beam_width=16),
                search(proc, data.queries, k=8, beam_width=16),
            )
        finally:
            thread.close()
            proc.close()


class TestRemoteTracebacks:
    """Worker-side errors carry the worker's formatted traceback.

    ``raise payload`` alone would re-raise the unpickled exception with
    a parent-side-only traceback — the actual failing worker frame
    would be invisible.  The worker attaches ``traceback.format_exc()``
    and the parent chains it as ``__cause__``, concurrent.futures
    style.
    """

    def test_raise_worker_error_chains_remote_traceback(self):
        from repro.serving.backends import (
            _RemoteTraceback,
            _raise_worker_error,
        )

        exc = ValueError("worker-side boom")
        exc.remote_traceback = (
            "Traceback (most recent call last):\n"
            '  File "worker.py", line 1, in search\n'
            "ValueError: worker-side boom\n"
        )
        with pytest.raises(ValueError, match="worker-side boom") as info:
            _raise_worker_error(exc)
        assert isinstance(info.value.__cause__, _RemoteTraceback)
        assert "worker.py" in str(info.value.__cause__)

    def test_raise_without_remote_traceback_still_raises(self):
        from repro.serving.backends import _raise_worker_error

        with pytest.raises(KeyError):
            _raise_worker_error(KeyError("no tb attached"))

    def test_send_error_attaches_traceback(self):
        from repro.serving.backends import _send_error
        from repro.serving.net import framing

        sent = []

        class Conn:
            def send_bytes(self, blob):
                sent.append(blob)

        try:
            raise ValueError("original failure")
        except ValueError as exc:
            _send_error(Conn(), exc)
        kind, payload = framing.decode_reply(sent[0])
        assert kind == "error"
        assert isinstance(payload, ValueError)
        assert "original failure" in payload.remote_traceback
        assert "Traceback" in payload.remote_traceback

    def test_send_error_survives_unrenderable_and_closed_pipe(self):
        from repro.serving.backends import _send_error
        from repro.serving.net import framing

        class UnrenderableError(Exception):
            """str() itself explodes — the frame codec cannot encode
            the message, so _send_error must degrade, not raise."""

            def __str__(self):
                raise TypeError("cannot render me")

        sent = []

        class Conn:
            def send_bytes(self, blob):
                sent.append(blob)

        try:
            raise UnrenderableError()
        except UnrenderableError as exc:
            _send_error(Conn(), exc)
        kind, payload = framing.decode_reply(sent[0])
        assert kind == "error"
        # Degraded to a frameable stand-in that still carries the
        # original identity and the worker traceback.
        assert "UnrenderableError" in str(payload)
        assert "Traceback" in payload.remote_traceback

        class ClosedPipe:
            def send_bytes(self, blob):
                raise BrokenPipeError("pipe closed")

        # A fully closed pipe must not raise out of _send_error — that
        # would mask the original exception in the worker loop.
        try:
            raise ValueError("original failure")
        except ValueError as exc:
            _send_error(ClosedPipe(), exc)

    def test_process_search_error_includes_worker_frames(self, setup):
        data, quantizer = setup
        sharded = ShardedIndex.build(
            data.base,
            2,
            lambda xs: build_memory(xs, quantizer),
            backend="process",
        )
        try:
            with pytest.raises(Exception) as info:
                # Mis-dimensioned queries blow up inside the worker.
                search(sharded, data.queries[:, :-3], k=5, beam_width=16)
            cause = info.value.__cause__
            assert cause is not None
            assert "Traceback" in str(cause)
            assert "in _search" in str(cause)
        finally:
            sharded.close()


@pytest.mark.slow
class TestWorkerErrors:
    def test_worker_error_propagates_and_worker_survives(self, setup):
        data, quantizer = setup
        sharded = ShardedIndex.build(
            data.base,
            2,
            lambda xs: build_memory(xs, quantizer),
            backend="process",
        )
        try:
            good = search(sharded, data.queries, k=5, beam_width=16)
            # Mis-dimensioned queries blow up inside the workers; the
            # error must cross the pipe without desyncing it.
            with pytest.raises(Exception):
                search(sharded, data.queries[:, :-3], k=5, beam_width=16)
            again = search(sharded, data.queries, k=5, beam_width=16)
            assert_results_identical(good, again)
        finally:
            sharded.close()

    def test_concurrent_searches_serialize_safely(self, setup):
        import threading

        data, quantizer = setup
        sharded = ShardedIndex.build(
            data.base,
            2,
            lambda xs: build_memory(xs, quantizer),
            backend="process",
        )
        try:
            expected = search(sharded, data.queries, k=5, beam_width=16)
            results = {}

            # Interleaved pipe sends/recvs would cross-deliver replies;
            # the backend lock must serialize them correctly.
            def client(i):
                results[i] = search(sharded, data.queries, k=5, beam_width=16)

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(results) == 4
            for result in results.values():
                assert_results_identical(expected, result)
        finally:
            sharded.close()

    def test_dead_worker_resets_backend_and_respawns(self, setup):
        data, quantizer = setup
        sharded = ShardedIndex.build(
            data.base,
            2,
            lambda xs: build_memory(xs, quantizer),
            backend="process",
        )
        try:
            good = search(sharded, data.queries, k=5, beam_width=16)
            backend = sharded._backend
            backend._procs[0].terminate()
            backend._procs[0].join()
            # The dead pipe fails loudly and resets the backend...
            with pytest.raises(RuntimeError, match="died"):
                search(sharded, data.queries, k=5, beam_width=16)
            assert backend._procs is None
            # ...so the next search respawns workers and succeeds.
            again = search(sharded, data.queries, k=5, beam_width=16)
            assert_results_identical(good, again)
        finally:
            sharded.close()

    def test_unpersistable_shard_fails_without_leaking_state(
        self, setup, tmp_path, monkeypatch
    ):
        import os
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        data, quantizer = setup

        def factory(xs):
            graph = build_vamana(xs, r=8, search_l=20, seed=0)
            # A custom table transform is the documented unpersistable
            # case: save_index raises at worker spawn.
            return DiskIndex(
                graph, quantizer, xs, io_width=2,
                table_transform=lambda table: table,
            )

        sharded = ShardedIndex.build(
            data.base, 2, factory, backend="process"
        )
        with pytest.raises(ValueError, match="cannot persist"):
            search(sharded, data.queries, k=5, beam_width=16)
        assert sharded._backend._procs is None
        leftovers = [
            name
            for name in os.listdir(str(tmp_path))
            if name.startswith("repro-shard-backend-")
        ]
        assert leftovers == []
        # The same shards still serve on the thread backend.
        sharded.set_backend("thread")
        result = search(sharded, data.queries, k=5, beam_width=16)
        assert (result.counts == 5).all()

    def test_context_manager_closes_workers(self, setup):
        data, quantizer = setup
        with ShardedIndex.build(
            data.base,
            2,
            lambda xs: build_memory(xs, quantizer),
            backend="process",
        ) as sharded:
            result = search(sharded, data.queries, k=5, beam_width=16)
            assert (result.counts == 5).all()
            backend = sharded._backend
            assert backend._procs is not None
        assert backend._procs is None
