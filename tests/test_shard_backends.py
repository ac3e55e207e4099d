"""The shard fleet at ``replicas == 1``: kind parity and lifecycle.

The backend only decides *where* each shard's ``search`` runs — the
persistence layer round-trips every array exactly and the engine is
deterministic, so results must be bitwise identical across replica
kinds on every scenario.  This file holds the ``replicas == 1`` slice
of the one parity matrix (``tests/fleet.py``; ``tests/test_replication
.py`` holds the ``replicas == 2`` slice and the chaos gates), the pool
sizing, the remote-traceback path and worker lifecycle.  The full
five-scenario matrix and the streaming write path are ``slow`` (each
process fleet spawns worker processes); a single memory-scenario smoke
test stays in the fast lane so backend regressions surface on every
push.
"""

from __future__ import annotations

import multiprocessing
import os
import stat
import tempfile
import threading

import numpy as np
import pytest

from repro.api import IndexSpec, SearchRequest, ShardingSpec
from repro.index import DiskIndex
from repro.quantization import CatalystQuantizer
from repro.serving import ReplicaDied, ShardBackend, ShardedIndex, make_shard_backend
from repro.serving.net import ShardClient, framing

from .fleet import (
    ScenarioMatrix,
    assert_results_identical,
    build_memory,
    check_write_path,
    endpoint_of,
    fleet_setup,
    graph_of,
    inproc_server,
    memory_sharded,
    shard_threads,
)
from .helpers import search


@pytest.fixture(scope="module")
def setup():
    return fleet_setup()


def worker_pids(sharded):
    return [row["pid"] for row in sharded.fleet_status()]


def pid_exists(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


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
        sharded = memory_sharded(setup)
        before = sharded._backend
        sharded.set_backend("thread")
        assert sharded._backend is before

    def test_set_backend_unknown_keeps_current(self, setup):
        data, _ = setup
        sharded = memory_sharded(setup)
        with pytest.raises(ValueError, match="unknown shard backend"):
            sharded.set_backend("rpc")
        assert sharded.backend == "thread"
        result = search(sharded, data.queries, k=5, beam_width=16)
        assert (result.counts == 5).all()

    def test_spec_and_build_carry_backend(self, setup):
        sharded = memory_sharded(setup, backend="process")
        assert sharded.backend == "process"
        # One class at every kind and replica count.
        assert type(sharded._backend) is ShardBackend
        sharded.close()

    def test_set_backend_keeps_attached_spec_truthful(self, setup):
        sharded = memory_sharded(setup)
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
    """The effective width resolves once; width 1 never builds a pool
    (observed through the live ``repro-shard*`` pool threads; other
    suites' unclosed pools may linger, so only *new* threads count)."""

    def test_explicit_single_worker_skips_pool(self, setup):
        data, quantizer = setup
        sharded = ShardedIndex.build(
            data.base,
            3,
            lambda xs: build_memory(xs, quantizer),
            max_workers=1,
        )
        before = shard_threads()
        search(sharded, data.queries, k=5, beam_width=16)
        assert shard_threads() <= before

    def test_single_cpu_default_skips_pool(self, setup, monkeypatch):
        # max_workers=None on a single-usable-CPU host resolves to 1:
        # a one-thread pool is dispatch overhead for zero overlap.
        import repro.serving.backends as backends

        monkeypatch.setattr(
            backends.os, "sched_getaffinity", lambda pid: {0}
        )
        data, quantizer = setup
        sharded = ShardedIndex.build(
            data.base, 3, lambda xs: build_memory(xs, quantizer)
        )
        before = shard_threads()
        search(sharded, data.queries, k=5, beam_width=16)
        assert shard_threads() <= before

    def test_multi_cpu_default_builds_pool(self, setup, monkeypatch):
        import repro.serving.backends as backends

        monkeypatch.setattr(
            backends.os, "sched_getaffinity", lambda pid: set(range(8))
        )
        data, quantizer = setup
        sharded = ShardedIndex.build(
            data.base, 3, lambda xs: build_memory(xs, quantizer)
        )
        before = shard_threads()
        search(sharded, data.queries, k=5, beam_width=16)
        # One thread per shard at most — never the 8 "CPUs".
        pool = shard_threads() - before
        assert 1 <= len(pool) <= 3
        sharded.close()
        assert not pool & shard_threads()

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
        data, _ = setup
        sharded = memory_sharded(setup)
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

    def test_process_worker_is_a_shard_server_on_a_private_socket(
        self, setup
    ):
        # One worker type serves both worker kinds: a process replica
        # is a ShardServer on an AF_UNIX socket that any ShardClient
        # can dial, inside a directory only this user may enter.
        data, _ = setup
        sharded = memory_sharded(setup, backend="process")
        try:
            search(sharded, data.queries, k=5, beam_width=16)
            endpoints = [row["endpoint"] for row in sharded.fleet_status()]
            for endpoint in endpoints:
                assert stat.S_ISSOCK(os.stat(endpoint).st_mode)
                parent = os.path.dirname(endpoint)
                assert stat.S_IMODE(os.stat(parent).st_mode) == 0o700
                with ShardClient(endpoint) as client:
                    client.ping()
        finally:
            sharded.close()
        assert not any(os.path.exists(e) for e in endpoints)
        assert not os.path.exists(parent)
        assert [row["endpoint"] for row in sharded.fleet_status()] == [
            None,
            None,
        ]

    def test_a_long_temp_dir_still_starts_the_fleet(
        self, setup, tmp_path, monkeypatch
    ):
        # AF_UNIX caps a socket path at 108 bytes: sockets that would
        # not fit next to the shipped state under a long temp dir go
        # in a private directory of their own, removed on close().
        data, _ = setup
        long_dir = tmp_path / ("long-temp-dir-" + "x" * 80)
        long_dir.mkdir()
        assert len(str(long_dir)) >= 90
        monkeypatch.setattr(tempfile, "tempdir", str(long_dir))
        sharded = memory_sharded(setup)
        try:
            expected = search(sharded, data.queries, k=10, beam_width=24)
            sharded.set_backend("process")
            assert_results_identical(
                expected,
                search(sharded, data.queries, k=10, beam_width=24),
            )
            assert os.listdir(long_dir)  # the shipped state lives there
            endpoints = [row["endpoint"] for row in sharded.fleet_status()]
            assert len(endpoints) == 2
            for endpoint in endpoints:
                assert len(os.fsencode(endpoint)) < 108
                assert stat.S_ISSOCK(os.stat(endpoint).st_mode)
                parent = os.path.dirname(endpoint)
                assert stat.S_IMODE(os.stat(parent).st_mode) == 0o700
        finally:
            sharded.close()
        for endpoint in endpoints:
            assert not os.path.exists(endpoint)
            assert not os.path.exists(os.path.dirname(endpoint))
        assert os.listdir(long_dir) == []


# ----------------------------------------------------------------------
# Slow lane: full scenario matrix, write path, error handling
# ----------------------------------------------------------------------


@pytest.mark.slow
class TestScenarioParity(ScenarioMatrix):
    """The ``replicas == 1`` cells: thread, process and socket fleets
    agree bitwise with the backend-free merge on all five scenarios."""

    CELLS = (("thread", 1), ("process", 1), ("socket", 1))


@pytest.mark.slow
class TestStreamingWritePath:
    """Mutations re-ship shard state to the live worker processes."""

    def test_mutations_between_searches_stay_bitwise(self, setup):
        check_write_path(setup, "process", 1)


class UnrenderableError(Exception):
    """``str()`` and ``repr()`` themselves explode — the error frame
    cannot carry the message, so the encoder must degrade, not raise."""

    def __str__(self):
        raise TypeError("cannot render me")

    __repr__ = __str__


class TestRemoteTracebacks:
    """Worker-side errors carry the worker's formatted traceback.

    ``raise payload`` alone would re-raise the rebuilt exception with
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
        try:
            raise ValueError("original failure")
        except ValueError as exc:
            blob = framing.encode_error(exc)
        kind, payload = framing.reply_payload(framing.decode_message(blob))
        assert kind == "error"
        assert isinstance(payload, ValueError)
        assert "original failure" in payload.remote_traceback
        assert "Traceback" in payload.remote_traceback

    def test_send_error_survives_unrenderable(self, setup):
        # One never-raising error encoder behind every worker.
        # Input 1: the encoder itself.
        try:
            raise UnrenderableError()
        except UnrenderableError as exc:
            blob = framing.encode_error(exc)
        kind, payload = framing.reply_payload(framing.decode_message(blob))
        assert kind == "error"
        # Degraded to a frameable stand-in that still carries the
        # original identity and the worker traceback.
        assert "UnrenderableError" in str(payload)
        assert "Traceback" in payload.remote_traceback

        # Input 2: the TCP worker.  An unrenderable *application* error
        # must come back typed — not as EOF, which the client would
        # report as ReplicaDied, marking a healthy replica dead.
        class Exploding:
            def search(self, request):
                raise UnrenderableError()

        data, _ = setup
        request = SearchRequest(data.queries, k=5, beam_width=16)
        with inproc_server(Exploding()) as server:
            with ShardClient(endpoint_of(server)) as client:
                with pytest.raises(RuntimeError, match="Unrenderable") as info:
                    client.search(request)
                assert not isinstance(info.value, ReplicaDied)
                client.ping()  # same connection, still framed
            fleet = ShardedIndex(
                [Exploding()], backend="socket", endpoints=[endpoint_of(server)]
            )
            with fleet:
                with pytest.raises(RuntimeError, match="Unrenderable") as info:
                    fleet.search(request)
                assert not isinstance(info.value, ReplicaDied)
                assert all(row["alive"] for row in fleet.fleet_status())

    def test_process_search_error_includes_worker_frames(self, setup):
        data, _ = setup
        sharded = memory_sharded(setup, backend="process")
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
        data, _ = setup
        sharded = memory_sharded(setup, backend="process")
        try:
            good = search(sharded, data.queries, k=5, beam_width=16)
            pids = worker_pids(sharded)
            # Mis-dimensioned queries blow up inside the workers; the
            # error must cross the socket without desyncing it.
            with pytest.raises(Exception):
                search(sharded, data.queries[:, :-3], k=5, beam_width=16)
            again = search(sharded, data.queries, k=5, beam_width=16)
            assert_results_identical(good, again)
            assert worker_pids(sharded) == pids
        finally:
            sharded.close()

    def test_concurrent_searches_serialize_safely(self, setup):
        data, _ = setup
        sharded = memory_sharded(setup, backend="process")
        try:
            expected = search(sharded, data.queries, k=5, beam_width=16)
            results = {}

            # Interleaved socket sends/recvs would cross-deliver replies;
            # the per-replica locks must serialize them correctly.
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

    def test_unpersistable_shard_fails_without_leaking_state(
        self, setup, tmp_path, monkeypatch
    ):
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        data, _ = setup
        # A catalyst quantizer (trainable MLP state) is the documented
        # unpersistable case: save_index raises at worker spawn.
        catalyst = CatalystQuantizer(8, 16, out_dim=16, epochs=1, seed=0)
        catalyst.fit(data.train)

        def factory(xs):
            return DiskIndex(graph_of(xs), catalyst, xs, io_width=2)

        sharded = ShardedIndex.build(
            data.base, 2, factory, backend="process"
        )
        with pytest.raises(TypeError, match="unsupported quantizer"):
            search(sharded, data.queries, k=5, beam_width=16)
        assert worker_pids(sharded) == [None, None]
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

    def test_unloadable_shipped_state_fails_start_typed(
        self, setup, monkeypatch
    ):
        # The shipped directory of shard 1 cannot load in its worker:
        # the fleet start raises the worker's own load error (with the
        # worker traceback), stops every worker it booted and removes
        # the temporary directory.
        data, _ = setup
        tmpdirs = []
        ship = ShardBackend._ship

        def broken_ship(backend, shard):
            dirpath = ship(backend, shard)
            tmpdirs.append(backend._tmpdir)
            if shard == 1:
                os.remove(os.path.join(dirpath, "index.json"))
            return dirpath

        monkeypatch.setattr(ShardBackend, "_ship", broken_ship)
        sharded = memory_sharded(setup, backend="process")
        before = set(multiprocessing.active_children())
        with pytest.raises(FileNotFoundError) as info:
            search(sharded, data.queries, k=5, beam_width=16)
        assert "Traceback" in str(info.value.__cause__)
        assert not isinstance(info.value, ReplicaDied)
        assert set(multiprocessing.active_children()) <= before
        assert worker_pids(sharded) == [None, None]
        assert tmpdirs and not os.path.exists(tmpdirs[0])
        sharded.close()

    def test_context_manager_closes_workers(self, setup):
        data, _ = setup
        with memory_sharded(setup, backend="process") as sharded:
            result = search(sharded, data.queries, k=5, beam_width=16)
            assert (result.counts == 5).all()
            pids = worker_pids(sharded)
            assert all(pid_exists(pid) for pid in pids)
        assert worker_pids(sharded) == [None, None]
        assert not any(pid_exists(pid) for pid in pids)
