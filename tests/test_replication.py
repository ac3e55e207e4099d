"""The shard fleet at ``replicas >= 2``: routing, failover, chaos.

Replication must be invisible in the answers: which replica serves a
shard's call can never change a bit, because every replica of a shard
serves the exact same persisted state and the merge is unchanged.
This file holds the ``replicas == 2`` slice of the one parity matrix
(``tests/fleet.py``; ``tests/test_shard_backends.py`` holds the
``replicas == 1`` slice), which is ``slow`` (each process fleet spawns
``shards x replicas`` workers); a memory-scenario smoke, the one
``fleet_status`` shape and the SIGKILL chaos gates — ``replicas == 2``
(failover: zero failed requests) and ``replicas == 1`` (no sibling:
loud ``ReplicaDied``, never padding) — stay in the fast lane so a
failure-policy regression surfaces on every push.

The chaos assertions are correctness, not timing: a worker is killed
mid-load, every subsequent request must behave as documented, then
the supervisor must respawn the dead worker — polled against a
generous deadline, never a wall-clock window, so the tests are
deterministic on a loaded 1-CPU CI runner.
"""

from __future__ import annotations

import contextlib
import os
import signal
import threading

import numpy as np
import pytest

from repro.api import IndexSpec, ShardingSpec, load_index, save_index
from repro.serving import (
    ReplicaDied,
    ShardBackend,
    ShardedIndex,
    make_shard_backend,
)

from .fleet import (
    ScenarioMatrix,
    assert_results_identical,
    build_memory,
    check_write_path,
    endpoint_of,
    fleet_setup,
    inproc_server,
    memory_sharded,
    wait_for_respawn,
)
from .helpers import search


@pytest.fixture(scope="module")
def setup():
    return fleet_setup()


STATUS_KEYS = {
    "shard",
    "replica",
    "backend",
    "alive",
    "restarts",
    "in_flight",
    "pid",
    "endpoint",
}


# ----------------------------------------------------------------------
# Fast lane: smoke, introspection, validation, SIGKILL chaos gates
# ----------------------------------------------------------------------


class TestReplicationSmoke:
    def test_thread_replicas_identical_to_unreplicated(self, setup):
        data, _ = setup
        sharded = memory_sharded(setup)
        expected = search(sharded, data.queries, k=10, beam_width=24)
        sharded.set_replicas(3)
        assert (sharded.backend, sharded.replicas) == ("thread", 3)
        assert_results_identical(
            expected, search(sharded, data.queries, k=10, beam_width=24)
        )
        sharded.close()

    def test_constructor_replicas(self, setup):
        data, _ = setup
        sharded = memory_sharded(setup, replicas=2)
        assert sharded.replicas == 2
        assert sharded.backend == "thread"
        assert type(sharded._backend) is ShardBackend
        assert_results_identical(
            search(memory_sharded(setup), data.queries, k=10, beam_width=24),
            search(sharded, data.queries, k=10, beam_width=24),
        )

    def test_fleet_status_shape_and_lazy_spawn(self, setup):
        data, _ = setup
        # Thread (and socket) replicas are built at construction and
        # have nothing to spawn: alive from the start.
        sharded = memory_sharded(setup, replicas=2)
        assert all(r["alive"] for r in sharded.fleet_status())
        # Process workers spawn lazily on the first search.
        sharded.set_backend("process")
        try:
            rows = sharded.fleet_status()
            assert len(rows) == 4  # 2 shards x 2 replicas, configured shape
            assert all(not r["alive"] and r["pid"] is None for r in rows)
            search(sharded, data.queries, k=5, beam_width=16)
            rows = sharded.fleet_status()
            assert {(r["shard"], r["replica"]) for r in rows} == {
                (s, r) for s in range(2) for r in range(2)
            }
            assert all(r["alive"] for r in rows)
            assert all(r["restarts"] == 0 for r in rows)
            assert all(r["in_flight"] == 0 for r in rows)
            assert all(r["backend"] == "process" for r in rows)
            # Real pids, one distinct worker per replica slot.
            pids = {r["pid"] for r in rows}
            assert len(pids) == 4 and None not in pids
        finally:
            sharded.close()
        assert all(
            not r["alive"] and r["pid"] is None
            for r in sharded.fleet_status()
        )

    @pytest.mark.parametrize("replicas", [1, 2])
    @pytest.mark.parametrize("kind", ["thread", "process", "socket"])
    def test_fleet_status_one_row_shape(self, setup, kind, replicas):
        # One builder: the same keys at every kind x replica count
        # (nothing is spawned or connected to read them).
        data, quantizer = setup
        endpoints = ["127.0.0.1:7001", "127.0.0.1:7002"]
        backend = make_shard_backend(
            kind,
            [build_memory(data.base[:40], quantizer)] * 2,
            replicas=replicas,
            endpoints=endpoints if kind == "socket" else None,
        )
        rows = backend.fleet_status()
        assert len(rows) == 2 * replicas
        for row in rows:
            assert set(row) == STATUS_KEYS
            assert row["backend"] == kind
            assert row["pid"] is None
            assert row["alive"] == (kind != "process")
            assert row["endpoint"] == (
                endpoints[row["shard"]] if kind == "socket" else None
            )

    def test_unreplicated_fleet_status_still_answers(self, setup):
        rows = memory_sharded(setup).fleet_status()
        assert len(rows) == 2
        assert all(r["alive"] for r in rows)

    def test_validation(self, setup):
        data, quantizer = setup
        shards = [build_memory(data.base, quantizer)]
        with pytest.raises(ValueError, match="replicas"):
            ShardBackend(shards, replicas=0)
        with pytest.raises(ValueError, match="backend"):
            ShardBackend(shards, kind="carrier-pigeon")
        with pytest.raises(ValueError):
            memory_sharded(setup).set_replicas(0)

    def test_set_replicas_is_noop_when_unchanged(self, setup):
        sharded = memory_sharded(setup, replicas=2)
        backend = sharded._backend
        sharded.set_replicas(2)
        assert sharded._backend is backend

    def test_replicated_socket_fans_out_on_one_cpu(self, setup, monkeypatch):
        # Regression: the CPU cap applies to the thread kind only.  A
        # socket fleet on a 1-CPU host used to resolve to width 1 and
        # call its shards one after another; each worker here waits
        # for the other's request, so they only answer if both shard
        # calls are in flight at once.
        import repro.serving.backends as backends

        monkeypatch.setattr(backends.os, "sched_getaffinity", lambda pid: {0})
        data, _ = setup
        sharded = memory_sharded(setup)
        expected = search(sharded, data.queries, k=5, beam_width=16)
        barrier = threading.Barrier(2, timeout=10)

        class Rendezvous:
            def __init__(self, shard):
                self._shard = shard

            def search(self, request):
                barrier.wait()
                return self._shard.search(request)

        with contextlib.ExitStack() as stack:
            servers = [
                stack.enter_context(inproc_server(Rendezvous(shard)))
                for shard in sharded.shards
            ]
            sharded.set_backend(
                "socket", endpoints=[endpoint_of(s) for s in servers]
            )
            sharded.set_replicas(2)
            stack.callback(sharded.close)
            assert_results_identical(
                expected, search(sharded, data.queries, k=5, beam_width=16)
            )


class TestSpecAndPersistence:
    def test_sharding_spec_replicas_round_trip(self):
        spec = IndexSpec(
            sharding=ShardingSpec(num_shards=2, backend="process", replicas=3)
        )
        restored = IndexSpec.from_json(spec.to_json())
        assert restored.sharding.replicas == 3
        assert restored == spec

    def test_sharding_spec_rejects_unknown_keys(self):
        spec = IndexSpec(sharding=ShardingSpec(replicas=2))
        data = spec.to_dict()
        data["sharding"]["replcias"] = 2  # typo'd key must not pass
        with pytest.raises(ValueError, match="replcias"):
            IndexSpec.from_dict(data)

    def test_save_load_preserves_replicas(self, setup, tmp_path):
        data, _ = setup
        sharded = memory_sharded(setup, replicas=2)
        expected = search(sharded, data.queries, k=5, beam_width=16)
        save_index(sharded, tmp_path / "fleet")
        loaded = load_index(tmp_path / "fleet")
        assert loaded.replicas == 2
        assert loaded.backend == "thread"
        assert_results_identical(
            expected, search(loaded, data.queries, k=5, beam_width=16)
        )


class TestChaos:
    """SIGKILL a process worker mid-load.  With a sibling: zero failed
    requests, bitwise-identical answers.  Without: typed, loud
    failures, never a padded answer.  Either way the supervisor
    respawns the worker."""

    REQUESTS = 8

    def test_sigkill_mid_load_zero_failed_requests(self, setup):
        data, _ = setup
        sharded = memory_sharded(setup)
        expected = search(sharded, data.queries, k=10, beam_width=24)
        sharded.set_backend("process")
        sharded.set_replicas(2)
        try:
            # Warm the fleet so every replica is up before the kill.
            assert_results_identical(
                expected,
                search(sharded, data.queries, k=10, beam_width=24),
            )
            rows = sharded.fleet_status()
            victim = next(r["pid"] for r in rows if r["pid"] is not None)
            assert all(r["alive"] for r in rows)

            failed = 0
            for i in range(self.REQUESTS):
                if i == 1:
                    os.kill(victim, signal.SIGKILL)
                try:
                    result = search(sharded, data.queries, k=10, beam_width=24)
                except Exception:
                    failed += 1
                    continue
                assert_results_identical(expected, result)
            assert failed == 0

            rows = wait_for_respawn(sharded)
            assert victim not in {r["pid"] for r in rows}
            # The healed fleet still answers identically.
            assert_results_identical(
                expected,
                search(sharded, data.queries, k=10, beam_width=24),
            )
        finally:
            sharded.close()

    def test_sole_worker_sigkill_fails_loudly_then_readmits(self, setup):
        # replicas == 1: a shard with no sibling to fail over to fails
        # the request loudly; the supervisor is the one recovery path.
        data, _ = setup
        sharded = memory_sharded(setup, backend="process")
        try:
            good = search(sharded, data.queries, k=5, beam_width=16)
            victim = sharded.fleet_status()[0]["pid"]
            os.kill(victim, signal.SIGKILL)
            # The in-flight search, and the one after it (the worker
            # is not re-admitted yet), raise typed — a raise is the only
            # outcome, so shard 1's candidates can never be padded out
            # into an answer.
            for _ in range(2):
                with pytest.raises(RuntimeError, match="died") as info:
                    search(sharded, data.queries, k=5, beam_width=16)
                assert isinstance(info.value, ReplicaDied)
            rows = wait_for_respawn(sharded)
            assert rows[0]["restarts"] == 1 and rows[1]["restarts"] == 0
            assert victim not in {r["pid"] for r in rows}
            assert_results_identical(
                good, search(sharded, data.queries, k=5, beam_width=16)
            )
        finally:
            sharded.close()

    def test_total_replica_loss_pads_the_shard(self, setup):
        data, _ = setup
        sharded = memory_sharded(setup)
        backend = ShardBackend(sharded.shards, replicas=2, kind="thread")
        old = sharded._backend
        sharded._backend = backend
        old.close()
        try:
            search(sharded, data.queries, k=5, beam_width=16)
            # Kill every replica of shard 1 (thread replicas have no
            # supervisor to revive them): the shard contributes
            # nothing, the merge pads, no exception.
            with backend._fleet_lock:
                for replica in backend._fleet[1]:
                    replica.alive = False
            result = search(sharded, data.queries, k=5, beam_width=16)
            solo = search(
                ShardedIndex(
                    [sharded.shards[0]],
                    global_ids=[sharded._global_ids[0]],
                ),
                data.queries,
                k=5,
                beam_width=16,
            )
            np.testing.assert_array_equal(result.ids, solo.ids)
            # With *every* shard dead the request fails loudly.
            with backend._fleet_lock:
                for replica in backend._fleet[0]:
                    replica.alive = False
            with pytest.raises(RuntimeError, match="no replicas"):
                search(sharded, data.queries, k=5, beam_width=16)
        finally:
            sharded.close()

    def test_application_errors_do_not_fail_over(self, setup):
        data, _ = setup
        sharded = memory_sharded(setup, replicas=2)
        bad = data.queries[:, :-3]  # wrong dimensionality
        with pytest.raises(Exception) as info:
            search(sharded, bad, k=5, beam_width=16)
        assert not isinstance(info.value, ReplicaDied)
        # The replicas that raised are still healthy — the error was
        # the request's fault, not the worker's.
        assert all(r["alive"] for r in sharded.fleet_status())
        sharded.close()


# ----------------------------------------------------------------------
# Nightly lane: the replicas == 2 cells of the five-scenario matrix
# ----------------------------------------------------------------------


@pytest.mark.slow
class TestScenarioParityReplicated(ScenarioMatrix):
    """The ``replicas == 2`` cells: thread, process and socket fleets
    agree bitwise with the backend-free merge on all five scenarios."""

    CELLS = (("thread", 2), ("process", 2), ("socket", 2))

    def test_streaming_write_path_reaches_all_replicas(self, setup):
        check_write_path(setup, "process", 2)
