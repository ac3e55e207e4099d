"""Replicated shard fleets: routing, failover, chaos, and parity.

Replication must be invisible in the answers: which replica serves a
shard's call can never change a bit, because every replica of a shard
serves the exact same persisted state and the merge is unchanged.  The
full five-scenario replicated-vs-unreplicated matrix is ``slow`` (each
process fleet spawns ``shards x replicas`` workers); a memory-scenario
smoke plus the SIGKILL chaos gate stay in the fast lane so a failover
regression surfaces on every push.

The chaos assertions are correctness, not timing: a replica is killed
mid-load and every subsequent request must succeed bitwise-identically
(failover), then the supervisor must respawn the dead worker — polled
against a generous deadline, never a wall-clock window, so the test is
deterministic on a loaded 1-CPU CI runner.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro.api import IndexSpec, ShardingSpec, load_index, save_index
from repro.datasets import load
from repro.graphs import build_vamana
from repro.index import MemoryIndex, StreamingIndex
from repro.quantization import ProductQuantizer
from repro.serving import ReplicatedBackend, ShardedIndex
from repro.serving.replication import ReplicaDied

from .helpers import search

RESPAWN_DEADLINE_S = 60.0  # generous: polled, not a timing gate


@pytest.fixture(scope="module")
def setup():
    data = load("sift", n_base=160, n_queries=6, seed=5)
    quantizer = ProductQuantizer(8, 16, seed=0).fit(data.train)
    return data, quantizer


def build_memory(x, quantizer):
    return MemoryIndex(
        build_vamana(x, r=8, search_l=20, seed=0), quantizer, x
    )


# Engine-amortizer telemetry varies with cache/pool warmth across
# executions while the answers stay bitwise identical.
VOLATILE_COUNTERS = {"table_cache_hits", "workspace_reused"}


def assert_results_identical(a, b):
    np.testing.assert_array_equal(a.ids, b.ids)
    np.testing.assert_array_equal(a.distances, b.distances)
    np.testing.assert_array_equal(a.counts, b.counts)
    assert list(a.counters) == list(b.counters)
    for name in set(a.counters) - VOLATILE_COUNTERS:
        np.testing.assert_array_equal(
            a.counters[name], b.counters[name], err_msg=name
        )


def replicated_vs_unreplicated(sharded, run, inner, replicas=2):
    """Search unreplicated, then as a ``replicas``-wide fleet; compare."""
    assert sharded.replicas == 1
    expected = run(sharded)
    sharded.set_backend(inner)
    sharded.set_replicas(replicas)
    try:
        assert sharded.backend == inner
        assert sharded.replicas == replicas
        assert_results_identical(expected, run(sharded))
    finally:
        sharded.close()
        sharded.set_replicas(1)
        sharded.set_backend("thread")
    return expected


def wait_for_respawn(sharded, deadline_s=RESPAWN_DEADLINE_S):
    """Poll fleet_status until every replica is alive again and at
    least one restart happened; fail loudly past the deadline."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        rows = sharded.fleet_status()
        if all(r["alive"] for r in rows) and any(
            r["restarts"] > 0 for r in rows
        ):
            return rows
        time.sleep(0.1)
    pytest.fail(
        "supervisor did not respawn the killed replica within "
        f"{deadline_s:.0f}s: {sharded.fleet_status()}"
    )


# ----------------------------------------------------------------------
# Fast lane: smoke, introspection, validation, SIGKILL chaos gate
# ----------------------------------------------------------------------


class TestReplicationSmoke:
    def test_thread_replicas_identical_to_unreplicated(self, setup):
        data, quantizer = setup
        sharded = ShardedIndex.build(
            data.base, 2, lambda xs: build_memory(xs, quantizer)
        )
        replicated_vs_unreplicated(
            sharded,
            lambda idx: search(idx, data.queries, k=10, beam_width=24),
            inner="thread",
            replicas=3,
        )

    def test_constructor_replicas(self, setup):
        data, quantizer = setup
        sharded = ShardedIndex.build(
            data.base,
            2,
            lambda xs: build_memory(xs, quantizer),
            replicas=2,
        )
        assert sharded.replicas == 2
        assert sharded.backend == "thread"
        assert isinstance(sharded._backend, ReplicatedBackend)
        baseline = ShardedIndex.build(
            data.base, 2, lambda xs: build_memory(xs, quantizer)
        )
        assert_results_identical(
            search(baseline, data.queries, k=10, beam_width=24),
            search(sharded, data.queries, k=10, beam_width=24),
        )

    def test_fleet_status_shape_and_lazy_spawn(self, setup):
        data, quantizer = setup
        sharded = ShardedIndex.build(
            data.base,
            2,
            lambda xs: build_memory(xs, quantizer),
            replicas=2,
        )
        rows = sharded.fleet_status()
        assert len(rows) == 4  # 2 shards x 2 replicas, configured shape
        assert all(not r["alive"] for r in rows)  # fleet spawns lazily
        search(sharded, data.queries, k=5, beam_width=16)
        rows = sharded.fleet_status()
        assert {(r["shard"], r["replica"]) for r in rows} == {
            (s, r) for s in range(2) for r in range(2)
        }
        assert all(r["alive"] for r in rows)
        assert all(r["restarts"] == 0 for r in rows)
        assert all(r["in_flight"] == 0 for r in rows)
        assert all(r["backend"] == "thread" for r in rows)

    def test_unreplicated_fleet_status_still_answers(self, setup):
        data, quantizer = setup
        sharded = ShardedIndex.build(
            data.base, 2, lambda xs: build_memory(xs, quantizer)
        )
        rows = sharded.fleet_status()
        assert len(rows) == 2
        assert all(r["alive"] for r in rows)

    def test_validation(self, setup):
        data, quantizer = setup
        shards = [build_memory(data.base, quantizer)]
        with pytest.raises(ValueError, match="replicas"):
            ReplicatedBackend(shards, replicas=0)
        with pytest.raises(ValueError, match="backend"):
            ReplicatedBackend(shards, inner="carrier-pigeon")
        sharded = ShardedIndex.build(
            data.base, 2, lambda xs: build_memory(xs, quantizer)
        )
        with pytest.raises(ValueError):
            sharded.set_replicas(0)

    def test_set_replicas_is_noop_when_unchanged(self, setup):
        data, quantizer = setup
        sharded = ShardedIndex.build(
            data.base,
            2,
            lambda xs: build_memory(xs, quantizer),
            replicas=2,
        )
        backend = sharded._backend
        sharded.set_replicas(2)
        assert sharded._backend is backend


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
        data, quantizer = setup
        sharded = ShardedIndex.build(
            data.base,
            2,
            lambda xs: build_memory(xs, quantizer),
            replicas=2,
        )
        expected = search(sharded, data.queries, k=5, beam_width=16)
        save_index(sharded, tmp_path / "fleet")
        loaded = load_index(tmp_path / "fleet")
        assert loaded.replicas == 2
        assert loaded.backend == "thread"
        assert_results_identical(
            expected, search(loaded, data.queries, k=5, beam_width=16)
        )


class TestChaos:
    """SIGKILL a process replica mid-load: zero failed requests,
    answers stay bitwise identical, supervisor respawns the worker."""

    REQUESTS = 8

    def test_sigkill_mid_load_zero_failed_requests(self, setup):
        data, quantizer = setup
        sharded = ShardedIndex.build(
            data.base, 2, lambda xs: build_memory(xs, quantizer)
        )
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

    def test_total_replica_loss_pads_the_shard(self, setup):
        data, quantizer = setup
        sharded = ShardedIndex.build(
            data.base, 2, lambda xs: build_memory(xs, quantizer)
        )
        backend = ReplicatedBackend(
            sharded.shards, replicas=2, inner="thread"
        )
        old = sharded._backend
        sharded._backend = backend
        old.close()
        try:
            search(sharded, data.queries, k=5, beam_width=16)
            backend._ensure_fleet()
            # Kill every replica of shard 1 and block respawn: the
            # shard contributes nothing, the merge pads, no exception.
            with backend._fleet_lock:
                for replica in backend._fleet[1]:
                    replica.alive = False
                    replica.respawn_and_verify = lambda timeout: False
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
                    replica.respawn_and_verify = lambda timeout: False
            with pytest.raises(RuntimeError, match="no replicas"):
                search(sharded, data.queries, k=5, beam_width=16)
        finally:
            sharded.close()

    def test_application_errors_do_not_fail_over(self, setup):
        data, quantizer = setup
        sharded = ShardedIndex.build(
            data.base,
            2,
            lambda xs: build_memory(xs, quantizer),
            replicas=2,
        )
        bad = data.queries[:, :-3]  # wrong dimensionality
        with pytest.raises(Exception) as info:
            search(sharded, bad, k=5, beam_width=16)
        assert not isinstance(info.value, ReplicaDied)
        # The replicas that raised are still healthy — the error was
        # the request's fault, not the worker's.
        assert all(r["alive"] for r in sharded.fleet_status())
        sharded.close()


# ----------------------------------------------------------------------
# Nightly lane: full five-scenario parity matrix over process fleets
# ----------------------------------------------------------------------


@pytest.mark.slow
class TestScenarioParityReplicated:
    """Replicated process fleets agree bitwise with the unreplicated
    thread backend on all five scenarios."""

    def test_memory(self, setup):
        data, quantizer = setup
        sharded = ShardedIndex.build(
            data.base, 2, lambda xs: build_memory(xs, quantizer)
        )
        replicated_vs_unreplicated(
            sharded,
            lambda idx: search(idx, data.queries, k=10, beam_width=24),
            inner="process",
        )

    def test_hybrid(self, setup):
        from repro.index import DiskIndex

        data, quantizer = setup

        def factory(xs):
            graph = build_vamana(xs, r=8, search_l=20, seed=0)
            return DiskIndex(graph, quantizer, xs, io_width=2)

        sharded = ShardedIndex.build(data.base, 2, factory)
        replicated_vs_unreplicated(
            sharded,
            lambda idx: search(idx, data.queries, k=10, beam_width=24),
            inner="process",
        )

    def test_l2r(self, setup):
        from repro.index import L2RIndex

        data, quantizer = setup

        def factory(xs):
            graph = build_vamana(xs, r=8, search_l=20, seed=0)
            return L2RIndex(
                graph, quantizer, xs, rng=np.random.default_rng(0)
            )

        sharded = ShardedIndex.build(data.base, 2, factory)
        replicated_vs_unreplicated(
            sharded,
            lambda idx: search(idx, data.queries, k=10, beam_width=24),
            inner="process",
        )

    def test_filtered(self, setup):
        from repro.index import FilteredIndex

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
        replicated_vs_unreplicated(
            sharded,
            lambda idx: search(
                idx, data.queries, labels=qlabels, k=5, beam_width=16
            ),
            inner="process",
        )

    def test_streaming(self, setup):
        data, quantizer = setup
        dim = data.base.shape[1]
        sharded = ShardedIndex(
            [
                StreamingIndex(quantizer, dim=dim, r=8, search_l=20, seed=0)
                for _ in range(2)
            ]
        )
        sharded.insert_batch(data.base[:60])
        replicated_vs_unreplicated(
            sharded,
            lambda idx: search(idx, data.queries, k=5, beam_width=16),
            inner="process",
        )

    def test_streaming_write_path_reaches_all_replicas(self, setup):
        data, quantizer = setup
        dim = data.base.shape[1]
        twin = ShardedIndex(
            [
                StreamingIndex(quantizer, dim=dim, r=8, search_l=20, seed=0)
                for _ in range(2)
            ]
        )
        twin.insert_batch(data.base[:40])
        twin.insert_batch(data.base[40:80])
        expected = search(twin, data.queries, k=5, beam_width=16)

        sharded = ShardedIndex(
            [
                StreamingIndex(quantizer, dim=dim, r=8, search_l=20, seed=0)
                for _ in range(2)
            ]
        )
        sharded.insert_batch(data.base[:40])
        sharded.set_backend("process")
        sharded.set_replicas(2)
        try:
            search(sharded, data.queries, k=5, beam_width=16)
            # Mutate while the fleet is live: every replica of every
            # shard must serve the re-shipped state.
            sharded.insert_batch(data.base[40:80])
            for _ in range(4):  # rotate across replicas
                assert_results_identical(
                    expected,
                    search(sharded, data.queries, k=5, beam_width=16),
                )
        finally:
            sharded.close()
