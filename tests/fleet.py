"""Shared pieces of the shard-fleet suites: the one parity matrix.

``tests/test_shard_backends.py`` (``replicas == 1``) and
``tests/test_replication.py`` (``replicas == 2``) exercise the same
:class:`~repro.serving.backends.ShardBackend`; what they share lives
here so each scenario, the bitwise comparison and the write-path check
are defined once.  :class:`ScenarioMatrix` is the matrix itself — five
scenarios x the (kind, replicas) cells its subclass names — and each
cell is compared against a reference no backend touched: the shards'
own ``search`` answers pushed through the router's merge.  The process
and socket cells run the same worker (``LocalShardWorker``), on an
AF_UNIX socket and on TCP respectively.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time

import numpy as np
import pytest

from repro.api import SearchRequest, save_index
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
from repro.serving import ShardedIndex
from repro.serving.net import LocalShardWorker, ShardServer, ShardService

from .helpers import search

RESPAWN_DEADLINE_S = 60.0  # generous: polled, not a timing gate

#: Engine-amortizer telemetry: legitimately varies between executions
#: (pool state) while answers stay bitwise identical.
VOLATILE_COUNTERS = {"workspace_reused"}


def fleet_setup():
    """``(dataset, fitted quantizer)`` — the module fixture's body."""
    data = load("sift", n_base=160, n_queries=6, seed=5)
    return data, ProductQuantizer(8, 16, seed=0).fit(data.train)


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


def graph_of(x):
    return build_vamana(x, r=8, search_l=20, seed=0)


def build_memory(x, quantizer):
    return MemoryIndex(graph_of(x), quantizer, x)


def make_streaming(quantizer, dim):
    return StreamingIndex(quantizer, dim=dim, r=8, search_l=20)


def memory_sharded(setup, **kwargs):
    """The suites' workhorse: a 2-shard memory index."""
    data, quantizer = setup
    return ShardedIndex.build(
        data.base, 2, lambda xs: build_memory(xs, quantizer), **kwargs
    )


def streaming_sharded(setup, rows=0, **kwargs):
    data, quantizer = setup
    sharded = ShardedIndex(
        [make_streaming(quantizer, data.base.shape[1]) for _ in range(2)],
        **kwargs,
    )
    if rows:
        sharded.insert_batch(data.base[:rows])
    return sharded


def build_hybrid(x, quantizer):
    return DiskIndex(graph_of(x), quantizer, x, io_width=2)


def build_l2r(x, quantizer):
    return L2RIndex(graph_of(x), quantizer, x, rng=np.random.default_rng(0))


def scenario_case(setup, scenario):
    """``(2-shard thread index, request)`` for one of the five scenarios."""
    data, quantizer = setup
    if scenario == "streaming":
        return streaming_sharded(setup, rows=60), SearchRequest(
            data.queries, k=5, beam_width=16
        )
    if scenario == "filtered":

        def factory(xs, labels):
            return FilteredIndex(graph_of(xs), quantizer, xs, labels)

        sharded = ShardedIndex.build(
            data.base,
            2,
            factory,
            row_arrays={"labels": np.arange(data.base.shape[0]) % 3},
        )
        return sharded, SearchRequest(
            data.queries,
            k=5,
            beam_width=16,
            labels=np.arange(len(data.queries)) % 3,
        )
    build = {"memory": build_memory, "hybrid": build_hybrid, "l2r": build_l2r}
    sharded = ShardedIndex.build(
        data.base, 2, lambda xs: build[scenario](xs, quantizer)
    )
    return sharded, SearchRequest(data.queries, k=10, beam_width=24)


def check_write_path(setup, kind, replicas):
    """Mutations between searches re-ship state to every live replica:
    a ``kind`` x ``replicas`` fleet tracks an in-process twin bitwise."""
    data, _ = setup
    twin = streaming_sharded(setup)
    fleet = streaming_sharded(setup, backend=kind, replicas=replicas)
    try:
        # Routing is deterministic, so both route identically.
        assert twin.insert_batch(data.base[:40]) == fleet.insert_batch(
            data.base[:40]
        )
        assert_results_identical(
            search(twin, data.queries, k=5, beam_width=16),
            search(fleet, data.queries, k=5, beam_width=16),
        )
        # Workers are live now: further writes must invalidate and
        # re-ship the mutated shards before the next search.
        for index in (twin, fleet):
            index.insert_batch(data.base[40:80])
            index.delete(3)
        assert twin.consolidate() == fleet.consolidate()
        expected = search(twin, data.queries, k=8, beam_width=16)
        for _ in range(2 * replicas):  # rotate across replicas
            assert_results_identical(
                expected, search(fleet, data.queries, k=8, beam_width=16)
            )
    finally:
        fleet.close()


class ScenarioMatrix:
    """Five scenarios x ``CELLS``: every ``(kind, replicas)`` fleet
    answers bitwise like the backend-free merge of its shards."""

    CELLS: tuple = ()

    def check(self, setup, scenario, tmp_path):
        sharded, request = scenario_case(setup, scenario)
        expected = sharded._merge(
            [shard.search(request) for shard in sharded.shards], request.k
        )
        with contextlib.ExitStack() as stack:
            stack.callback(sharded.close)
            endpoints = None
            for kind, replicas in self.CELLS:
                if kind == "socket" and endpoints is None:
                    endpoints = serve_shards(stack, sharded, str(tmp_path))
                sharded.set_backend(
                    kind, endpoints if kind == "socket" else None
                )
                sharded.set_replicas(replicas)
                assert (sharded.backend, sharded.replicas) == (kind, replicas)
                assert_results_identical(expected, sharded.search(request))

    def test_memory(self, setup, tmp_path):
        self.check(setup, "memory", tmp_path)

    def test_hybrid(self, setup, tmp_path):
        self.check(setup, "hybrid", tmp_path)

    def test_l2r(self, setup, tmp_path):
        self.check(setup, "l2r", tmp_path)

    def test_filtered(self, setup, tmp_path):
        self.check(setup, "filtered", tmp_path)

    def test_streaming(self, setup, tmp_path):
        self.check(setup, "streaming", tmp_path)


def serve_shards(stack, sharded, dirpath):
    """Save ``sharded`` under ``dirpath`` and serve each shard from a
    TCP ``LocalShardWorker`` (stopped by ``stack``); returns the
    socket kind's endpoints, one per shard."""
    save_index(sharded, dirpath)
    return [
        stack.enter_context(
            LocalShardWorker(os.path.join(dirpath, f"shard_{s:03d}"))
        ).endpoint
        for s in range(len(sharded.shards))
    ]


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


def shard_threads():
    """Live fan-out pool threads (``repro-shard*``)."""
    return {
        t for t in threading.enumerate() if t.name.startswith("repro-shard")
    }


@contextlib.contextmanager
def inproc_server(index, dirpath=None, **server_kwargs):
    """An in-thread ``ShardServer`` (no subprocess) for transport tests."""
    server = ShardServer(
        ShardService(index, dirpath=dirpath), **server_kwargs
    )
    thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": 0.02},
        daemon=True,
    )
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def endpoint_of(server: ShardServer) -> str:
    host, port = server.address
    return f"{host}:{port}"
