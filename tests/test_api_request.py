"""The typed request/response surface: one schema on every scenario
and every serving surface (sharded fan-out, batcher, shard wire,
gateway).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import SearchRequest, SearchResponse, save_index
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
from repro.serving import DynamicBatcher, ShardedIndex, partition_rows
from repro.serving.net import (
    GatewayThread,
    LocalShardWorker,
    NetClient,
    ShardClient,
)


@pytest.fixture(scope="module")
def setup():
    data = load("sift", n_base=240, n_queries=8, seed=5)
    quantizer = ProductQuantizer(8, 16, seed=0).fit(data.train)
    graph = build_vamana(data.base, r=8, search_l=20, seed=0)
    return data, quantizer, graph


def build_all(setup):
    data, quantizer, graph = setup
    x = data.base
    streaming = StreamingIndex(quantizer, dim=x.shape[1], r=8, search_l=20)
    streaming.insert_batch(x)
    labels = np.arange(x.shape[0]) % 3
    return {
        "memory": MemoryIndex(graph, quantizer, x),
        "hybrid": DiskIndex(graph, quantizer, x, io_width=2),
        "l2r": L2RIndex(graph, quantizer, x, rng=np.random.default_rng(0)),
        "streaming": streaming,
        "filtered": FilteredIndex(graph, quantizer, x, labels),
    }


# Engine-amortizer telemetry (cache/pool warmth) varies between the
# two executions being compared; answers stay bitwise identical.
VOLATILE_COUNTERS = {"workspace_reused"}


# ----------------------------------------------------------------------
# Request validation
# ----------------------------------------------------------------------


def test_request_normalizes_queries():
    request = SearchRequest(queries=np.zeros(16))
    assert request.query_matrix.shape == (1, 16)
    assert request.num_queries == 1


def test_request_rejects_bad_shapes_and_params():
    with pytest.raises(ValueError, match="queries"):
        SearchRequest(queries=np.zeros((2, 3, 4)))
    with pytest.raises(ValueError, match="k"):
        SearchRequest(queries=np.zeros(4), k=0)
    with pytest.raises(ValueError, match="beam_width"):
        SearchRequest(queries=np.zeros(4), beam_width=0)


def test_request_rejects_non_finite_queries():
    # NaN distances poison every downstream comparison (the sharded
    # merge's tie selection breaks with an opaque reshape error), so
    # the typed boundary rejects them with a clear message.
    bad = np.zeros((3, 4))
    bad[1, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        SearchRequest(queries=bad)
    with pytest.raises(ValueError, match=r"row\(s\) \[1\]"):
        SearchRequest(queries=bad)
    with pytest.raises(ValueError, match="non-finite"):
        SearchRequest(queries=np.array([0.0, np.inf, 1.0]))


def test_request_rejects_scalar_queries():
    # A 0-dim scalar used to slip through, become a (1, 1) matrix via
    # atleast_2d, and fail much later with a confusing dim mismatch.
    with pytest.raises(ValueError, match="queries"):
        SearchRequest(queries=np.float64(3.0))
    with pytest.raises(ValueError, match="queries"):
        SearchRequest(queries=3.0)


def test_response_row_helpers():
    response = SearchResponse(
        ids=np.array([[3, 5, -1]]),
        distances=np.array([[0.5, 1.0, np.inf]]),
        counts=np.array([2]),
        counters={"hops": np.array([7])},
    )
    np.testing.assert_array_equal(response.row_ids(0), [3, 5])
    np.testing.assert_array_equal(response.row_distances(0), [0.5, 1.0])
    assert response.total("hops") == 7.0
    assert [list(ids) for ids in response] == [[3, 5]]


# ----------------------------------------------------------------------
# One schema, every surface
# ----------------------------------------------------------------------

BASE_COUNTERS = {
    "hops",
    "distance_computations",
    "workspace_reused",
}
SCENARIO_COUNTERS = {
    "memory": BASE_COUNTERS,
    "l2r": BASE_COUNTERS,
    "streaming": BASE_COUNTERS,
    "hybrid": BASE_COUNTERS | {"io_rounds", "page_reads", "simulated_io_us"},
    "filtered": BASE_COUNTERS | {"beam_widths_used"},
}
BATCHER_STAMPS = {
    "batcher_enqueue_s",
    "batcher_dequeue_s",
    "batcher_complete_s",
}
SCENARIOS = ("memory", "hybrid", "l2r", "streaming", "filtered")
# The process/socket surfaces spawn workers; they run on the scenario
# with the float counter and the one with the max-merged counter.
WIRE_SCENARIOS = ("hybrid", "filtered")
SURFACE_CASES = (
    [(surface, name) for surface in ("direct", "sharded-thread", "batcher")
     for name in SCENARIOS]
    + [(surface, name)
       for surface in ("sharded-process", "shard-client", "net-client")
       for name in WIRE_SCENARIOS]
)


def build_scenario(name, x, quantizer):
    graph = build_vamana(x, r=8, search_l=20, seed=0)
    if name == "memory":
        return MemoryIndex(graph, quantizer, x)
    if name == "hybrid":
        return DiskIndex(graph, quantizer, x, io_width=2)
    if name == "l2r":
        return L2RIndex(graph, quantizer, x, rng=np.random.default_rng(0))
    if name == "filtered":
        return FilteredIndex(graph, quantizer, x, np.arange(x.shape[0]) % 3)
    streaming = StreamingIndex(quantizer, dim=x.shape[1], r=8, search_l=20)
    streaming.insert_batch(x)
    return streaming


@pytest.fixture(scope="module")
def surfaces(setup, tmp_path_factory):
    """``get(surface, scenario) -> (searchable, shards)``, each built
    once per module (worker spawns are shared by every batch size) and
    torn down together."""
    data, quantizer, _ = setup
    x = data.base
    parts = partition_rows(x.shape[0], 2)
    cache, closers = {}, []

    def cached(key, build):
        if key not in cache:
            cache[key] = build()
        return cache[key]

    def full(name):
        return cached(
            ("full", name), lambda: build_scenario(name, x, quantizer)
        )

    def sharded(name, backend):
        shards = cached(
            ("shards", name),
            lambda: [build_scenario(name, x[idx], quantizer) for idx in parts],
        )
        index = ShardedIndex(shards, global_ids=parts, backend=backend)
        closers.append(index.close)
        return index, shards

    def worker_for(name):
        dirpath = str(tmp_path_factory.mktemp(f"schema-{name}"))
        save_index(full(name), dirpath)
        worker = LocalShardWorker(dirpath)
        closers.append(worker.stop)
        return worker

    def make(surface, name):
        if surface == "direct":
            return full(name), None
        if surface.startswith("sharded-"):
            return sharded(name, surface.split("-")[1])
        if surface == "batcher":
            batcher = DynamicBatcher(
                full(name),
                k=5,
                beam_width=16,
                max_batch_size=4,
                search_kwargs={"labels": 1} if name == "filtered" else None,
            )
            closers.append(batcher.close)
            return batcher, None
        worker = cached(("worker", name), lambda: worker_for(name))
        if surface == "shard-client":
            client = ShardClient(worker.endpoint)
            closers.append(client.close)
            return client, None
        routed = ShardedIndex(
            [full(name)],
            global_ids=[np.arange(x.shape[0])],
            backend="socket",
            endpoints=[worker.endpoint],
        )
        gateway = GatewayThread(routed)
        client = NetClient(gateway.connect)
        closers.extend([routed.close, gateway.close, client.close])
        return client, None

    yield lambda surface, name: cached(
        (surface, name), lambda: make(surface, name)
    )
    for close in reversed(closers):
        close()


@pytest.mark.parametrize("b", [0, 1, 7])
@pytest.mark.parametrize("surface,name", SURFACE_CASES)
def test_one_schema_on_every_surface(setup, surfaces, surface, name, b):
    data, _, _ = setup
    k = 5
    searchable, shards = surfaces(surface, name)
    labels = None
    if name == "filtered" and surface != "batcher":
        # Label 7 is absent: that row must come back all padding.
        labels = np.array([0, 1, 2, 7, 0, 1, 2, 0])[:b]
    request = SearchRequest(data.queries[:b], k, 16, labels=labels)
    response = searchable.search(request)

    assert response.ids.dtype == np.int64 and response.ids.shape == (b, k)
    assert response.distances.dtype == np.float64
    assert response.distances.shape == (b, k)
    assert response.counts.dtype == np.int64 and response.counts.shape == (b,)
    past = np.arange(k)[None, :] >= response.counts[:, None]
    assert (response.ids[past] == -1).all()
    assert np.isinf(response.distances[past]).all()
    assert (response.ids[~past] >= 0).all()
    assert np.isfinite(response.distances[~past]).all()
    if labels is not None and b > 3:
        assert response.counts[3] == 0

    expected = set(SCENARIO_COUNTERS[name])
    if surface == "batcher" or (surface == "net-client" and labels is None):
        expected |= BATCHER_STAMPS  # label-free requests ride the batcher
    assert set(response.counters) == expected
    for counter, values in response.counters.items():
        assert isinstance(values, np.ndarray), counter
        assert values.shape == (b,), counter
        floating = counter == "simulated_io_us" or counter in BATCHER_STAMPS
        assert values.dtype == (np.float64 if floating else np.int64), counter

    if shards is not None:
        # Merged by max for the escalated beam, by sum for the rest.
        per_shard = [shard.search(request).counters for shard in shards]
        for counter in expected - VOLATILE_COUNTERS:
            values = [c[counter] for c in per_shard]
            merged = (
                np.maximum.reduce(values)
                if counter == "beam_widths_used"
                else np.sum(values, axis=0)
            )
            np.testing.assert_array_equal(
                response.counters[counter], merged, err_msg=counter
            )


def test_request_through_batcher_matches_direct(setup):
    data, quantizer, graph = setup
    index = MemoryIndex(graph, quantizer, data.base)
    request = SearchRequest(queries=data.queries, k=5, beam_width=16)
    direct = index.search(request)
    with DynamicBatcher(index, k=5, beam_width=16, max_batch_size=4) as b:
        served = b.search(request)
    np.testing.assert_array_equal(served.ids, direct.ids)
    np.testing.assert_array_equal(served.distances, direct.distances)
    np.testing.assert_array_equal(served.counts, direct.counts)
    np.testing.assert_array_equal(served.hops, direct.hops)


def test_batcher_filtered_counters_use_uniform_names(setup):
    data, quantizer, graph = setup
    labels = np.arange(data.base.shape[0]) % 3
    index = FilteredIndex(graph, quantizer, data.base, labels)
    request = SearchRequest(
        queries=data.queries, k=5, beam_width=16, labels=1
    )
    direct = index.search(request)
    with DynamicBatcher(
        index, k=5, beam_width=16, search_kwargs={"labels": 1}
    ) as b:
        served = b.search(
            SearchRequest(queries=data.queries, k=5, beam_width=16)
        )
    # Scenario counters keep uniform names; the batcher additionally
    # stamps its per-request timeline (enqueue/dequeue/complete) so
    # queue wait is separable from kernel time downstream.
    timeline = {
        "batcher_enqueue_s",
        "batcher_dequeue_s",
        "batcher_complete_s",
    }
    assert set(served.counters) == set(direct.counters) | timeline
    np.testing.assert_array_equal(
        served.counters["beam_widths_used"],
        direct.counters["beam_widths_used"],
    )


def test_batcher_rejects_mismatched_request(setup):
    data, quantizer, graph = setup
    index = MemoryIndex(graph, quantizer, data.base)
    with DynamicBatcher(index, k=5, beam_width=16) as b:
        with pytest.raises(ValueError, match="fixed"):
            b.search(SearchRequest(queries=data.queries, k=7, beam_width=16))
        with pytest.raises(ValueError, match="labels"):
            b.search(
                SearchRequest(
                    queries=data.queries, k=5, beam_width=16, labels=1
                )
            )


# ----------------------------------------------------------------------
# Label uniformity (the old filtered-search asymmetry)
# ----------------------------------------------------------------------


def test_labels_on_non_filtered_index_raise_value_error(setup):
    data, _, _ = setup
    indexes = build_all(setup)
    request = SearchRequest(queries=data.queries, labels=1)
    for name in ("memory", "hybrid", "l2r", "streaming"):
        with pytest.raises(ValueError, match="not a filtered"):
            indexes[name].search(request)


def test_max_beam_width_on_non_filtered_raises_value_error(setup):
    data, _, _ = setup
    index = build_all(setup)["memory"]
    with pytest.raises(ValueError, match="max_beam_width"):
        index.search(
            SearchRequest(queries=data.queries, max_beam_width=64)
        )


def test_filtered_without_labels_raises_value_error(setup):
    data, _, _ = setup
    index = build_all(setup)["filtered"]
    with pytest.raises(ValueError, match="requires request.labels"):
        index.search(SearchRequest(queries=data.queries))


def test_labels_on_non_filtered_sharded_raise_value_error(setup):
    data, quantizer, _ = setup
    x = data.base
    parts = partition_rows(x.shape[0], 2)
    sharded = ShardedIndex(
        [
            MemoryIndex(
                build_vamana(x[idx], r=8, search_l=20, seed=0),
                quantizer,
                x[idx],
            )
            for idx in parts
        ],
        global_ids=parts,
    )
    with pytest.raises(ValueError, match="filtered"):
        sharded.search(SearchRequest(queries=data.queries, labels=1))


def test_max_beam_width_passes_through(setup):
    data, _, _ = setup
    index = build_all(setup)["filtered"]
    request = SearchRequest(
        queries=data.queries, k=5, beam_width=8, labels=2, max_beam_width=64
    )
    assert index.search(request).counters["beam_widths_used"].max() <= 64


# ----------------------------------------------------------------------
# B=0 requests: the empty batch flows through every typed surface
# ----------------------------------------------------------------------


def empty_request(dim, k=5):
    return SearchRequest(queries=np.empty((0, dim)), k=k, beam_width=16)


def test_empty_request_on_plain_index(setup):
    data, quantizer, graph = setup
    index = MemoryIndex(graph, quantizer, data.base)
    response = index.search(empty_request(data.base.shape[1]))
    assert response.num_queries == 0
    assert response.ids.shape == (0, 5)
    assert response.distances.shape == (0, 5)
    assert response.counts.shape == (0,)
    assert response.hops.shape == (0,)


def test_empty_request_on_sharded_index(setup):
    data, quantizer, _ = setup
    x = data.base
    parts = partition_rows(x.shape[0], 3)
    sharded = ShardedIndex(
        [
            MemoryIndex(
                build_vamana(x[idx], r=8, search_l=20, seed=0),
                quantizer,
                x[idx],
            )
            for idx in parts
        ],
        global_ids=parts,
    )
    response = sharded.search(empty_request(x.shape[1]))
    assert response.num_queries == 0
    assert response.ids.shape == (0, 5)
    assert response.counts.shape == (0,)
    assert response.hops.shape == (0,)


def test_empty_request_through_batcher(setup):
    data, quantizer, graph = setup
    index = MemoryIndex(graph, quantizer, data.base)
    with DynamicBatcher(index, k=5, beam_width=16, max_batch_size=4) as b:
        response = b.search(empty_request(data.base.shape[1]))
    assert response.num_queries == 0
    assert response.ids.shape == (0, 5)
    assert response.distances.shape == (0, 5)
    assert response.counts.shape == (0,)
