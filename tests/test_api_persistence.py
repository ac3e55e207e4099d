"""Index persistence: save/load round-trips are bitwise identical.

Every scenario (plus a 4-shard ``ShardedIndex``) is saved, reloaded,
and pinned to answer the same :class:`~repro.api.SearchRequest` with
identical ids, distances, counts, and counters — the property that
makes the directory format safe to hand to another process (the
ROADMAP's process-backed shards).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import (
    DatasetSpec,
    GraphSpec,
    IndexSpec,
    QuantizerSpec,
    ScenarioSpec,
    SearchRequest,
    ShardingSpec,
    build,
    describe_index,
    load_index,
    save_index,
    saved_spec,
)
from repro.datasets import load
from repro.graphs import (
    build_hnsw,
    build_nsg,
    build_vamana,
    load_graph,
    save_graph,
)
from repro.index import MemoryIndex
from repro.quantization import ProductQuantizer
from repro.serving import ShardedIndex

pytestmark = pytest.mark.slow


def base_spec(**scenario) -> IndexSpec:
    return IndexSpec(
        dataset=DatasetSpec(name="sift", n_base=220, n_queries=6, seed=4),
        graph=GraphSpec(kind="vamana", params={"r": 8, "search_l": 16}),
        quantizer=QuantizerSpec(kind="pq", num_chunks=8, num_codewords=16),
        scenario=ScenarioSpec(**scenario) if scenario else ScenarioSpec(),
    )


@pytest.fixture(scope="module")
def queries():
    return load("sift", n_base=220, n_queries=6, seed=4).queries


def assert_responses_identical(a, b):
    np.testing.assert_array_equal(a.ids, b.ids)
    np.testing.assert_array_equal(a.distances, b.distances)
    np.testing.assert_array_equal(a.counts, b.counts)
    assert set(a.counters) == set(b.counters)
    for name in a.counters:
        np.testing.assert_array_equal(a.counters[name], b.counters[name])


# ----------------------------------------------------------------------
# Graph serialization
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["vamana", "hnsw", "nsg"])
def test_graph_round_trip_exact(tmp_path, kind):
    x = load("sift", n_base=150, n_queries=1, seed=2).base
    builders = {
        "vamana": lambda: build_vamana(x, r=8, search_l=16, seed=0),
        "hnsw": lambda: build_hnsw(x, m=6, ef_construction=24, seed=0),
        "nsg": lambda: build_nsg(x, knn_k=8, r=8, search_l=16, seed=0),
    }
    graph = builders[kind]()
    path = tmp_path / f"{kind}.npz"
    save_graph(graph, path)
    loaded = load_graph(path)
    assert type(loaded) is type(graph)
    assert loaded.entry_point == graph.entry_point
    assert loaded.name == graph.name
    assert len(loaded.adjacency) == len(graph.adjacency)
    for a, b in zip(loaded.adjacency, graph.adjacency):
        np.testing.assert_array_equal(a, b)
    if hasattr(graph, "upper_layers"):
        assert loaded.max_level == graph.max_level
        assert len(loaded.upper_layers) == len(graph.upper_layers)
        for la, lb in zip(loaded.upper_layers, graph.upper_layers):
            assert set(la) == set(lb)
            for v in la:
                np.testing.assert_array_equal(la[v], lb[v])


# ----------------------------------------------------------------------
# Per-scenario index round-trips
# ----------------------------------------------------------------------


SCENARIOS = [
    ("memory", {}),
    ("memory", {"distance_mode": "sdc"}),
    ("memory", {"storage_dtype": "float32"}),
    ("hybrid", {"io_width": 2}),
    ("hybrid", {"learned_routing": True, "l2r_seed": 3}),
    ("l2r", {"seed": 1}),
    ("streaming", {"r": 8, "search_l": 16}),
    ("filtered", {"num_labels": 3, "label_seed": 1}),
]


@pytest.mark.parametrize(
    "kind,params",
    SCENARIOS,
    ids=[
        f"{kind}-{'-'.join(map(str, params.values())) or 'default'}"
        for kind, params in SCENARIOS
    ],
)
def test_scenario_round_trip_bitwise(tmp_path, queries, kind, params):
    spec = base_spec(kind=kind, params=params)
    index = build(spec)
    request = SearchRequest(
        queries=queries,
        k=5,
        beam_width=16,
        labels=1 if kind == "filtered" else None,
    )
    live = index.search(request)
    save_index(index, tmp_path)
    loaded = load_index(tmp_path)
    assert type(loaded) is type(index)
    assert loaded.spec == spec
    assert_responses_identical(live, loaded.search(request))


def test_sharded_round_trip_bitwise(tmp_path, queries):
    spec = base_spec()
    spec = IndexSpec(
        dataset=spec.dataset,
        graph=spec.graph,
        quantizer=spec.quantizer,
        sharding=ShardingSpec(num_shards=4),
    )
    index = build(spec)
    request = SearchRequest(queries=queries, k=5, beam_width=16)
    live = index.search(request)
    save_index(index, tmp_path)
    loaded = load_index(tmp_path)
    assert isinstance(loaded, ShardedIndex)
    assert loaded.num_shards == 4
    assert loaded.shard_sizes() == index.shard_sizes()
    assert loaded.spec == spec
    assert_responses_identical(live, loaded.search(request))


def test_sharded_round_trip_preserves_backend(tmp_path, queries):
    spec = base_spec()
    spec = IndexSpec(
        dataset=spec.dataset,
        graph=spec.graph,
        quantizer=spec.quantizer,
        sharding=ShardingSpec(num_shards=2, backend="process"),
    )
    index = build(spec)
    assert index.backend == "process"
    request = SearchRequest(queries=queries, k=5, beam_width=16)
    live = index.search(request)
    save_index(index, tmp_path)
    index.close()
    loaded = load_index(tmp_path)
    assert isinstance(loaded, ShardedIndex)
    assert loaded.backend == "process"
    assert loaded.spec == spec
    assert_responses_identical(live, loaded.search(request))
    # The loaded index can flip back to the thread backend in place.
    loaded.set_backend("thread")
    assert_responses_identical(live, loaded.search(request))
    loaded.close()


def test_streaming_round_trip_preserves_write_path(tmp_path, queries):
    spec = base_spec(kind="streaming", params={"r": 8, "search_l": 16})
    index = build(spec)
    index.delete(3)
    save_index(index, tmp_path)
    loaded = load_index(tmp_path)
    assert loaded.num_deleted == 1
    # Inserts continue identically on both sides (same graph state).
    a = index.insert_batch(queries[:2])
    b = loaded.insert_batch(queries[:2])
    assert a == b
    request = SearchRequest(queries=queries, k=5, beam_width=16)
    assert_responses_identical(index.search(request), loaded.search(request))
    assert index.consolidate() == loaded.consolidate()


def test_empty_streaming_round_trip_stays_empty(tmp_path, queries):
    from repro.index import FreshVamanaIndex

    data = load("sift", n_base=150, n_queries=2, seed=1)
    quantizer = ProductQuantizer(8, 16, seed=0).fit(data.train)
    index = FreshVamanaIndex(quantizer, dim=data.dim, r=8, search_l=16)
    save_index(index, tmp_path)
    loaded = load_index(tmp_path)
    assert loaded.num_vertices == 0
    assert loaded._adjacency == []
    # Inserting into the loaded empty index matches the live one.
    a = index.insert_batch(data.base[:20])
    b = loaded.insert_batch(data.base[:20])
    assert a == b
    assert index._adjacency == loaded._adjacency
    request = SearchRequest(queries=queries, k=5, beam_width=16)
    assert_responses_identical(index.search(request), loaded.search(request))


def test_streaming_sharded_insert_routing_survives(tmp_path, queries):
    spec = base_spec(kind="streaming", params={"r": 8, "search_l": 16})
    spec = IndexSpec(
        dataset=spec.dataset,
        graph=spec.graph,
        quantizer=spec.quantizer,
        scenario=spec.scenario,
        sharding=ShardingSpec(num_shards=3),
    )
    index = build(spec)
    save_index(index, tmp_path)
    loaded = load_index(tmp_path)
    # Global id allocation picks up where the saved index left off.
    assert loaded.insert_batch(queries[:3]) == index.insert_batch(queries[:3])


# ----------------------------------------------------------------------
# Directory metadata
# ----------------------------------------------------------------------


def test_hand_built_index_gets_synthesized_spec(tmp_path, queries):
    data = load("sift", n_base=220, n_queries=6, seed=4)
    quantizer = ProductQuantizer(8, 16, seed=0).fit(data.train)
    graph = build_vamana(data.base, r=8, search_l=16, seed=0)
    index = MemoryIndex(graph, quantizer, data.base)
    save_index(index, tmp_path)
    spec = saved_spec(tmp_path)
    assert spec is not None and spec.scenario.kind == "memory"
    loaded = load_index(tmp_path)
    request = SearchRequest(queries=queries, k=5, beam_width=16)
    assert_responses_identical(index.search(request), loaded.search(request))


def test_describe_index(tmp_path):
    index = build(base_spec())
    save_index(index, tmp_path)
    meta = describe_index(tmp_path)
    assert meta["scenario"] == "memory"
    assert meta["format_version"] == 1
    assert meta["state"]["distance_mode"] == "adc"


def test_load_rejects_non_index_directory(tmp_path):
    with pytest.raises(FileNotFoundError, match="index directory"):
        load_index(tmp_path)


def test_load_rejects_future_format(tmp_path):
    import json

    index = build(base_spec())
    save_index(index, tmp_path)
    meta_path = tmp_path / "index.json"
    meta = json.loads(meta_path.read_text())
    meta["format_version"] = 99
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="format version"):
        load_index(tmp_path)


def test_custom_table_transform_refuses_to_persist(tmp_path):
    data = load("sift", n_base=150, n_queries=2, seed=1)
    quantizer = ProductQuantizer(8, 16, seed=0).fit(data.train)
    graph = build_vamana(data.base, r=8, search_l=16, seed=0)
    from repro.index import DiskIndex

    index = DiskIndex(
        graph, quantizer, data.base, table_transform=lambda t: t
    )
    with pytest.raises(ValueError, match="custom table"):
        save_index(index, tmp_path)
