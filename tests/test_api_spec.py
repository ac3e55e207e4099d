"""IndexSpec round-trips, the scenario registry, and build() wiring."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import (
    DatasetSpec,
    GraphSpec,
    IndexSpec,
    QuantizerSpec,
    ScenarioSpec,
    ShardingSpec,
    build,
    get_scenario,
    scenario_for_index,
    scenario_names,
)
from repro.datasets import load
from repro.graphs import build_vamana
from repro.index import (
    DiskIndex,
    FilteredIndex,
    FreshVamanaIndex,
    L2RIndex,
    MemoryIndex,
)
from repro.quantization import ProductQuantizer
from repro.serving import ShardedIndex

from .helpers import search


def full_spec() -> IndexSpec:
    return IndexSpec(
        dataset=DatasetSpec(name="deep", n_base=500, n_queries=12, seed=3),
        graph=GraphSpec(kind="hnsw", seed=1, params={"m": 6}),
        quantizer=QuantizerSpec(
            kind="opq", num_chunks=4, num_codewords=16, seed=2,
            params={"opq_iter": 3},
        ),
        scenario=ScenarioSpec(kind="hybrid", params={"io_width": 2}),
        sharding=ShardingSpec(
            num_shards=3, strategy="round_robin", backend="process"
        ),
    )


# ----------------------------------------------------------------------
# Spec round-trips
# ----------------------------------------------------------------------


def test_dict_round_trip():
    spec = full_spec()
    assert IndexSpec.from_dict(spec.to_dict()) == spec


def test_json_round_trip():
    spec = full_spec()
    assert IndexSpec.from_json(spec.to_json()) == spec


def test_default_spec_round_trips():
    assert IndexSpec.from_dict(IndexSpec().to_dict()) == IndexSpec()


def test_partial_dict_fills_defaults():
    spec = IndexSpec.from_dict({"scenario": {"kind": "memory"}})
    assert spec == IndexSpec()


def test_sharding_backend_round_trips():
    spec = IndexSpec(sharding=ShardingSpec(num_shards=2, backend="process"))
    payload = spec.to_dict()
    assert payload["sharding"]["backend"] == "process"
    assert IndexSpec.from_dict(payload) == spec
    # Default stays "thread" and a backend typo is an unknown key.
    assert IndexSpec.from_dict({}).sharding.backend == "thread"
    with pytest.raises(ValueError, match="unknown keys"):
        IndexSpec.from_dict({"sharding": {"backned": "process"}})


def test_build_rejects_unknown_backend():
    data = load("sift", n_base=60, n_queries=2, seed=0).base
    quantizer = ProductQuantizer(8, 8, seed=0).fit(data)
    # Sharded and unsharded alike: a typo'd backend value fails loudly
    # up front (before any graph builds), matching the unknown-key
    # contract of the spec layer.
    for num_shards in (1, 2):
        spec = IndexSpec(
            sharding=ShardingSpec(num_shards=num_shards, backend="proces")
        )
        with pytest.raises(ValueError, match="unknown shard backend"):
            build(spec, data=data, quantizer=quantizer)


def test_unknown_section_rejected():
    with pytest.raises(ValueError, match="unknown spec section"):
        IndexSpec.from_dict({"scenraio": {"kind": "memory"}})


def test_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown keys"):
        IndexSpec.from_dict({"graph": {"knid": "hnsw"}})


def test_future_format_version_rejected():
    payload = IndexSpec().to_dict()
    payload["format_version"] = 999
    with pytest.raises(ValueError, match="format version"):
        IndexSpec.from_dict(payload)


def test_to_dict_is_json_plain():
    import json

    json.dumps(full_spec().to_dict())  # no numpy or custom types


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


def test_builtin_scenarios_registered():
    assert scenario_names() == [
        "filtered",
        "hybrid",
        "l2r",
        "memory",
        "streaming",
    ]


def test_get_scenario_unknown():
    with pytest.raises(KeyError, match="unknown scenario"):
        get_scenario("nope")


def test_supports_labels_flags():
    assert get_scenario("filtered").supports_labels
    assert not get_scenario("memory").supports_labels


@pytest.fixture(scope="module")
def setup():
    data = load("sift", n_base=220, n_queries=6, seed=4)
    quantizer = ProductQuantizer(8, 16, seed=0).fit(data.train)
    graph = build_vamana(data.base, r=8, search_l=20, seed=0)
    return data, quantizer, graph


def test_scenario_for_index_most_derived(setup):
    data, quantizer, graph = setup
    l2r = L2RIndex(graph, quantizer, data.base, rng=np.random.default_rng(0))
    assert scenario_for_index(l2r) is L2RIndex
    assert scenario_for_index(MemoryIndex(graph, quantizer, data.base)) is MemoryIndex

    class Unregistered(L2RIndex):  # persists as its nearest registered base
        pass

    assert scenario_for_index(object.__new__(Unregistered)) is L2RIndex


class _Source(dict):
    """What ``load_arrays`` reads from: name -> array, plus ``mapped``."""

    mapped = False


@pytest.mark.parametrize("name", scenario_names())
def test_scenario_contract(setup, name):
    """A scenario is one class: its own registry entry, buildable from a
    spec, and its own exact state codec."""
    data, quantizer, graph = setup
    index_cls = get_scenario(name)
    assert index_cls.scenario == name
    spec = IndexSpec(scenario=ScenarioSpec(kind=name))
    index = build(spec, data=data.base, graph=graph, quantizer=quantizer)
    assert type(index) is index_cls
    assert scenario_for_index(index) is index_cls

    meta, arrays = index.export_arrays()
    assert "codes" in arrays  # what storage_report counts vectors by
    loaded = index_cls.load_arrays(
        meta, _Source(arrays), graph if index_cls.needs_graph else None, quantizer
    )
    assert type(loaded) is index_cls
    meta_again, arrays_again = loaded.export_arrays()
    assert meta_again == meta
    assert list(arrays_again) == list(arrays)
    for key, array in arrays.items():
        assert arrays_again[key].dtype == array.dtype, key
        np.testing.assert_array_equal(arrays_again[key], array, err_msg=key)

    with pytest.raises(ValueError, match="unknown scenario params"):
        index_cls.validate_params({"no_such_param": 1})


def test_scenario_for_index_unknown_type():
    with pytest.raises(TypeError, match="registered"):
        scenario_for_index(object())


# ----------------------------------------------------------------------
# build()
# ----------------------------------------------------------------------


def scenario_spec_matrix():
    return [
        ("memory", {}, MemoryIndex),
        ("hybrid", {"io_width": 2}, DiskIndex),
        ("l2r", {"seed": 1}, L2RIndex),
        ("streaming", {"r": 8, "search_l": 16}, FreshVamanaIndex),
        ("filtered", {"num_labels": 3}, FilteredIndex),
    ]


@pytest.mark.parametrize(
    "kind,params,index_cls",
    scenario_spec_matrix(),
    ids=[row[0] for row in scenario_spec_matrix()],
)
def test_build_each_scenario_from_spec_alone(kind, params, index_cls):
    spec = IndexSpec(
        dataset=DatasetSpec(name="sift", n_base=200, n_queries=5, seed=0),
        graph=GraphSpec(kind="vamana", params={"r": 8, "search_l": 16}),
        quantizer=QuantizerSpec(kind="pq", num_chunks=8, num_codewords=16),
        scenario=ScenarioSpec(kind=kind, params=params),
    )
    # Round through JSON so this pins "constructible from a JSON spec".
    index = build(IndexSpec.from_json(spec.to_json()))
    assert isinstance(index, index_cls)
    assert index.spec == spec


def test_build_sharded_from_spec_alone():
    spec = IndexSpec(
        dataset=DatasetSpec(name="sift", n_base=200, n_queries=5, seed=0),
        graph=GraphSpec(kind="vamana", params={"r": 8, "search_l": 16}),
        quantizer=QuantizerSpec(kind="pq", num_chunks=8, num_codewords=16),
        sharding=ShardingSpec(num_shards=4),
    )
    index = build(IndexSpec.from_json(spec.to_json()))
    assert isinstance(index, ShardedIndex)
    assert index.num_shards == 4
    assert index.num_vertices == 200
    assert index.spec == spec


def test_build_with_overrides_matches_direct_construction(setup):
    data, quantizer, graph = setup
    spec = IndexSpec(scenario=ScenarioSpec(kind="memory"))
    index = build(spec, data=data.base, graph=graph, quantizer=quantizer)
    direct = MemoryIndex(graph, quantizer, data.base)
    got = search(index, data.queries, k=5, beam_width=16)
    want = search(direct, data.queries, k=5, beam_width=16)
    np.testing.assert_array_equal(got.ids, want.ids)
    np.testing.assert_array_equal(got.distances, want.distances)


def test_build_rejects_single_graph_for_sharded(setup):
    data, quantizer, graph = setup
    spec = IndexSpec(sharding=ShardingSpec(num_shards=2))
    with pytest.raises(ValueError, match="shard_graphs"):
        build(spec, data=data.base, graph=graph, quantizer=quantizer)


def test_build_unknown_graph_kind(setup):
    data, quantizer, _ = setup
    spec = IndexSpec(graph=GraphSpec(kind="delaunay"))
    with pytest.raises(KeyError, match="unknown graph kind"):
        build(spec, data=data.base, quantizer=quantizer)


def test_build_unknown_quantizer_kind(setup):
    data, _, graph = setup
    spec = IndexSpec(quantizer=QuantizerSpec(kind="vq"))
    with pytest.raises(KeyError, match="unknown quantizer kind"):
        build(spec, data=data.base, graph=graph)


def test_build_fits_quantizer_when_not_supplied(setup):
    data, _, graph = setup
    spec = IndexSpec(
        quantizer=QuantizerSpec(kind="pq", num_chunks=8, num_codewords=16)
    )
    index = build(spec, data=data.base, graph=graph)
    reference = ProductQuantizer(8, 16, seed=0).fit(data.base)
    np.testing.assert_array_equal(
        index.codes, reference.encode(data.base)
    )


def test_filtered_labels_generated_from_spec(setup):
    data, quantizer, graph = setup
    spec = IndexSpec(
        scenario=ScenarioSpec(
            kind="filtered", params={"num_labels": 3, "label_seed": 7}
        )
    )
    a = build(spec, data=data.base, graph=graph, quantizer=quantizer)
    b = build(spec, data=data.base, graph=graph, quantizer=quantizer)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert set(np.unique(a.labels)) <= {0, 1, 2}


def test_rpq_quantizer_with_graph_free_scenario():
    # streaming has needs_graph=False, but RPQ still trains against a
    # graph over the dataset — the unsharded path must build one.
    spec = IndexSpec(
        dataset=DatasetSpec(name="sift", n_base=150, n_queries=4, seed=0),
        graph=GraphSpec(kind="vamana", params={"r": 8, "search_l": 16}),
        quantizer=QuantizerSpec(
            kind="rpq",
            num_chunks=8,
            num_codewords=8,
            params={
                "epochs": 1,
                "num_triplets": 32,
                "num_queries": 4,
                "records_per_query": 3,
            },
        ),
        scenario=ScenarioSpec(
            kind="streaming", params={"r": 8, "search_l": 16}
        ),
    )
    index = build(spec)
    assert isinstance(index, FreshVamanaIndex)
    assert index.num_vertices == 150


def test_scenario_param_typos_fail_loudly(setup):
    data, quantizer, graph = setup
    spec = IndexSpec(
        scenario=ScenarioSpec(
            kind="memory", params={"distance_mod": "sdc"}
        )
    )
    with pytest.raises(ValueError, match="unknown scenario params"):
        build(spec, data=data.base, graph=graph, quantizer=quantizer)
    with pytest.raises(ValueError, match="unknown scenario params"):
        build(
            IndexSpec(
                scenario=ScenarioSpec(
                    kind="streaming", params={"beam": 8}
                )
            ),
            data=data.base,
            quantizer=quantizer,
        )


def test_filtered_labels_override(setup):
    data, quantizer, graph = setup
    labels = np.arange(data.base.shape[0]) % 2
    spec = IndexSpec(scenario=ScenarioSpec(kind="filtered"))
    index = build(
        spec, data=data.base, graph=graph, quantizer=quantizer, labels=labels
    )
    np.testing.assert_array_equal(index.labels, labels)
