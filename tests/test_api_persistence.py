"""Index persistence: one format out, bitwise round-trips, v1 read-only.

* Round trips: every scenario (plus sharded, replicated fleets and the
  streaming write path) is saved, reloaded and pinned to answer the
  same :class:`~repro.api.SearchRequest` with identical ids, distances,
  counts and counters — in both ``mmap`` modes, the one knob the
  format has.
* One writer: ``save_index`` writes format 2 whatever it is asked
  (``layout`` is vestigial), writes the same bytes the pre-collapse
  ``layout="mmap"`` path wrote, and leaves no stale file behind.
* Format 1 is input only: the committed ``tests/fixtures/index_v1``
  directories (written by the last commit that had a v1 writer) load
  and answer bitwise, migrate, and answer again; corrupt v1 input is
  rejected with typed errors.
* int32 vertex ids at rest: the committed int64-era format-2
  directories (``tests/fixtures/index_v2_int64``) load, answer and
  migrate to half the adjacency bytes; a fresh container's adjacency
  is adopted zero-copy; a loaded graph unpacks nothing per vertex.
* Copy-on-write: mutating one mmap-loaded replica never writes through
  the shared read-only map.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import shutil

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
    storage_report,
)
from repro.cli import main as cli_main
from repro.datasets import load
from repro.graphs import (
    build_hnsw,
    build_nsg,
    build_vamana,
    graph_from_arrays,
    graph_to_arrays,
    load_graph,
)
from repro.index import MemoryIndex
from repro.quantization import ProductQuantizer
from repro.graphs.packed import PackedAdjacency
from repro.serving import ShardedIndex
from repro.storage import Container

from .helpers import stream_state

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "index_v1")
FIXTURE_NAMES = [
    "memory_hnsw",
    "l2r",
    "hybrid_l2r",
    "filtered",
    "streaming",
    "streaming_empty",
    "sharded_2",
]
#: format-2 directories the int64 writer at d6ee2c6 wrote from three of
#: the above (same ``expected.npz``)
FIXTURES_V2_INT64 = os.path.join(
    os.path.dirname(__file__), "fixtures", "index_v2_int64"
)

#: the whole option space of the format: how ``load_index`` reads it
FORMAT_MATRIX = [
    pytest.param(True, id="raw-mmap"),
    pytest.param(False, id="raw-copy"),
]


def base_spec(sharding=None, **scenario) -> IndexSpec:
    return IndexSpec(
        dataset=DatasetSpec(name="sift", n_base=220, n_queries=6, seed=4),
        graph=GraphSpec(kind="vamana", params={"r": 8, "search_l": 16}),
        quantizer=QuantizerSpec(kind="pq", num_chunks=8, num_codewords=16),
        scenario=ScenarioSpec(**scenario) if scenario else ScenarioSpec(),
        sharding=sharding or ShardingSpec(),
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


def _file_sha(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ----------------------------------------------------------------------
# Graph codec
# ----------------------------------------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize("kind", ["vamana", "hnsw", "nsg"])
def test_graph_arrays_round_trip_exact(kind):
    x = load("sift", n_base=150, n_queries=1, seed=2).base
    builders = {
        "vamana": lambda: build_vamana(x, r=8, search_l=16, seed=0),
        "hnsw": lambda: build_hnsw(x, m=6, ef_construction=24, seed=0),
        "nsg": lambda: build_nsg(x, knn_k=8, r=8, search_l=16, seed=0),
    }
    graph = builders[kind]()
    meta, arrays = graph_to_arrays(graph)
    loaded = graph_from_arrays(meta, arrays.__getitem__)
    assert type(loaded) is type(graph)
    assert loaded.entry_point == graph.entry_point
    assert loaded.name == graph.name
    assert loaded.num_vertices == graph.num_vertices
    for a, b in zip(loaded.adjacency, graph.adjacency):
        np.testing.assert_array_equal(a, b)
    if hasattr(graph, "upper_layers"):
        assert loaded.max_level == graph.max_level
        assert len(loaded.upper_layers) == len(graph.upper_layers)
        for la, lb in zip(loaded.upper_layers, graph.upper_layers):
            assert list(la) == list(lb)
            for v in la:
                np.testing.assert_array_equal(la[v], lb[v])


# ----------------------------------------------------------------------
# Round trips over the format matrix
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


@functools.lru_cache(maxsize=None)
def _built(scenario_id: int):
    """``(spec, index, request, live answer)`` per scenario, built once
    for the whole matrix (the live answer is the index's *first*
    search, so its counters match a freshly loaded copy's)."""
    kind, params = SCENARIOS[scenario_id]
    spec = base_spec(kind=kind, params=params)
    index = build(spec)
    queries = load("sift", n_base=220, n_queries=6, seed=4).queries
    labels = (
        np.full(len(queries), 1, dtype=np.int64)
        if kind == "filtered"
        else None
    )
    request = SearchRequest(queries=queries, k=5, beam_width=16, labels=labels)
    return spec, index, request, index.search(request)


@pytest.mark.slow
@pytest.mark.parametrize("mmap", FORMAT_MATRIX)
@pytest.mark.parametrize(
    "scenario_id",
    range(len(SCENARIOS)),
    ids=[
        f"{kind}-{'-'.join(map(str, params.values())) or 'default'}"
        for kind, params in SCENARIOS
    ],
)
def test_scenario_round_trip_bitwise(tmp_path, scenario_id, mmap):
    spec, index, request, live = _built(scenario_id)
    save_index(index, tmp_path)
    assert describe_index(tmp_path)["format_version"] == 2
    loaded = load_index(tmp_path, mmap=mmap)
    assert type(loaded) is type(index)
    assert loaded.spec == spec
    assert_responses_identical(live, loaded.search(request))


@pytest.mark.slow
@pytest.mark.parametrize("mmap", FORMAT_MATRIX)
def test_sharded_round_trip_bitwise(tmp_path, queries, mmap):
    spec = base_spec(sharding=ShardingSpec(num_shards=4))
    index = build(spec)
    request = SearchRequest(queries=queries, k=5, beam_width=16)
    live = index.search(request)
    save_index(index, tmp_path)
    assert describe_index(tmp_path)["format_version"] == 2
    loaded = load_index(tmp_path, mmap=mmap)
    assert isinstance(loaded, ShardedIndex)
    assert loaded.num_shards == 4
    assert loaded.shard_sizes() == index.shard_sizes()
    assert loaded.spec == spec
    assert_responses_identical(live, loaded.search(request))


@pytest.mark.slow
def test_sharded_round_trip_preserves_backend(tmp_path, queries):
    spec = base_spec(sharding=ShardingSpec(num_shards=2, backend="process"))
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


@pytest.mark.slow
def test_replicated_process_fleet_boots_off_saved_directory(tmp_path, queries):
    """A replicated process fleet boots its replicas off the mapped
    container and stays bitwise identical to in-process serving."""
    ref = build(base_spec(sharding=ShardingSpec(num_shards=2)))
    request = SearchRequest(queries=queries, k=5, beam_width=16)
    expected = ref.search(request)

    save_index(ref, tmp_path)
    fleet = load_index(tmp_path)
    fleet.set_backend("process")
    fleet.set_replicas(2)
    try:
        assert_responses_identical(expected, fleet.search(request))
    finally:
        fleet.close()


@pytest.mark.slow
@pytest.mark.parametrize("mmap", FORMAT_MATRIX)
def test_streaming_round_trip_preserves_write_path(tmp_path, queries, mmap):
    spec = base_spec(kind="streaming", params={"r": 8, "search_l": 16})
    index = build(spec)
    index.delete(3)
    save_index(index, tmp_path)
    loaded = load_index(tmp_path, mmap=mmap)
    assert loaded.num_deleted == 1
    # Inserts continue identically on both sides (same graph state).
    a = index.insert_batch(queries[:2])
    b = loaded.insert_batch(queries[:2])
    assert a == b
    request = SearchRequest(queries=queries, k=5, beam_width=16)
    assert_responses_identical(index.search(request), loaded.search(request))
    assert index.consolidate() == loaded.consolidate()


@pytest.mark.parametrize("mmap", FORMAT_MATRIX)
def test_empty_streaming_round_trip_stays_empty(tmp_path, queries, mmap):
    from repro.api.registry import get_scenario

    data = load("sift", n_base=150, n_queries=2, seed=1)
    quantizer = ProductQuantizer(8, 16, seed=0).fit(data.train)
    index = get_scenario("streaming").from_spec(
        {"r": 8, "search_l": 16}, None, quantizer, np.empty((0, data.dim))
    )
    save_index(index, tmp_path)
    loaded = load_index(tmp_path, mmap=mmap)
    assert loaded.num_vertices == 0
    assert stream_state(loaded).lists == []
    # Inserting into the loaded empty index matches the live one.
    a = index.insert_batch(data.base[:20])
    b = loaded.insert_batch(data.base[:20])
    assert a == b
    assert stream_state(index).lists == stream_state(loaded).lists
    request = SearchRequest(queries=queries, k=5, beam_width=16)
    assert_responses_identical(index.search(request), loaded.search(request))


@pytest.mark.slow
def test_streaming_sharded_insert_routing_survives(tmp_path, queries):
    spec = base_spec(
        sharding=ShardingSpec(num_shards=3),
        kind="streaming",
        params={"r": 8, "search_l": 16},
    )
    index = build(spec)
    save_index(index, tmp_path)
    loaded = load_index(tmp_path)
    # Global id allocation picks up where the saved index left off.
    assert loaded.insert_batch(queries[:3]) == index.insert_batch(queries[:3])


# ----------------------------------------------------------------------
# Directory metadata and the one-writer contract
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def memory_index():
    return build(base_spec())


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


def test_describe_index(tmp_path, memory_index):
    save_index(memory_index, tmp_path)
    meta = describe_index(tmp_path)
    assert meta["scenario"] == "memory"
    assert meta["format_version"] == 2
    assert meta["state"]["distance_mode"] == "adc"


def test_layout_keyword_is_vestigial(tmp_path, memory_index):
    """``layout="mmap"`` (what the frozen benchmark driver passes) is
    the default spelled out; nothing else is writable any more."""
    save_index(memory_index, tmp_path / "default")
    save_index(memory_index, tmp_path / "explicit", layout="mmap")
    assert _file_sha(tmp_path / "default" / "index.bin") == _file_sha(
        tmp_path / "explicit" / "index.bin"
    )
    for layout in ("npy", "tar"):
        with pytest.raises(ValueError, match="index migrate"):
            save_index(memory_index, tmp_path / "nope", layout=layout)
    assert not (tmp_path / "nope").exists()


def test_load_rejects_non_index_directory(tmp_path):
    with pytest.raises(FileNotFoundError, match="index directory"):
        load_index(tmp_path)


def test_load_rejects_future_format(tmp_path, memory_index):
    save_index(memory_index, tmp_path)
    meta_path = tmp_path / "index.json"
    meta = json.loads(meta_path.read_text())
    meta["format_version"] = 3
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="format version 3"):
        load_index(tmp_path)


def test_load_refuses_entropy_coded_codes(tmp_path, memory_index):
    """A directory an older build saved with ``--compress`` fails
    loudly, naming the section, instead of a ``KeyError`` on ``codes``."""
    src = tmp_path / "src"
    save_index(memory_index, src)
    meta_path = src / "index.json"
    meta = json.loads(meta_path.read_text())
    assert meta["storage"]["compress"] is False
    assert meta["storage"]["compressed"] == {}
    meta["storage"]["compressed"] = {
        "codes": {"num_rows": 220, "code_dtype": "uint8", "scale_bits": 12}
    }
    meta_path.write_text(json.dumps(meta))
    for mmap in (True, False):
        with pytest.raises(ValueError, match="'codes'.*raw code sections"):
            load_index(src, mmap=mmap)
    dst = str(tmp_path / "dst")
    with pytest.raises(ValueError, match="'codes'.*raw code sections"):
        cli_main(["index", "migrate", "--dir", str(src), "--out", dst])
    assert not os.path.exists(os.path.join(dst, "index.json"))


# ----------------------------------------------------------------------
# A save is a checkpoint, not a merge (stale-file regression)
# ----------------------------------------------------------------------


def _tree(dirpath) -> set:
    return {
        os.path.relpath(os.path.join(root, name), dirpath)
        for root, _, files in os.walk(dirpath)
        for name in files
    }


def test_resave_over_v1_directory_leaves_no_stale_files(tmp_path):
    """Reproduced on the parent: a v2 save over a v1 directory left
    codes.npy + graph.npz beside index.bin and inflated the report."""
    stale = tmp_path / "stale"
    shutil.copytree(os.path.join(FIXTURES, "memory_hnsw"), stale)
    (stale / "notes.txt").write_text("not ours")
    index = load_index(stale)
    save_index(index, stale)
    save_index(index, tmp_path / "fresh")
    assert _tree(stale) - _tree(tmp_path / "fresh") == {
        "expected.npz",
        "notes.txt",
    }  # unknown files are never touched
    os.remove(stale / "expected.npz")
    os.remove(stale / "notes.txt")
    assert (
        storage_report(stale)["total_bytes"]
        == storage_report(tmp_path / "fresh")["total_bytes"]
    )


@pytest.mark.slow
def test_resave_with_fewer_shards_drops_the_extra_shard_dirs(tmp_path):
    four = build(base_spec(sharding=ShardingSpec(num_shards=4)))
    two = build(base_spec(sharding=ShardingSpec(num_shards=2)))
    save_index(four, tmp_path / "d")
    save_index(two, tmp_path / "d")
    save_index(two, tmp_path / "fresh")
    assert _tree(tmp_path / "d") == _tree(tmp_path / "fresh")
    assert load_index(tmp_path / "d").num_shards == 2


@pytest.mark.slow
def test_resave_across_sharded_and_unsharded(tmp_path, memory_index):
    sharded = build(base_spec(sharding=ShardingSpec(num_shards=2)))
    save_index(memory_index, tmp_path / "flat")
    save_index(sharded, tmp_path / "sharded")

    save_index(sharded, tmp_path / "d")
    save_index(memory_index, tmp_path / "d")  # unsharded over sharded
    assert _tree(tmp_path / "d") == _tree(tmp_path / "flat")
    save_index(sharded, tmp_path / "d")  # and back: no root container
    assert _tree(tmp_path / "d") == _tree(tmp_path / "sharded")


# ----------------------------------------------------------------------
# Format-1 fixtures: read-only input, pinned by bytes
# ----------------------------------------------------------------------


def _expected(name: str):
    with np.load(os.path.join(FIXTURES, name, "expected.npz")) as data:
        return {key: data[key] for key in data.files}


def _request(expected) -> SearchRequest:
    label = int(expected["label"])
    return SearchRequest(
        queries=expected["queries"],
        k=int(expected["k"]),
        beam_width=int(expected["beam_width"]),
        labels=None if label < 0 else label,
    )


def assert_answers_expected(response, expected, prefix=""):
    np.testing.assert_array_equal(response.ids, expected[f"{prefix}ids"])
    np.testing.assert_array_equal(
        response.distances, expected[f"{prefix}distances"]
    )
    np.testing.assert_array_equal(response.counts, expected[f"{prefix}counts"])
    tag = f"{prefix}counter_"
    names = {key[len(tag) :] for key in expected if key.startswith(tag)}
    # The committed answers predate the table cache's removal: its
    # counter (volatile telemetry, never part of an answer) is the one
    # key a response no longer carries.
    names.discard("table_cache_hits")
    assert set(response.counters) == names
    for name in names:
        np.testing.assert_array_equal(
            response.counters[name], expected[tag + name], err_msg=name
        )


def _check_fixture_answers(name: str, dirpath) -> None:
    """The directory answers exactly what the parent commit answered
    from the v1 bytes — statically, and (streaming) after continuing
    the write path on a fresh load."""
    expected = _expected(name)
    request = _request(expected)
    if "ids" in expected:
        assert_answers_expected(load_index(dirpath).search(request), expected)
    if "cont_ids" not in expected:
        return
    index = load_index(dirpath)
    if name == "streaming_empty":
        assert index.num_vertices == 0
        rows = load("deep", n_base=64, n_queries=4, seed=7).base[:20]
        # Sequential insertion, which the recorded answers come from:
        # larger batches link these rows differently on purpose.
        index.build_batch_size = 1
        inserted = index.insert_batch(rows)
    else:
        assert index.num_deleted == 2
        inserted = index.insert_batch(expected["queries"][:2])
        index.delete(5)
        np.testing.assert_array_equal(
            np.asarray(index.consolidate()), expected["cont_consolidated"]
        )
    np.testing.assert_array_equal(inserted, expected["cont_inserted"])
    assert_answers_expected(index.search(request), expected, prefix="cont_")


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_v1_fixture_loads_bitwise(tmp_path, name):
    src = os.path.join(FIXTURES, name)
    assert describe_index(src)["format_version"] == 1
    _check_fixture_answers(name, src)

    dst = str(tmp_path / "migrated")
    assert cli_main(["index", "migrate", "--dir", src, "--out", dst]) == 0
    assert describe_index(dst)["format_version"] == 2
    assert saved_spec(dst) == saved_spec(src)
    _check_fixture_answers(name, dst)


def test_migrate_refuses_in_place(tmp_path, capsys):
    src = str(tmp_path / "src")
    shutil.copytree(os.path.join(FIXTURES, "filtered"), src)
    before = _tree(src)
    assert cli_main(["index", "migrate", "--dir", src, "--out", src + "/"]) == 2
    assert "in place" in capsys.readouterr().err
    assert _tree(src) == before


def test_describe_marks_v1_read_only(capsys):
    src = os.path.join(FIXTURES, "memory_hnsw")
    assert cli_main(["index", "describe", "--dir", src]) == 0
    out = capsys.readouterr().out
    assert 'format_version: 1 (read-only; run "repro index migrate")' in out


with open(os.path.join(FIXTURES, "parent_v2_bytes.json")) as _fh:
    PARENT_V2_BYTES = json.load(_fh)


@pytest.mark.parametrize("kind", ["raw"])
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_save_writes_the_parents_mmap_bytes(tmp_path, name, kind):
    """Same bytes on the kept path, re-pinned once for int32 vertex
    ids: ``sha256`` is what ``save_index(idx, d)`` writes since PR 18
    (the index comes from committed bytes, so the pin is
    host-independent); ``components`` / ``total_bytes`` are still what
    the int64 writer at 193efa0 recorded, and the re-pin is reviewable
    against them — every vertex-id section is exactly half, nothing
    else moved except the padding that absorbs it and the decimal
    section sizes ``index.json`` embeds."""
    parent = PARENT_V2_BYTES[name][kind]
    index = load_index(os.path.join(FIXTURES, name))
    save_index(index, tmp_path)
    for relpath, sha in parent["sha256"].items():
        assert _file_sha(tmp_path / relpath) == sha, relpath
    report = storage_report(tmp_path)
    assert set(report["components"]) == set(parent["components"])
    halved = 0
    for key, was in parent["components"].items():
        now = report["components"][key]
        if key.endswith(("neighbors", "_vertices")):
            assert 2 * now == was, key
            halved += bool(was)
        elif key.endswith("index.json"):
            assert 0 <= was - now <= halved + 1, key  # fewer digits
        elif not key.endswith("header+padding"):
            assert now == was, key
    moved = sum(report["components"].values()) - sum(
        parent["components"].values()
    )
    assert report["total_bytes"] == parent["total_bytes"] + moved
    assert moved <= 0


# ----------------------------------------------------------------------
# int32 vertex ids at rest (the whole section runs in ~0.5 s)
# ----------------------------------------------------------------------


def _id_sections(dirpath) -> dict:
    """``{component: (bytes, dtype)}`` of every vertex-id section."""
    out = {}
    for key, size in storage_report(dirpath)["components"].items():
        if key.endswith(("neighbors", "_vertices")):
            relpath, _, section = key.partition(":")
            container = Container(os.path.join(dirpath, relpath))
            out[key] = (size, container.read(section).dtype)
    return out


@pytest.mark.parametrize("name", ["memory_hnsw", "streaming", "sharded_2"])
def test_v2_int64_fixture_loads_and_migrates_to_half(tmp_path, name):
    """Back-compat pinned by bytes: a directory the int64 writer wrote
    answers bitwise, and ``index migrate`` (no new code) rewrites it
    with every vertex-id section at exactly half the bytes."""
    src = os.path.join(FIXTURES_V2_INT64, name)
    assert describe_index(src)["format_version"] == 2
    before = _id_sections(src)
    assert before and all(dt == np.int64 for _, dt in before.values())
    _check_fixture_answers(name, src)

    dst = str(tmp_path / "migrated")
    assert cli_main(["index", "migrate", "--dir", src, "--out", dst]) == 0
    after = _id_sections(dst)
    assert set(after) == set(before)
    for key, (size, dtype) in after.items():
        assert dtype == np.int32 and 2 * size == before[key][0], key
    _check_fixture_answers(name, dst)


def _poke(container_path, section: str, position: int, value: int) -> None:
    mapped = Container(container_path).read(section)  # a read-only memmap
    view = np.memmap(
        container_path,
        dtype=mapped.dtype,
        mode="r+",
        offset=mapped.offset,
        shape=mapped.shape,
    )
    view[position] = value
    view.flush()


@pytest.mark.parametrize(
    "name,section",
    [
        ("memory_hnsw", "graph_neighbors"),
        ("memory_hnsw", "graph_layer0_neighbors"),
        ("streaming", "stream_neighbors"),
    ],
)
def test_int64_section_with_a_wide_id_raises_on_load(tmp_path, name, section):
    """Narrowing never wraps: ``2^31`` in a legacy section would become
    ``-2^31`` under a blind cast — it must refuse to load instead."""
    dirpath = tmp_path / name
    shutil.copytree(os.path.join(FIXTURES_V2_INT64, name), dirpath)
    _poke(dirpath / "index.bin", section, 3, 2**31)
    with pytest.raises(ValueError, match=r"2147483648 is outside"):
        load_index(dirpath)


@pytest.mark.parametrize(
    "section,value,match",
    [
        # One past the last of the 64 vertices.
        ("stream_neighbors", 64, "saved streaming graph"),
        # Refused while narrowing, before the block is built.
        ("stream_neighbors", -1, "vertex id -1 is outside"),
        # Vertex 0's list grows to 7 > r = 6, then a negative degree.
        ("stream_offsets", 7, "saved streaming graph"),
        ("stream_offsets", -1, "saved streaming graph"),
    ],
)
def test_corrupt_streaming_graph_is_rejected(tmp_path, section, value, match):
    """The streaming graph loads into a fixed ``r + 1``-wide block
    indexed by neighbor id: a saved CSR that does not fit it must
    raise, not load."""
    dirpath = tmp_path / "streaming"
    shutil.copytree(os.path.join(FIXTURES_V2_INT64, "streaming"), dirpath)
    _poke(dirpath / "index.bin", section, 1, value)
    with pytest.raises(ValueError, match=match):
        load_index(dirpath)


def _backing_map(array):
    while array is not None and not isinstance(array, np.memmap):
        array = array.base
    return array


def test_fresh_adjacency_is_adopted_zero_copy(tmp_path, memory_index):
    save_index(memory_index, tmp_path)
    neighbors = load_index(tmp_path).graph.packed().neighbors
    assert neighbors.dtype == np.int32 and not neighbors.flags.writeable
    backing = _backing_map(neighbors)
    assert backing is not None and backing.filename.endswith("index.bin")
    assert np.shares_memory(neighbors, backing)
    # a legacy int64 section cannot be: it is converted (range-checked)
    legacy = load_index(os.path.join(FIXTURES_V2_INT64, "memory_hnsw"))
    assert _backing_map(legacy.graph.packed().neighbors) is None
    assert _backing_map(legacy.graph.packed().offsets) is not None


def test_loaded_graph_materialises_nothing_per_vertex(
    tmp_path, memory_index, monkeypatch
):
    """mmap boot stays O(1): neither ``load_index`` nor a search
    unpacks the CSR into per-vertex views (memory and hybrid; HNSW
    unpacks only its small upper layers) — ``adjacency`` does, on
    first access, and equals what was saved."""
    hybrid = load_index(os.path.join(FIXTURES, "hybrid_l2r"))
    save_index(memory_index, tmp_path / "memory")
    save_index(hybrid, tmp_path / "hybrid")
    saved = {"memory": memory_index, "hybrid": hybrid}
    unpack = PackedAdjacency.to_lists

    def refuse(self):
        raise AssertionError("to_lists called on the load/search path")

    monkeypatch.setattr(PackedAdjacency, "to_lists", refuse)
    loaded = {}
    for name, index in saved.items():
        loaded[name] = load_index(tmp_path / name)
        queries = np.random.default_rng(0).normal(size=(3, index.dim))
        request = SearchRequest(queries=queries, k=5, beam_width=12)
        assert_responses_identical(
            index.search(request), loaded[name].search(request)
        )
        graph = loaded[name].graph
        assert graph.num_vertices == index.graph.num_vertices
        assert graph.num_edges == index.graph.num_edges
        assert "adjacency" not in vars(graph)
    monkeypatch.setattr(PackedAdjacency, "to_lists", unpack)
    for name, index in saved.items():
        graph = loaded[name].graph
        assert len(graph.adjacency) == index.graph.num_vertices
        for got, want in zip(graph.adjacency, index.graph.adjacency):
            np.testing.assert_array_equal(got, want)
        assert graph.adjacency is graph.adjacency  # unpacked once

    hnsw = load_index(os.path.join(FIXTURES_V2_INT64, "memory_hnsw"))
    hnsw.search(_request(_expected("memory_hnsw")))
    assert "adjacency" not in vars(hnsw.graph)
    assert hnsw.graph.neighbors(0).dtype == np.int32


def test_memory_model_cannot_drift_from_storage(tmp_path, memory_index):
    """The paper's memory figures and the bytes on disk share one id
    width: the neighbour term of ``graph.memory_bytes()`` is the packed
    array is the ``graph_neighbors`` section."""
    graph = memory_index.graph
    ids = graph.packed().neighbors
    assert ids.nbytes == 4 * graph.num_edges
    assert graph.memory_bytes() == ids.nbytes + 4 * graph.num_vertices
    save_index(memory_index, tmp_path)
    components = storage_report(tmp_path)["components"]
    assert components["index.bin:graph_neighbors"] == ids.nbytes
    hybrid = load_index(os.path.join(FIXTURES, "hybrid_l2r"))
    raw = hybrid.ssd._vectors.nbytes + hybrid.graph.packed().neighbors.nbytes
    assert 0 <= hybrid.ssd.stored_bytes() - raw < 4096


def _rewrite_npz(path, **changes) -> None:
    with np.load(path, allow_pickle=False) as data:
        payload = {key: data[key] for key in data.files}
    payload.update(changes)
    np.savez(path, **payload)


@pytest.mark.parametrize(
    "name,filename",
    [("memory_hnsw", "graph.npz"), ("streaming", "streaming_state.npz")],
)
def test_corrupt_v1_adjacency_is_rejected(tmp_path, name, filename):
    """v1 directories are outside input: an out-of-range neighbour or
    a degrees/flat length lie must raise, not load."""
    for case in ("range", "negative", "length"):
        dirpath = tmp_path / case
        shutil.copytree(os.path.join(FIXTURES, name), dirpath)
        with np.load(dirpath / filename) as data:
            degrees, flat = data["degrees"], data["flat"].copy()
        if case == "range":
            flat[7] = degrees.size
            changes, match = {"flat": flat}, "out-of-range neighbors"
        elif case == "negative":
            flat[0] = -1
            changes, match = {"flat": flat}, "vertex 0 has out-of-range"
        else:
            changes, match = {"flat": flat[:-1]}, "inconsistent"
        _rewrite_npz(dirpath / filename, **changes)
        with pytest.raises(ValueError, match=match):
            load_index(dirpath)


def test_corrupt_v1_upper_layer_and_future_graph_version(tmp_path):
    src = os.path.join(FIXTURES, "memory_hnsw", "graph.npz")
    with np.load(src) as data:
        layer_flat = data["layer0_flat"].copy()
    layer_flat[0] = 10_000
    bad_layer = tmp_path / "layer.npz"
    shutil.copy(src, bad_layer)
    _rewrite_npz(bad_layer, layer0_flat=layer_flat)
    with pytest.raises(ValueError, match="out-of-range neighbors"):
        load_graph(bad_layer)

    future = tmp_path / "future.npz"
    shutil.copy(src, future)
    _rewrite_npz(future, format_version=np.array(99))
    with pytest.raises(ValueError, match="format version 99"):
        load_graph(future)


def test_v1_arrays_never_unpickle(tmp_path):
    dirpath = tmp_path / "d"
    shutil.copytree(os.path.join(FIXTURES, "filtered"), dirpath)
    np.save(
        dirpath / "labels.npy",
        np.array([{"x": 1}] * 64, dtype=object),
        allow_pickle=True,
    )
    with pytest.raises(ValueError, match="[Pp]ickle"):
        load_index(dirpath)


def test_v1_graph_reader_matches_the_array_codec():
    """``load_graph`` (the v1 ``graph.npz`` reader) and the array codec
    describe the same graph."""
    graph = load_graph(os.path.join(FIXTURES, "memory_hnsw", "graph.npz"))
    assert len(graph.upper_layers) >= 1
    meta, arrays = graph_to_arrays(graph)
    again = graph_from_arrays(meta, arrays.__getitem__)
    np.testing.assert_array_equal(
        again.packed().neighbors, graph.packed().neighbors
    )
    np.testing.assert_array_equal(again.packed().offsets, graph.packed().offsets)
    assert again.entry_point == graph.entry_point
    assert again.max_level == graph.max_level


# ----------------------------------------------------------------------
# Copy-on-write promotion (the mapped-replica mutation bugfix)
# ----------------------------------------------------------------------


@pytest.mark.slow
def test_mapped_streaming_mutation_never_touches_map(tmp_path, queries):
    index = build(base_spec(kind="streaming"))
    request = SearchRequest(queries=queries, k=5, beam_width=16)
    save_index(index, tmp_path)
    container_path = tmp_path / "index.bin"
    sha_before = _file_sha(container_path)

    writer = load_index(tmp_path)  # the replica that will mutate
    sibling = load_index(tmp_path)  # maps the same container
    sibling_before = sibling.search(request)

    assert writer._mapped and sibling._mapped
    shared = (writer._vectors, writer._codes, writer._deleted)

    # Mutate the writer: insert, delete, consolidate.
    writer.insert(np.asarray(queries[0], dtype=np.float64))
    writer.delete(1)
    writer.consolidate()

    # Promotion happened: the writer's rows are private memory now.
    assert not writer._mapped
    private = (writer._vectors, writer._codes, writer._deleted)
    assert not any(np.shares_memory(a, b) for a, b in zip(private, shared))
    # The sibling replica and the on-disk container are untouched.
    # (Answers are pinned; counters are not — the sibling's second
    # search legitimately runs on its now-recycled workspace.)
    assert sibling._mapped
    sibling_after = sibling.search(request)
    np.testing.assert_array_equal(sibling_before.ids, sibling_after.ids)
    np.testing.assert_array_equal(
        sibling_before.distances, sibling_after.distances
    )
    np.testing.assert_array_equal(sibling_before.counts, sibling_after.counts)
    assert _file_sha(container_path) == sha_before


def test_mapped_arrays_are_read_only_backstop(tmp_path, memory_index):
    """Even without the promotion guard, the map itself is a hard
    backstop: arrays are mapped mode='r' and writes raise."""
    save_index(memory_index, tmp_path)
    loaded = load_index(tmp_path)
    assert not loaded.codes.flags.writeable
    with pytest.raises((ValueError, RuntimeError)):
        loaded.codes[0, 0] = 0


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def test_storage_report(tmp_path, memory_index):
    save_index(memory_index, tmp_path)

    raw = storage_report(tmp_path)
    assert raw["format_version"] == 2 and raw["layout"] == "mmap"
    assert raw["num_vectors"] == 220
    assert raw["components"]["index.bin:codes"] == 220 * 8
    assert raw["total_bytes"] == sum(raw["components"].values())
    # On-disk truth: the reported total is exactly the directory size.
    disk = sum(os.path.getsize(tmp_path / f) for f in os.listdir(tmp_path))
    assert raw["total_bytes"] == disk


def test_storage_report_v1_fixture():
    report = storage_report(os.path.join(FIXTURES, "memory_hnsw"))
    assert report["format_version"] == 1 and report["layout"] == "npy"
    assert report["num_vectors"] == 64
    assert report["components"]["codes.npy"] > 0
    assert report["total_bytes"] == sum(report["components"].values())
    sharded = storage_report(os.path.join(FIXTURES, "sharded_2"))
    assert sharded["format_version"] == 1 and sharded["num_shards"] == 2
    assert sharded["num_vectors"] == 64


@pytest.mark.slow
def test_storage_report_sharded(tmp_path):
    index = build(base_spec(sharding=ShardingSpec(num_shards=2)))
    save_index(index, tmp_path)
    report = storage_report(tmp_path)
    assert report["num_shards"] == 2
    assert report["num_vectors"] == 220
    codes = [v for k, v in report["components"].items() if k.endswith(":codes")]
    assert len(codes) == 2 and sum(codes) == 220 * 8
    assert any(k.startswith("shard_001/") for k in report["components"])
