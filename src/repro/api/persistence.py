"""Index persistence: :func:`save_index` / :func:`load_index`.

An index directory is self-describing and reconstructable in another
process — what process/socket workers and replicas boot from.  There is
one on-disk format on the write side (format version 2)::

    <dir>/
      index.json        # manifest: format_version 2, scenario, scenario
                        # state, "storage" block
      spec.json         # the IndexSpec that built it (when known)
      quantizer.npz     # repro.quantization.serialization format
      index.bin         # repro.storage container: every hot array
                        # (codes, packed CSR adjacency incl. HNSW upper
                        # layers, vectors, labels, l2r weights, rANS
                        # payloads) at page-aligned offsets

    # sharded indexes hold one sub-directory per shard instead:
      shard_000/ ... shard_NNN/   # each a full index directory
      shard_000/global_ids.npy    # shard-local -> global id map

``save_index(..., compress=True)`` additionally runs the PQ code
matrices through :class:`repro.storage.EntropyCoder` (per-column rANS,
frequency tables persisted beside the blob, exact round-trip validated
before anything is written).  Directories are memory-mapped read-only
by default, so loading is O(1) in the array bytes and every process
mapping the same directory shares page cache.

Format version 1 (loose ``codes.npy`` / ``graph.npz`` / ... files, the
pre-container layout) is read-only input: :func:`_read_v1` presents
such a directory as the same name -> array source a container gives and
:func:`load_index` rebuilds it through the one shared path.  ``repro
index migrate`` (``save_index(load_index(src), dst)``) rewrites it.

Round-trip guarantee: every array is restored exactly (codes,
adjacency, codewords, vectors), so a loaded index answers any
:class:`~repro.api.protocol.SearchRequest` bitwise identically to the
live index it was saved from — pinned by ``tests/test_api_persistence``
on all five scenarios, sharded, replicated fleets, and the committed
format-1 fixtures.
"""

from __future__ import annotations

import json
import os
import re
import shutil
from typing import Dict, Optional, Tuple, Union

import numpy as np

from .registry import get_scenario, scenario_for_index
from .spec import IndexSpec, ScenarioSpec, ShardingSpec

#: The format :func:`save_index` writes and the highest one
#: :func:`load_index` reads (format 1 is read through :func:`_read_v1`).
INDEX_FORMAT_VERSION = 2

_INDEX_FILE = "index.json"
_SPEC_FILE = "spec.json"
_QUANTIZER_FILE = "quantizer.npz"
_CONTAINER_FILE = "index.bin"
#: what a format-1 directory held (``<name>.npy`` is source array ``<name>``)
_FILES_V1 = (
    "codes.npy",
    "vectors.npy",
    "labels.npy",
    "l2r_weights.npy",
    "graph.npz",
    "streaming_state.npz",
)
_SHARD_DIR = re.compile(r"shard_(\d{3,})")


def _shard_dirname(s: int) -> str:
    return f"shard_{s:03d}"


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _save_spec(
    index: object,
    dirpath: str,
    scenario_name: str,
    num_shards: int = 1,
    backend: str = "thread",
    replicas: int = 1,
) -> None:
    spec = getattr(index, "spec", None)
    if spec is None:
        # Hand-constructed index: synthesize a minimal spec so the
        # directory is still self-describing (dataset/graph/quantizer
        # sections keep their defaults and are descriptive only).
        spec = IndexSpec(
            scenario=ScenarioSpec(kind=scenario_name),
            sharding=ShardingSpec(
                num_shards=num_shards, backend=backend, replicas=replicas
            ),
        )
    _write_json(os.path.join(dirpath, _SPEC_FILE), spec.to_dict())


def _prune(dirpath: str, stale: Tuple[str, ...], keep_shards: int) -> None:
    """Make a save a checkpoint, not a merge: drop what this format
    owns and the save just finished did not write — the ``stale`` file
    names and ``shard_NNN/`` from ``keep_shards`` up.  Unknown names
    stay."""
    for name in os.listdir(dirpath):
        path = os.path.join(dirpath, name)
        shard = _SHARD_DIR.fullmatch(name)
        if shard and int(shard.group(1)) >= keep_shards:
            shutil.rmtree(path, ignore_errors=True)  # a file: not ours
        elif name in stale and os.path.isfile(path):
            os.remove(path)


def save_index(
    index: object,
    dirpath: Union[str, os.PathLike],
    *,
    compress: bool = False,
    layout: str = "mmap",
) -> str:
    """Persist ``index`` (any registered scenario, or sharded) to a
    directory; returns the directory path.

    Always writes the format 2 container layout whose hot arrays load
    as read-only memory maps; ``compress=True`` entropy-codes the PQ
    code matrices, validating the exact round-trip before anything is
    persisted.  ``layout`` is vestigial: ``"mmap"`` is its one legal
    value, still accepted because the frozen benchmark driver passes it.

    The directory is created if needed and a save is a checkpoint, not
    a merge: files and shard directories an earlier save left there
    that this one did not write are removed (unknown files are kept).
    """
    from ..serving import ShardedIndex

    if layout != "mmap":
        raise ValueError(
            f"save_index writes one layout, 'mmap' (got {layout!r}); "
            "format-1 directories are read-only input — rewrite one "
            "with `repro index migrate`"
        )
    dirpath = os.fspath(dirpath)
    os.makedirs(dirpath, exist_ok=True)

    if isinstance(index, ShardedIndex):
        names = set()
        for s, (shard, gids) in enumerate(
            zip(index._shards, index._global_ids)
        ):
            shard_dir = os.path.join(dirpath, _shard_dirname(s))
            save_index(shard, shard_dir, compress=compress)
            np.save(os.path.join(shard_dir, "global_ids.npy"), gids)
            names.add(scenario_for_index(shard).scenario)
        manifest = {
            "format_version": INDEX_FORMAT_VERSION,
            "scenario": "sharded",
            "state": {
                "num_shards": index.num_shards,
                "next_global": int(index._next_global),
                "max_workers": index._max_workers,
                "backend": index.backend,
                "replicas": index.replicas,
                "endpoints": index._endpoints,
                "shard_scenarios": sorted(names),
            },
            "storage": {"layout": "mmap", "compress": compress},
        }
        _write_json(os.path.join(dirpath, _INDEX_FILE), manifest)
        _save_spec(
            index,
            dirpath,
            sorted(names)[0],
            index.num_shards,
            backend=index.backend,
            replicas=index.replicas,
        )
        _prune(
            dirpath,
            _FILES_V1 + (_CONTAINER_FILE, _QUANTIZER_FILE),
            index.num_shards,
        )
        return dirpath

    scenario = scenario_for_index(index).scenario

    from ..quantization import save_quantizer

    save_quantizer(
        index.quantizer, os.path.join(dirpath, _QUANTIZER_FILE)
    )
    state, storage = _save_container(index, scenario, dirpath, compress)
    manifest = {
        "format_version": INDEX_FORMAT_VERSION,
        "scenario": scenario,
        "state": state,
        "storage": storage,
    }
    _write_json(os.path.join(dirpath, _INDEX_FILE), manifest)
    _save_spec(index, dirpath, scenario)
    _prune(dirpath, _FILES_V1, 0)
    return dirpath


def _save_container(
    index: object, scenario: str, dirpath: str, compress: bool
) -> tuple:
    """Write the v2 container for an unsharded index; returns the
    ``(state, storage)`` halves of the manifest."""
    from ..storage import EntropyCoder, write_container

    graph_meta = None
    arrays: Dict[str, np.ndarray] = {}
    if index.needs_graph:
        from ..graphs.serialization import graph_to_arrays

        graph_meta, garrays = graph_to_arrays(index.graph)
        arrays.update(garrays)
    state, sarrays = index.export_arrays()
    for name in sarrays:
        if name in arrays:
            raise ValueError(
                f"scenario array {name!r} collides with a graph section"
            )
    arrays.update(sarrays)

    compressed: Dict[str, dict] = {}
    if compress:
        coder = EntropyCoder()
        for name in index.code_arrays:
            codes = arrays.get(name)
            # Degenerate matrices (empty streaming index) stay raw —
            # there is nothing to code and the reader needs no table.
            if codes is None or codes.ndim != 2 or codes.size == 0:
                continue
            comp = coder.compress(codes, verify=True)
            del arrays[name]
            arrays.update(comp.to_arrays(name))
            compressed[name] = comp.meta()

    container_path = os.path.join(dirpath, _CONTAINER_FILE)
    section_bytes = write_container(
        container_path,
        arrays,
        meta={"scenario": scenario},
    )
    storage = {
        "layout": "mmap",
        "compress": bool(compress),
        "container": _CONTAINER_FILE,
        "graph": graph_meta,
        "compressed": compressed,
        "container_bytes": int(os.path.getsize(container_path)),
        "section_bytes": section_bytes,
    }
    return state, storage


class _ArraySource:
    """What a scenario's ``load_arrays`` reads from: name →
    array, plus whether those arrays are shared read-only map views."""

    def __init__(self, get, mapped: bool) -> None:
        self._get = get
        self.mapped = bool(mapped)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._get(name)


def load_index(
    dirpath: Union[str, os.PathLike], *, mmap: bool = True
) -> object:
    """Reconstruct an index saved by :func:`save_index`.

    The hot arrays are memory-mapped read-only by default — pass
    ``mmap=False`` to read private in-memory copies instead (e.g. when
    the directory is about to be deleted).  Format 1 directories are
    read through :func:`_read_v1` and are never mapped.

    The loaded index carries the saved spec as ``index.spec`` and
    answers searches bitwise identically to the index that was saved.
    """
    dirpath = os.fspath(dirpath)
    meta = describe_index(dirpath)
    version = int(meta.get("format_version", 1))
    if version > INDEX_FORMAT_VERSION:
        raise ValueError(
            f"index directory {dirpath} has format version {version}; "
            f"this build reads up to {INDEX_FORMAT_VERSION}"
        )
    scenario = meta["scenario"]
    state = meta.get("state", {})

    if scenario == "sharded":
        from ..serving import ShardedIndex

        num_shards = int(state["num_shards"])
        shards, global_ids = [], []
        for s in range(num_shards):
            shard_dir = os.path.join(dirpath, _shard_dirname(s))
            shards.append(load_index(shard_dir, mmap=mmap))
            global_ids.append(
                np.load(os.path.join(shard_dir, "global_ids.npy"))
            )
        index = ShardedIndex(
            shards,
            global_ids=global_ids,
            max_workers=state.get("max_workers"),
            backend=state.get("backend", "thread"),
            replicas=int(state.get("replicas", 1)),
            endpoints=state.get("endpoints"),
        )
        index._next_global = int(state["next_global"])
        _attach_spec(index, dirpath)
        return index

    index_cls = get_scenario(scenario)

    from ..graphs.serialization import graph_from_arrays
    from ..quantization import load_quantizer

    quantizer = load_quantizer(os.path.join(dirpath, _QUANTIZER_FILE))
    if version >= 2:
        graph_meta = meta["storage"]["graph"]
        get, mapped = _container_source(meta["storage"], dirpath, mmap), mmap
    else:
        graph_meta, state, arrays = _read_v1(dirpath, state)
        get, mapped = arrays.__getitem__, False
    graph = None
    if index_cls.needs_graph:
        graph = graph_from_arrays(graph_meta, get)
    index = index_cls.load_arrays(
        state, _ArraySource(get, mapped), graph, quantizer
    )
    _attach_spec(index, dirpath)
    return index


def _container_source(storage: dict, dirpath: str, mmap: bool):
    """Open a directory's container as a name -> array getter that
    decodes entropy-coded sections on the way out."""
    from ..storage import CompressedCodes, Container, EntropyCoder

    container = Container(
        os.path.join(dirpath, storage.get("container", _CONTAINER_FILE)),
        mmap=mmap,
    )
    compressed = storage.get("compressed", {})

    def get(name: str) -> np.ndarray:
        if name in compressed:
            comp = CompressedCodes.from_arrays(
                name, compressed[name], container.read
            )
            return EntropyCoder().decompress(comp)
        return container.read(name)

    return get


def _read_v1(dirpath: str, state: dict):
    """Present a format-1 directory as ``(graph_meta, state, arrays)``
    — the shape a container gives: the loose ``.npy`` files under their
    source names, ``graph.npz`` via :func:`read_graph_v1`, and
    ``streaming_state.npz``'s ``(degrees, flat)`` pair as CSR with its
    ``entry`` scalar moved into ``state``.  Outside input: no pickles,
    and every ragged pair is range/length-checked."""
    from ..graphs.serialization import csr_from_ragged, read_graph_v1

    graph_meta, arrays = None, {}
    for filename in _FILES_V1:
        path = os.path.join(dirpath, filename)
        if not os.path.exists(path):
            continue
        if filename == "graph.npz":
            graph_meta, garrays = read_graph_v1(path)
            arrays.update(garrays)
        elif filename == "streaming_state.npz":
            with np.load(path, allow_pickle=False) as data:
                for name in ("vectors", "codes", "deleted"):
                    arrays[name] = data[name]
                arrays["stream_neighbors"], arrays["stream_offsets"] = (
                    csr_from_ragged(data["degrees"], data["flat"])
                )
                state = dict(state, entry=int(data["entry"]))
        else:
            arrays[filename[: -len(".npy")]] = np.load(path, allow_pickle=False)
    return graph_meta, state, arrays


def _attach_spec(index: object, dirpath: str) -> None:
    spec_path = os.path.join(dirpath, _SPEC_FILE)
    if os.path.exists(spec_path):
        index.spec = IndexSpec.from_dict(_read_json(spec_path))


def describe_index(dirpath: Union[str, os.PathLike]) -> dict:
    """The ``index.json`` payload of a saved index (for tooling)."""
    path = os.path.join(os.fspath(dirpath), _INDEX_FILE)
    if not os.path.exists(path):
        raise FileNotFoundError(
            f"{dirpath} is not an index directory (no {_INDEX_FILE})"
        )
    return _read_json(path)


def saved_spec(dirpath: Union[str, os.PathLike]) -> Optional[IndexSpec]:
    """The saved :class:`IndexSpec`, if the directory has one."""
    path = os.path.join(os.fspath(dirpath), _SPEC_FILE)
    if not os.path.exists(path):
        return None
    return IndexSpec.from_dict(_read_json(path))


# ----------------------------------------------------------------------
# On-disk accounting (`index describe`, bench_storage)
# ----------------------------------------------------------------------


def _report(
    meta: dict,
    components: Dict[str, int],
    num_vectors: int,
    codes_stored: int,
    codes_raw: int,
    **extra,
) -> dict:
    total = sum(components.values())
    storage = meta.get("storage", {})
    return {
        "format_version": int(meta.get("format_version", 1)),
        "scenario": meta["scenario"],
        "layout": storage.get("layout", "npy"),
        "compress": bool(storage.get("compress", False)),
        **extra,
        "components": components,
        "total_bytes": int(total),
        "num_vectors": int(num_vectors),
        "bytes_per_vector": total / max(num_vectors, 1),
        "codes_stored_bytes": int(codes_stored),
        "codes_raw_bytes": int(codes_raw),
        "codes_compression_ratio": codes_raw / max(codes_stored, 1),
    }


def storage_report(dirpath: Union[str, os.PathLike]) -> dict:
    """Per-component on-disk accounting for a saved index directory.

    Component byte sizes (the container broken down per section), total
    bytes, bytes-per-vector, and the stored-vs-raw compression ratio of
    the PQ code matrices; sharded directories aggregate their shards.
    Byte counts are exact file/section sizes — this is what ``repro
    index describe`` and ``bench_storage`` print.  Format 1 directories
    report their loose files (``layout`` ``"npy"``).
    """
    dirpath = os.fspath(dirpath)
    meta = describe_index(dirpath)

    if meta["scenario"] == "sharded":
        components: Dict[str, int] = {}
        num_vectors = codes_stored = codes_raw = 0
        num_shards = int(meta["state"]["num_shards"])
        for s in range(num_shards):
            sub = storage_report(os.path.join(dirpath, _shard_dirname(s)))
            for name, size in sub["components"].items():
                components[f"{_shard_dirname(s)}/{name}"] = size
            num_vectors += sub["num_vectors"]
            codes_stored += sub["codes_stored_bytes"]
            codes_raw += sub["codes_raw_bytes"]
        for extra in (_INDEX_FILE, _SPEC_FILE):
            path = os.path.join(dirpath, extra)
            if os.path.exists(path):
                components[extra] = os.path.getsize(path)
        return _report(
            meta,
            components,
            num_vectors,
            codes_stored,
            codes_raw,
            num_shards=num_shards,
        )

    components = {}
    for name in sorted(os.listdir(dirpath)):
        path = os.path.join(dirpath, name)
        if os.path.isfile(path):
            components[name] = os.path.getsize(path)

    num_vectors = codes_raw = codes_stored = 0
    compressed: dict = {}
    section_bytes: Dict[str, int] = {}
    if int(meta.get("format_version", 1)) >= 2:
        storage = meta["storage"]
        from ..storage import Container

        container_name = storage.get("container", _CONTAINER_FILE)
        arrays = Container(os.path.join(dirpath, container_name), mmap=True)
        read = arrays.read
        section_bytes = arrays.section_bytes()
        # Replace the whole-file entry with its per-section breakdown
        # (plus the header/alignment overhead) so totals stay exact.
        container_total = components.pop(container_name, 0)
        for name, size in section_bytes.items():
            components[f"{container_name}:{name}"] = int(size)
        overhead = container_total - sum(section_bytes.values())
        components[f"{container_name}:header+padding"] = int(overhead)
        compressed = storage.get("compressed", {})
    else:  # format 1: the same names, out of the loose files
        arrays = _read_v1(dirpath, {})[2]
        read = arrays.__getitem__
    if "codes" in compressed:
        cmeta = compressed["codes"]
        num_vectors = int(cmeta["num_rows"])
        m = int(read("codes__rans_freqs").shape[0])
        itemsize = np.dtype(str(cmeta["code_dtype"])).itemsize
        codes_raw = num_vectors * m * itemsize
        codes_stored = sum(
            size
            for name, size in section_bytes.items()
            if name.startswith("codes__rans_")
        )
    elif "codes" in arrays:
        codes = read("codes")
        num_vectors = int(codes.shape[0])
        codes_raw = codes_stored = int(codes.nbytes)
    if not num_vectors and "vectors" in arrays:
        num_vectors = int(read("vectors").shape[0])
    return _report(meta, components, num_vectors, codes_stored, codes_raw)
