"""Graph <-> array codecs for index persistence.

:func:`graph_to_arrays` / :func:`graph_from_arrays` are the one graph
codec: the base layer goes out as the kernel's packed CSR pair
(int32 ``neighbors`` / int64 ``offsets`` — two flat arrays, the
mmap-friendly shape) and every HNSW upper layer as its own small CSR,
so the arrays land byte-for-byte in the index container (:mod:`repro.
api.persistence`) and are adopted zero-copy on the way back in.  Every
vertex-id array is :data:`repro.graphs.packed.ID_DTYPE` at rest; a
legacy int64 section is accepted by range-checked conversion.

Round-trip guarantee: adjacency arrays, entry point, and upper layers
come back equal by value (a built graph authors int64 lists, a loaded
one holds int32 views), so a search over a loaded graph is bitwise
identical to one over the original.  ``build_stats`` is ephemeral
build telemetry and is intentionally not persisted.

Format-1 index directories stored the graph as a ``graph.npz`` of
``(degrees, flat)`` ragged pairs.  Nothing writes that any more;
:func:`read_graph_v1` presents such a file as :func:`graph_to_arrays`
output (one ``cumsum`` per pair, validated — it is outside input) and
:func:`load_graph` is the convenience that rebuilds the graph from it.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from .base import ProximityGraph
from .hnsw import HNSW
from .packed import ID_DTYPE, PackedAdjacency

# Highest format-1 ``graph.npz`` version :func:`read_graph_v1` reads.
GRAPH_FORMAT_VERSION = 1

# Version tag of the array encoding :func:`graph_to_arrays` produces.
GRAPH_ARRAYS_VERSION = 2


def graph_to_arrays(
    graph: ProximityGraph,
) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
    """Serialize a built graph as ``(meta, arrays)`` in packed CSR form.

    The base layer goes out directly as ``PackedAdjacency.neighbors``/
    ``offsets``; each HNSW upper layer becomes its own small CSR
    (``vertices`` in the layer's insertion order plus ``neighbors``/
    ``offsets``).  The arrays land byte-for-byte in the container file,
    ready to be memory-mapped.
    """
    packed = graph.packed()
    meta: Dict[str, object] = {
        "graph_arrays_version": GRAPH_ARRAYS_VERSION,
        "kind": "hnsw" if isinstance(graph, HNSW) else "pg",
        "name": str(graph.name),
        "entry_point": int(graph.entry_point),
    }
    arrays: Dict[str, np.ndarray] = {
        "graph_neighbors": packed.neighbors,
        "graph_offsets": packed.offsets,
    }
    if isinstance(graph, HNSW):
        meta["max_level"] = int(graph.max_level)
        meta["num_layers"] = len(graph.upper_layers)
        for i, layer in enumerate(graph.upper_layers):
            lpacked = PackedAdjacency.from_lists(list(layer.values()))
            arrays[f"graph_layer{i}_vertices"] = np.array(
                list(layer), dtype=ID_DTYPE
            )
            arrays[f"graph_layer{i}_neighbors"] = lpacked.neighbors
            arrays[f"graph_layer{i}_offsets"] = lpacked.offsets
    return meta, arrays


def graph_from_arrays(
    meta: Dict[str, object], get: Callable[[str], np.ndarray]
) -> ProximityGraph:
    """Reconstruct a graph from :func:`graph_to_arrays` output.

    ``get`` maps a section name to its array — typically read-only
    ``np.memmap`` views of the container.  The packed CSR is adopted
    as-is (``PackedAdjacency`` over int32-contiguous memmaps is
    zero-copy) and per-vertex validation is skipped via
    :meth:`ProximityGraph.from_packed`, so no adjacency page is
    faulted in at load time.
    """
    version = int(meta.get("graph_arrays_version", 0))
    if version > GRAPH_ARRAYS_VERSION:
        raise ValueError(
            f"graph arrays encoded with version {version}; this build "
            f"reads up to {GRAPH_ARRAYS_VERSION}"
        )
    packed = PackedAdjacency(
        neighbors=get("graph_neighbors"), offsets=get("graph_offsets")
    )
    kind = str(meta["kind"])
    entry = int(meta["entry_point"])
    name = str(meta["name"])
    if kind == "pg":
        return ProximityGraph.from_packed(packed, entry_point=entry, name=name)
    if kind != "hnsw":
        raise ValueError(f"unknown graph kind {kind!r}")
    upper_layers = []
    for i in range(int(meta["num_layers"])):
        vertices = np.asarray(get(f"graph_layer{i}_vertices"))
        lpacked = PackedAdjacency(
            neighbors=get(f"graph_layer{i}_neighbors"),
            offsets=get(f"graph_layer{i}_offsets"),
        )
        neighbor_lists = lpacked.to_lists()
        upper_layers.append(
            {int(v): nbrs for v, nbrs in zip(vertices, neighbor_lists)}
        )
    return HNSW.from_packed(
        packed,
        entry_point=entry,
        name=name,
        upper_layers=upper_layers,
        max_level=int(meta["max_level"]),
    )


def csr_from_ragged(
    degrees: np.ndarray, flat: np.ndarray, num_vertices: Optional[int] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """A format-1 ``(degrees, flat)`` ragged pair as CSR ``(neighbors,
    offsets)``.

    The pair is outside input and :meth:`ProximityGraph.from_packed`
    skips the per-vertex walk, so lengths and the neighbor range
    (``0 <= flat < num_vertices``, default ``len(degrees)``) are
    checked here, once, vectorised.
    """
    degrees = np.asarray(degrees, dtype=np.int64).reshape(-1)
    flat = np.asarray(flat, dtype=np.int64).reshape(-1)
    if (degrees < 0).any() or int(degrees.sum()) != flat.size:
        raise ValueError(
            f"ragged adjacency is inconsistent: degrees sum to "
            f"{int(degrees.sum())} but {flat.size} neighbors are stored"
        )
    offsets = np.zeros(degrees.size + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    n = degrees.size if num_vertices is None else int(num_vertices)
    bad = np.flatnonzero((flat < 0) | (flat >= n))
    if bad.size:
        v = int(np.searchsorted(offsets, bad[0], side="right")) - 1
        raise ValueError(f"vertex {v} has out-of-range neighbors")
    return flat, offsets


def read_graph_v1(
    path: Union[str, os.PathLike],
) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
    """A format-1 ``graph.npz`` as :func:`graph_to_arrays` output."""
    with np.load(path, allow_pickle=False) as data:
        version = int(data["format_version"])
        if version > GRAPH_FORMAT_VERSION:
            raise ValueError(
                f"graph file {path} has format version {version}; "
                f"this build reads up to {GRAPH_FORMAT_VERSION}"
            )
        meta: Dict[str, object] = {
            "kind": str(data["kind"]),
            "name": str(data["name"]),
            "entry_point": int(data["entry_point"]),
        }
        neighbors, offsets = csr_from_ragged(data["degrees"], data["flat"])
        arrays = {"graph_neighbors": neighbors, "graph_offsets": offsets}
        if meta["kind"] == "hnsw":
            meta["max_level"] = int(data["max_level"])
            meta["num_layers"] = int(data["num_layers"])
            for i in range(meta["num_layers"]):
                arrays[f"graph_layer{i}_vertices"] = data[f"layer{i}_vertices"]
                lneighbors, loffsets = csr_from_ragged(
                    data[f"layer{i}_degrees"],
                    data[f"layer{i}_flat"],
                    num_vertices=offsets.size - 1,
                )
                arrays[f"graph_layer{i}_neighbors"] = lneighbors
                arrays[f"graph_layer{i}_offsets"] = loffsets
    return meta, arrays


def load_graph(path: Union[str, os.PathLike]) -> ProximityGraph:
    """Rebuild the graph stored in a format-1 ``graph.npz``."""
    meta, arrays = read_graph_v1(path)
    return graph_from_arrays(meta, arrays.__getitem__)
