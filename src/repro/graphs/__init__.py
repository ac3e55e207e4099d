"""Proximity-graph substrate: HNSW, NSG, Vamana, and beam-search routing.

* :func:`build_hnsw` / :class:`HNSW` — hierarchical NSW [48].
* :func:`build_nsg` — navigating spreading-out graph [26].
* :func:`build_vamana` — DiskANN's graph [36].
* :func:`prune` — the one occlusion prune all three builders (and the
  streaming index) select neighbors with: DiskANN's RobustPrune
  (``strict=False``) or NSG's MRNG / HNSW's Alg. 4 (``strict=True``),
  per-point loop for one point, lockstep rounds for many.
* :func:`beam_search` / :func:`beam_search_batch` — entries into the
  shared lockstep kernel (:mod:`repro.engine.kernel`; the scalar call
  is the ``B=1`` case); :class:`SearchResult`,
  :class:`BatchSearchResult`, :class:`BeamStep`.
* :class:`ProximityGraph` — shared container (paper Def. 2);
  :class:`PackedAdjacency` — its CSR view the kernel routes over.
* :func:`exact_knn` — blocked brute-force kNN.
* :func:`graph_to_arrays` / :func:`graph_from_arrays` — the exact
  graph <-> named-arrays codec (flat and HNSW) behind :mod:`repro.api`'s
  index persistence; :func:`load_graph` reads a format-1 ``graph.npz``.
"""

from .base import ProximityGraph, medoid
from .beam import (
    BatchDistanceFn,
    BatchSearchResult,
    BeamStep,
    DistanceFn,
    SearchResult,
    beam_search,
    beam_search_batch,
    exact_distance_fn,
    greedy_search,
)
from .hnsw import HNSW, build_hnsw
from .knn_graph import exact_knn, knn_graph_adjacency
from .nsg import build_nsg
from .packed import PackedAdjacency
from .prune import prune
from .serialization import graph_from_arrays, graph_to_arrays, load_graph
from .vamana import build_vamana

__all__ = [
    "PackedAdjacency",
    "ProximityGraph",
    "medoid",
    "beam_search",
    "beam_search_batch",
    "greedy_search",
    "exact_distance_fn",
    "BeamStep",
    "SearchResult",
    "BatchSearchResult",
    "DistanceFn",
    "BatchDistanceFn",
    "HNSW",
    "build_hnsw",
    "build_nsg",
    "build_vamana",
    "prune",
    "exact_knn",
    "knn_graph_adjacency",
    "graph_to_arrays",
    "graph_from_arrays",
    "load_graph",
]
