"""Proximity-graph container (paper Def. 2).

A :class:`ProximityGraph` is a flat adjacency structure over vertex ids
``0..n-1`` (a bijection with the dataset rows) plus an entry point.  The
HNSW builder subclasses it to add its upper routing layers; NSG and
Vamana produce plain instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..engine.profile import KernelProfile
from ..engine.workspace import KernelWorkspace
from .beam import (
    BatchDistanceFn,
    BatchSearchResult,
    DistanceFn,
    SearchResult,
    beam_search,
    beam_search_batch,
)
from .packed import PackedAdjacency


@dataclass
class ProximityGraph:
    """Flat proximity graph: adjacency lists plus an entry vertex."""

    adjacency: List[np.ndarray]
    entry_point: int = 0
    name: str = "pg"
    build_stats: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.adjacency = [
            np.asarray(nbrs, dtype=np.int64) for nbrs in self.adjacency
        ]
        self._packed: Optional[PackedAdjacency] = None
        n = len(self.adjacency)
        if not 0 <= self.entry_point < max(n, 1):
            raise ValueError(
                f"entry_point {self.entry_point} out of range for {n} vertices"
            )
        for v, nbrs in enumerate(self.adjacency):
            if nbrs.size and (nbrs.min() < 0 or nbrs.max() >= n):
                raise ValueError(f"vertex {v} has out-of-range neighbors")

    @classmethod
    def from_packed(
        cls,
        packed: PackedAdjacency,
        entry_point: int = 0,
        name: str = "pg",
        **extra,
    ) -> "ProximityGraph":
        """Construct directly over a CSR view, skipping ``__post_init__``.

        The mmap load path hands in a :class:`PackedAdjacency` whose
        arrays are read-only views of an on-disk container; the
        per-vertex range validation (an O(E) scan that would fault in
        every adjacency page) is skipped — the writer only persists
        graphs that already passed it.  ``adjacency`` unpacks on first
        access, into zero-copy (int32) views of the packed neighbors.
        Extra keyword arguments are set as attributes (HNSW's
        ``upper_layers``/``max_level``).
        """
        n = len(packed)
        if not 0 <= int(entry_point) < max(n, 1):
            raise ValueError(
                f"entry_point {entry_point} out of range for {n} vertices"
            )
        graph = cls.__new__(cls)
        graph.entry_point = int(entry_point)
        graph.name = str(name)
        graph.build_stats = {}
        graph._packed = packed
        for key, value in extra.items():
            setattr(graph, key, value)
        return graph

    def __getattr__(self, name: str):
        # Reached only when the instance lacks the attribute: a
        # ``from_packed`` graph unpacks ``adjacency`` on first use.
        packed = self.__dict__.get("_packed")
        if name != "adjacency" or packed is None:
            raise AttributeError(name)
        self.adjacency = packed.to_lists()
        return self.adjacency

    # ------------------------------------------------------------------
    def packed(self) -> PackedAdjacency:
        """The CSR view the search kernel routes over (built lazily,
        cached until :meth:`invalidate_packed`)."""
        packed = getattr(self, "_packed", None)
        if packed is None:
            packed = PackedAdjacency.from_lists(self.adjacency)
            self._packed = packed
        return packed

    def invalidate_packed(self) -> None:
        """Drop the CSR cache after mutating ``adjacency`` in place."""
        self._packed = None

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self.packed())

    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return int(self.packed().neighbors.size)

    def neighbors(self, vertex: int) -> np.ndarray:
        return self.adjacency[vertex]

    def degree_stats(self) -> dict:
        degrees = np.array([nbrs.size for nbrs in self.adjacency])
        return {
            "min": int(degrees.min()) if degrees.size else 0,
            "max": int(degrees.max()) if degrees.size else 0,
            "mean": float(degrees.mean()) if degrees.size else 0.0,
        }

    def is_connected_from_entry(self) -> bool:
        """Whether every vertex is reachable from the entry point."""
        n = self.num_vertices
        if n == 0:
            return True
        reached = np.zeros(n, dtype=bool)
        stack = [self.entry_point]
        reached[self.entry_point] = True
        while stack:
            v = stack.pop()
            for u in self.adjacency[v]:
                if not reached[u]:
                    reached[u] = True
                    stack.append(int(u))
        return bool(reached.all())

    def to_networkx(self):
        """Export as a :class:`networkx.DiGraph` (for analysis/plotting).

        Vertex ids become node labels; no attributes are attached, so
        the export is cheap even for large graphs.
        """
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(range(self.num_vertices))
        for v, nbrs in enumerate(self.adjacency):
            graph.add_edges_from((v, int(u)) for u in nbrs)
        return graph

    def memory_bytes(self) -> int:
        """Approximate serialized size of the adjacency structure: the
        packed neighbor ids as stored, plus one id-wide degree each."""
        ids = self.packed().neighbors
        return ids.nbytes + self.num_vertices * ids.itemsize

    # ------------------------------------------------------------------
    def search(
        self,
        dist_fn: DistanceFn,
        beam_width: int,
        k: Optional[int] = None,
        record_trace: bool = False,
        entry: Optional[int] = None,
    ) -> SearchResult:
        """Beam-search routing with an arbitrary distance estimator."""
        start = self.entry_point if entry is None else entry
        return beam_search(
            self.packed(),
            start,
            dist_fn,
            beam_width,
            k=k,
            record_trace=record_trace,
        )

    def search_batch(
        self,
        dist_fn: BatchDistanceFn,
        beam_width: int,
        num_queries: int,
        k: Optional[int] = None,
        entries: Optional[np.ndarray] = None,
        workspace: Optional[KernelWorkspace] = None,
        profile: Optional[KernelProfile] = None,
    ) -> BatchSearchResult:
        """Lockstep beam-search routing for ``num_queries`` queries.

        ``dist_fn`` scores paired ``(query_idx, vertex_ids)`` arrays;
        every query starts at ``entry_point`` unless per-query
        ``entries`` are given.  Row ``b`` of the result is bitwise
        identical to :meth:`search` with the matching scalar callback.
        Routing reads the packed CSR view of the adjacency (same
        trajectory, vectorized neighbor gather).
        """
        if entries is None:
            entries = np.full(num_queries, self.entry_point, dtype=np.int64)
        else:
            entries = np.asarray(entries, dtype=np.int64).reshape(-1)
            if entries.shape[0] != num_queries:
                raise ValueError(
                    f"got {entries.shape[0]} entries for "
                    f"{num_queries} queries"
                )
        return beam_search_batch(
            self.packed(),
            entries,
            dist_fn,
            beam_width,
            k=k,
            workspace=workspace,
            profile=profile,
        )

    def n_hop_neighborhood(self, vertex: int, hops: int) -> np.ndarray:
        """All vertices within ``hops`` hops of ``vertex`` (excluding it).

        This is the population ``N_n(v)`` of the paper's Alg. 1
        (n-propagation sampling).
        """
        frontier = {int(vertex)}
        visited = {int(vertex)}
        collected: set[int] = set()
        for _ in range(hops):
            nxt: set[int] = set()
            for v in frontier:
                for u in self.adjacency[v]:
                    u = int(u)
                    if u not in visited:
                        visited.add(u)
                        nxt.add(u)
                        collected.add(u)
            if not nxt:
                break
            frontier = nxt
        return np.array(sorted(collected), dtype=np.int64)


def medoid(x: np.ndarray) -> int:
    """Index of the vector closest to the dataset centroid.

    Standard entry-point choice for NSG and Vamana.
    """
    x = np.asarray(x, dtype=np.float64)
    center = x.mean(axis=0)
    diff = x - center
    return int(np.einsum("ij,ij->i", diff, diff).argmin())
