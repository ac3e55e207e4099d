"""Streaming index maintenance (Fresh-DiskANN-style [61]).

The paper integrates RPQ with DiskANN *and its variants*, including
Fresh-DiskANN — the streaming flavor that supports inserts and deletes
without a full rebuild.  This module provides that substrate:

* :meth:`FreshVamanaIndex.insert` — greedy-search + robust-prune
  insertion (the same primitive Vamana construction uses);
* :meth:`FreshVamanaIndex.insert_batch` — the same insertions with
  their searches issued in speculative lockstep batches (bitwise
  identical to sequential :meth:`insert` calls — see
  :mod:`repro.engine.construction`);
* :meth:`FreshVamanaIndex.delete` — lazy tombstoning: the vertex stops
  appearing in results but keeps routing traffic until consolidation;
* :meth:`FreshVamanaIndex.consolidate` — Fresh-DiskANN's delete
  consolidation: neighbors of tombstoned vertices inherit the
  tombstone's out-edges (so connectivity survives) and are re-pruned.

Search estimates distances with any fitted quantizer's ADC tables, so a
frozen RPQ drops in unchanged.  Codes for inserted vectors are computed
with the already-trained quantizer (the paper's deployment story:
train offline, serve online).  Query execution goes through the shared
engine core; the scenario policy layered on top is tombstone
compaction of the result lists.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

import numpy as np

from ..api.protocol import SearchRequest, SearchResponse
from ..api.registry import register_scenario
from ..engine import (
    KernelProfile,
    KernelWorkspace,
    RunStats,
    SearchContext,
    lockstep_apply,
)
from ..graphs.base import medoid
from ..graphs.beam import BatchDistanceFn, beam_search, beam_search_batch
from ..graphs.packed import PackedAdjacency
from ..graphs.vamana import robust_prune
from ..quantization.base import BaseQuantizer
from .base import GraphIndex, compact_rows


class _LiveGraphView:
    """Routing view over the mutable adjacency lists.

    Satisfies the ``search_batch`` surface :class:`SearchContext`
    drives, without freezing the lists into a
    :class:`~repro.graphs.base.ProximityGraph`.
    """

    def __init__(
        self,
        adjacency: List[List[int]],
        entry_point: int,
        packed: Optional[PackedAdjacency] = None,
    ) -> None:
        self.adjacency = adjacency
        self.entry_point = entry_point
        self.packed = packed

    def search_batch(
        self,
        dist_fn: BatchDistanceFn,
        beam_width: int,
        num_queries: int,
        k: Optional[int] = None,
        entries: Optional[np.ndarray] = None,
        collect_visited: bool = False,
        workspace: Optional[KernelWorkspace] = None,
        profile: Optional[KernelProfile] = None,
    ):
        if entries is None:
            entries = np.full(num_queries, self.entry_point, dtype=np.int64)
        adjacency = self.packed if self.packed is not None else self.adjacency
        return beam_search_batch(
            adjacency,
            entries,
            dist_fn,
            beam_width,
            k=k,
            collect_visited=collect_visited,
            workspace=workspace,
            profile=profile,
        )


@register_scenario("streaming")
class FreshVamanaIndex(GraphIndex):
    """Mutable Vamana graph + quantized codes with insert/delete.

    Built from a spec by *inserting* the dataset rows (construction is
    the product, so no pre-built graph is used); ``scenario.params``
    are the four keyword parameters below.

    Parameters
    ----------
    quantizer:
        A fitted quantizer (PQ/OPQ/RPQ...).  Codes are computed on
        insert; routing uses ADC against these codes.
    dim:
        Vector dimensionality.
    r:
        Maximum out-degree.
    search_l:
        Beam width for insert-time searches.
    alpha:
        Robust-prune α.
    build_batch_size:
        Lockstep window of :meth:`insert_batch`'s speculative
        construction-time searches.
    """

    needs_graph = False
    param_keys = frozenset({"r", "search_l", "alpha", "build_batch_size"})

    def __init__(
        self,
        quantizer: BaseQuantizer,
        dim: int,
        r: int = 16,
        search_l: int = 40,
        alpha: float = 1.2,
        build_batch_size: int = 32,
    ) -> None:
        if not quantizer.is_fitted:
            raise ValueError("quantizer must be fitted before serving")
        if r < 1:
            raise ValueError("r must be >= 1")
        if build_batch_size < 1:
            raise ValueError("build_batch_size must be >= 1")
        self.quantizer = quantizer
        self.dim = int(dim)
        self.r = int(r)
        self.search_l = int(search_l)
        self.alpha = float(alpha)
        self.build_batch_size = int(build_batch_size)

        self._vectors: List[np.ndarray] = []
        self._codes: List[np.ndarray] = []
        self._adjacency: List[List[int]] = []
        self._deleted: List[bool] = []
        self._entry: Optional[int] = None
        # True while vectors/codes rows are views of a read-only mmap
        # (storage v2 load); the first mutation promotes them to
        # private copies — see _promote_from_map.
        self._mapped: bool = False

        # Hot-path amortizers: the packed CSR view of the live adjacency
        # (invalidated by every graph mutation) and the engine binding,
        # whose workspace pool survives across searches; the per-call
        # _context() binds the live graph and codes.
        self._packed: Optional[PackedAdjacency] = None
        self._init_engine(None, None)

    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, params, graph, quantizer, x, labels=None):
        index = cls(quantizer, x.shape[1], **params)
        if x.shape[0]:
            index.insert_batch(x)
        return index

    #: The constructor arguments persisted (and restored) by name.
    _STATE_PARAMS = ("dim", "r", "search_l", "alpha", "build_batch_size")

    def export_arrays(self):
        packed = self._packed_adjacency()  # the live lists as CSR
        meta = {key: getattr(self, key) for key in self._STATE_PARAMS}
        meta["entry"] = -1 if self._entry is None else int(self._entry)
        arrays = {
            "vectors": np.asarray(self._vectors, dtype=np.float64).reshape(
                len(self._vectors), self.dim
            ),
            "codes": np.asarray(self._codes),
            "stream_neighbors": packed.neighbors,
            "stream_offsets": packed.offsets,
            "deleted": np.asarray(self._deleted, dtype=bool),
        }
        return meta, arrays

    @classmethod
    def load_arrays(cls, meta, source, graph, quantizer):
        """The live adjacency, codes, vectors and tombstones are
        restored exactly, so searches (and future inserts) continue
        bitwise identically.

        A mapped ``source`` hands out views of a shared read-only
        memory map: the rows are adopted zero-copy and the first
        mutating call promotes them to private memory instead of ever
        touching the map (copy-on-write at index granularity).
        """
        self = cls(quantizer, **{key: meta[key] for key in cls._STATE_PARAMS})
        packed = PackedAdjacency(
            neighbors=source["stream_neighbors"], offsets=source["stream_offsets"]
        )
        vectors = np.asarray(source["vectors"], dtype=np.float64)
        self._vectors = list(vectors.reshape(-1, self.dim))
        self._codes = list(np.asarray(source["codes"]))
        self._adjacency = [[int(u) for u in nbrs] for nbrs in packed.to_lists()]
        self._deleted = [bool(d) for d in np.asarray(source["deleted"]).reshape(-1)]
        self._entry = None if meta["entry"] < 0 else int(meta["entry"])
        self._mapped = bool(source.mapped)
        return self

    def _promote_from_map(self) -> None:
        """Copy-on-write promotion guard.

        A mapped index shares its vector/code pages read-only with
        every sibling replica (and with the on-disk container).  Any
        mutation must therefore first detach: copy the rows into
        private memory so the write path can never touch — or depend
        on — the shared map.  Reads stay zero-copy forever; only the
        first mutating call pays the copy.
        """
        if not self._mapped:
            return
        self._vectors = [np.array(row, dtype=np.float64) for row in self._vectors]
        self._codes = [np.array(row) for row in self._codes]
        self._mapped = False

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Total slots, including tombstoned ones."""
        return len(self._vectors)

    @property
    def num_active(self) -> int:
        return self.num_vertices - sum(self._deleted)

    @property
    def num_deleted(self) -> int:
        return sum(self._deleted)

    # ------------------------------------------------------------------
    def _check_dim(self, vector: np.ndarray) -> np.ndarray:
        vector = np.asarray(vector, dtype=np.float64).reshape(-1)
        if vector.shape[0] != self.dim:
            raise ValueError(
                f"vector has dim {vector.shape[0]}, index expects {self.dim}"
            )
        return vector

    def _apply_insert(self, vector: np.ndarray, candidates: Optional[List[int]]) -> int:
        """Append one vector and link it from ``candidates`` (the ids a
        search of the pre-insert graph returned); the exact sequential
        insert body shared by :meth:`insert` and :meth:`insert_batch`."""
        self._packed = None  # adjacency mutates below
        new_id = len(self._vectors)
        self._vectors.append(vector)
        self._codes.append(self.quantizer.encode(vector[None, :])[0])
        self._deleted.append(False)

        if self._entry is None:
            self._adjacency.append([])
            self._entry = new_id
            return new_id

        assert candidates is not None
        x = np.asarray(self._vectors)
        self._adjacency.append(robust_prune(x, new_id, candidates, self.alpha, self.r))
        for j in self._adjacency[new_id]:
            if new_id not in self._adjacency[j]:
                self._adjacency[j].append(new_id)
            if len(self._adjacency[j]) > self.r:
                self._adjacency[j] = robust_prune(
                    x, j, self._adjacency[j], self.alpha, self.r
                )
        return new_id

    def insert(self, vector: np.ndarray) -> int:
        """Add one vector; returns its vertex id."""
        self._promote_from_map()
        vector = self._check_dim(vector)
        if self._entry is None:
            return self._apply_insert(vector, None)
        result = beam_search(
            self._adjacency,
            self._entry,
            self._exact_fn(vector),
            self.search_l,
        )
        return self._apply_insert(vector, list(result.ids))

    def insert_batch(self, vectors: np.ndarray) -> List[int]:
        """Insert rows of ``vectors``; returns the assigned ids.

        The insert-time searches run in speculative lockstep windows of
        ``build_batch_size``; insertions are applied strictly in row
        order and re-searched when an earlier insertion touched an
        adjacency list their trajectory read, so the resulting graph is
        bitwise identical to looping :meth:`insert`.
        """
        self._promote_from_map()
        rows = [self._check_dim(v) for v in np.atleast_2d(vectors)]
        ids: List[int] = []
        epoch = 0
        last_mod = np.full(len(self._vectors) + len(rows), -1, dtype=np.int64)

        def batch_search(indices):
            if self._entry is None:
                # Empty index: nothing to search until the first row is
                # applied; payloads are placeholders that only stay
                # valid while the index remains empty.
                return [{"empty": True} for _ in indices]
            x = np.asarray(self._vectors)
            queries = np.stack([rows[i] for i in indices])

            def dist_fn(qidx: np.ndarray, vertex_ids: np.ndarray):
                diff = x[vertex_ids] - queries[qidx]
                return np.einsum("ij,ij->i", diff, diff)

            result = beam_search_batch(
                self._adjacency,
                np.full(len(indices), self._entry, dtype=np.int64),
                dist_fn,
                self.search_l,
                collect_visited=True,
            )
            assert result.visited_lists is not None
            return [
                {
                    "empty": False,
                    "epoch": epoch,
                    "ids": list(result.row(i).ids),
                    "visited": result.visited_lists[i],
                }
                for i in range(len(indices))
            ]

        def is_valid(payload) -> bool:
            if payload["empty"]:
                return self._entry is None
            if self._entry is None:
                return False
            # Stale once any adjacency list the cached trajectory read
            # was modified by apply number ``epoch`` or later.
            return not (last_mod[payload["visited"]] >= payload["epoch"]).any()

        def apply(i: int, payload) -> None:
            nonlocal epoch
            candidates = None if payload["empty"] else payload["ids"]
            new_id = self._apply_insert(rows[i], candidates)
            ids.append(new_id)
            last_mod[new_id] = epoch
            for j in self._adjacency[new_id]:
                last_mod[j] = epoch
            epoch += 1

        lockstep_apply(len(rows), batch_search, is_valid, apply, self.build_batch_size)
        return ids

    def delete(self, vertex: int) -> None:
        """Tombstone ``vertex``: it disappears from results immediately
        but keeps serving as a routing stepping stone until
        :meth:`consolidate`."""
        if not 0 <= vertex < self.num_vertices:
            raise KeyError(f"no vertex {vertex}")
        if self._deleted[vertex]:
            raise KeyError(f"vertex {vertex} already deleted")
        self._promote_from_map()
        self._deleted[vertex] = True

    def consolidate(self) -> int:
        """Apply Fresh-DiskANN delete consolidation.

        Every in-neighbor of a tombstoned vertex inherits the
        tombstone's out-edges and is re-pruned; tombstones then lose all
        their edges.  Returns the number of vertices cleaned up.
        Tombstoned slots are retained (ids stay stable) but become
        unreachable.
        """
        deleted = {v for v, dead in enumerate(self._deleted) if dead}
        if not deleted:
            return 0
        self._promote_from_map()
        self._packed = None  # edge inheritance rewrites adjacency
        x = np.asarray(self._vectors)
        for v in range(self.num_vertices):
            if self._deleted[v]:
                continue
            dead_neighbors = [u for u in self._adjacency[v] if u in deleted]
            if not dead_neighbors:
                continue
            survivors = [u for u in self._adjacency[v] if u not in deleted]
            inherited = [
                w
                for u in dead_neighbors
                for w in self._adjacency[u]
                if w not in deleted and w != v
            ]
            self._adjacency[v] = robust_prune(
                x, v, survivors + inherited, self.alpha, self.r
            )
        for v in deleted:
            self._adjacency[v] = []
        if self._entry in deleted:
            self._entry = self._pick_new_entry(deleted)
        return len(deleted)

    def _pick_new_entry(self, deleted: set) -> Optional[int]:
        alive = [
            v
            for v in range(self.num_vertices)
            if v not in deleted and not self._deleted[v]
        ]
        if not alive:
            return None
        x = np.asarray(self._vectors)[alive]
        return alive[medoid(x)]

    # ------------------------------------------------------------------
    def _exact_fn(self, query: np.ndarray):
        def fn(vertex_ids: np.ndarray) -> np.ndarray:
            rows = np.asarray([self._vectors[int(v)] for v in vertex_ids])
            diff = rows - query
            return np.einsum("ij,ij->i", diff, diff)

        return fn

    def _packed_adjacency(self) -> PackedAdjacency:
        """The CSR view of the live lists, rebuilt lazily after any
        mutation (insert links / consolidation) invalidates it."""
        if self._packed is None:
            self._packed = PackedAdjacency.from_lists(self._adjacency)
        return self._packed

    def _context(self) -> SearchContext:
        """Per-call engine context over the current codes and graph."""
        return dataclasses.replace(
            self.context,
            graph=_LiveGraphView(
                self._adjacency, self._entry, self._packed_adjacency()
            ),
            codes=np.asarray(self._codes),
        )

    def _search(self, queries: np.ndarray, request: SearchRequest) -> SearchResponse:
        """ADC beam search with per-query tombstone filtering.

        One shared table build, one lockstep routing pass through the
        engine core, then the scenario's policy: a vectorized stable
        compaction that drops tombstoned vertices (they still route, as
        in Fresh-DiskANN) while preserving each row's ranking order.
        """
        k = request.k
        b = queries.shape[0]
        if self._entry is None or self.num_active == 0:
            return self._padding(b, k)
        stats = RunStats()
        result = self._context().run(
            queries,
            request.beam_width,
            stats=stats,
            profile=self.kernel_profile,
        )
        # Alive candidates first, ranking order preserved.
        dead = np.asarray(self._deleted, dtype=bool)
        width = result.ids.shape[1]
        valid = np.arange(width)[None, :] < result.counts[:, None]
        alive = valid & ~dead[np.where(valid, result.ids, 0)]
        return self._respond(
            *compact_rows(result.ids, result.distances, alive, k),
            stats.workspace_reused,
            hops=result.hops,
            distance_computations=result.distance_computations,
        )
