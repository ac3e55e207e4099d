"""Streaming index maintenance (Fresh-DiskANN-style [61]).

The paper integrates RPQ with DiskANN *and its variants*, including
Fresh-DiskANN — the streaming flavor that supports inserts and deletes
without a full rebuild.  This module provides that substrate:

* :meth:`FreshVamanaIndex.insert` — greedy-search + robust-prune
  insertion (the same primitive Vamana construction uses);
* :meth:`FreshVamanaIndex.insert_batch` — the same insertions with
  their searches issued in speculative lockstep batches (bitwise
  identical to sequential :meth:`insert` calls — see
  :mod:`repro.engine.construction`) and their rows encoded in one call;
* :meth:`FreshVamanaIndex.delete` — lazy tombstoning: the vertex stops
  appearing in results but keeps routing traffic until consolidation;
* :meth:`FreshVamanaIndex.consolidate` — Fresh-DiskANN's delete
  consolidation: neighbors of tombstoned vertices inherit the
  tombstone's out-edges (so connectivity survives) and are re-pruned,
  all of them in one :func:`~repro.graphs.prune.prune` call, which
  runs them in lockstep (every pool is read from the
  pre-consolidation lists, so the prunes are independent).

The index is stored the way the kernel reads it.  Vectors, codes and
tombstones are grow-only arrays whose first ``num_vertices`` rows are
live: an append that finds them full doubles their capacity, and reads
take prefix views.  The graph is one fixed-width ``(capacity, r + 1)``
block of :data:`~repro.graphs.packed.ID_DTYPE` ids plus a degree
vector (``r`` edges, plus the reverse edge an insert appends before it
re-prunes).  It serves the kernel's ``gather(vertices) -> (flat,
lens)`` contract itself, and every write updates it in place, so no
search after a write re-packs anything.  A memory-mapped load adopts
the saved vector, code and tombstone sections zero-copy; the first
write copies them into private arrays (copy-on-write at index
granularity).  On disk the graph stays the CSR pair
``stream_neighbors`` / ``stream_offsets``.

Search estimates distances with any fitted quantizer's ADC tables, so a
frozen RPQ drops in unchanged.  Codes for inserted vectors are computed
with the already-trained quantizer (the paper's deployment story:
train offline, serve online).  Query execution goes through the shared
engine core; the scenario policy layered on top is tombstone
compaction of the result lists.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

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
from ..graphs.beam import (
    BatchDistanceFn,
    beam_search,
    beam_search_batch,
    exact_distance_fn,
)
from ..graphs.packed import ID_DTYPE, PackedAdjacency
from ..graphs.prune import prune
from ..quantization.base import BaseQuantizer
from .base import GraphIndex, compact_rows


def _regrown(rows: np.ndarray, n: int, capacity: int) -> np.ndarray:
    """``rows``' first ``n`` rows in fresh zeroed memory of ``capacity``."""
    grown = np.zeros((capacity,) + rows.shape[1:], dtype=rows.dtype)
    grown[:n] = rows[:n]
    return grown


class _BlockGraph:
    """The live streaming graph, in the form the kernel reads.

    ``ids[v, :deg[v]]`` is vertex ``v``'s neighbor list in insertion
    order; the first ``n`` rows are vertices.  Every cell of ``ids``
    holds an id below ``n`` (rows start zeroed and a shortened list
    leaves only former neighbors behind), so a read of whole rows
    masked by degree (``cols < deg[rows, None]``) never indexes out of
    range.  Also the routing surface :class:`SearchContext` drives
    (``search_batch``).
    """

    __slots__ = ("ids", "deg", "n", "entry_point", "cols")

    def __init__(self, width: int) -> None:
        self.ids = np.zeros((0, width), dtype=ID_DTYPE)
        self.deg = np.zeros(0, dtype=np.int64)
        self.n = 0
        self.entry_point: Optional[int] = None
        self.cols = np.arange(width)

    @classmethod
    def from_csr(
        cls, width: int, neighbors: np.ndarray, offsets: np.ndarray
    ) -> "_BlockGraph":
        """The block holding a saved ``(neighbors, offsets)`` CSR pair
        (checked, and narrowed to :data:`ID_DTYPE`, by
        :class:`PackedAdjacency`)."""
        packed = PackedAdjacency(neighbors=neighbors, offsets=offsets)
        deg, neighbors, n = packed.degrees(), packed.neighbors, len(packed)
        bad_deg = n and not 0 <= deg.min() <= deg.max() < width
        bad_ids = neighbors.size and not 0 <= neighbors.min() <= neighbors.max() < n
        if bad_deg or bad_ids:
            raise ValueError(
                f"saved streaming graph has a list longer than {width - 1} "
                f"or a neighbor outside its {n} vertices"
            )
        graph = cls(width)
        graph.ids = np.zeros((n, width), dtype=ID_DTYPE)
        graph.ids[graph.cols < deg[:, None]] = neighbors
        graph.deg = deg
        graph.n = n
        return graph

    def to_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(neighbors, offsets)``: the live lists packed back to back."""
        deg = self.deg[: self.n]
        offsets = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(deg, out=offsets[1:])
        return self.ids[: self.n][self.cols < deg[:, None]], offsets

    def resize(self, capacity: int) -> None:
        self.ids = _regrown(self.ids, self.n, capacity)
        self.deg = _regrown(self.deg, self.n, capacity)

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, v: int) -> np.ndarray:
        return self.ids[v, : self.deg[v]]

    def gather(self, vertices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """What :meth:`~repro.graphs.packed.PackedAdjacency.gather`
        returns over the same lists: ``vertices``' lists concatenated,
        widened to int64, and one length per vertex."""
        vertices = np.asarray(vertices, dtype=np.int64)
        lens = self.deg[vertices]
        flat = self.ids[vertices][self.cols < lens[:, None]]
        return flat.astype(np.int64), lens

    def set_row(self, v: int, nbrs: np.ndarray) -> None:
        self.ids[v, : len(nbrs)] = nbrs
        self.deg[v] = len(nbrs)

    def set_rows(
        self, vertices: np.ndarray, flat: np.ndarray, lens: np.ndarray
    ) -> None:
        """Replace the lists of ``vertices`` with ``(flat, lens)``."""
        starts = np.repeat(np.cumsum(lens) - lens, lens)
        cols = np.arange(flat.size) - starts
        self.ids[np.repeat(vertices, lens), cols] = flat
        self.deg[vertices] = lens

    def search_batch(
        self,
        dist_fn: BatchDistanceFn,
        beam_width: int,
        num_queries: int,
        k: Optional[int] = None,
        workspace: Optional[KernelWorkspace] = None,
        profile: Optional[KernelProfile] = None,
    ):
        return beam_search_batch(
            self,
            np.full(num_queries, self.entry_point, dtype=np.int64),
            dist_fn,
            beam_width,
            k=k,
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

        # Grow-only rows (see the module docstring); ``_codes`` takes
        # the encoder's width and dtype from the first rows it stores.
        self._graph = _BlockGraph(self.r + 1)
        self._vectors = np.zeros((0, self.dim), dtype=np.float64)
        self._codes: Optional[np.ndarray] = None
        self._deleted = np.zeros(0, dtype=bool)
        # True while vectors/codes/tombstones are views of a read-only
        # mmap (storage v2 load); the first mutation promotes them to
        # private copies — see _writable.
        self._mapped: bool = False
        # The engine binding, whose workspace pool survives across
        # searches; the per-call _context() binds the graph and codes.
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
        n = self.num_vertices
        neighbors, offsets = self._graph.to_csr()
        meta = {key: getattr(self, key) for key in self._STATE_PARAMS}
        entry = self._graph.entry_point
        meta["entry"] = -1 if entry is None else int(entry)
        arrays = {
            "vectors": self._vectors[:n],
            # Nothing ever inserted: the (0,) float64 section an empty
            # list of code rows has always saved as.
            "codes": np.empty(0) if self._codes is None else self._codes[:n],
            "stream_neighbors": neighbors,
            "stream_offsets": offsets,
            "deleted": self._deleted[:n],
        }
        return meta, arrays

    @classmethod
    def load_arrays(cls, meta, source, graph, quantizer):
        """The live adjacency, codes, vectors and tombstones are
        restored exactly, so searches (and future inserts) continue
        bitwise identically.

        A mapped ``source`` hands out views of a shared read-only
        memory map: vectors, codes and tombstones are adopted zero-copy
        and the first mutating call promotes them to private memory
        instead of ever touching the map (copy-on-write at index
        granularity).  The graph block is built from the saved CSR in
        one vectorized pass.
        """
        self = cls(quantizer, **{key: meta[key] for key in cls._STATE_PARAMS})
        self._graph = _BlockGraph.from_csr(
            self.r + 1, source["stream_neighbors"], source["stream_offsets"]
        )
        n = self._graph.n
        vectors = np.asarray(source["vectors"], dtype=np.float64)
        self._vectors = vectors.reshape(-1, self.dim)
        self._codes = np.asarray(source["codes"]) if n else None
        self._deleted = np.asarray(source["deleted"], dtype=bool).reshape(-1)
        rows = {n, self._vectors.shape[0], self._deleted.size}
        if n:
            rows.add(self._codes.shape[0])
        if len(rows) != 1:
            raise ValueError(
                f"saved streaming state disagrees on its row count: {sorted(rows)}"
            )
        self._graph.entry_point = None if meta["entry"] < 0 else int(meta["entry"])
        self._mapped = bool(source.mapped)
        return self

    def _writable(self, extra: int = 0) -> None:
        """Private room for ``extra`` more rows: the copy-on-write
        promotion guard plus grow-only appends.

        A mapped index shares its vector/code/tombstone pages read-only
        with every sibling replica (and with the on-disk container).
        Any mutation must therefore first detach: copy the rows into
        private memory so the write path can never touch — or depend
        on — the shared map.  Reads stay zero-copy forever; only the
        first mutating call pays the copy.  Rows that run out of
        capacity move to twice as much.
        """
        n, capacity = self._graph.n, self._vectors.shape[0]
        if n + extra <= capacity and not self._mapped:
            return
        if n + extra > capacity:
            capacity = max(n + extra, 2 * capacity)
        self._vectors = _regrown(self._vectors, n, capacity)
        if self._codes is not None:
            self._codes = _regrown(self._codes, n, capacity)
        self._deleted = _regrown(self._deleted, n, capacity)
        self._graph.resize(capacity)
        self._mapped = False

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Total slots, including tombstoned ones."""
        return self._graph.n

    @property
    def num_active(self) -> int:
        return self.num_vertices - self.num_deleted

    @property
    def num_deleted(self) -> int:
        return int(np.count_nonzero(self._deleted[: self.num_vertices]))

    # ------------------------------------------------------------------
    def _stage(self, rows: np.ndarray) -> None:
        """Write ``rows``, their codes (one encode) and live flags into
        the slots after the last vertex; :meth:`_link` then turns them
        into vertices one at a time."""
        codes = self.quantizer.encode(rows)
        self._writable(rows.shape[0])
        if self._codes is None:
            self._codes = np.zeros(
                (self._vectors.shape[0],) + codes.shape[1:], dtype=codes.dtype
            )
        n, m = self.num_vertices, rows.shape[0]
        self._vectors[n : n + m] = rows
        self._codes[n : n + m] = codes
        self._deleted[n : n + m] = False

    def _link(self, candidates: Optional[List[int]]) -> int:
        """Make the next staged row a vertex, linked from ``candidates``
        (the ids a search of the pre-insert graph returned); the exact
        sequential insert body shared by :meth:`insert` and
        :meth:`insert_batch`."""
        graph = self._graph
        new_id = graph.n
        graph.n += 1
        if graph.entry_point is None:
            graph.entry_point = new_id
            return new_id

        assert candidates is not None
        x = self._vectors[: graph.n]

        def select(point: int, pool) -> np.ndarray:
            selected, _ = prune(
                x, [point], pool, [len(pool)], self.r, alpha=self.alpha, strict=False
            )
            return selected

        graph.set_row(new_id, select(new_id, candidates))
        for j in graph[new_id].tolist():
            # ``new_id`` is fresh, so no list holds it yet: the reverse
            # edge always appends (the block's spare column) and a list
            # that outgrows r is re-pruned.
            degree = int(graph.deg[j])
            graph.ids[j, degree] = new_id
            graph.deg[j] = degree + 1
            if degree + 1 > self.r:
                graph.set_row(j, select(j, graph[j]))
        return new_id

    def _rows(self, vectors: np.ndarray) -> np.ndarray:
        rows = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        if rows.shape[-1] != self.dim:
            raise ValueError(
                f"vector has dim {rows.shape[-1]}, index expects {self.dim}"
            )
        return rows

    def insert(self, vector: np.ndarray) -> int:
        """Add one vector; returns its vertex id."""
        row = self._rows(np.asarray(vector).reshape(-1))
        self._stage(row)
        graph = self._graph
        if graph.entry_point is None:
            return self._link(None)
        result = beam_search(
            graph,
            graph.entry_point,
            exact_distance_fn(self._vectors, row[0]),
            self.search_l,
        )
        return self._link(result.ids.tolist())

    def insert_batch(self, vectors: np.ndarray) -> List[int]:
        """Insert rows of ``vectors``; returns the assigned ids.

        The insert-time searches run in speculative lockstep windows of
        ``build_batch_size``; insertions are applied strictly in row
        order and re-searched when an earlier insertion touched an
        adjacency list their trajectory read, so the resulting graph is
        bitwise identical to looping :meth:`insert`.
        """
        rows = self._rows(vectors)
        if not rows.shape[0]:
            self._writable()
            return []
        self._stage(rows)
        graph = self._graph
        ids: List[int] = []
        epoch = 0
        last_mod = np.full(graph.n + rows.shape[0], -1, dtype=np.int64)

        def batch_search(indices):
            if graph.entry_point is None:
                # Empty index: nothing to search until the first row is
                # applied; payloads are placeholders that only stay
                # valid while the index remains empty.
                return [{"empty": True} for _ in indices]
            x = self._vectors
            queries = rows[indices]

            def dist_fn(qidx: np.ndarray, vertex_ids: np.ndarray):
                diff = x[vertex_ids] - queries[qidx]
                return np.einsum("ij,ij->i", diff, diff)

            result = beam_search_batch(
                graph,
                np.full(len(indices), graph.entry_point, dtype=np.int64),
                dist_fn,
                self.search_l,
                collect_visited=True,
            )
            assert result.visited_lists is not None
            return [
                {
                    "empty": False,
                    "epoch": epoch,
                    "ids": result.row(i).ids.tolist(),
                    "visited": result.visited_lists[i],
                }
                for i in range(len(indices))
            ]

        def is_valid(payload) -> bool:
            if payload["empty"]:
                return graph.entry_point is None
            if graph.entry_point is None:
                return False
            # Stale once any adjacency list the cached trajectory read
            # was modified by apply number ``epoch`` or later.
            return not (last_mod[payload["visited"]] >= payload["epoch"]).any()

        def apply(i: int, payload) -> None:
            nonlocal epoch
            new_id = self._link(None if payload["empty"] else payload["ids"])
            ids.append(new_id)
            last_mod[new_id] = epoch
            last_mod[graph[new_id]] = epoch
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
        self._writable()
        self._deleted[vertex] = True

    def consolidate(self) -> int:
        """Apply Fresh-DiskANN delete consolidation.

        Every in-neighbor of a tombstoned vertex inherits the
        tombstone's out-edges and is re-pruned; tombstones then lose all
        their edges.  Returns the number of vertices cleaned up.
        Tombstoned slots are retained (ids stay stable) but become
        unreachable.
        """
        n = self.num_vertices
        if not self._deleted[:n].any():
            return 0
        self._writable()
        graph, dead = self._graph, self._deleted[:n]
        block = graph.ids[:n]
        valid = graph.cols < graph.deg[:n, None]
        into_dead = valid & dead[block]
        points = np.flatnonzero(into_dead.any(axis=1) & ~dead)
        # Each pool, read from the pre-consolidation lists: the point's
        # surviving neighbors in order, then, per dead neighbor in
        # order, that tombstone's live out-edges (the prune drops the
        # point itself).
        rows, into_dead = block[points], into_dead[points]
        kept_at, kept_col = np.nonzero(valid[points] & ~into_dead)
        dead_at, dead_col = np.nonzero(into_dead)
        tombs = rows[dead_at, dead_col]
        heirs = block[tombs]
        inherit = valid[tombs] & ~dead[heirs]
        owner = np.concatenate(
            [kept_at, np.repeat(dead_at, np.count_nonzero(inherit, axis=1))]
        )
        order = np.argsort(owner, kind="stable")
        pools = np.concatenate([rows[kept_at, kept_col], heirs[inherit]])[order]
        flat, lens = prune(
            self._vectors[:n],
            points,
            pools,
            np.bincount(owner, minlength=points.size),
            self.r,
            alpha=self.alpha,
            strict=False,
        )
        graph.set_rows(points, flat, lens)
        graph.deg[:n][dead] = 0
        if graph.entry_point is not None and dead[graph.entry_point]:
            graph.entry_point = self._pick_new_entry()
        return int(np.count_nonzero(dead))

    def _pick_new_entry(self) -> Optional[int]:
        alive = np.flatnonzero(~self._deleted[: self.num_vertices])
        if not alive.size:
            return None
        return int(alive[medoid(self._vectors[alive])])

    # ------------------------------------------------------------------
    def _context(self) -> SearchContext:
        """Per-call engine context over the current codes and graph."""
        return dataclasses.replace(
            self.context,
            graph=self._graph,
            codes=self._codes[: self.num_vertices],
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
        if self._graph.entry_point is None or self.num_active == 0:
            return self._padding(b, k)
        stats = RunStats()
        result = self._context().run(
            queries,
            request.beam_width,
            stats=stats,
            profile=self.kernel_profile,
        )
        # Alive candidates first, ranking order preserved.
        dead = self._deleted[: self.num_vertices]
        width = result.ids.shape[1]
        valid = np.arange(width)[None, :] < result.counts[:, None]
        alive = valid & ~dead[np.where(valid, result.ids, 0)]
        return self._respond(
            *compact_rows(result.ids, result.distances, alive, k),
            stats.workspace_reused,
            hops=result.hops,
            distance_computations=result.distance_computations,
        )
