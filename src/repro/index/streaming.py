"""Streaming index maintenance (Fresh-DiskANN-style [61]).

The paper integrates RPQ with DiskANN *and its variants*, including
Fresh-DiskANN — the streaming flavor that supports inserts and deletes
without a full rebuild.  This module provides that substrate:

* :meth:`FreshVamanaIndex.insert_batch` — greedy-search + robust-prune
  insertion through Vamana construction's own
  :func:`~repro.graphs.vamana.insert_batch`: rows are encoded in one
  call and linked in deterministic batches (ParlayANN's scheme), each
  searched in lockstep against the graph as it stood before it, so a
  batch of one row is a sequential insert; :meth:`FreshVamanaIndex.insert`
  is the batch of one row;
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
take prefix views.  The graph is one fixed-width ``(capacity, r)``
:class:`~repro.graphs.block.BlockGraph` of
:data:`~repro.graphs.packed.ID_DTYPE` ids plus a degree vector.  It
serves the kernel's ``gather(vertices) -> (flat, lens)`` contract
itself, and every write updates it in place, so no search after a
write re-packs anything.  A memory-mapped load adopts
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
from typing import List, Optional

import numpy as np

from ..api.protocol import SearchRequest, SearchResponse
from ..api.registry import register_scenario
from ..engine import RunStats, SearchContext
from ..graphs.base import medoid
from ..graphs.block import BlockGraph, regrown
from ..graphs.prune import prune
from ..graphs.vamana import batches, insert_batch
from ..quantization.base import BaseQuantizer
from .base import GraphIndex, compact_rows


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
        Largest batch :meth:`insert_batch` links at once (see
        :func:`~repro.graphs.vamana.batches`); ``1`` is strictly
        sequential insertion.
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
        self._graph = BlockGraph(self.r)
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
        self._graph = BlockGraph.from_csr(
            self.r, source["stream_neighbors"], source["stream_offsets"]
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
        self._vectors = regrown(self._vectors, n, capacity)
        if self._codes is not None:
            self._codes = regrown(self._codes, n, capacity)
        self._deleted = regrown(self._deleted, n, capacity)
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
        the slots after the last vertex; :meth:`insert_batch` then
        turns them into vertices."""
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

    def _rows(self, vectors: np.ndarray) -> np.ndarray:
        rows = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        if rows.shape[-1] != self.dim:
            raise ValueError(
                f"vector has dim {rows.shape[-1]}, index expects {self.dim}"
            )
        return rows

    def insert(self, vector: np.ndarray) -> int:
        """Add one vector; returns its vertex id (:meth:`insert_batch`
        of one row)."""
        return self.insert_batch(np.asarray(vector).reshape(1, -1))[0]

    def insert_batch(self, vectors: np.ndarray) -> List[int]:
        """Insert rows of ``vectors``; returns the assigned ids.

        The rows are encoded in one call and linked in Vamana's
        deterministic batches (:func:`~repro.graphs.vamana.batches`:
        at most as many rows as the index holds live vertices, at most
        ``build_batch_size``), each searched in lockstep against the
        graph as it stood before the batch.  On an empty index the
        first row becomes the entry point.  ``build_batch_size=1`` is
        strictly sequential insertion.
        """
        rows = self._rows(vectors)
        if not rows.shape[0]:
            self._writable()
            return []
        linked = self.num_active
        self._stage(rows)
        graph = self._graph
        ids = list(range(graph.n, graph.n + rows.shape[0]))
        if graph.entry_point is None:
            # The first row into an empty graph is its entry point.
            graph.entry_point = graph.n
            graph.n += 1
            linked += 1
        first = graph.n
        for start, stop in batches(ids[-1] + 1 - first, linked, self.build_batch_size):
            # The batch's rows become vertices, unreachable until linked.
            graph.n = first + stop
            insert_batch(
                graph,
                self._vectors,
                np.arange(first + start, first + stop),
                graph.entry_point,
                r=self.r,
                search_l=self.search_l,
                alpha=self.alpha,
            )
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
