"""The lockstep beam-search kernel (paper Alg. 2's routing loop).

This is the single routing primitive behind every index scenario and
every graph builder in the repo.  It runs the paper-faithful candidate
loop — maintain a global candidate set of at most ``beam_width``
vertices ranked by estimated distance; repeatedly expand the closest
unvisited vertices, merge their unseen neighbors, re-rank, truncate —
for ``B`` queries simultaneously.  A scalar search is simply the
``B=1`` invocation (see :func:`repro.graphs.beam.beam_search`), so
there is exactly one hand-maintained loop.

Per query, the trajectory — and therefore the returned ids, distances,
and counters — is bitwise identical to running the loop for that query
alone: fresh candidates are inserted in adjacency order and re-ranked
with the same stable sort, so ties break identically regardless of
batch size or batch composition.

Scenario policy is injected through two hooks:

``expand``
    Called once per round with the whole batch's frontier, flat;
    returns the neighbor lists, flat (see :data:`ExpandFn`).  The
    default reads ``adjacency`` directly; the disk scenario substitutes
    simulated SSD page reads (which also deliver the full vectors for
    its exact rerank) and does its per-query I/O accounting inside the
    hook.
``frontier_width``
    How many of a query's closest unvisited candidates are expanded per
    round — 1 for in-memory routing, DiskANN's ``io_width`` for the
    hybrid scenario's pipelined reads.  Every width runs the same round;
    within one round a later frontier member sees an earlier member's
    neighbors as already seen, exactly as if the members were expanded
    one after another.

Two performance levers are orthogonal to the trajectory and therefore
bitwise-invisible:

* when ``adjacency`` is a packed CSR structure (anything exposing a
  ``gather(vertices) -> (flat, lens)`` method, see
  :class:`repro.graphs.packed.PackedAdjacency`), the default expansion
  gathers a whole round's neighbor lists in one fancy-index slice-concat
  instead of a per-vertex Python loop;
* a :class:`~repro.engine.workspace.KernelWorkspace` passed as
  ``workspace=`` recycles the seen bitset and candidate
  buffers across calls (results are always copied out, so reuse cannot
  alias a caller's held arrays).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .profile import KernelProfile
from .workspace import BIT_MASKS, KernelWorkspace, bitset_set

DistanceFn = Callable[[np.ndarray], np.ndarray]
"""Maps an array of vertex ids to estimated distances to the query."""

BatchDistanceFn = Callable[[np.ndarray, np.ndarray], np.ndarray]
"""Maps paired ``(query_idx, vertex_ids)`` arrays to estimated distances.

``out[p]`` is the estimated distance between query ``query_idx[p]`` and
vertex ``vertex_ids[p]`` — one fancy-indexed call scores a whole
expansion round of the lockstep kernel.
"""

ExpandFn = Callable[
    [np.ndarray, np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]
]
"""Scenario expansion hook:
``(rows, frontier, frontier_lens) -> (flat_neighbors, neighbor_lens)``.

Everything is flat.  ``rows`` are the query rows expanding this round
(ascending); ``frontier`` holds their frontier vertices back to back,
``frontier_lens[i]`` of them for ``rows[i]``, each row's in
candidate-ranking order.  The hook returns what
:meth:`repro.graphs.packed.PackedAdjacency.gather` would for
``frontier`` — all neighbor lists concatenated in the same order plus
one length per frontier vertex — and may do per-row side accounting
(I/O model, exact-distance recording) before returning.
"""


@dataclass
class BeamStep:
    """One next-hop decision: the ranked candidates and the vertex chosen.

    ``candidates`` is the global candidate set *at decision time*, in
    ascending order of estimated distance; ``chosen`` is the vertex the
    search expanded (always the closest unvisited candidate).
    """

    chosen: int
    candidates: np.ndarray
    candidate_distances: np.ndarray


@dataclass
class SearchResult:
    """Outcome of one beam search."""

    ids: np.ndarray
    distances: np.ndarray
    hops: int
    distance_computations: int
    visited_count: int
    trace: Optional[List[BeamStep]] = field(default=None, repr=False)

    def top_k(self, k: int) -> "SearchResult":
        """Restrict the result list to its first ``k`` entries.

        The sliced arrays are copied out, never views — a held result
        must stay valid however the source buffers are reused.
        """
        return SearchResult(
            ids=self.ids[:k].copy(),
            distances=self.distances[:k].copy(),
            hops=self.hops,
            distance_computations=self.distance_computations,
            visited_count=self.visited_count,
            trace=self.trace,
        )


@dataclass
class BatchSearchResult:
    """Outcome of one lockstep multi-query beam search.

    ``ids`` / ``distances`` are stacked ``(B, W)`` arrays; row ``b``'s
    first ``counts[b]`` entries are valid, the remainder padded with
    ``-1`` / ``inf``.  The per-query counters mirror
    :class:`SearchResult`; :meth:`total_hops` and friends aggregate
    them for throughput reporting.  ``traces`` is populated only when
    the kernel was asked to record it.
    """

    ids: np.ndarray
    distances: np.ndarray
    counts: np.ndarray
    hops: np.ndarray
    distance_computations: np.ndarray
    visited_counts: np.ndarray
    traces: Optional[List[List[BeamStep]]] = field(default=None, repr=False)

    @property
    def num_queries(self) -> int:
        return self.ids.shape[0]

    @property
    def total_hops(self) -> int:
        return int(self.hops.sum())

    @property
    def total_distance_computations(self) -> int:
        return int(self.distance_computations.sum())

    def row(self, i: int) -> SearchResult:
        """Query ``i``'s result as a scalar :class:`SearchResult`."""
        c = int(self.counts[i])
        return SearchResult(
            ids=self.ids[i, :c].copy(),
            distances=self.distances[i, :c].copy(),
            hops=int(self.hops[i]),
            distance_computations=int(self.distance_computations[i]),
            visited_count=int(self.visited_counts[i]),
            trace=self.traces[i] if self.traces is not None else None,
        )

    def top_k(self, k: int) -> "BatchSearchResult":
        """Restrict every row to its first ``k`` entries.

        Copies the sliced columns out (no views into the kernel's
        candidate buffers) and carries ``traces`` through unchanged —
        they are per-row diagnostics, not per-rank lists, so ``k`` does
        not trim them.
        """
        return BatchSearchResult(
            ids=np.ascontiguousarray(self.ids[:, :k]),
            distances=np.ascontiguousarray(self.distances[:, :k]),
            counts=np.minimum(self.counts, k),
            hops=self.hops.copy(),
            distance_computations=self.distance_computations.copy(),
            visited_counts=self.visited_counts.copy(),
            traces=self.traces,
        )


def _empty_batch_result(width: int) -> BatchSearchResult:
    return BatchSearchResult(
        ids=np.empty((0, width), dtype=np.int64),
        distances=np.empty((0, width), dtype=np.float64),
        counts=np.empty(0, dtype=np.int64),
        hops=np.empty(0, dtype=np.int64),
        distance_computations=np.empty(0, dtype=np.int64),
        visited_counts=np.empty(0, dtype=np.int64),
    )


def execute(
    adjacency: Sequence[np.ndarray],
    entries: np.ndarray,
    dist_fn: BatchDistanceFn,
    beam_width: int,
    k: Optional[int] = None,
    *,
    frontier_width: int = 1,
    expand: Optional[ExpandFn] = None,
    expansion_counts_distance: bool = False,
    record_trace: bool = False,
    workspace: Optional[KernelWorkspace] = None,
    profile: Optional[KernelProfile] = None,
) -> BatchSearchResult:
    """Lockstep beam search for a whole query batch.

    Each round expands every still-active query's ``frontier_width``
    closest unvisited candidates, gathers all their neighbors (via
    ``expand`` or direct adjacency reads), probes the seen set once for
    the lot, scores every fresh (query, vertex) pair in a single
    ``dist_fn`` call, and re-ranks all touched candidate rows with one
    stable ``argsort`` over a shared padded buffer.  The seen set lives
    in a shared ``(B, ceil(n/8))`` uint8 bitset; the candidate buffer
    grows on demand, so no degree bound needs to be known up front.

    Parameters
    ----------
    adjacency:
        Per-vertex neighbor id arrays (any indexable with ``len``).  A
        packed CSR structure (``gather`` method) enables the vectorized
        neighbor gather; results are bitwise identical either way.
    entries:
        ``(B,)`` entry vertex per query (HNSW's upper-layer descent
        yields per-query entries; flat graphs pass a constant).
    dist_fn:
        Paired ``(query_idx, vertex_ids) -> distances`` callback.
    beam_width:
        ``h`` — the size the global candidate set is truncated to after
        each expansion round.
    k:
        If given, the returned lists are truncated to the best ``k``.
    frontier_width:
        Unvisited candidates expanded per query per round (the disk
        scenario's ``io_width``; 1 everywhere else).
    expand:
        Scenario expansion hook (see :data:`ExpandFn`); ``None`` reads
        ``adjacency`` directly.
    expansion_counts_distance:
        Count each expansion as one extra distance computation (the
        hybrid scenario's exact distance per page read).
    record_trace:
        Record a :class:`BeamStep` per next-hop decision (the routing
        features of paper Def. 6).  Requires ``frontier_width == 1``.
    workspace:
        A recycled :class:`~repro.engine.workspace.KernelWorkspace`; the
        kernel sizes/zeros it and leaves release to the caller.  ``None``
        uses a private fresh workspace.
    profile:
        A :class:`~repro.engine.profile.KernelProfile` accumulating
        per-stage wall-clock time; ``None`` (default) adds zero timer
        overhead.
    """
    if beam_width < 1:
        raise ValueError("beam_width must be >= 1")
    if frontier_width < 1:
        raise ValueError("frontier_width must be >= 1")
    if record_trace and frontier_width != 1:
        raise ValueError("record_trace requires frontier_width == 1")
    n = len(adjacency)
    entries = np.asarray(entries, dtype=np.int64).reshape(-1)
    b = entries.shape[0]
    out_w = beam_width if k is None else min(k, beam_width)
    if b == 0:
        return _empty_batch_result(out_w)
    if n == 0 or entries.min() < 0 or entries.max() >= n:
        raise ValueError(f"entry vertices out of range [0, {n})")
    # Packed CSR fast path: one slice-concat per round instead of a
    # per-vertex Python loop (only the default expansion reads
    # adjacency; scenario hooks do their own reads).
    gather = getattr(adjacency, "gather", None) if expand is None else None

    cap = beam_width + 1

    # Shared per-batch workspaces (recycled across calls when the
    # caller owns a pool; every returned array is copied out below).
    ws = workspace if workspace is not None else KernelWorkspace()
    ws.reset(b, n, cap)
    seen_flat = ws.seen.reshape(-1)
    seen_stride = ws.seen.shape[1]
    cand_ids = ws.cand_ids[:b, :cap]
    cand_d = ws.cand_d[:b, :cap]
    # The visited set, in candidate-buffer space: ``cand_vis[r, c]`` is
    # True when slot ``c`` of row ``r`` holds an already-expanded vertex
    # *or* padding, so the per-round frontier selection is a scan of
    # ``beam_width`` slots instead of an n-sized bitset probe.
    cand_vis = ws.cand_visited[:b, :cap]
    counts = np.ones(b, dtype=np.int64)
    hops = np.zeros(b, dtype=np.int64)
    dist_comps = np.ones(b, dtype=np.int64)
    traces: Optional[List[List[BeamStep]]] = (
        [[] for _ in range(b)] if record_trace else None
    )

    qidx = np.arange(b, dtype=np.int64)
    cand_ids[:, 0] = entries
    cand_d[:, 0] = np.asarray(dist_fn(qidx, entries), dtype=np.float64)
    cand_vis[:, 0] = False
    bitset_set(ws.seen, qidx, entries)

    while True:
        if profile is not None:
            profile.rounds += 1
            t0 = profile.start()
        # Frontier: every row's first ``frontier_width`` unvisited
        # slots, row-major, so each row's members come in ranking
        # order.  Rows enter a round truncated, so only the first
        # ``beam_width`` slots can hold a candidate.  A row without an
        # unvisited slot can never regain one (only its own expansions
        # add candidates), so the rows that still select something
        # *are* the active set.
        unvisited = ~cand_vis[:, :beam_width]
        sel = (
            np.add.accumulate(unvisited, axis=1, dtype=np.intp)
            <= frontier_width
        )
        sel &= unvisited
        picked = sel.reshape(-1).nonzero()[0]
        if not picked.size:
            break
        sel_r, sel_c = np.divmod(picked, beam_width)
        frontier = cand_ids[sel_r, sel_c]
        if record_trace:
            assert traces is not None
            for r, v in zip(sel_r, frontier):
                c = int(counts[r])
                traces[r].append(
                    BeamStep(
                        chosen=int(v),
                        candidates=cand_ids[r, :c].copy(),
                        candidate_distances=cand_d[r, :c].copy(),
                    )
                )
        cand_vis[sel_r, sel_c] = True
        round_hops = np.bincount(sel_r, minlength=b)
        hops += round_hops
        if expansion_counts_distance:
            dist_comps += round_hops

        # One neighbor list per frontier member, concatenated.
        if expand is not None:
            rows = round_hops.nonzero()[0]
            flat_nbrs, lens = expand(rows, frontier, round_hops[rows])
        elif gather is not None:
            flat_nbrs, lens = gather(frontier)
        else:
            nbr_lists = [
                np.asarray(adjacency[int(v)], dtype=np.int64)
                for v in frontier
            ]
            lens = np.array([nb.size for nb in nbr_lists], dtype=np.int64)
            flat_nbrs = np.concatenate(nbr_lists)
        if not flat_nbrs.size:
            continue
        # One flat byte index + bit mask serves both the probe of the
        # pre-round ``seen`` set and, below, the marking of what is kept.
        flat_q = sel_r.repeat(lens)
        byte = flat_q * seen_stride
        byte += flat_nbrs >> 3
        bit = BIT_MASKS[flat_nbrs & 7]
        fresh = (seen_flat[byte] & bit) == 0
        if frontier_width > 1:
            # Freshness is sequential within a row's frontier: a later
            # member finds an earlier member's neighbors already seen.
            # The same thing without the loop: an unseen (row, vertex)
            # is fresh only in the first list of its row that carries
            # it.  A stable sort on the pair brings each pair's
            # occurrences together in list order, so the first of a
            # group names that list and the rest compare against it.
            # (With one list per row there is nothing to filter.)
            cand = fresh.nonzero()[0]
            pair = flat_q[cand] * n
            pair += flat_nbrs[cand]
            order = pair.argsort(kind="stable")
            cand = cand[order]
            pair = pair[order]
            list_of = ws.iota(lens.size).repeat(lens)[cand]
            head = ws.iota(cand.size).copy()
            head[1:][pair[1:] == pair[:-1]] = 0
            np.maximum.accumulate(head, out=head)
            fresh[cand[list_of != list_of[head]]] = False
        fq = flat_q[fresh]
        fv = flat_nbrs[fresh]
        if not fq.size:
            continue
        # Duplicate-safe: two fresh vertices can share a byte.
        np.bitwise_or.at(seen_flat, byte[fresh], bit[fresh])

        if profile is not None:
            t0 = profile.add("gather", t0)
        fd = np.asarray(dist_fn(fq, fv), dtype=np.float64)
        fresh_counts = np.bincount(fq, minlength=b)
        dist_comps += fresh_counts
        if profile is not None:
            t0 = profile.add("score", t0)

        # Append each query's fresh candidates after its current tail,
        # preserving adjacency order (ties then break as in a scalar
        # candidate list's extend), growing the buffer when a round
        # delivers more neighbors than it currently fits.  ``fq`` is
        # sorted, so pair ``p`` is its row's ``p - start[row]``-th, the
        # rows that gained candidates are the nonzero bins, and their
        # longest new tail is both the growth check and the prefix
        # worth re-ranking.
        start = np.add.accumulate(fresh_counts)
        start -= fresh_counts
        dest = (counts - start)[fq]
        dest += ws.iota(fq.size)
        counts += fresh_counts
        touched = fresh_counts.nonzero()[0]
        upto = int(counts[touched].max())
        if upto > cap:
            new_cap = max(upto, 2 * cap)
            ws.grow_candidates(b, cap, new_cap)
            cap = new_cap
            cand_ids = ws.cand_ids[:b, :cap]
            cand_d = ws.cand_d[:b, :cap]
            cand_vis = ws.cand_visited[:b, :cap]
        cand_ids[fq, dest] = fv
        cand_d[fq, dest] = fd
        cand_vis[fq, dest] = False

        # Re-rank only the touched rows, and only over the occupied
        # prefix — everything past it is inf-padding that a stable sort
        # would keep in place anyway.  Only the columns that survive
        # truncation are gathered; one flat index into the (contiguous)
        # workspace buffers applies the permutation to all three.
        order = cand_d[touched, :upto].argsort(axis=1, kind="stable")
        kept = min(upto, beam_width)
        flat_o = order[:, :kept] + (touched * ws.cand_d.shape[1])[:, None]
        sorted_d = ws.cand_d.reshape(-1)[flat_o]
        sorted_i = ws.cand_ids.reshape(-1)[flat_o]
        sorted_v = ws.cand_visited.reshape(-1)[flat_o]
        if profile is not None:
            t0 = profile.add("rank", t0)
        # Row-fancy-plus-slice scatters compile to per-row memcpys.
        cand_d[touched, :kept] = sorted_d
        cand_ids[touched, :kept] = sorted_i
        cand_vis[touched, :kept] = sorted_v
        if upto > beam_width:
            # Overflow slots revert to padding (inf, and "visited" so
            # selection skips them; padding ids are never read).
            np.minimum(counts, beam_width, out=counts)
            cand_d[touched, beam_width:upto] = np.inf
            cand_vis[touched, beam_width:upto] = True
        if profile is not None:
            profile.add("truncate", t0)

    if profile is not None:
        profile.calls += 1
    take = np.minimum(counts, out_w)
    keep = np.arange(out_w)[None, :] < take[:, None]
    return BatchSearchResult(
        ids=np.where(keep, cand_ids[:, :out_w], -1),
        distances=np.where(keep, cand_d[:, :out_w], np.inf),
        counts=take,
        hops=hops,
        distance_computations=dist_comps,
        visited_counts=hops.copy(),
        traces=traces,
    )
