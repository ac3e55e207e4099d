"""Sharded fan-out search: partition the dataset, merge per-query top-k.

A shard is simply a whole index (any of the five scenarios) over a
partition of the dataset rows.  :class:`ShardedIndex` fans one
``search(request)`` out over the shards through the one
:class:`~repro.serving.backends.ShardBackend` fleet — ``replicas >= 1``
replicas per shard of the ``"thread"`` kind (the in-process object on
a shared pool: shard calls are pure NumPy over read-only state, so
threads overlap the GIL-released portions), the ``"process"`` kind
(persistent local worker processes mapping the shard's shipped state
and answering on an AF_UNIX socket; one GIL per worker) or the
``"socket"`` kind (remote TCP workers; one transport with the process
kind's) — and merges the per-shard stacked ``(B, k)``
responses with one ``argpartition`` per row.  The merge is exact over the union of shard
candidates: distances pass through untouched (no re-computation), ties
break deterministically by (distance, shard, within-shard rank), and a
single-shard index is bitwise identical to the unsharded one — the
merge is a pure selection, never an approximation.  Results are
bitwise identical across backends; only wall-clock changes.

For the streaming scenario the router also owns the write path:
:meth:`insert_batch` routes rows to the least-loaded shard (stable
tie-break on shard order) and :meth:`delete` forwards to the owning
shard, with a global id space mapping the caller's ids onto
``(shard, local-id)`` pairs.

Shards are read-only during a search and every ``search`` call
issues exactly one task per shard, so one in-flight search at a time is
safe on every scenario (the hybrid scenario's SSD counters are
per-shard state).  The dynamic batcher
(:class:`repro.serving.batcher.DynamicBatcher`) serializes searches by
construction; callers driving a ShardedIndex from multiple threads
directly must do their own serialization.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..api.protocol import (
    SearchRequest,
    SearchResponse,
    check_scenario_fields,
)
from .backends import make_shard_backend


def partition_rows(
    n: int, num_shards: int, strategy: str = "contiguous"
) -> List[np.ndarray]:
    """Split ``range(n)`` into ``num_shards`` disjoint id arrays.

    ``"contiguous"`` gives each shard a run of consecutive rows (the
    layout a range-partitioned deployment would use); ``"round_robin"``
    stripes rows across shards (better balance for sorted datasets).
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    if num_shards > n:
        raise ValueError(
            f"cannot split {n} rows across {num_shards} shards"
        )
    if strategy == "contiguous":
        return list(np.array_split(np.arange(n, dtype=np.int64), num_shards))
    if strategy == "round_robin":
        return [
            np.arange(s, n, num_shards, dtype=np.int64)
            for s in range(num_shards)
        ]
    raise ValueError(
        f"unknown partition strategy {strategy!r} "
        "(expected 'contiguous' or 'round_robin')"
    )


class ShardedIndex:
    """Fan-out wrapper over per-shard indexes with exact top-k merge.

    Parameters
    ----------
    shards:
        One index per shard.  All shards must be the same scenario
        (their responses are merged counter-by-counter).
    global_ids:
        Per shard, the global dataset id of each shard-local vertex
        (``global_ids[s][local]``).  ``None`` means every shard starts
        empty (the streaming scenario) and ids are assigned by
        :meth:`insert_batch`.
    max_workers:
        Thread-pool width for the ``"thread"`` backend's fan-out;
        defaults to one thread per shard (capped at the CPU count).
        ``1`` disables threading — results are identical either way,
        only wall-clock changes.  Worker backends ignore it (their
        parallelism is one worker per replica slot).
    backend:
        The replica kind the :class:`~repro.serving.backends.
        ShardBackend` fleet runs: ``"thread"`` (default, in-process
        pool), ``"process"`` (persistent worker processes fed via
        ``save_index``/``load_index``) or ``"socket"``.  Results are
        bitwise identical across backends.
    replicas:
        Replicas per shard (default ``1``) of the chosen kind, with
        least-loaded routing, transparent in-request failover, and a
        background supervisor respawning dead workers.  Results stay
        bitwise identical while any replica per shard is healthy; a
        shard whose *only* worker died fails its requests with
        ``ReplicaDied`` until the supervisor re-admits it.
    endpoints:
        ``"socket"`` backend only: per-shard worker addresses — one
        ``"host:port"`` string (or, with ``replicas > 1``, a list of
        them) per shard.  Required for ``"socket"``, rejected
        otherwise.
    """

    def __init__(
        self,
        shards: Sequence[object],
        global_ids: Optional[Sequence[np.ndarray]] = None,
        max_workers: Optional[int] = None,
        backend: str = "thread",
        replicas: int = 1,
        endpoints: Optional[Sequence] = None,
    ) -> None:
        shards = list(shards)
        if not shards:
            raise ValueError("need at least one shard")
        if global_ids is None:
            global_ids = [np.empty(0, dtype=np.int64) for _ in shards]
        if len(global_ids) != len(shards):
            raise ValueError(
                f"{len(shards)} shards but {len(global_ids)} id maps"
            )
        self._shards = shards
        self._global_ids = [
            np.asarray(g, dtype=np.int64).reshape(-1) for g in global_ids
        ]
        for s, (shard, gids) in enumerate(zip(shards, self._global_ids)):
            size = getattr(
                shard,
                "num_vertices",
                getattr(getattr(shard, "graph", None), "num_vertices", None),
            )
            if size is not None and size != gids.size:
                raise ValueError(
                    f"shard {s} has {size} vertices but its id map "
                    f"covers {gids.size}"
                )
        all_ids = (
            np.concatenate(self._global_ids)
            if any(g.size for g in self._global_ids)
            else np.empty(0, dtype=np.int64)
        )
        if all_ids.size and (
            all_ids.min() < 0 or np.unique(all_ids).size != all_ids.size
        ):
            raise ValueError("global ids must be non-negative and disjoint")
        # Owner map for write routing (global id -> (shard, local id));
        # built lazily so read-only scenarios never pay for it.
        self._owner: Optional[Dict[int, tuple]] = None
        self._next_global = int(all_ids.max()) + 1 if all_ids.size else 0
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self._max_workers = max_workers
        self._replicas = int(replicas)
        self._endpoints = endpoints
        self._backend = make_shard_backend(
            backend,
            self._shards,
            max_workers=max_workers,
            replicas=replicas,
            endpoints=endpoints,
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        x: np.ndarray,
        num_shards: int,
        factory: Callable[..., object],
        strategy: str = "contiguous",
        row_arrays: Optional[Dict[str, np.ndarray]] = None,
        max_workers: Optional[int] = None,
        backend: str = "thread",
        replicas: int = 1,
        endpoints: Optional[Sequence] = None,
    ) -> "ShardedIndex":
        """Partition ``x`` and build one index per shard.

        ``factory(x_shard, **row_kwargs)`` must return a fitted index
        over the shard's rows; ``row_arrays`` (e.g. ``labels`` for the
        filtered scenario) are partitioned the same way and passed
        through by name.
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        parts = partition_rows(x.shape[0], num_shards, strategy)
        shards = []
        for idx in parts:
            extra = {
                name: np.asarray(arr)[idx]
                for name, arr in (row_arrays or {}).items()
            }
            shards.append(factory(x[idx], **extra))
        return cls(
            shards,
            global_ids=parts,
            max_workers=max_workers,
            backend=backend,
            replicas=replicas,
            endpoints=endpoints,
        )

    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> List[object]:
        return list(self._shards)

    def shard_sizes(self) -> List[int]:
        """Vertices per shard (streaming shards count tombstones too)."""
        return [g.size for g in self._global_ids]

    @property
    def supports_labels(self) -> bool:
        """Label-filtered fan-out iff the shards are filtered indexes."""
        return bool(getattr(self._shards[0], "supports_labels", False))

    @property
    def num_vertices(self) -> int:
        return sum(self.shard_sizes())

    @property
    def num_active(self) -> int:
        """Live vertices (streaming shards subtract tombstones)."""
        return sum(
            getattr(s, "num_active", g.size)
            for s, g in zip(self._shards, self._global_ids)
        )

    # ------------------------------------------------------------------
    # Read path: fan out + merge
    # ------------------------------------------------------------------
    @property
    def backend(self) -> str:
        """The active shard-execution backend's name."""
        return self._backend.name

    @property
    def replicas(self) -> int:
        """Workers per shard (1 = unreplicated)."""
        return self._replicas

    def fleet_status(self) -> List[dict]:
        """Per-replica introspection rows (shard, replica, backend,
        liveness, restarts, in-flight count, pid, endpoint) from the
        active backend — one shape at every kind and replica count."""
        return self._backend.fleet_status()

    def engine_status(self) -> List[dict]:
        """Per-shard hot-path amortizer stats (the workspace pool),
        one row per shard; shards without the engine wiring (e.g.
        plain stubs) report ``None``.  Note the process backend
        runs searches in worker processes, so the in-process shard
        objects' counters only reflect searches served locally."""
        rows: List[dict] = []
        for s, shard in enumerate(self._shards):
            status = getattr(shard, "engine_status", None)
            if status is None:
                rows.append({"shard": s, "workspace_pool": None})
            else:
                rows.append({"shard": s, **status()})
        return rows

    def _swap_backend(
        self,
        backend: str,
        replicas: int,
        endpoints: Optional[Sequence] = None,
    ) -> None:
        replacement = make_shard_backend(
            backend,
            self._shards,
            max_workers=self._max_workers,
            replicas=replicas,
            endpoints=endpoints,
        )
        self._backend.close()
        self._backend = replacement
        self._replicas = int(replicas)
        self._endpoints = endpoints
        spec = getattr(self, "spec", None)
        if spec is not None:
            # Keep the attached declarative spec truthful — it is what
            # save_index persists and what a rebuild would resolve.
            # Replace rather than mutate: the caller may still hold it.
            self.spec = dataclasses.replace(
                spec,
                sharding=dataclasses.replace(
                    spec.sharding,
                    backend=backend,
                    replicas=int(replicas),
                    endpoints=endpoints,
                ),
            )

    def set_backend(
        self, backend: str, endpoints: Optional[Sequence] = None
    ) -> None:
        """Switch the fan-out backend (closing the current one).

        Results are bitwise identical across backends, so this is a
        pure wall-clock decision — e.g. load a saved index and flip a
        thread fan-out to process workers without rebuilding.  The
        replica count carries over.  ``endpoints`` configures the
        ``"socket"`` backend's worker addresses.
        """
        if backend == self._backend.name and endpoints is None:
            return
        self._swap_backend(backend, self._replicas, endpoints=endpoints)

    def set_replicas(self, replicas: int) -> None:
        """Resize the per-shard replica count (closing the current
        backend's workers and spawning the new fleet lazily).  Results
        are bitwise identical at any replica count."""
        if int(replicas) == self._replicas:
            return
        self._swap_backend(
            self.backend, int(replicas), endpoints=self._endpoints
        )

    def close(self) -> None:
        """Shut the fan-out backend down (idempotent)."""
        self._backend.close()

    def __enter__(self) -> "ShardedIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def search(self, request: SearchRequest) -> SearchResponse:
        """Fan ``request`` out over the shards and merge per-query top-k.

        Every shard answers the same request (the filtered scenario's
        ``labels`` ride along unchanged); the response carries ids
        mapped back to the global id space and per-query counters
        summed across shards — total work for that query.
        """
        check_scenario_fields(self, request)
        return self._merge(self._backend.search_all(request), request.k)

    def _merge(
        self, results: List[Optional[SearchResponse]], k: int
    ) -> SearchResponse:
        """Exact top-k over the union of shard candidates.

        One ``argpartition`` per row selects the k best of the ``S*k``
        shard candidates; ties at the selection boundary and in the
        final ordering both break by concatenation position — lower
        shard index first, then within-shard rank — so the merge is
        deterministic and a single shard passes through bitwise.

        A ``None`` entry means that shard produced no result (a
        ``replicas >= 2`` fleet lost every replica of it); its
        candidate block is all padding (ids ``-1``, distances ``inf``),
        so the request degrades to the surviving shards' union instead
        of failing.
        """
        live = [r for r in results if r is not None]
        if not live:
            raise RuntimeError(
                "every shard failed to produce a result; no replicas "
                "are healthy"
            )
        b_rows = live[0].ids.shape[0]
        id_blocks: List[np.ndarray] = []
        d_blocks: List[np.ndarray] = []
        for gids, result in zip(self._global_ids, results):
            if result is None:
                id_blocks.append(np.full((b_rows, k), -1, dtype=np.int64))
                d_blocks.append(
                    np.full((b_rows, k), np.inf, dtype=np.float64)
                )
                continue
            ids = result.ids[:, :k]
            dists = result.distances[:, :k]
            if ids.shape[1] < k:
                pad = k - ids.shape[1]
                ids = np.pad(ids, ((0, 0), (0, pad)), constant_values=-1)
                dists = np.pad(
                    dists, ((0, 0), (0, pad)), constant_values=np.inf
                )
            if gids.size:
                mapped = np.where(ids >= 0, gids[np.maximum(ids, 0)], -1)
            else:
                mapped = np.full_like(ids, -1)
            id_blocks.append(mapped)
            d_blocks.append(dists)
        all_ids = np.concatenate(id_blocks, axis=1)
        all_d = np.concatenate(d_blocks, axis=1)
        b = all_d.shape[0]

        if b == 0:
            out_ids = np.empty((0, k), dtype=np.int64)
            out_d = np.empty((0, k), dtype=np.float64)
            counts = np.empty(0, dtype=np.int64)
        else:
            part = np.argpartition(all_d, k - 1, axis=1)[:, :k]
            kth = np.take_along_axis(all_d, part, axis=1).max(axis=1)
            # Everything strictly below the k-th value is in; ties at
            # the boundary fill the remaining slots left-to-right.
            below = all_d < kth[:, None]
            at = all_d == kth[:, None]
            need = k - below.sum(axis=1)
            sel = below | (at & (np.cumsum(at, axis=1) <= need[:, None]))
            pos = np.nonzero(sel)[1].reshape(b, k)
            d_sel = np.take_along_axis(all_d, pos, axis=1)
            i_sel = np.take_along_axis(all_ids, pos, axis=1)
            order = np.argsort(d_sel, axis=1, kind="stable")
            out_d = np.take_along_axis(d_sel, order, axis=1)
            out_ids = np.take_along_axis(i_sel, order, axis=1)
            counts = (out_ids >= 0).sum(axis=1)

        counters = {}
        for name in live[0].counters:
            values = [r.counters[name] for r in live]
            if name == "beam_widths_used":
                # The escalation each shard needed, not their sum.
                counters[name] = np.maximum.reduce(values)
            else:
                counters[name] = np.sum(values, axis=0)
        return SearchResponse(out_ids, out_d, counts, counters)

    # ------------------------------------------------------------------
    # Write path (streaming scenario): routed inserts and deletes
    # ------------------------------------------------------------------
    def _require_streaming(self) -> None:
        for shard in self._shards:
            if not hasattr(shard, "insert_batch"):
                raise TypeError(
                    f"{type(shard).__name__} shards do not support "
                    "inserts/deletes (streaming scenario only)"
                )

    def _owner_map(self) -> Dict[int, tuple]:
        if self._owner is None:
            self._owner = {
                int(g): (s, local)
                for s, gids in enumerate(self._global_ids)
                for local, g in enumerate(gids)
            }
        return self._owner

    def insert(self, vector: np.ndarray) -> int:
        """Route one insert; returns the assigned global id."""
        return self.insert_batch(np.atleast_2d(vector))[0]

    def insert_batch(self, vectors: np.ndarray) -> List[int]:
        """Route rows to the least-loaded shards, preserving row order.

        Assignment is deterministic: each row goes to the shard with
        the fewest live vertices at that point (ties to the lowest
        shard index), then every shard ingests its sub-batch through
        its own lockstep ``insert_batch``.  Returns the global ids in
        input-row order.

        If a shard's ``insert_batch`` raises mid-way, the router's
        bookkeeping stays coherent with shard state: sub-batches that
        already succeeded are fully recorded (id maps, owner map,
        ``_next_global`` past their ids), the failed and not-yet-tried
        sub-batches are not recorded at all, and the exception
        propagates.  Global ids provisionally assigned to unrecorded
        rows are simply never issued (the id space may gap, never
        collide).
        """
        self._require_streaming()
        rows = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        loads = [
            int(getattr(s, "num_active", g.size))
            for s, g in zip(self._shards, self._global_ids)
        ]
        per_shard_rows: List[List[int]] = [[] for _ in self._shards]
        assignment = np.empty(rows.shape[0], dtype=np.int64)
        for i in range(rows.shape[0]):
            s = int(np.argmin(loads))
            assignment[i] = s
            per_shard_rows[s].append(i)
            loads[s] += 1
        # Provisional ids in input-row order; each becomes real — and
        # advances _next_global past itself — only when its shard's
        # sub-batch insert succeeds.
        global_ids = self._next_global + np.arange(
            rows.shape[0], dtype=np.int64
        )
        owner = self._owner_map()
        for s, row_ids in enumerate(per_shard_rows):
            if not row_ids:
                continue
            local_ids = self._shards[s].insert_batch(rows[row_ids])
            fresh = global_ids[row_ids]
            for g, local in zip(fresh, local_ids):
                owner[int(g)] = (s, int(local))
            self._global_ids[s] = np.concatenate(
                [self._global_ids[s], fresh]
            )
            self._next_global = max(
                self._next_global, int(fresh.max()) + 1
            )
            self._backend.invalidate(s)
        return [int(g) for g in global_ids]

    def delete(self, global_id: int) -> None:
        """Forward a delete to the shard owning ``global_id``."""
        self._require_streaming()
        try:
            shard, local = self._owner_map()[int(global_id)]
        except KeyError:
            raise KeyError(f"no vertex {global_id}") from None
        self._shards[shard].delete(local)
        self._backend.invalidate(shard)

    def consolidate(self) -> int:
        """Run delete consolidation on every shard; total cleaned up."""
        self._require_streaming()
        cleaned = 0
        for s, shard in enumerate(self._shards):
            cleaned_s = int(shard.consolidate())
            if cleaned_s:
                # Tombstone-free shards return 0 without mutating;
                # re-shipping their state would be wasted I/O.
                self._backend.invalidate(s)
            cleaned += cleaned_s
        return cleaned
