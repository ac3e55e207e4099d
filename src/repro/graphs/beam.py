"""Beam search over a proximity graph (paper Alg. 2's routing loop).

This module is the graph-level face of the shared execution engine:
:func:`beam_search` and :func:`beam_search_batch` are thin entries into
the single lockstep kernel in :mod:`repro.engine.kernel` — the scalar
call is literally the ``B=1`` invocation, so there is exactly one
routing loop in the repo.  Graph construction, full-precision search,
PQ-integrated ADC search, and routing-feature extraction all come
through here with a different distance callback.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..engine.kernel import (
    BatchDistanceFn,
    BatchSearchResult,
    BeamStep,
    DistanceFn,
    SearchResult,
    execute,
)
from ..engine.profile import KernelProfile
from ..engine.workspace import KernelWorkspace

__all__ = [
    "BatchDistanceFn",
    "BatchSearchResult",
    "BeamStep",
    "DistanceFn",
    "SearchResult",
    "beam_search",
    "beam_search_batch",
    "exact_distance_fn",
    "greedy_search",
    "singleton_dist_fn",
]


def singleton_dist_fn(dist_fn: DistanceFn) -> BatchDistanceFn:
    """Adapt a scalar distance callback to the kernel's paired form."""

    def fn(query_idx: np.ndarray, vertex_ids: np.ndarray) -> np.ndarray:
        del query_idx  # single query — every pair belongs to it
        return np.atleast_1d(np.asarray(dist_fn(vertex_ids)))

    return fn


def beam_search(
    adjacency: Sequence[np.ndarray],
    entry: int,
    dist_fn: DistanceFn,
    beam_width: int,
    k: Optional[int] = None,
    record_trace: bool = False,
) -> SearchResult:
    """Route over ``adjacency`` from ``entry`` toward the query.

    The ``B=1`` case of the lockstep kernel (one query, one entry).

    Parameters
    ----------
    adjacency:
        Per-vertex neighbor id arrays.
    entry:
        Entry vertex (paper: ``v_e``).
    dist_fn:
        Batched estimated-distance callback.  For full-precision search
        this computes true distances; for PQ-integrated search it sums
        ADC lookup-table entries.
    beam_width:
        ``h`` — the size the global candidate set is truncated to after
        each expansion.  Larger beams trade speed for recall.
    k:
        If given, the returned lists are truncated to the best ``k``.
    record_trace:
        Record a :class:`BeamStep` per next-hop decision (the routing
        features of Def. 6).
    """
    n = len(adjacency)
    if not 0 <= entry < n:
        raise ValueError(f"entry vertex {entry} out of range [0, {n})")
    result = execute(
        adjacency,
        np.array([entry], dtype=np.int64),
        singleton_dist_fn(dist_fn),
        beam_width,
        k=k,
        record_trace=record_trace,
    )
    return result.row(0)


def beam_search_batch(
    adjacency: Sequence[np.ndarray],
    entries: np.ndarray,
    dist_fn: BatchDistanceFn,
    beam_width: int,
    k: Optional[int] = None,
    workspace: Optional[KernelWorkspace] = None,
    profile: Optional[KernelProfile] = None,
) -> BatchSearchResult:
    """Lockstep beam search for a whole query batch.

    Direct entry into :func:`repro.engine.kernel.execute`; row ``b`` is
    bitwise identical to :func:`beam_search` with the matching scalar
    distance callback.  ``workspace``/``profile`` pass straight through
    to the kernel (recycled scratch buffers / stage timers).
    """
    return execute(
        adjacency,
        entries,
        dist_fn,
        beam_width,
        k=k,
        workspace=workspace,
        profile=profile,
    )


def greedy_search(
    adjacency: Sequence[np.ndarray],
    entry: int,
    dist_fn: DistanceFn,
) -> int:
    """Pure greedy descent (beam width 1); returns the local minimum.

    Used by HNSW's upper layers to locate the entry point for the base
    layer.
    """
    current = entry
    current_d = float(
        np.asarray(dist_fn(np.array([current], dtype=np.int64)))[0]
    )
    while True:
        neighbors = np.asarray(adjacency[current], dtype=np.int64)
        if not neighbors.size:
            return current
        nd = np.asarray(dist_fn(neighbors), dtype=np.float64)
        best = int(nd.argmin())
        if not nd[best] < current_d:
            return current
        current = int(neighbors[best])
        current_d = float(nd[best])


def exact_distance_fn(x: np.ndarray, query: np.ndarray) -> DistanceFn:
    """Squared-Euclidean distance callback against full-precision rows."""
    query = np.asarray(query, dtype=np.float64).reshape(-1)

    def fn(vertex_ids: np.ndarray) -> np.ndarray:
        rows = x[vertex_ids]
        diff = rows - query
        return np.einsum("ij,ij->i", diff, diff)

    return fn
