"""Speculative lockstep driver for construction-time searches.

It serves HNSW's layered insert alone.  Vamana and the streaming index
insert in deterministic batches instead
(:func:`repro.graphs.vamana.insert_batch`, ParlayANN's scheme), which
changes their graphs on purpose and needs no re-searches; HNSW still
builds the graph of strictly sequential insertion, so it keeps this
driver until its layered insert is batched the same way, and the
driver goes with that change.

HNSW's insert is inherently sequential: point ``t``'s search must
observe the graph *after* points ``0..t-1`` were inserted.  The driver
batches those searches anyway, without changing a single edge of the
result, via optimistic concurrency:

1. search a window of pending points in one lockstep kernel call
   against the current graph (a snapshot — nothing mutates during the
   call), remembering for each point the set of adjacency lists its
   trajectory read (the kernel's ``collect_visited``);
2. insert points strictly in order, validating each cached search
   first: if *none* of the adjacency lists it read were modified since
   its search, its trajectory on the live graph is step-for-step
   identical (the search reads nothing else), so the cached result is
   exactly what a sequential search would have returned;
3. re-search only the invalidated points — again in lockstep — and
   carry still-valid cached results across windows.

The caller owns the mutation log (typically a per-vertex last-modified
epoch array bumped by its ``apply``) and expresses it through
``is_valid``; the driver guarantees ``apply`` runs exactly once per
item, in order, with a payload that passed validation at its turn.
Because a freshly searched head item is always valid (no mutation can
intervene), every refill makes progress and the loop terminates after
at most one extra search per invalidation.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence


def lockstep_apply(
    num_items: int,
    batch_search: Callable[[Sequence[int]], List[object]],
    is_valid: Callable[[object], bool],
    apply: Callable[[int, object], None],
    batch_size: int,
) -> None:
    """Run ``apply(i, payload)`` for ``i = 0..num_items-1`` in order,
    obtaining payloads through ``batch_search`` in lockstep windows.

    Parameters
    ----------
    num_items:
        Number of sequential insertions.
    batch_search:
        ``indices -> payloads`` — one speculative lockstep search for
        the given item indices against the *current* graph.  Payloads
        must carry whatever ``is_valid`` needs (reads + search epoch).
    is_valid:
        Whether a cached payload is still exact under all mutations
        applied since it was computed.
    apply:
        Perform item ``i``'s insertion using its validated payload
        (and advance the caller's mutation log).
    batch_size:
        Maximum window of the speculative searches
        (``build_batch_size``).  ``1`` degenerates to strictly
        sequential search-then-insert.

    Notes
    -----
    The *effective* window adapts to the observed survival rate: when
    insertions invalidate most of a window (dense mutation relative to
    the graph size), speculating the full ``batch_size`` ahead wastes
    searches on items that will be re-searched anyway, so the driver
    halves its horizon toward the measured progress and grows it back
    multiplicatively while full windows survive.  The horizon changes
    only *when* items are searched, never what an applied payload
    contains, so the output is identical for every ``batch_size``.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    pos = 0
    horizon = batch_size
    cache: Dict[int, object] = {}
    while pos < num_items:
        window = range(pos, min(pos + horizon, num_items))
        dead = [
            i for i in window if i not in cache or not is_valid(cache[i])
        ]
        if dead:
            payloads = batch_search(dead)
            if len(payloads) != len(dead):
                raise ValueError(
                    f"batch_search returned {len(payloads)} payloads "
                    f"for {len(dead)} items"
                )
            for i, payload in zip(dead, payloads):
                cache[i] = payload
        start = pos
        while pos < num_items and pos in cache and is_valid(cache[pos]):
            apply(pos, cache.pop(pos))
            pos += 1
        applied = pos - start
        if applied >= len(window):
            horizon = min(batch_size, 2 * horizon)
        else:
            horizon = min(batch_size, max(2, 2 * applied))
