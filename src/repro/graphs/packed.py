"""Packed CSR adjacency — the kernel's contiguous neighbor storage.

A proximity graph's adjacency is authored as a list of per-vertex
arrays (easy to build and mutate), but the search kernel reads it
thousands of times per second.  :class:`PackedAdjacency` is the
read-optimized form: all neighbor lists concatenated into one flat
``neighbors`` array plus an ``offsets`` array of ``n + 1`` exclusive
prefix sums — the classic CSR layout, also the mmap-friendly shape
graph serialization stores (two flat arrays, zero object overhead).

**Vertex ids are int32 at rest and int64 in flight.**  ``neighbors``
— and so every container section, HNSW upper layer and replica state
directory that persists or ships it — stores :data:`ID_DTYPE`;
:meth:`PackedAdjacency.gather`, the hot path's only reader, widens
what it just gathered, once per lockstep round, so the kernel,
``SearchResponse.ids`` and the wire stay int64 (why there and not
further in: ``docs/architecture.md``).  ``offsets`` stay 8 bytes: they
are edge positions, and ``n x R`` passes 2^32 at the paper's 10^9 x 32.

With it, a whole lockstep round's neighbor gather
(``[adjacency[v] for v in frontier]``) collapses into one fancy-index
slice-concat (:meth:`gather`): no Python loop, no per-vertex ndarray
allocation, no ragged-list pointer chasing.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

#: The one at-rest vertex-id type (no parameter, no second width).
ID_DTYPE = np.dtype(np.int32)
MAX_ID = int(np.iinfo(ID_DTYPE).max)


def _refuse_wide(value: int, what: str) -> None:
    """Narrowing must never wrap: int32 stores ``[0, 2^31 - 1]``."""
    if not 0 <= value <= MAX_ID:
        raise ValueError(f"{what} {value} is outside int32's [0, {MAX_ID}] (2^31 - 1)")


class PackedAdjacency:
    """Immutable CSR view of a ragged adjacency structure.

    ``neighbors[offsets[v]:offsets[v + 1]]`` is vertex ``v``'s neighbor
    list, in the exact order the source adjacency stored it — packing
    must never reorder edges, since candidate insertion order is part
    of the kernel's bitwise contract.
    """

    __slots__ = ("neighbors", "offsets", "_ramp")

    def __init__(self, neighbors: np.ndarray, offsets: np.ndarray) -> None:
        if np.ndim(offsets) != 1 or np.shape(offsets)[0] < 1:
            raise ValueError("offsets must be a non-empty 1-D array")
        _refuse_wide(np.shape(offsets)[0] - 1, "vertex count")
        # Ids already at rest (an int32 section of a mapped container)
        # are adopted without a scan, so boot stays O(1).
        neighbors = np.asarray(neighbors)
        if neighbors.dtype != ID_DTYPE and neighbors.size:
            _refuse_wide(int(neighbors.min()), "vertex id")
            _refuse_wide(int(neighbors.max()), "vertex id")
        self.neighbors = np.ascontiguousarray(neighbors, dtype=ID_DTYPE)
        self.offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        self._ramp = np.empty(0, dtype=np.int64)  # gather's cached arange
        if int(self.offsets[-1]) != self.neighbors.size:
            raise ValueError(
                f"offsets[-1]={int(self.offsets[-1])} does not match "
                f"{self.neighbors.size} packed neighbors"
            )

    @staticmethod
    def from_lists(adjacency: Sequence) -> "PackedAdjacency":
        """Pack a list of per-vertex neighbor sequences."""
        n = len(adjacency)
        _refuse_wide(n, "vertex count")
        degrees = np.fromiter(
            (len(nbrs) for nbrs in adjacency), count=n, dtype=np.int64
        )
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=offsets[1:])
        if n and int(offsets[-1]):
            # Empty lists are skipped: they would promote the ids to float.
            flat = np.concatenate(
                [np.asarray(nbrs) for nbrs in adjacency if len(nbrs)]
            )
        else:
            flat = np.empty(0, dtype=ID_DTYPE)
        return PackedAdjacency(neighbors=flat, offsets=offsets)

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __getitem__(self, v: int) -> np.ndarray:
        """Vertex ``v``'s neighbor list (a zero-copy slice view)."""
        return self.neighbors[self.offsets[v] : self.offsets[v + 1]]

    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    def gather(self, vertices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenated neighbor lists of ``vertices`` in one shot.

        Returns ``(flat, lens)`` where ``flat`` is
        ``concatenate([self[v] for v in vertices])`` widened to int64
        (the at-rest / in-flight boundary) and ``lens[i]`` is
        ``len(self[vertices[i]])``.  The concat is a single fancy-index
        gather: positions are the per-vertex ``arange(start, end)``
        ranges, materialized with the standard repeat-plus-arange CSR
        trick.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        starts = self.offsets[vertices]
        lens = self.offsets[1:][vertices]
        lens -= starts
        shift = np.add.accumulate(lens)
        total = int(shift[-1]) if shift.size else 0
        if total == 0:
            return np.empty(0, dtype=np.int64), lens
        # pos = concat of [starts[i], starts[i]+lens[i]) ranges:
        # repeat each start minus the running offset of previous
        # lengths, then add a global arange.  ``starts`` and ``shift``
        # are this call's own temporaries, so the arithmetic reuses
        # them in place.
        shift -= lens
        starts -= shift
        pos = starts.repeat(lens)
        ramp = self._ramp  # 0..total-1, grown (replaced whole), never cut
        if ramp.size < total:
            ramp = self._ramp = np.arange(2 * total, dtype=np.int64)
        pos += ramp[:total]
        return self.neighbors[pos].astype(np.int64), lens

    def to_lists(self) -> List[np.ndarray]:
        """Unpack back into the list-of-arrays authoring form (views)."""
        return [self[v] for v in range(len(self))]
