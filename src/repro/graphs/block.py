"""Fixed-width adjacency block — a graph written where the kernel reads it.

The two graphs that change while they are searched, Vamana under
construction and the streaming index, keep their lists in one
``(capacity, width)`` block of :data:`~repro.graphs.packed.ID_DTYPE`
ids plus a degree vector.  The block serves the kernel's
``gather(vertices) -> (flat, lens)`` contract itself, and every write
(:meth:`BlockGraph.set_rows`, an append of reverse edges) updates it in
place, so no search after a write re-packs anything.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..engine import KernelProfile, KernelWorkspace
from .beam import BatchDistanceFn, beam_search_batch
from .packed import ID_DTYPE, PackedAdjacency


def regrown(rows: np.ndarray, n: int, capacity: int) -> np.ndarray:
    """``rows``' first ``n`` rows in fresh zeroed memory of ``capacity``."""
    grown = np.zeros((capacity,) + rows.shape[1:], dtype=rows.dtype)
    grown[:n] = rows[:n]
    return grown


class BlockGraph:
    """A graph of at most ``width`` neighbors per vertex.

    ``ids[v, :deg[v]]`` is vertex ``v``'s neighbor list in insertion
    order; the first ``n`` rows are vertices.  Every cell of ``ids``
    holds an id below ``n`` (rows start zeroed and a shortened list
    leaves only former neighbors behind), so a read of whole rows
    masked by degree (``cols < deg[rows, None]``) never indexes out of
    range.  Also the routing surface :class:`~repro.engine.SearchContext`
    drives (``search_batch``).
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
    ) -> "BlockGraph":
        """The block holding a saved ``(neighbors, offsets)`` CSR pair
        (checked, and narrowed to :data:`ID_DTYPE`, by
        :class:`PackedAdjacency`)."""
        packed = PackedAdjacency(neighbors=neighbors, offsets=offsets)
        deg, neighbors, n = packed.degrees(), packed.neighbors, len(packed)
        bad_deg = n and not 0 <= deg.min() <= deg.max() <= width
        bad_ids = neighbors.size and not 0 <= neighbors.min() <= neighbors.max() < n
        if bad_deg or bad_ids:
            raise ValueError(
                f"saved streaming graph has a list longer than {width} "
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
        self.ids = regrown(self.ids, self.n, capacity)
        self.deg = regrown(self.deg, self.n, capacity)

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

    def set_rows(
        self, vertices: np.ndarray, flat: np.ndarray, lens: np.ndarray
    ) -> None:
        """Replace the lists of ``vertices`` with ``(flat, lens)``."""
        self._write(vertices, flat, lens, np.zeros_like(lens))
        self.deg[vertices] = lens

    def append(self, vertices: np.ndarray, flat: np.ndarray, lens: np.ndarray) -> None:
        """Append ``(flat, lens)`` to the lists of distinct ``vertices``
        (each must still fit ``width``)."""
        self._write(vertices, flat, lens, self.deg[vertices])
        self.deg[vertices] += lens

    def _write(self, vertices, flat, lens, first) -> None:
        starts = np.repeat(np.cumsum(lens) - lens - first, lens)
        cols = np.arange(flat.size) - starts
        self.ids[np.repeat(vertices, lens), cols] = flat

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
