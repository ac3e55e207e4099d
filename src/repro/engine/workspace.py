"""Reusable kernel workspaces.

Each :func:`repro.engine.kernel.execute` call used to allocate its
scratch state from scratch: two ``(B, n)`` bool masks, the candidate
buffers, and assorted per-round index arrays.  At serving batch sizes
that allocation (and the page faults behind it) is a visible slice of
the per-call cost.  A :class:`KernelWorkspace` preallocates the lot and
is recycled across calls through a :class:`WorkspacePool`; results are
always *copied out* of the workspace, so reuse can never alias a
caller's held arrays.

The seen mask is stored bitset-packed — ``(B, ceil(n / 8))`` uint8
instead of ``(B, n)`` bool — an 8x footprint cut that keeps the mask
cache-resident for much larger graphs.  The packing helpers here
are the kernel's only bit-twiddling surface.
"""

from __future__ import annotations

import threading
from typing import List, Optional

import numpy as np

#: Per-bit masks, indexed by ``col & 7`` (little-endian bit order, the
#: same convention ``np.unpackbits(bitorder="little")`` decodes).
BIT_MASKS = 1 << np.arange(8, dtype=np.uint8)


def bitset_width(n: int) -> int:
    """Bytes per row of a bitset over ``n`` columns."""
    return (n + 7) >> 3


def bitset_set(buf: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> None:
    """Set bits where ``(rows, cols)`` pairs are unique.

    Fancy-index ``|=`` drops duplicate writes (NumPy buffering), so
    possibly-duplicate pairs need an unbuffered ``np.bitwise_or.at``.
    """
    buf[rows, cols >> 3] |= BIT_MASKS[cols & 7]


def _cleared_bitset(buf: np.ndarray, b: int, width: int) -> np.ndarray:
    """``buf`` with its ``(b, width)`` corner all clear — zeroed in
    place when it fits, else a grown (never shrunk) replacement."""
    if buf.shape[0] < b or buf.shape[1] < width:
        return np.zeros(
            (max(b, buf.shape[0]), max(width, buf.shape[1])), dtype=np.uint8
        )
    buf[:b, :width] = 0
    return buf


class KernelWorkspace:
    """Preallocated scratch state for one in-flight kernel call.

    Buffers grow monotonically (graph growth under streaming inserts,
    beam/batch growth across requests) and are never shrunk; ``reset``
    re-zeros exactly the region a call will read.  A candidate slot is
    padding when its distance is ``inf`` and its ``cand_visited`` flag
    is set; the kernel never reads a padding slot's id, and the zero
    fill on reset only keeps a recycled buffer's contents reproducible.
    """

    __slots__ = (
        "seen",
        "cand_ids",
        "cand_d",
        "cand_visited",
        "reused",
        "_iota",
        "_rounds_served",
    )

    def __init__(self) -> None:
        self.seen = np.empty((0, 0), dtype=np.uint8)
        self.cand_ids = np.empty((0, 0), dtype=np.int64)
        self.cand_d = np.empty((0, 0), dtype=np.float64)
        self.cand_visited = np.empty((0, 0), dtype=bool)
        self.reused = False
        self._iota = np.empty(0, dtype=np.int64)
        self._rounds_served = 0

    def reset(self, b: int, n: int, cap: int) -> None:
        """Size and zero the scratch region for a ``(b, n, cap)`` call."""
        self.seen = _cleared_bitset(self.seen, b, bitset_width(n))
        if self.cand_ids.shape[0] < b or self.cand_ids.shape[1] < cap:
            shape = (
                max(b, self.cand_ids.shape[0]),
                max(cap, self.cand_ids.shape[1]),
            )
            self.cand_ids = np.zeros(shape, dtype=np.int64)
            self.cand_d = np.full(shape, np.inf, dtype=np.float64)
            # Padding slots count as "visited" so the per-round
            # frontier selection never picks one.
            self.cand_visited = np.ones(shape, dtype=bool)
        else:
            self.cand_ids[:b, :cap] = 0
            self.cand_d[:b, :cap] = np.inf
            self.cand_visited[:b, :cap] = True
        self._rounds_served += 1

    def grow_candidates(self, b: int, old_cap: int, new_cap: int) -> None:
        """Extend the candidate region mid-call, preserving contents.

        The kernel occasionally outgrows its candidate capacity within
        a round; the grown columns get the same zero-id / inf-distance
        padding ``reset`` establishes.
        """
        if self.cand_ids.shape[1] >= new_cap:
            self.cand_ids[:b, old_cap:new_cap] = 0
            self.cand_d[:b, old_cap:new_cap] = np.inf
            self.cand_visited[:b, old_cap:new_cap] = True
            return
        rows = max(b, self.cand_ids.shape[0])
        new_ids = np.zeros((rows, new_cap), dtype=np.int64)
        new_d = np.full((rows, new_cap), np.inf, dtype=np.float64)
        new_vis = np.ones((rows, new_cap), dtype=bool)
        new_ids[:b, :old_cap] = self.cand_ids[:b, :old_cap]
        new_d[:b, :old_cap] = self.cand_d[:b, :old_cap]
        new_vis[:b, :old_cap] = self.cand_visited[:b, :old_cap]
        self.cand_ids = new_ids
        self.cand_d = new_d
        self.cand_visited = new_vis

    def iota(self, m: int) -> np.ndarray:
        """First ``m`` integers from a grow-only cached ``arange``."""
        if self._iota.size < m:
            self._iota = np.arange(max(m, 2 * self._iota.size), dtype=np.int64)
        return self._iota[:m]


class WorkspacePool:
    """Thread-safe free list of :class:`KernelWorkspace` objects.

    Indexes own one pool each, but a single index can serve concurrent
    searches (thread-backend replicas share the shard's index object),
    so acquisition must hand each in-flight call a private workspace.
    """

    def __init__(self, max_idle: int = 4) -> None:
        self.max_idle = int(max_idle)
        self._free: List[KernelWorkspace] = []
        self._lock = threading.Lock()
        self._created = 0
        self._reuses = 0

    def acquire(self) -> KernelWorkspace:
        with self._lock:
            if self._free:
                self._reuses += 1
                ws = self._free.pop()
                ws.reused = True
                return ws
            self._created += 1
        ws = KernelWorkspace()
        ws.reused = False
        return ws

    def release(self, ws: Optional[KernelWorkspace]) -> None:
        if ws is None:
            return
        with self._lock:
            if len(self._free) < self.max_idle:
                self._free.append(ws)

    def stats(self) -> dict:
        with self._lock:
            return {
                "created": self._created,
                "reuses": self._reuses,
                "idle": len(self._free),
                "max_idle": self.max_idle,
            }
