"""Simulated SSD page store (the hybrid scenario's external memory).

DiskANN keeps the graph adjacency and the full-precision vectors on SSD
and pays one page read per visited vertex.  The paper's Fig. 5 reports
"Disk I/O time", which at fixed hardware is (number of page reads) x
(per-read latency).  This simulator reproduces exactly that accounting:

* each vertex's record (vector + adjacency) lives on one page;
* every :meth:`read_vertex` increments a counter and charges a
  configurable latency;
* batched reads model DiskANN's beam-width-deep request pipelining via
  a simple parallelism factor;
* :meth:`read_round` serves one such batched read for each of many
  independent queries in a single call (the lockstep kernel's round),
  charging each request exactly what :meth:`read_batch` would — on the
  caller's clock, so concurrent searches cannot perturb each other;
* the device's own counters are lifetime totals.

Absolute latencies are a device model, not a measurement — the curve
*shapes* (I/O time grows with hops; fewer hops at equal recall means
less I/O) are what the reproduction preserves.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..graphs.packed import PackedAdjacency


@dataclass
class SSDConfig:
    """Latency model of the simulated device.

    Attributes
    ----------
    read_latency_us:
        Service time of one random page read (NVMe-class default).
    queue_parallelism:
        How many reads the device can overlap; a batch of ``b`` reads
        costs ``ceil(b / parallelism) * read_latency_us``.
    page_bytes:
        Page size used only for capacity accounting.
    """

    read_latency_us: float = 100.0
    queue_parallelism: int = 8
    page_bytes: int = 4096


class SimulatedSSD:
    """Page store holding full vectors and adjacency per vertex."""

    def __init__(
        self,
        vectors: np.ndarray,
        adjacency: Sequence[np.ndarray],
        config: Optional[SSDConfig] = None,
    ) -> None:
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim != 2:
            raise ValueError("vectors must be 2-D")
        if len(adjacency) != vectors.shape[0]:
            raise ValueError(
                f"adjacency has {len(adjacency)} entries for "
                f"{vectors.shape[0]} vectors"
            )
        self._vectors = vectors
        # Stored as CSR (shared, not copied, when the graph hands over
        # its packed view) so a whole round's pages read as one gather.
        self._adjacency = (
            adjacency
            if isinstance(adjacency, PackedAdjacency)
            else PackedAdjacency.from_lists(adjacency)
        )
        self.config = config or SSDConfig()
        # read_round runs concurrently when thread replicas share the
        # index; the lifetime totals are read-modify-write.
        self._totals_lock = threading.Lock()
        self.reset_counters()

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self._vectors.shape[0]

    def reset_counters(self) -> None:
        self.page_reads = 0
        self.batched_requests = 0
        self.simulated_io_us = 0.0

    # ------------------------------------------------------------------
    def read_vertex(self, vertex: int) -> Tuple[np.ndarray, np.ndarray]:
        """Fetch one vertex record: (vector, neighbor ids)."""
        self.page_reads += 1
        self.batched_requests += 1
        self.simulated_io_us += self.config.read_latency_us
        return self._vectors[vertex], self._adjacency[vertex]

    def read_batch(self, vertices: np.ndarray) -> Tuple[np.ndarray, list]:
        """Fetch several records under the parallel-queue cost model."""
        vertices = np.asarray(vertices, dtype=np.int64)
        count = int(vertices.size)
        if count == 0:
            return self._vectors[:0], []
        self.page_reads += count
        self.batched_requests += 1
        waves = int(np.ceil(count / self.config.queue_parallelism))
        self.simulated_io_us += waves * self.config.read_latency_us
        return self._vectors[vertices], [self._adjacency[int(v)] for v in vertices]

    def read_round(
        self, vertices: np.ndarray, request_lens: np.ndarray, clock_us: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Serve many independent batched reads in one call.

        Request ``i`` covers the next ``request_lens[i]`` entries of
        ``vertices`` and is charged as its own :meth:`read_batch`.
        Returns ``(vectors, flat_neighbors, neighbor_lens, clock)``:
        the records of all ``vertices`` in order (adjacency lists
        concatenated, one length per vertex) and the running clock —
        ``clock[0]`` is ``clock_us``, the caller's clock before the
        round, and request ``i`` took ``clock[i + 1] - clock[i]``.
        Differencing off a running clock, as a caller bracketing one
        ``read_batch`` per request would measure it, repeats such a
        loop to the last bit for any latency setting; carrying that
        clock in the caller (a search starts its own at 0) keeps the
        bits independent of whatever else the device is serving.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        request_lens = np.asarray(request_lens, dtype=np.int64)
        clock = np.empty(request_lens.size + 1, dtype=np.float64)
        clock[0] = clock_us
        np.ceil(request_lens / self.config.queue_parallelism, out=clock[1:])
        clock[1:] *= self.config.read_latency_us
        np.add.accumulate(clock, out=clock)
        with self._totals_lock:
            self.page_reads += int(vertices.size)
            self.batched_requests += int(np.count_nonzero(request_lens))
            self.simulated_io_us += float(clock[-1] - clock[0])
        flat_neighbors, neighbor_lens = self._adjacency.gather(vertices)
        return self._vectors[vertices], flat_neighbors, neighbor_lens, clock

    # ------------------------------------------------------------------
    def stored_bytes(self) -> int:
        """On-device footprint: vectors + adjacency, page-rounded."""
        per_vertex = self._vectors.shape[1] * self._vectors.dtype.itemsize
        adj = self._adjacency.neighbors.nbytes
        raw = per_vertex * self.num_vertices + adj
        pages = int(np.ceil(raw / self.config.page_bytes))
        return pages * self.config.page_bytes
