"""PQ-integrated graph indexes (paper §7): in-memory and SSD hybrid.

* :class:`GraphIndex` — the shared engine binding and query surface
  every scenario below subclasses (see :mod:`repro.index.base`).
* :class:`MemoryIndex` — codes + graph in memory, ADC-only search.
* :class:`DiskIndex` — DiskANN-style: codes in memory, vectors + graph
  on a :class:`SimulatedSSD`, exact rerank from fetched pages.
* :class:`L2RIndex` — learning-to-route ablation baseline.
* :class:`FreshVamanaIndex` — streaming inserts/deletes (Fresh-DiskANN);
  aliased as :class:`StreamingIndex`.
* :class:`FilteredMemoryIndex` — label-filtered search (Filter-DiskANN);
  aliased as :class:`FilteredIndex`.

Every index answers exactly one query surface —
``search(repro.api.SearchRequest)`` returning a
:class:`~repro.api.SearchResponse`: stacked ``(B, k)`` ids/distances,
per-query ``counts``, and a ``counters`` dict of per-query arrays (the
filtered scenario's labels are an optional request field);
``response.row(i)`` is one query's slice.  All five scenarios are
registered with the :mod:`repro.api` scenario registry, constructible
from an :class:`~repro.api.IndexSpec` via :func:`repro.api.build`, and
persistable with :func:`repro.api.save_index` /
:func:`repro.api.load_index`.
"""

from .base import GraphIndex
from .disk_index import DiskIndex
from .filtered import FilteredMemoryIndex
from .l2r import L2RIndex, LearnedRoutingReweighter
from .memory_index import MemoryIndex
from .ssd import SimulatedSSD, SSDConfig
from .streaming import FreshVamanaIndex

StreamingIndex = FreshVamanaIndex
FilteredIndex = FilteredMemoryIndex

__all__ = [
    "GraphIndex",
    "MemoryIndex",
    "DiskIndex",
    "L2RIndex",
    "LearnedRoutingReweighter",
    "SimulatedSSD",
    "SSDConfig",
    "FreshVamanaIndex",
    "StreamingIndex",
    "FilteredMemoryIndex",
    "FilteredIndex",
]
