"""Shared query-execution engine core.

Every search in this repo — scalar or batched, query-time or
construction-time, in-memory or SSD-hybrid — runs through one lockstep
kernel (:func:`~repro.engine.kernel.execute`).  The layering is:

* :mod:`repro.engine.kernel` — the lockstep beam kernel.  A scalar
  search is the ``B=1`` special case; scenario hooks (``expand``)
  inject per-expansion policy such as the disk scenario's SSD reads.
* :mod:`repro.engine.context` — :class:`SearchContext`, the bundle of
  dataset view (compact codes), lookup-table factory, and kernel
  invocation shared by the index scenarios.

Graph builders need nothing here beyond the kernel: they batch their
own construction-time searches (HNSW, Vamana and the streaming index
insert in deterministic batches, see :mod:`repro.graphs.vamana`).

See ``docs/architecture.md`` for how the scenarios layer policy over
this core and how sharding / async serving plug in.
"""

from .kernel import (
    BatchDistanceFn,
    BatchSearchResult,
    BeamStep,
    DistanceFn,
    SearchResult,
    execute,
)
from .context import RunStats, SearchContext
from .profile import KernelProfile
from .workspace import KernelWorkspace, WorkspacePool

__all__ = [
    "BatchDistanceFn",
    "BatchSearchResult",
    "BeamStep",
    "DistanceFn",
    "KernelProfile",
    "KernelWorkspace",
    "RunStats",
    "SearchContext",
    "SearchResult",
    "WorkspacePool",
    "execute",
]
