"""repro — reproduction of "Routing-Guided Learned Product Quantization
for Graph-Based Approximate Nearest Neighbor Search" (RPQ).

Subpackages
-----------
``repro.core``
    The paper's contribution: the RPQ facade, differentiable quantizer,
    feature extractor, and joint training (paper §3–§6).
``repro.quantization``
    Classical PQ substrate and baselines: PQ, OPQ, Catalyst, L&C, ADC.
``repro.graphs``
    Proximity graphs built from scratch: HNSW, NSG, Vamana; beam search.
``repro.index``
    PQ-integrated graph indexes: in-memory and DiskANN-style hybrid over
    a simulated SSD (paper §7).
``repro.datasets``
    Synthetic stand-ins for SIFT/Deep/GIST/BigANN/Ukbench (Table 3).
``repro.metrics`` / ``repro.eval``
    Recall@k, QPS, counters; per-figure experiment drivers (§8).
``repro.serving``
    Serving layer: sharded fan-out search and the dynamic-batching
    request queue (queue → batcher → sharded fan-out → merge).
``repro.api``
    The unified index API: declarative :class:`~repro.api.IndexSpec`,
    the scenario registry behind :func:`~repro.api.build`, the typed
    :class:`~repro.api.SearchRequest` /
    :class:`~repro.api.SearchResponse` protocol every index speaks,
    and :func:`~repro.api.save_index` / :func:`~repro.api.load_index`
    persistence (one on-disk format: a memory-mapped container).  Its
    top-level names are re-exported here.

Quick start (declarative)::

    import repro

    spec = repro.IndexSpec.from_json(open("index.json").read())
    index = repro.build(spec)
    response = index.search(repro.SearchRequest(queries, k=10))
    repro.save_index(index, "my-index/")

Quick start (imperative)::

    from repro.core import RPQ
    from repro.datasets import load, compute_ground_truth
    from repro.graphs import build_hnsw
    from repro.index import MemoryIndex

    data = load("sift", n_base=2000)
    graph = build_hnsw(data.base)
    rpq = RPQ(num_chunks=8, num_codewords=32).fit(data.base, graph)
    index = MemoryIndex(graph, rpq.quantizer, data.base)
    row = index.search(
        repro.SearchRequest(data.queries[0], k=10, beam_width=32)
    ).row(0)
"""

__version__ = "2.0.0"

from importlib import import_module
from typing import TYPE_CHECKING

from .api import (
    IndexSpec,
    SearchRequest,
    SearchResponse,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from . import (
        autodiff,
        core,
        datasets,
        eval,
        graphs,
        index,
        metrics,
        quantization,
        serving,
    )
    from .api import build, load_index, save_index

#: Sub-packages load on first attribute access (PEP 562): ``import
#: repro`` — which every ``python -m repro.cli serve-shard`` worker and
#: the gateway run — must not pay for the experiment and training code
#: (``repro.eval``, ``repro.core``, ``repro.autodiff`` and its
#: ``scipy.linalg``) that only rotation training uses.
_SUBPACKAGES = {
    "autodiff",
    "core",
    "datasets",
    "eval",
    "graphs",
    "index",
    "metrics",
    "quantization",
    "serving",
}
#: Registry/persistence names re-exported lazily (they pull in every
#: scenario class; see ``repro.api.__getattr__``).
_API_LAZY = {"build", "save_index", "load_index"}


def __getattr__(name: str):
    if name in _SUBPACKAGES:
        return import_module(f"{__name__}.{name}")
    if name in _API_LAZY:
        from . import api

        return getattr(api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "api",
    "autodiff",
    "core",
    "datasets",
    "eval",
    "graphs",
    "index",
    "metrics",
    "quantization",
    "serving",
    "IndexSpec",
    "SearchRequest",
    "SearchResponse",
    "build",
    "save_index",
    "load_index",
    "__version__",
]
