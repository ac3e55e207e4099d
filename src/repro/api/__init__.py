"""The unified index API: declarative specs, one protocol, persistence.

This package is the public surface real deployments program against
(the way Faiss exposes an index factory and DiskANN services expose a
config file):

* :class:`IndexSpec` (+ :class:`DatasetSpec`, :class:`GraphSpec`,
  :class:`QuantizerSpec`, :class:`ScenarioSpec`, :class:`ShardingSpec`)
  — an index described as data, JSON round-trippable.
* :func:`build` — the one construction path: resolves a spec through
  the scenario registry (:func:`register_scenario`) into any of the
  five scenario indexes or a sharded fan-out over them.
* :class:`SearchRequest` / :class:`SearchResponse` — the typed,
  scenario-uniform query surface; every index (and the serving layer)
  answers ``search(request)``.
* :func:`save_index` / :func:`load_index` — self-describing index
  directories that reconstruct bitwise-identical indexes in another
  process (what process/socket shard workers boot from).  One format
  is written — the memory-mapped container of raw sections — and
  older format-1 directories stay readable (``repro index
  migrate`` rewrites them).

Import note: :mod:`repro.api.protocol` and :mod:`repro.api.spec` are
dependency-free leaves (numpy only) imported eagerly so index modules
can use the request types without cycles; the registry and persistence
(which import the index/serving layers) load lazily on first use.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .protocol import (
    Index,
    SearchRequest,
    SearchResponse,
    SearchResponseRow,
)
from .spec import (
    DatasetSpec,
    GraphSpec,
    IndexSpec,
    QuantizerSpec,
    ScenarioSpec,
    ShardingSpec,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .persistence import (
        describe_index,
        load_index,
        save_index,
        saved_spec,
        storage_report,
    )
    from .registry import (
        build,
        get_scenario,
        register_scenario,
        scenario_for_index,
        scenario_names,
    )

_REGISTRY_NAMES = {
    "build",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "scenario_for_index",
}
_PERSISTENCE_NAMES = {
    "save_index",
    "load_index",
    "describe_index",
    "saved_spec",
    "storage_report",
}


def __getattr__(name: str):
    """Lazy re-exports (PEP 562) for the registry/persistence layers."""
    if name in _REGISTRY_NAMES:
        from . import registry

        return getattr(registry, name)
    if name in _PERSISTENCE_NAMES:
        from . import persistence

        return getattr(persistence, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    # spec tree
    "IndexSpec",
    "DatasetSpec",
    "GraphSpec",
    "QuantizerSpec",
    "ScenarioSpec",
    "ShardingSpec",
    # protocol
    "Index",
    "SearchRequest",
    "SearchResponse",
    "SearchResponseRow",
    # registry
    "build",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "scenario_for_index",
    # persistence
    "save_index",
    "load_index",
    "describe_index",
    "saved_spec",
    "storage_report",
]
