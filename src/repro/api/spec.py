"""Declarative index description: the :class:`IndexSpec` tree.

An index in this repo used to exist only as imperative Python — build a
graph, fit a quantizer, pick one of five scenario classes, maybe wrap
the result in a :class:`~repro.serving.sharded.ShardedIndex`.  That
construction cannot cross a process boundary, which blocks the
ROADMAP's process-based shards and replication.

An :class:`IndexSpec` is the same recipe as data, in five sections
(mirroring Faiss index-factory strings and DiskANN service configs):

* :class:`DatasetSpec` — which synthetic profile to load (ignored when
  the caller passes data explicitly to :func:`repro.api.build`);
* :class:`GraphSpec` — proximity-graph kind + builder parameters;
* :class:`QuantizerSpec` — quantizer kind, codebook shape, training
  parameters;
* :class:`ScenarioSpec` — which of the registered scenarios to
  instantiate, plus scenario knobs (``distance_mode``, ``io_width``,
  label generation, ...);
* :class:`ShardingSpec` — fan-out across per-shard indexes.

Specs round-trip through plain dicts and JSON
(``from_dict(to_dict(spec)) == spec``), are hashable-free plain
dataclasses, and are attached to every index :func:`repro.api.build`
produces so persistence can write them back out.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional

SPEC_FORMAT_VERSION = 1

#: Sections an :class:`IndexSpec` dict must/can contain.
_SECTIONS = ("dataset", "graph", "quantizer", "scenario", "sharding")


@dataclass
class DatasetSpec:
    """Which synthetic dataset profile backs the index."""

    name: str = "sift"
    n_base: int = 2000
    n_queries: int = 40
    seed: int = 0


@dataclass
class GraphSpec:
    """Proximity-graph builder choice.

    ``params`` passes through to the builder by keyword (``r``,
    ``search_l``, ``alpha`` for Vamana; ``m``, ``ef_construction`` for
    HNSW; ``knn_k``, ``r``, ``search_l`` for NSG; ``build_batch_size``
    for any of them).  ``build_batch_size`` is, for Vamana and HNSW,
    the largest insert batch — it changes the graph, and ``1`` is
    sequential insertion — and, for NSG, the window of
    construction-time searches run in lockstep, which never changes the
    graph.
    """

    kind: str = "vamana"
    seed: int = 0
    params: Dict[str, Any] = field(default_factory=dict)


@dataclass
class QuantizerSpec:
    """Quantizer kind and codebook shape.

    ``kind`` is one of ``pq``, ``opq``, ``lnc``, ``catalyst``, ``rpq``;
    ``params`` passes extra constructor/training knobs through by
    keyword (e.g. ``opq_iter`` for OPQ, ``n_sq`` for L&C, RPQ training
    config overrides for ``rpq``).
    """

    kind: str = "pq"
    num_chunks: int = 8
    num_codewords: int = 32
    seed: int = 0
    params: Dict[str, Any] = field(default_factory=dict)


@dataclass
class ScenarioSpec:
    """Which registered scenario to build, plus its policy knobs.

    ``kind`` names a :func:`repro.api.register_scenario` entry —
    ``memory``, ``hybrid``, ``streaming``, ``filtered``, ``l2r`` out of
    the box.  ``params`` are scenario-specific (see each index class's
    docstring): e.g. ``distance_mode`` / ``storage_dtype`` for memory,
    ``io_width`` / ``ssd`` for hybrid, ``r`` / ``search_l`` / ``alpha``
    for streaming, ``num_labels`` / ``label_seed`` for filtered.
    """

    kind: str = "memory"
    params: Dict[str, Any] = field(default_factory=dict)


@dataclass
class ShardingSpec:
    """Fan-out layout: 1 shard means a plain unsharded index.

    ``backend`` picks the shard-execution backend (``"thread"``,
    ``"process"``, or ``"socket"`` — see
    :mod:`repro.serving.backends`); results are bitwise identical
    across backends, only wall-clock changes.
    ``max_workers`` bounds the thread backend's pool width and is
    ignored by the worker backends (one worker per replica slot).
    ``replicas`` is the replica count per shard of that backend's
    kind (least-loaded routing, in-request failover, background
    supervisor — see :mod:`repro.serving.backends`); results are
    bitwise identical at any replica count.
    ``endpoints`` is the ``"socket"`` backend's worker address list —
    one ``"host:port"`` entry per shard (each entry may be a list of
    ``replicas`` addresses); required for ``"socket"``, rejected for
    the in-process backends.
    """

    num_shards: int = 1
    strategy: str = "contiguous"
    max_workers: Optional[int] = None
    backend: str = "thread"
    replicas: int = 1
    endpoints: Optional[list] = None


@dataclass
class IndexSpec:
    """The full declarative recipe for one servable index."""

    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    graph: GraphSpec = field(default_factory=GraphSpec)
    quantizer: QuantizerSpec = field(default_factory=QuantizerSpec)
    scenario: ScenarioSpec = field(default_factory=ScenarioSpec)
    sharding: ShardingSpec = field(default_factory=ShardingSpec)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-ready, no numpy / no custom types)."""
        out = asdict(self)
        out["format_version"] = SPEC_FORMAT_VERSION
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "IndexSpec":
        """Inverse of :meth:`to_dict`; unknown keys are an error so
        typos in hand-written specs fail loudly."""
        data = dict(data)
        version = int(data.pop("format_version", SPEC_FORMAT_VERSION))
        if version > SPEC_FORMAT_VERSION:
            raise ValueError(
                f"spec has format version {version}; this build reads "
                f"up to {SPEC_FORMAT_VERSION}"
            )
        unknown = set(data) - set(_SECTIONS)
        if unknown:
            raise ValueError(
                f"unknown spec sections {sorted(unknown)}; expected a "
                f"subset of {list(_SECTIONS)}"
            )
        sections = {}
        for name, section_cls in (
            ("dataset", DatasetSpec),
            ("graph", GraphSpec),
            ("quantizer", QuantizerSpec),
            ("scenario", ScenarioSpec),
            ("sharding", ShardingSpec),
        ):
            payload = data.get(name, {})
            if not isinstance(payload, dict):
                raise ValueError(f"spec section {name!r} must be a mapping")
            valid = {f.name for f in section_cls.__dataclass_fields__.values()}
            bad = set(payload) - valid
            if bad:
                raise ValueError(
                    f"unknown keys {sorted(bad)} in spec section {name!r}; "
                    f"expected a subset of {sorted(valid)}"
                )
            sections[name] = section_cls(**payload)
        return cls(**sections)

    # ------------------------------------------------------------------
    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "IndexSpec":
        return cls.from_dict(json.loads(text))
