"""Scenario registry and the :func:`build` factory.

Every index scenario registers a handler under a short name
(``@register_scenario("memory")``); :func:`build` resolves an
:class:`~repro.api.spec.IndexSpec` through the registry so the five
scenario classes, :class:`~repro.serving.sharded.ShardedIndex`, and
future process-backed shards are all constructed through one path.
The experiment workbench (:class:`repro.eval.workbench.Workbench`) and
the CLI are thin wrappers over this module, and
:func:`build_graph_from_spec` / :func:`build_quantizer_from_spec` below
are the only kind -> constructor tables in ``src/``.

A handler owns three things for its scenario:

* ``build(scenario, graph, quantizer, x, labels=None)`` — construct a
  live index from resolved parts;
* ``export_arrays(index)`` — the scenario's JSON-able state plus its
  named arrays (nothing touches disk here);
* ``load_arrays(meta, source, graph, quantizer)`` — reconstruct the
  index from those, without the original dataset.  This pair is the
  one state codec per scenario; :mod:`repro.api.persistence` owns the
  on-disk format around it.

:func:`build` accepts overrides (``data``, ``graph``, ``quantizer``,
``labels``, per-shard graphs) so callers that already hold fitted
artifacts — the workbench's memoised sections — reuse them instead of
rebuilding; a spec alone is always
sufficient (datasets are synthetic and regenerable by name).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from .spec import GraphSpec, IndexSpec, QuantizerSpec, ScenarioSpec

# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_SCENARIOS: Dict[str, "ScenarioHandler"] = {}


def register_scenario(name: str) -> Callable[[type], type]:
    """Class decorator adding a scenario handler under ``name``."""

    def decorate(handler_cls: type) -> type:
        handler = handler_cls()
        handler.name = name
        _SCENARIOS[name] = handler
        return handler_cls

    return decorate


def get_scenario(name: str) -> "ScenarioHandler":
    """Look a handler up by its registered name."""
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; registered: {scenario_names()}"
        ) from None


def scenario_names() -> List[str]:
    """All registered scenario names, sorted."""
    return sorted(_SCENARIOS)


def scenario_for_index(index: object) -> "ScenarioHandler":
    """The handler whose scenario class ``index`` is an instance of.

    Most-derived match wins (``L2RIndex`` subclasses ``MemoryIndex``),
    so handlers declare their concrete ``index_cls``.
    """
    matches = [
        h
        for h in _SCENARIOS.values()
        if isinstance(index, h.index_cls)
    ]
    if not matches:
        raise TypeError(
            f"{type(index).__name__} does not belong to any registered "
            f"scenario ({scenario_names()})"
        )
    best = matches[0]
    for h in matches[1:]:
        if issubclass(h.index_cls, best.index_cls):
            best = h
    return best


class ScenarioHandler:
    """Base class for registry entries; subclasses set ``index_cls``."""

    name: str = ""
    index_cls: type = object
    #: whether the scenario's search takes per-query labels
    supports_labels = False
    #: whether :func:`build` must construct a proximity graph first
    needs_graph = True
    #: every key ``scenario.params`` may carry — unknown keys are
    #: rejected by :meth:`validate_params` (typos fail loudly, matching
    #: the spec layer's section/field validation)
    param_keys: frozenset = frozenset()

    def validate_params(self, scenario: ScenarioSpec) -> None:
        unknown = set(scenario.params) - set(self.param_keys)
        if unknown:
            raise ValueError(
                f"unknown scenario params {sorted(unknown)} for "
                f"{self.name!r}; expected a subset of "
                f"{sorted(self.param_keys)}"
            )

    # -- construction ---------------------------------------------------
    def build(
        self,
        scenario: ScenarioSpec,
        graph: object,
        quantizer: object,
        x: np.ndarray,
        labels: Optional[np.ndarray] = None,
    ) -> object:
        raise NotImplementedError

    def resolve_labels(
        self,
        scenario: ScenarioSpec,
        n: int,
        labels: Optional[np.ndarray],
    ) -> Optional[np.ndarray]:
        """Scenario hook for per-row side arrays (filtered overrides)."""
        return labels

    # -- persistence ----------------------------------------------------
    #: names returned by :meth:`export_arrays` that hold PQ code
    #: matrices — ``save_index(compress=True)`` entropy-codes exactly these
    code_arrays: tuple = ("codes",)

    def export_arrays(self, index: object):
        """Return ``(meta, arrays)``: the scenario's JSON-able state
        plus every per-row array, named.  Nothing touches disk here —
        the persistence layer owns layout and compression."""
        raise NotImplementedError

    def load_arrays(
        self,
        meta: Dict[str, Any],
        source,
        graph: object,
        quantizer: object,
    ) -> object:
        """Inverse of :meth:`export_arrays`.  ``source`` maps array
        name → ndarray (read-only memmap views when the container was
        opened mapped; ``source.mapped`` says which — a format-1
        directory arrives through the same interface, unmapped) and
        the result must answer searches bitwise-identically to the
        saved index."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# Resolution helpers (graph / quantizer / dataset sections)
# ----------------------------------------------------------------------


def build_graph_from_spec(gspec: GraphSpec, x: np.ndarray) -> object:
    """Construct the spec'd proximity graph over the rows of ``x``."""
    from ..graphs import build_hnsw, build_nsg, build_vamana

    builders = {"vamana": build_vamana, "hnsw": build_hnsw, "nsg": build_nsg}
    if gspec.kind not in builders:
        raise KeyError(
            f"unknown graph kind {gspec.kind!r}; "
            f"expected one of {sorted(builders)}"
        )
    return builders[gspec.kind](x, seed=gspec.seed, **dict(gspec.params))


#: Laptop-scale RPQ training defaults: what ``QuantizerSpec(kind="rpq")``
#: trains with unless its ``params`` override a field.
RPQ_QUICK_CONFIG = dict(
    epochs=4,
    batch_triplets=48,
    batch_records=10,
    num_triplets=192,
    num_queries=12,
    records_per_query=6,
    beam_width=8,
    refresh_routing_every=2,
    seed=0,
)


def build_quantizer_from_spec(
    qspec: QuantizerSpec,
    train: np.ndarray,
    x: Optional[np.ndarray] = None,
    graph: Optional[object] = None,
) -> object:
    """Construct and fit the spec'd quantizer.

    ``pq`` / ``opq`` / ``lnc`` / ``catalyst`` fit on ``train``; ``rpq``
    additionally needs the dataset and its graph (routing-guided
    training), so :func:`build` resolves the graph first.
    """
    from ..quantization import (
        CatalystQuantizer,
        LinkAndCodeQuantizer,
        OptimizedProductQuantizer,
        ProductQuantizer,
    )

    params = dict(qspec.params)
    m, k, seed = qspec.num_chunks, qspec.num_codewords, qspec.seed
    if qspec.kind == "pq":
        return ProductQuantizer(m, k, seed=seed).fit(train)
    if qspec.kind == "opq":
        params.setdefault("opq_iter", 5)
        return OptimizedProductQuantizer(m, k, seed=seed, **params).fit(train)
    if qspec.kind == "lnc":
        params.setdefault("n_sq", 1)
        return LinkAndCodeQuantizer(m, k, seed=seed, **params).fit(train)
    if qspec.kind == "catalyst":
        dim = train.shape[1]
        params.setdefault("out_dim", max(m, (dim // 2 // m) * m))
        params.setdefault("hidden_dim", 2 * dim)
        params.setdefault("epochs", 6)
        params.setdefault("batch_size", 128)
        return CatalystQuantizer(m, k, seed=seed, **params).fit(train)
    if qspec.kind == "rpq":
        from ..core import RPQ, RPQTrainingConfig

        if x is None or graph is None:
            raise ValueError(
                "quantizer kind 'rpq' trains against the dataset and its "
                "graph; build() resolves both before fitting"
            )
        config_kwargs = dict(RPQ_QUICK_CONFIG, seed=seed)
        config_kwargs.update(params)
        rpq = RPQ(m, k, config=RPQTrainingConfig(**config_kwargs), seed=seed)
        rpq.fit(x, graph, training_sample=train)
        return rpq.quantizer
    raise KeyError(
        f"unknown quantizer kind {qspec.kind!r}; expected one of "
        "['pq', 'opq', 'lnc', 'catalyst', 'rpq']"
    )


# ----------------------------------------------------------------------
# The factory
# ----------------------------------------------------------------------


def build(
    spec: IndexSpec,
    *,
    data: Optional[np.ndarray] = None,
    graph: Optional[object] = None,
    quantizer: Optional[object] = None,
    labels: Optional[np.ndarray] = None,
    shard_parts: Optional[Sequence[np.ndarray]] = None,
    shard_graphs: Optional[Sequence[object]] = None,
) -> object:
    """Construct the index an :class:`IndexSpec` describes.

    With no overrides, everything is resolved from the spec: the
    dataset section loads a synthetic profile, the graph section builds
    the proximity graph, the quantizer section fits the quantizer, and
    the scenario section instantiates the index through the registry —
    wrapped in a :class:`~repro.serving.sharded.ShardedIndex` when the
    sharding section asks for more than one shard.

    Overrides short-circuit individual stages for callers that already
    hold fitted artifacts:

    ``data``
        Use these rows instead of loading ``spec.dataset`` (the
        training sample for quantizer fitting defaults to the rows).
    ``graph``
        A pre-built graph over the rows (unsharded only).
    ``quantizer``
        A fitted quantizer (skips the quantizer section).
    ``labels``
        Per-row labels for the filtered scenario (otherwise generated
        from ``scenario.params`` — see the filtered handler).
    ``shard_parts`` / ``shard_graphs``
        Pre-computed row partitions and per-shard graphs (must match
        ``sharding.num_shards``).

    The resulting index carries the spec as ``index.spec`` so
    :func:`repro.api.save_index` can persist it alongside the arrays.
    """
    handler = get_scenario(spec.scenario.kind)
    handler.validate_params(spec.scenario)

    train = None
    if data is not None:
        x = np.atleast_2d(np.asarray(data, dtype=np.float64))
    else:
        from ..datasets import load

        dataset = load(
            spec.dataset.name,
            n_base=spec.dataset.n_base,
            n_queries=spec.dataset.n_queries,
            seed=spec.dataset.seed,
        )
        x = dataset.base
        train = dataset.train
    if train is None:
        train = x

    num_shards = int(spec.sharding.num_shards)
    if num_shards < 1:
        raise ValueError("sharding.num_shards must be >= 1")
    replicas = int(spec.sharding.replicas)
    if replicas < 1:
        raise ValueError("sharding.replicas must be >= 1")
    # Validate the backend name up front (even unsharded, where it is
    # unused): a typo'd spec value must fail loudly like unknown keys
    # do, and before any expensive per-shard graph builds.
    from ..serving import shard_backend_names

    if spec.sharding.backend not in shard_backend_names():
        raise ValueError(
            f"unknown shard backend {spec.sharding.backend!r}; "
            f"expected one of {shard_backend_names()}"
        )
    if spec.sharding.backend == "socket" and spec.sharding.endpoints is None:
        raise ValueError(
            "sharding.backend='socket' requires sharding.endpoints "
            "(one host:port per shard)"
        )
    if spec.sharding.endpoints is not None and spec.sharding.backend != (
        "socket"
    ):
        raise ValueError(
            "sharding.endpoints only applies to backend='socket', not "
            f"{spec.sharding.backend!r}"
        )

    if num_shards == 1 and replicas == 1:
        if graph is None and handler.needs_graph:
            graph = build_graph_from_spec(spec.graph, x)
        if quantizer is None:
            # RPQ trains against a graph even for graph-free scenarios
            # (streaming builds its own graph by insertion).
            qgraph = graph
            if qgraph is None and spec.quantizer.kind == "rpq":
                qgraph = build_graph_from_spec(spec.graph, x)
            quantizer = build_quantizer_from_spec(
                spec.quantizer, train, x=x, graph=qgraph
            )
        labels = handler.resolve_labels(spec.scenario, x.shape[0], labels)
        index = handler.build(spec.scenario, graph, quantizer, x, labels)
        index.spec = spec
        return index

    # -- sharded path ---------------------------------------------------
    from ..serving import ShardedIndex, partition_rows

    if graph is not None:
        if num_shards > 1:
            raise ValueError(
                "a single 'graph' override cannot back a sharded index; "
                "pass per-shard 'shard_graphs' (with 'shard_parts') "
                "instead"
            )
        # A replicated single-shard fleet: the one graph backs the one
        # shard (replication is about workers, not partitioning).
        if shard_graphs is None:
            shard_graphs = [graph]
        if shard_parts is None:
            shard_parts = [np.arange(x.shape[0], dtype=np.int64)]
    if shard_parts is None:
        shard_parts = partition_rows(
            x.shape[0], num_shards, spec.sharding.strategy
        )
    shard_parts = [np.asarray(p, dtype=np.int64) for p in shard_parts]
    if len(shard_parts) != num_shards:
        raise ValueError(
            f"got {len(shard_parts)} shard_parts for "
            f"{num_shards} shards"
        )
    if shard_graphs is None:
        if handler.needs_graph:
            shard_graphs = [
                build_graph_from_spec(spec.graph, x[idx])
                for idx in shard_parts
            ]
        else:
            shard_graphs = [None] * num_shards
    if len(shard_graphs) != num_shards:
        raise ValueError(
            f"got {len(shard_graphs)} shard_graphs for "
            f"{num_shards} shards"
        )
    if quantizer is None:
        # One quantizer serves every shard (train offline, serve
        # everywhere — the paper's deployment story).  RPQ trains
        # against a graph over the full dataset.
        qgraph = (
            build_graph_from_spec(spec.graph, x)
            if spec.quantizer.kind == "rpq"
            else None
        )
        quantizer = build_quantizer_from_spec(
            spec.quantizer, train, x=x, graph=qgraph
        )
    labels = handler.resolve_labels(spec.scenario, x.shape[0], labels)
    shards = [
        handler.build(
            spec.scenario,
            g,
            quantizer,
            x[idx],
            None if labels is None else np.asarray(labels)[idx],
        )
        for g, idx in zip(shard_graphs, shard_parts)
    ]
    index = ShardedIndex(
        shards,
        global_ids=shard_parts,
        max_workers=spec.sharding.max_workers,
        backend=spec.sharding.backend,
        replicas=replicas,
        endpoints=spec.sharding.endpoints,
    )
    index.spec = spec
    return index


# ----------------------------------------------------------------------
# The five built-in scenarios
# ----------------------------------------------------------------------


@register_scenario("memory")
class MemoryScenario(ScenarioHandler):
    """In-memory PQ+graph index (paper §7, the default scenario).

    ``scenario.params``: ``distance_mode`` ("adc"/"sdc"),
    ``table_dtype`` / ``storage_dtype`` ("float64"/"float32").
    """

    param_keys = frozenset(
        {"distance_mode", "table_dtype", "storage_dtype"}
    )

    @property
    def index_cls(self) -> type:
        from ..index import MemoryIndex

        return MemoryIndex

    def _kwargs(self, scenario: ScenarioSpec) -> Dict[str, Any]:
        params = dict(scenario.params)
        kwargs: Dict[str, Any] = {}
        if "distance_mode" in params:
            kwargs["distance_mode"] = params["distance_mode"]
        if params.get("table_dtype") is not None:
            kwargs["table_dtype"] = np.dtype(params["table_dtype"])
        if params.get("storage_dtype") is not None:
            kwargs["storage_dtype"] = np.dtype(params["storage_dtype"])
        return kwargs

    def build(self, scenario, graph, quantizer, x, labels=None):
        return self.index_cls(
            graph, quantizer, x, **self._kwargs(scenario)
        )

    def export_arrays(self, index):
        meta = {
            "dim": int(index.dim),
            "distance_mode": index.distance_mode,
            "table_dtype": np.dtype(index.table_dtype).name,
            "storage_dtype": np.dtype(index.storage_dtype).name,
        }
        return meta, {"codes": index.codes}

    def load_arrays(self, meta, source, graph, quantizer, **extra):
        return self.index_cls.from_state(
            graph,
            quantizer,
            source["codes"],
            dim=int(meta["dim"]),
            distance_mode=meta["distance_mode"],
            table_dtype=np.dtype(meta["table_dtype"]),
            storage_dtype=np.dtype(meta["storage_dtype"]),
            **extra,
        )


@register_scenario("l2r")
class L2RScenario(MemoryScenario):
    """Learning-to-route ablation: memory index + learned reweighting.

    ``scenario.params``: ``seed`` (reweighter sampling), plus
    ``num_queries`` / ``pairs_per_query`` fit sizes.
    """

    param_keys = frozenset({"seed", "num_queries", "pairs_per_query"})

    @property
    def index_cls(self) -> type:
        from ..index import L2RIndex

        return L2RIndex

    def build(self, scenario, graph, quantizer, x, labels=None):
        params = dict(scenario.params)
        return self.index_cls(
            graph,
            quantizer,
            x,
            num_queries=int(params.get("num_queries", 64)),
            pairs_per_query=int(params.get("pairs_per_query", 64)),
            rng=np.random.default_rng(params.get("seed", 0)),
        )

    def export_arrays(self, index):
        meta, arrays = super().export_arrays(index)
        arrays["l2r_weights"] = index.reweighter.weights
        return meta, arrays

    def load_arrays(self, meta, source, graph, quantizer):
        return super().load_arrays(
            meta, source, graph, quantizer, weights=source["l2r_weights"]
        )


@register_scenario("hybrid")
class HybridScenario(ScenarioHandler):
    """DiskANN-style SSD+memory hybrid.

    ``scenario.params``: ``io_width``, ``ssd`` (a mapping with
    ``read_latency_us`` / ``queue_parallelism`` / ``page_bytes``), and
    ``learned_routing`` + ``l2r_seed`` for the L2R-reweighted variant.
    """

    param_keys = frozenset(
        {"io_width", "ssd", "learned_routing", "l2r_seed"}
    )

    @property
    def index_cls(self) -> type:
        from ..index import DiskIndex

        return DiskIndex

    def _ssd_config(self, params: Dict[str, Any]):
        from ..index import SSDConfig

        ssd = params.get("ssd")
        return SSDConfig(**ssd) if ssd else None

    def build(self, scenario, graph, quantizer, x, labels=None):
        params = dict(scenario.params)
        kwargs: Dict[str, Any] = {
            "ssd_config": self._ssd_config(params),
            "io_width": int(params.get("io_width", 4)),
        }
        if params.get("learned_routing"):
            from ..index.l2r import LearnedRoutingReweighter

            reweighter = LearnedRoutingReweighter.fit(
                quantizer,
                x,
                rng=np.random.default_rng(params.get("l2r_seed", 0)),
            )
            kwargs["table_transform"] = reweighter.reweight
            kwargs["table_transform_batch"] = reweighter.reweight_batch
        return self.index_cls(graph, quantizer, x, **kwargs)

    def _reweighter_of(self, index):
        """The learned reweighter behind the table transforms, if any."""
        from ..index.l2r import LearnedRoutingReweighter

        for transform in (index.table_transform_batch, index.table_transform):
            owner = getattr(transform, "__self__", None)
            if isinstance(owner, LearnedRoutingReweighter):
                return owner
        if index.table_transform or index.table_transform_batch:
            raise ValueError(
                "cannot persist a DiskIndex with a custom table "
                "transform (only LearnedRoutingReweighter transforms "
                "round-trip)"
            )
        return None

    def export_arrays(self, index):
        reweighter = self._reweighter_of(index)
        config = index.ssd.config
        meta = {
            "dim": int(index.dim),
            "io_width": int(index.io_width),
            "learned_routing": reweighter is not None,
            "ssd": {
                "read_latency_us": float(config.read_latency_us),
                "queue_parallelism": int(config.queue_parallelism),
                "page_bytes": int(config.page_bytes),
            },
        }
        arrays = {"codes": index.codes, "vectors": index.ssd._vectors}
        if reweighter is not None:
            arrays["l2r_weights"] = reweighter.weights
        return meta, arrays

    def load_arrays(self, meta, source, graph, quantizer):
        from ..index import SSDConfig

        kwargs: Dict[str, Any] = {}
        if meta.get("learned_routing"):
            from ..index.l2r import LearnedRoutingReweighter

            reweighter = LearnedRoutingReweighter(source["l2r_weights"])
            kwargs["table_transform"] = reweighter.reweight
            kwargs["table_transform_batch"] = reweighter.reweight_batch
        return self.index_cls.from_state(
            graph,
            quantizer,
            source["codes"],
            source["vectors"],
            ssd_config=SSDConfig(**meta["ssd"]),
            io_width=int(meta["io_width"]),
            **kwargs,
        )


@register_scenario("filtered")
class FilteredScenario(ScenarioHandler):
    """Label-filtered search (Filter-DiskANN-style).

    ``scenario.params``: ``num_labels`` + ``label_seed`` generate
    per-vertex labels when the caller does not pass a ``labels`` array
    (so a JSON spec alone fully determines the index).
    """

    supports_labels = True
    param_keys = frozenset({"num_labels", "label_seed"})

    @property
    def index_cls(self) -> type:
        from ..index import FilteredMemoryIndex

        return FilteredMemoryIndex

    def resolve_labels(self, scenario, n, labels):
        if labels is not None:
            return np.asarray(labels).reshape(-1)
        params = dict(scenario.params)
        num_labels = int(params.get("num_labels", 4))
        label_seed = int(params.get("label_seed", 0))
        return np.random.default_rng(label_seed).integers(
            num_labels, size=n
        )

    def build(self, scenario, graph, quantizer, x, labels=None):
        if labels is None:
            labels = self.resolve_labels(scenario, x.shape[0], None)
        return self.index_cls(graph, quantizer, x, labels)

    def export_arrays(self, index):
        return {}, {"codes": index.codes, "labels": index.labels}

    def load_arrays(self, meta, source, graph, quantizer):
        return self.index_cls.from_state(
            graph, quantizer, source["codes"], source["labels"]
        )


@register_scenario("streaming")
class StreamingScenario(ScenarioHandler):
    """Fresh-DiskANN-style streaming index.

    Builds by *inserting* the dataset rows (construction is the
    product, so no pre-built graph is used).  ``scenario.params``:
    ``r``, ``search_l``, ``alpha``, ``seed``, ``build_batch_size``.
    """

    needs_graph = False
    param_keys = frozenset(
        {"r", "search_l", "alpha", "seed", "build_batch_size"}
    )

    @property
    def index_cls(self) -> type:
        from ..index import FreshVamanaIndex

        return FreshVamanaIndex

    def build(self, scenario, graph, quantizer, x, labels=None):
        params = dict(scenario.params)
        index = self.index_cls(
            quantizer,
            dim=x.shape[1],
            r=int(params.get("r", 16)),
            search_l=int(params.get("search_l", 40)),
            alpha=float(params.get("alpha", 1.2)),
            seed=params.get("seed", 0),
            build_batch_size=int(params.get("build_batch_size", 32)),
        )
        if x.shape[0]:
            index.insert_batch(x)
        return index

    def export_arrays(self, index):
        packed = index._packed_adjacency()  # the live lists as CSR
        meta = {
            "dim": int(index.dim),
            "r": int(index.r),
            "search_l": int(index.search_l),
            "alpha": float(index.alpha),
            "build_batch_size": int(index.build_batch_size),
            "entry": -1 if index._entry is None else int(index._entry),
        }
        arrays = {
            "vectors": np.asarray(index._vectors, dtype=np.float64).reshape(
                len(index._vectors), index.dim
            ),
            "codes": np.asarray(index._codes),
            "stream_neighbors": packed.neighbors,
            "stream_offsets": packed.offsets,
            "deleted": np.asarray(index._deleted, dtype=bool),
        }
        return meta, arrays

    def load_arrays(self, meta, source, graph, quantizer):
        from ..graphs.packed import PackedAdjacency

        packed = PackedAdjacency(
            neighbors=source["stream_neighbors"],
            offsets=source["stream_offsets"],
        )
        entry = int(meta["entry"])
        return self.index_cls.from_state(
            quantizer,
            dim=int(meta["dim"]),
            r=int(meta["r"]),
            search_l=int(meta["search_l"]),
            alpha=float(meta["alpha"]),
            build_batch_size=int(meta["build_batch_size"]),
            vectors=source["vectors"],
            codes=source["codes"],
            adjacency=packed.to_lists(),
            deleted=source["deleted"],
            entry=None if entry < 0 else entry,
            mapped=source.mapped,
        )
