"""Scenario registry and the :func:`build` factory.

A scenario is one index class, registered under a short name
(``@register_scenario("memory")`` decorates
:class:`~repro.index.MemoryIndex` itself); :func:`build` resolves an
:class:`~repro.api.spec.IndexSpec` through the registry so the five
scenario classes, :class:`~repro.serving.sharded.ShardedIndex`, and
process-backed shards are all constructed through one path.
The experiment workbench (:class:`repro.eval.workbench.Workbench`) and
the CLI are thin wrappers over this module, and
:func:`build_graph_from_spec` / :func:`build_quantizer_from_spec` below
are the only kind -> constructor tables in ``src/``.

What a registered class declares and implements is documented on
:class:`repro.index.GraphIndex` (a third-party scenario subclasses it
or supplies the same names): the ``param_keys`` / ``needs_graph`` /
``supports_labels`` / ``code_arrays`` attributes,
``from_spec(params, graph, quantizer, x, labels)`` to construct from
resolved parts, and the ``export_arrays()`` / ``load_arrays(meta,
source, graph, quantizer)`` pair — the one state codec per scenario;
:mod:`repro.api.persistence` owns the on-disk format around it.

:func:`build` accepts overrides (``data``, ``graph``, ``quantizer``,
``labels``, per-shard graphs) so callers that already hold fitted
artifacts — the workbench's memoised sections — reuse them instead of
rebuilding; a spec alone is always
sufficient (datasets are synthetic and regenerable by name).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .spec import GraphSpec, IndexSpec, QuantizerSpec

# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_SCENARIOS: Dict[str, type] = {}


def register_scenario(name: str) -> Callable[[type], type]:
    """Class decorator registering an index class as scenario ``name``
    (recorded on the class as ``cls.scenario``)."""

    def decorate(index_cls: type) -> type:
        index_cls.scenario = name
        _SCENARIOS[name] = index_cls
        return index_cls

    return decorate


def _registered() -> Dict[str, type]:
    from .. import index  # noqa: F401  (registers the five built-ins)

    return _SCENARIOS


def get_scenario(name: str) -> type:
    """The index class registered under ``name``."""
    try:
        return _registered()[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; registered: {scenario_names()}"
        ) from None


def scenario_names() -> List[str]:
    """All registered scenario names, sorted."""
    return sorted(_registered())


def scenario_for_index(index: object) -> type:
    """The registered class ``index`` was built as: its own, or the
    nearest registered base (``type(index).scenario`` is inherited)."""
    name = getattr(type(index), "scenario", None)
    if name not in _SCENARIOS:
        raise TypeError(
            f"{type(index).__name__} does not belong to any registered "
            f"scenario ({scenario_names()})"
        )
    return _SCENARIOS[name]


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
        from ``scenario.params`` — see the filtered scenario).
    ``shard_parts`` / ``shard_graphs``
        Pre-computed row partitions and per-shard graphs (must match
        ``sharding.num_shards``).

    The resulting index carries the spec as ``index.spec`` so
    :func:`repro.api.save_index` can persist it alongside the arrays.
    """
    index_cls = get_scenario(spec.scenario.kind)
    params = dict(spec.scenario.params)
    index_cls.validate_params(params)

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
    if spec.sharding.endpoints is not None and spec.sharding.backend != "socket":
        raise ValueError(
            "sharding.endpoints only applies to backend='socket', not "
            f"{spec.sharding.backend!r}"
        )

    if num_shards == 1 and replicas == 1:
        if graph is None and index_cls.needs_graph:
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
        index = index_cls.from_spec(params, graph, quantizer, x, labels)
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
        shard_parts = partition_rows(x.shape[0], num_shards, spec.sharding.strategy)
    shard_parts = [np.asarray(p, dtype=np.int64) for p in shard_parts]
    if len(shard_parts) != num_shards:
        raise ValueError(
            f"got {len(shard_parts)} shard_parts for "
            f"{num_shards} shards"
        )
    if shard_graphs is None:
        if index_cls.needs_graph:
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
        quantizer = build_quantizer_from_spec(spec.quantizer, train, x=x, graph=qgraph)
    labels = index_cls.resolve_labels(params, x.shape[0], labels)
    shards = [
        index_cls.from_spec(
            params,
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
