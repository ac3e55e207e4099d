"""The spec-driven workbench: an experiment is an ``IndexSpec`` grid plus
a measurement.

Everything an experiment, benchmark or CLI verb builds is named by an
:class:`~repro.api.IndexSpec`; the :class:`Workbench` resolves each
section through the registry's own factories
(:func:`~repro.api.registry.build_graph_from_spec`,
:func:`~repro.api.registry.build_quantizer_from_spec` — the only
kind -> constructor tables in ``src/``), memoises every artifact by the
spec sections it depends on, and hands the pieces to
:func:`repro.api.build` as overrides.  So ``index.spec`` *is* the spec
that was asked for (``save_index`` persists it, and
``build(load_index(dir).spec)`` rebuilds the same index from it alone),
and a grid that varies one section (five quantizers over one graph, four
shard layouts over one dataset) never rebuilds the others.

Laptop-scale substitutions live here as data: :func:`laptop_graph`
spells the graph-builder parameters every paper artifact and serving
benchmark uses (the registry's defaults are the builders' own,
larger ones); ``docs/api.md`` "Paper experiments" lists the rest.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..api.registry import (
    build,
    build_graph_from_spec,
    build_quantizer_from_spec,
    get_scenario,
)
from ..api.spec import GraphSpec, IndexSpec
from ..datasets import Dataset, GroundTruth, compute_ground_truth, load

#: Graph-builder parameters at laptop scale (1k-6k vectors instead of
#: 1M-1B): degree 16 / construction beam 40-48, against the builders'
#: own defaults of 32 / 64-100.
LAPTOP_GRAPH_PARAMS = {
    "vamana": {"r": 16, "search_l": 40},
    "hnsw": {"m": 8, "ef_construction": 48},
    "nsg": {"knn_k": 16, "r": 16, "search_l": 40},
}


def laptop_graph(kind: str, seed: int = 0) -> GraphSpec:
    """The ``GraphSpec`` of kind ``kind`` at laptop scale."""
    return GraphSpec(
        kind=kind, seed=seed, params=dict(LAPTOP_GRAPH_PARAMS[kind])
    )


class Workbench:
    """Resolves ``IndexSpec`` sections into artifacts, each built once.

    The memo key of an artifact is the JSON of the spec sections it is
    a function of: a dataset of its dataset section, a graph of dataset
    + graph, per-shard graphs of dataset + graph + the partitioning,
    a quantizer of dataset + quantizer (+ graph for ``rpq``, which
    trains against it).  ``k`` is the ground-truth depth.
    """

    def __init__(self, k: int = 10) -> None:
        self.k = int(k)
        self._memo: Dict[str, object] = {}

    def _once(self, what: str, sections: tuple, make: Callable[[], object]):
        key = what + json.dumps(
            [s if isinstance(s, (int, str)) else asdict(s) for s in sections],
            sort_keys=True,
        )
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    # -- sections -------------------------------------------------------
    def dataset(self, spec: IndexSpec) -> Dataset:
        d = spec.dataset
        return self._once(
            "dataset",
            (d,),
            lambda: load(
                d.name, n_base=d.n_base, n_queries=d.n_queries, seed=d.seed
            ),
        )

    def ground_truth(self, spec: IndexSpec) -> GroundTruth:
        data = self.dataset(spec)
        return self._once(
            "ground_truth",
            (spec.dataset,),
            lambda: compute_ground_truth(data.base, data.queries, k=self.k),
        )

    def graph(self, spec: IndexSpec) -> object:
        """The graph over the whole dataset."""
        return self._once(
            "graph",
            (spec.dataset, spec.graph),
            lambda: build_graph_from_spec(
                spec.graph, self.dataset(spec).base
            ),
        )

    def shards(self, spec: IndexSpec) -> Tuple[List[np.ndarray], list]:
        """``(row partition, per-shard graphs)`` of the sharding section
        (one shard is the whole dataset under the whole-dataset graph)."""
        from ..serving import partition_rows

        sharding = spec.sharding

        def make():
            x = self.dataset(spec).base
            parts = partition_rows(
                x.shape[0], sharding.num_shards, sharding.strategy
            )
            if sharding.num_shards == 1:
                return parts, [self.graph(spec)]
            return parts, [
                build_graph_from_spec(spec.graph, x[idx]) for idx in parts
            ]

        return self._once(
            "shards",
            (spec.dataset, spec.graph, sharding.num_shards, sharding.strategy),
            make,
        )

    def training_inputs(self, spec: IndexSpec) -> tuple:
        """``(train, x, graph)`` as the quantizer factory takes them;
        the graph is resolved only for ``rpq`` (routing-guided
        training), the one kind that reads it."""
        data = self.dataset(spec)
        graph = self.graph(spec) if spec.quantizer.kind == "rpq" else None
        return data.train, data.base, graph

    def fit_quantizer(self, spec: IndexSpec) -> object:
        """Fit the quantizer section afresh (what Table 4 times)."""
        train, x, graph = self.training_inputs(spec)
        return build_quantizer_from_spec(
            spec.quantizer, train, x=x, graph=graph
        )

    def quantizer(self, spec: IndexSpec) -> object:
        sections = (spec.dataset, spec.quantizer)
        if spec.quantizer.kind == "rpq":
            sections += (spec.graph,)
        return self._once(
            "quantizer", sections, lambda: self.fit_quantizer(spec)
        )

    # -- the index ------------------------------------------------------
    def build(self, spec: IndexSpec, quantizer: Optional[object] = None):
        """The index ``spec`` describes, from memoised parts.

        ``quantizer`` overrides the quantizer section with an already
        fitted one (the design ablation's ``opq_init`` variant, which no
        spec field expresses).
        """
        x = self.dataset(spec).base
        if quantizer is None:
            quantizer = self.quantizer(spec)
        if not get_scenario(spec.scenario.kind).needs_graph:
            return build(spec, data=x, quantizer=quantizer)
        if spec.sharding.num_shards > 1 or spec.sharding.replicas > 1:
            parts, graphs = self.shards(spec)
            return build(
                spec,
                data=x,
                quantizer=quantizer,
                shard_parts=parts,
                shard_graphs=graphs,
            )
        return build(
            spec, data=x, graph=self.graph(spec), quantizer=quantizer
        )
