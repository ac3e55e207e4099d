"""Learning-to-Route baseline (Baranchuk et al. [13]; ablation row
"RPQ w/ L2R" in Tables 6–7).

L2R keeps the quantizer fixed (vanilla PQ) and instead *learns the
routing function*: a model is trained so that estimated distances rank
candidates the way true distances would.  The original work learns
vertex representations with a deep net; this reproduction learns the
cheapest faithful member of that family — non-negative per-chunk
weights ``w`` on the ADC lookup table, fitted by least squares so that
``sum_j w_j * table_j[code_j]`` approximates the true distance on
sampled (query, vertex) pairs.  The quantizer itself is never updated,
which is exactly the contrast the ablation draws: routing learning
alone vs. RPQ's joint quantizer learning.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..api.registry import register_scenario
from ..graphs.base import ProximityGraph
from ..quantization.adc import BatchLookupTable
from ..quantization.base import BaseQuantizer
from .memory_index import MemoryIndex


class LearnedRoutingReweighter:
    """Per-chunk table weights fitted against true distances."""

    def __init__(self, weights: np.ndarray) -> None:
        weights = np.asarray(weights, dtype=np.float64).reshape(-1)
        if (weights < 0).any():
            raise ValueError("weights must be non-negative")
        self.weights = weights

    @staticmethod
    def fit(
        quantizer: BaseQuantizer,
        x: np.ndarray,
        num_queries: int = 64,
        pairs_per_query: int = 64,
        rng: Optional[np.random.Generator] = None,
    ) -> "LearnedRoutingReweighter":
        """Least-squares fit of chunk weights on sampled pairs."""
        rng = rng or np.random.default_rng()
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        n = x.shape[0]
        codes = quantizer.encode(x)

        features = []
        targets = []
        query_ids = rng.choice(n, size=min(num_queries, n), replace=False)
        for qi in query_ids:
            query = x[qi]
            table = quantizer.lookup_table(query)
            others = rng.choice(n, size=min(pairs_per_query, n), replace=False)
            per_chunk = table.table[
                np.arange(table.num_chunks)[None, :],
                codes[others].astype(np.int64),
            ]
            features.append(per_chunk)
            diff = x[others] - query
            targets.append(np.einsum("ij,ij->i", diff, diff))
        a = np.concatenate(features, axis=0)
        b = np.concatenate(targets)
        weights, *_ = np.linalg.lstsq(a, b, rcond=None)
        return LearnedRoutingReweighter(np.clip(weights, 0.0, None))

    def reweight_batch(self, tables: BatchLookupTable) -> BatchLookupTable:
        """Apply the learned weights to a whole batch of ADC tables."""
        if tables.num_chunks != self.weights.size:
            raise ValueError(
                f"tables have {tables.num_chunks} chunks, weights expect "
                f"{self.weights.size}"
            )
        return BatchLookupTable(tables=tables.tables * self.weights[None, :, None])


@register_scenario("l2r")
class L2RIndex(MemoryIndex):
    """In-memory index whose routing distances use learned weights.

    ``fit`` — ``num_queries`` / ``pairs_per_query`` / ``rng`` — is
    passed to :meth:`LearnedRoutingReweighter.fit`.  ``scenario.params``:
    the two fit sizes plus ``seed`` (the sampling generator's).
    """

    param_keys = frozenset({"seed", "num_queries", "pairs_per_query"})

    def __init__(
        self, graph: ProximityGraph, quantizer: BaseQuantizer, x: np.ndarray, **fit
    ) -> None:
        super().__init__(graph, quantizer, x)
        self.reweighter = LearnedRoutingReweighter.fit(quantizer, x, **fit)

    @classmethod
    def from_spec(cls, params, graph, quantizer, x, labels=None):
        fit = {key: int(params[key]) for key in params if key != "seed"}
        rng = np.random.default_rng(params.get("seed", 0))
        return cls(graph, quantizer, x, rng=rng, **fit)

    def export_arrays(self):
        meta, arrays = super().export_arrays()
        arrays["l2r_weights"] = self.reweighter.weights
        return meta, arrays

    @classmethod
    def load_arrays(cls, meta, source, graph, quantizer):
        """The learned chunk weights are restored directly instead of
        re-fitting."""
        self = super().load_arrays(meta, source, graph, quantizer)
        self.reweighter = LearnedRoutingReweighter(source["l2r_weights"])
        return self
