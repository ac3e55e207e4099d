"""RPQ facade — the library's headline entry point.

Usage::

    from repro.core import RPQ
    from repro.graphs import build_hnsw

    graph = build_hnsw(x)
    rpq = RPQ(num_chunks=8, num_codewords=256).fit(x, graph)
    quantizer = rpq.quantizer           # drop-in BaseQuantizer
    codes = quantizer.encode(x)

``fit`` runs the full pipeline of the paper: warm-start codebooks,
extract neighborhood + routing features from the PG, and jointly train
the differentiable quantizer, then freeze it to a hard quantizer.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from ..graphs.base import ProximityGraph
from .diffq import DifferentiableQuantizer, RPQQuantizer
from .trainer import RPQTrainingConfig, RPQTrainingReport, train_rpq


class RPQ:
    """Routing-guided learned Product Quantization (end-to-end).

    Parameters
    ----------
    num_chunks, num_codewords:
        PQ geometry (M, K); the paper's default K is 256.
    temperature, gumbel_tau:
        Softness of assignment probabilities / Gumbel relaxation.
    config:
        Training hyper-parameters; ``None`` uses
        :class:`RPQTrainingConfig` defaults.
    opq_init:
        Warm-start the rotation from OPQ's Procrustes solution (the
        end-to-end training then refines it; disable to start from the
        identity rotation).
    seed:
        Master seed (overrides ``config.seed`` when given; the caller's
        ``config`` object itself is never modified).
    """

    def __init__(
        self,
        num_chunks: int,
        num_codewords: int = 256,
        temperature: float = 1.0,
        gumbel_tau: float = 1.0,
        config: Optional[RPQTrainingConfig] = None,
        opq_init: bool = True,
        seed: Optional[int] = 0,
    ) -> None:
        self.num_chunks = int(num_chunks)
        self.num_codewords = int(num_codewords)
        self.temperature = float(temperature)
        self.gumbel_tau = float(gumbel_tau)
        self.config = dataclasses.replace(config or RPQTrainingConfig())
        self.opq_init = bool(opq_init)
        if seed is not None:
            self.config.seed = seed
        self.seed = seed
        self.model: Optional[DifferentiableQuantizer] = None
        self.report: Optional[RPQTrainingReport] = None
        self._frozen: Optional[RPQQuantizer] = None

    # ------------------------------------------------------------------
    def fit(
        self,
        x: np.ndarray,
        graph: ProximityGraph,
        training_sample: Optional[np.ndarray] = None,
    ) -> "RPQ":
        """Train on dataset ``x`` indexed by ``graph``.

        ``training_sample`` optionally restricts codebook warm-start to a
        subsample (the paper trains on a 500K subset of each dataset).
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if graph.num_vertices != x.shape[0]:
            raise ValueError(
                f"graph has {graph.num_vertices} vertices but x has "
                f"{x.shape[0]} rows"
            )
        self.model = DifferentiableQuantizer(
            dim=x.shape[1],
            num_chunks=self.num_chunks,
            num_codewords=self.num_codewords,
            temperature=self.temperature,
            gumbel_tau=self.gumbel_tau,
            seed=self.config.seed,
        )
        warm = x if training_sample is None else np.atleast_2d(training_sample)
        if self.opq_init:
            self.model.warm_start_rotation(warm)
        self.model.warm_start(warm)
        self.report = train_rpq(self.model, graph, x, self.config)
        self._frozen = self.model.freeze()
        return self

    # ------------------------------------------------------------------
    @property
    def quantizer(self) -> RPQQuantizer:
        """The frozen quantizer (available after :meth:`fit`)."""
        if self._frozen is None:
            raise RuntimeError("RPQ.fit must be called before .quantizer")
        return self._frozen

    @property
    def is_fitted(self) -> bool:
        return self._frozen is not None
