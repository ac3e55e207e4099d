"""Feature-aware losses and the multi-feature joint loss (paper §6).

* :func:`neighborhood_loss` — triplet margin loss (Eq. 8) over soft
  reconstructions of ⟨v+, v, v−⟩.
* :func:`routing_loss` — negative log-likelihood of the oracle next-hop
  under a softmax over (negated) quantized distances (Eq. 9–10; the
  printed equation omits the negation that makes closer candidates more
  probable — see the module docstring of :mod:`repro.core.diffq`).
* :func:`triplet_margin` / :func:`next_hop_nll` — the same two losses
  given soft reconstructions already computed, so one optimizer step
  can reconstruct every row it needs in one call (see
  :func:`~repro.core.trainer.train_rpq`).
* :class:`JointLoss` — Eq. 11's ``L = L_routing + α · L_neighborhood``
  with a *learnable* α.  A raw learnable multiplier on a non-negative
  loss is degenerate (its gradient always pushes it to −∞), so the
  coefficient is realized with homoscedastic-uncertainty weighting
  (Kendall et al. 2018): ``L = exp(−s_r) L_r + s_r + exp(−s_n) L_n +
  s_n`` with learnable log-variances; the effective α is
  ``exp(s_r − s_n)``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..autodiff import Tensor, segment_log_softmax
from .diffq import DifferentiableQuantizer
from .features import RoutingRecord, Triplet


def neighborhood_loss(
    quantizer: DifferentiableQuantizer,
    x: np.ndarray,
    triplets: Sequence[Triplet],
    margin: float = 0.1,
    use_gumbel: bool = True,
) -> Tensor:
    """Triplet margin loss in the quantized space (paper Eq. 8).

    ``max(0, σ + δ(x'_v, x'_{v+}) − δ(x'_v, x'_{v−}))`` averaged over
    the batch, where ``x'`` are soft reconstructions.
    """
    if not triplets:
        raise ValueError("neighborhood_loss needs at least one triplet")
    n = len(triplets)
    recon = quantizer.soft_reconstruct(
        Tensor(x[triplet_rows(triplets)]), use_gumbel=use_gumbel, blocks=[n] * 3
    )
    return triplet_margin(recon, margin)


def triplet_rows(triplets: Sequence[Triplet]) -> np.ndarray:
    """Vertex ids ``[anchors; positives; negatives]`` of ``triplets``."""
    ids = np.array([[t.anchor, t.positive, t.negative] for t in triplets])
    return ids.T.reshape(-1)


def triplet_margin(recon: Tensor, margin: float) -> Tensor:
    """Eq. 8 over the soft reconstructions of :func:`triplet_rows`."""
    n = recon.shape[0] // 3
    anchor = recon[:n]
    d_pos = ((anchor - recon[n : 2 * n]) ** 2.0).sum(axis=1)
    d_neg = ((anchor - recon[2 * n :]) ** 2.0).sum(axis=1)
    zeros = Tensor(np.zeros(n))
    return (d_pos - d_neg + margin).maximum(zeros).mean()


def routing_loss(
    quantizer: DifferentiableQuantizer,
    x: np.ndarray,
    records: Sequence[RoutingRecord],
    tau: float = 1.0,
    use_gumbel: bool = True,
) -> Tensor:
    """Next-hop log-likelihood loss (paper Eq. 9–10).

    For each decision, candidates are scored by the (differentiable)
    squared distance between their soft reconstructions and the rotated
    query; the loss is the cross-entropy of the oracle candidate under
    ``softmax(−δ/τ)``.
    """
    if not records:
        raise ValueError("routing_loss needs at least one record")
    if tau <= 0:
        raise ValueError("tau must be positive")
    rotation = quantizer.rotation.matrix()
    recon = quantizer.soft_reconstruct(
        Tensor(x[np.concatenate([r.candidates for r in records])]),
        use_gumbel=use_gumbel,
        rotation=rotation,
        blocks=[r.candidates.size for r in records],
    )
    return next_hop_nll(recon, rotation, records, tau)


def next_hop_nll(
    recon: Tensor,
    rotation: Tensor,
    records: Sequence[RoutingRecord],
    tau: float = 1.0,
) -> Tensor:
    """Eq. 9–10 given ``recon``, the soft reconstructions of every
    record's candidates concatenated in record order, and the step's
    rotation ``R``: one segment log-softmax over all the decisions."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    sizes = [r.candidates.size for r in records]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    queries = np.repeat(np.stack([r.query for r in records]), sizes, axis=0)
    diff = recon - Tensor(queries) @ rotation.T
    log_p = segment_log_softmax((diff * diff).sum(axis=1) * (-1.0 / tau), offsets)
    oracle = offsets[:-1] + np.array([r.oracle for r in records])
    return log_p[oracle].sum() * (-1.0 / len(records))


class JointLoss:
    """Multi-feature joint loss with a learnable coefficient (Eq. 11)."""

    def __init__(
        self,
        use_neighborhood: bool = True,
        use_routing: bool = True,
    ) -> None:
        if not (use_neighborhood or use_routing):
            raise ValueError("at least one loss component must be enabled")
        self.use_neighborhood = use_neighborhood
        self.use_routing = use_routing
        # Log-variances of the uncertainty weighting.
        self.log_var_routing = Tensor(np.zeros(1), requires_grad=True, name="s_r")
        self.log_var_neighborhood = Tensor(
            np.zeros(1), requires_grad=True, name="s_n"
        )

    def parameters(self) -> List[Tensor]:
        params: List[Tensor] = []
        if self.use_routing and self.use_neighborhood:
            params = [self.log_var_routing, self.log_var_neighborhood]
        return params

    @property
    def alpha(self) -> float:
        """Effective α of Eq. 11 (= weight ratio neighborhood/routing)."""
        s_r = float(self.log_var_routing.data[0])
        s_n = float(self.log_var_neighborhood.data[0])
        return float(np.exp(s_r - s_n))

    def combine(
        self,
        routing: Optional[Tensor],
        neighborhood: Optional[Tensor],
    ) -> Tensor:
        """Combine the enabled components into one scalar loss."""
        if self.use_routing and routing is None:
            raise ValueError("routing component enabled but not provided")
        if self.use_neighborhood and neighborhood is None:
            raise ValueError("neighborhood component enabled but not provided")

        if self.use_routing and self.use_neighborhood:
            assert routing is not None and neighborhood is not None
            term_r = routing * (self.log_var_routing * -1.0).exp().sum()
            term_n = neighborhood * (self.log_var_neighborhood * -1.0).exp().sum()
            reg = self.log_var_routing.sum() + self.log_var_neighborhood.sum()
            return term_r + term_n + reg
        if self.use_routing:
            assert routing is not None
            return routing
        assert neighborhood is not None
        return neighborhood
