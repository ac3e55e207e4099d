"""Multi-feature joint training (paper §6).

The trainer glues everything together: warm-start codebooks, sample
neighborhood triplets once (the PG is static), periodically re-sample
routing records (they depend on the *current* quantizer), and run
mini-batch Adam with a one-cycle schedule on the joint loss.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..autodiff import Adam, OneCycleLR, Tensor
from ..graphs.base import ProximityGraph
from .diffq import DifferentiableQuantizer
from .features import (
    RoutingRecord,
    Triplet,
    decision_accuracy,
    sample_routing_records,
    sample_triplets,
)
from .losses import JointLoss, next_hop_nll, triplet_margin, triplet_rows


@dataclass
class RPQTrainingConfig:
    """Hyper-parameters of RPQ training.

    Defaults follow the paper where it specifies values (Adam,
    LR = 1e-3, one-cycle with final decay 0.2, K = 256 codewords) and
    use laptop-scale counts elsewhere.
    """

    epochs: int = 10
    batch_triplets: int = 64
    batch_records: int = 16
    num_triplets: int = 512
    num_queries: int = 32
    records_per_query: int = 8
    beam_width: int = 10
    n_hops: int = 2
    k_pos: int = 10
    k_neg: int = 20
    margin: float = 0.1
    tau: float = 1.0
    lr: float = 1e-3
    final_decay: float = 0.2
    refresh_routing_every: int = 4
    use_neighborhood: bool = True
    use_routing: bool = True
    use_gumbel: bool = True
    distortion_weight: float = 0.3
    batch_distortion: int = 64
    seed: Optional[int] = 0


@dataclass
class RPQTrainingReport:
    """Bookkeeping returned by :func:`train_rpq`."""

    losses: List[float] = field(default_factory=list)
    distortion_losses: List[float] = field(default_factory=list)
    routing_losses: List[float] = field(default_factory=list)
    neighborhood_losses: List[float] = field(default_factory=list)
    decision_accuracy_before: float = 0.0
    decision_accuracy_after: float = 0.0
    alpha_history: List[float] = field(default_factory=list)
    wall_time_seconds: float = 0.0


def train_rpq(
    quantizer: DifferentiableQuantizer,
    graph: ProximityGraph,
    x: np.ndarray,
    config: Optional[RPQTrainingConfig] = None,
) -> RPQTrainingReport:
    """Optimize ``quantizer`` in place against ``graph`` over ``x``.

    Besides the paper's two feature-aware losses, the total objective
    includes a small *distortion anchor* — the quantization error
    ``mean ||soft_recon(x) - R x||^2`` normalized by its warm-start
    value — which instantiates the paper's problem objective (Eq. 2:
    quantized vectors should stay close to the vectors they encode) and
    keeps the contrastive/routing gradients from trading away
    reconstruction quality.  Set ``config.distortion_weight = 0`` to
    disable it.

    Each optimizer step computes ``R = expm(A)`` once and runs one soft
    reconstruction over every row its losses read — the routing
    candidates, the triplets and the distortion batch, concatenated —
    with the Gumbel noise drawn per batch in the order separate calls
    would draw it.
    """
    config = config or RPQTrainingConfig()
    rng = np.random.default_rng(config.seed)
    x = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    start_time = time.perf_counter()

    report = RPQTrainingReport()
    joint = JointLoss(
        use_neighborhood=config.use_neighborhood,
        use_routing=config.use_routing,
    )

    triplets: Sequence[Triplet] = []
    if config.use_neighborhood:
        triplets = sample_triplets(
            graph,
            x,
            num_triplets=config.num_triplets,
            n_hops=config.n_hops,
            k_pos=config.k_pos,
            k_neg=config.k_neg,
            rng=rng,
        )

    def fresh_routing_records() -> List[RoutingRecord]:
        queries = x[rng.choice(x.shape[0], size=config.num_queries, replace=False)]
        return sample_routing_records(
            graph,
            x,
            rotation=quantizer.rotation_matrix(),
            codebook=quantizer.codebook_numpy(),
            codes=quantizer.encode_hard(x),
            queries=list(queries),
            beam_width=config.beam_width,
            max_records_per_query=config.records_per_query,
            rng=rng,
        )

    records: List[RoutingRecord] = []
    if config.use_routing:
        records = fresh_routing_records()
        report.decision_accuracy_before = decision_accuracy(records)

    # Baseline distortion for the anchor term's normalization.
    baseline_distortion = max(quantizer.quantization_error(x), 1e-12)

    params = quantizer.parameters() + joint.parameters()
    optimizer = Adam(params, lr=config.lr)
    steps_per_epoch = max(
        1,
        (len(triplets) // config.batch_triplets) if triplets else 0,
        (len(records) // config.batch_records) if records else 0,
    )
    schedule = OneCycleLR(
        optimizer,
        max_lr=config.lr,
        total_steps=max(1, config.epochs * steps_per_epoch),
        final_decay=config.final_decay,
    )

    for epoch in range(config.epochs):
        if (
            config.use_routing
            and epoch > 0
            and epoch % config.refresh_routing_every == 0
        ):
            records = fresh_routing_records()

        epoch_loss = 0.0
        epoch_routing = 0.0
        epoch_neighborhood = 0.0
        epoch_distortion = 0.0
        for _ in range(steps_per_epoch):
            step_records = (
                _pick(rng, records, config.batch_records)
                if config.use_routing
                else []
            )
            step_triplets = (
                _pick(rng, triplets, config.batch_triplets)
                if config.use_neighborhood
                else []
            )
            blocks = [r.candidates for r in step_records]
            if step_triplets:
                blocks += np.split(triplet_rows(step_triplets), 3)
            if config.distortion_weight > 0:
                blocks.append(
                    rng.integers(x.shape[0], size=config.batch_distortion)
                )
            if not blocks:
                joint.combine(None, None)  # raises: nothing to train on

            rotation = quantizer.rotation.matrix()
            recon = quantizer.soft_reconstruct(
                Tensor(x[np.concatenate(blocks)]),
                use_gumbel=config.use_gumbel,
                rotation=rotation,
                blocks=[b.size for b in blocks],
            )
            start = 0
            loss_r = None
            loss_n = None
            if step_records:
                start = sum(r.candidates.size for r in step_records)
                loss_r = next_hop_nll(
                    recon[:start], rotation, step_records, tau=config.tau
                )
                epoch_routing += loss_r.item()
            if step_triplets:
                stop = start + 3 * len(step_triplets)
                loss_n = triplet_margin(recon[start:stop], config.margin)
                epoch_neighborhood += loss_n.item()
                start = stop

            loss = joint.combine(loss_r, loss_n)
            if config.distortion_weight > 0:
                rotated = Tensor(x[blocks[-1]]) @ rotation.T
                distortion = ((recon[start:] - rotated) ** 2.0).sum(axis=1).mean()
                loss = loss + distortion * (
                    config.distortion_weight / baseline_distortion
                )
                epoch_distortion += distortion.item()
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            schedule.step()
            epoch_loss += loss.item()

        report.losses.append(epoch_loss / steps_per_epoch)
        report.distortion_losses.append(epoch_distortion / steps_per_epoch)
        report.routing_losses.append(epoch_routing / steps_per_epoch)
        report.neighborhood_losses.append(epoch_neighborhood / steps_per_epoch)
        report.alpha_history.append(joint.alpha)

    if config.use_routing:
        report.decision_accuracy_after = decision_accuracy(fresh_routing_records())
    report.wall_time_seconds = time.perf_counter() - start_time
    return report


def _pick(rng: np.random.Generator, items: Sequence, size: int) -> list:
    """A batch of ``min(size, len(items))`` distinct items."""
    if not items:
        return []
    picks = rng.choice(len(items), size=min(size, len(items)), replace=False)
    return [items[i] for i in picks]
