"""Catalyst baseline (Sablayrolles et al., "Spreading vectors for
similarity search" [57]; the paper's strongest learned baseline).

The catalyzer trains a small neural network that maps vectors into a
lower-dimensional space where they are (a) spread out (KoLeo
differential-entropy regularizer) and (b) neighborhood-preserving
(triplet loss on exact nearest neighbors).  Quantization then happens in
the output space with a standard PQ.

This reproduces the *mechanism* the paper contrasts RPQ against:
feature-space learning that is unaware of the proximity graph and of the
routing process.  The network here is a two-layer MLP trained with the
repo's autodiff engine.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..autodiff import Adam, Tensor, relu
from .base import BaseQuantizer
from .codebook import Codebook
from .kmeans import train_codebook


def _exact_knn(x: np.ndarray, k: int, block: int = 2048) -> np.ndarray:
    """Indices of the k nearest neighbors (excluding self) per row."""
    n = x.shape[0]
    out = np.empty((n, k), dtype=np.int64)
    sq = np.einsum("ij,ij->i", x, x)
    for start in range(0, n, block):
        stop = min(start + block, n)
        d = sq[start:stop, None] + sq[None, :] - 2.0 * (x[start:stop] @ x.T)
        d[np.arange(stop - start), np.arange(start, stop)] = np.inf
        out[start:stop] = np.argsort(d, axis=1)[:, :k]
    return out


class CatalystQuantizer(BaseQuantizer):
    """Learned shrinking projection + PQ (Catalyst-style).

    Parameters
    ----------
    num_chunks, num_codewords:
        PQ geometry in the *output* space.
    out_dim:
        Dimensionality of the learned space (paper setup: d_out = 40).
        Must be divisible by ``num_chunks``.
    hidden_dim:
        Width of the MLP hidden layer.
    koleo_weight:
        λ of the KoLeo spreading regularizer (paper setup: 0.005).
    epochs, batch_size, lr:
        Training schedule for the projection network.
    seed:
        Seed for initialization, sampling, and k-means.
    """

    def __init__(
        self,
        num_chunks: int,
        num_codewords: int = 256,
        out_dim: int = 32,
        hidden_dim: int = 64,
        koleo_weight: float = 0.005,
        triplet_margin: float = 0.1,
        epochs: int = 8,
        batch_size: int = 256,
        lr: float = 1e-3,
        kmeans_iter: int = 15,
        seed: Optional[int] = 0,
    ) -> None:
        super().__init__(num_chunks, num_codewords)
        if out_dim % num_chunks != 0:
            raise ValueError(
                f"out_dim {out_dim} must be divisible by num_chunks {num_chunks}"
            )
        self.out_dim = int(out_dim)
        self.hidden_dim = int(hidden_dim)
        self.koleo_weight = float(koleo_weight)
        self.triplet_margin = float(triplet_margin)
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        self.lr = float(lr)
        self.kmeans_iter = int(kmeans_iter)
        self.seed = seed
        self._weights: List[Tensor] = []
        self.training_loss: List[float] = []

    # ------------------------------------------------------------------
    # Network
    # ------------------------------------------------------------------
    def _init_net(self, in_dim: int, rng: np.random.Generator) -> None:
        scale1 = np.sqrt(2.0 / in_dim)
        scale2 = np.sqrt(2.0 / self.hidden_dim)
        self._weights = [
            Tensor(rng.normal(0.0, scale1, (in_dim, self.hidden_dim)), requires_grad=True, name="W1"),
            Tensor(np.zeros(self.hidden_dim), requires_grad=True, name="b1"),
            Tensor(rng.normal(0.0, scale2, (self.hidden_dim, self.out_dim)), requires_grad=True, name="W2"),
            Tensor(np.zeros(self.out_dim), requires_grad=True, name="b2"),
        ]

    def _forward(self, x: Tensor) -> Tensor:
        w1, b1, w2, b2 = self._weights
        hidden = relu(x @ w1 + b1)
        out = hidden @ w2 + b2
        # L2-normalize onto the hypersphere, as in the original catalyzer.
        norms = (out * out).sum(axis=1, keepdims=True).sqrt() + 1e-12
        return out / norms

    def transform(self, x: np.ndarray) -> np.ndarray:
        if not self._weights:
            raise RuntimeError("Catalyst must be fitted before transform")
        x2d = np.atleast_2d(np.asarray(x, dtype=np.float64))
        out = self._forward(Tensor(x2d)).data
        return out[0] if np.asarray(x).ndim == 1 else out

    # ------------------------------------------------------------------
    # Losses
    # ------------------------------------------------------------------
    @staticmethod
    def _koleo(embedded: Tensor) -> Tensor:
        """KoLeo regularizer: -mean log of nearest-neighbor distance.

        Encourages points to spread uniformly (maximizes the
        Kozachenko-Leonenko differential entropy estimate).
        """
        n = embedded.shape[0]
        sq = (embedded * embedded).sum(axis=1, keepdims=True)
        d = sq + sq.T - (embedded @ embedded.T) * 2.0
        # Mask self-distances by adding a large constant on the diagonal.
        mask = Tensor(np.eye(n) * 1e6)
        nearest = ((d + mask) * -1.0).max(axis=1) * -1.0
        return ((nearest + 1e-12).log().mean()) * -1.0

    def _triplet(self, anchor: Tensor, pos: Tensor, neg: Tensor) -> Tensor:
        d_pos = ((anchor - pos) ** 2.0).sum(axis=1)
        d_neg = ((anchor - neg) ** 2.0).sum(axis=1)
        zeros = Tensor(np.zeros(d_pos.shape))
        return (d_pos - d_neg + self.triplet_margin).maximum(zeros).mean()

    # ------------------------------------------------------------------
    def fit(self, x: np.ndarray) -> "CatalystQuantizer":
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        n, in_dim = x.shape
        rng = np.random.default_rng(self.seed)
        self._init_net(in_dim, rng)

        # Triplet supervision from exact kNN on a training subsample.
        sample_size = min(n, 4096)
        sample = rng.choice(n, size=sample_size, replace=False)
        xs = x[sample]
        k_pos = min(10, sample_size - 1)
        knn = _exact_knn(xs, k_pos)

        optimizer = Adam(self._weights, lr=self.lr)
        steps_per_epoch = max(1, sample_size // self.batch_size)
        self.training_loss = []
        for _ in range(self.epochs):
            epoch_loss = 0.0
            for _ in range(steps_per_epoch):
                idx = rng.integers(sample_size, size=self.batch_size)
                pos_pick = knn[idx, rng.integers(k_pos, size=self.batch_size)]
                neg_pick = rng.integers(sample_size, size=self.batch_size)

                batch = Tensor(xs[idx])
                pos = Tensor(xs[pos_pick])
                neg = Tensor(xs[neg_pick])

                emb_a = self._forward(batch)
                emb_p = self._forward(pos)
                emb_n = self._forward(neg)

                loss = self._triplet(emb_a, emb_p, emb_n)
                loss = loss + self._koleo(emb_a) * self.koleo_weight
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
                epoch_loss += loss.item()
            self.training_loss.append(epoch_loss / steps_per_epoch)

        # PQ in the learned space.
        self.codebook = Codebook.from_kmeans(
            train_codebook(
                self.transform(x),
                self.num_chunks,
                self.num_codewords,
                self.kmeans_iter,
                rng,
            )
        )
        return self

    def parameter_bytes(self) -> int:
        """Codebook plus the MLP weights (Table 5's 'model size')."""
        base = super().parameter_bytes()
        net = sum(w.size for w in self._weights)
        return base + int(net * np.dtype(np.float32).itemsize)
