"""The differentiable quantizer (paper §4).

Combines the adaptive rotation with a soft codeword assignment so the
whole encode path is differentiable:

1. rotate: ``R x`` (see :mod:`.rotation`);
2. chunk into ``M`` sub-vectors;
3. per chunk, compute codeword-assignment probabilities from distances
   (paper Eq. 6) and sample an approximate compact code with
   Gumbel-Softmax (paper Eq. 7);
4. the *soft reconstruction* — the probability-weighted codeword mix —
   stands in for the quantized vector during training.

Note on Eq. 6: the paper prints ``p ∝ exp(δ(Rx, c))``, which would give
*farther* codewords *higher* probability; every Gumbel-Softmax
quantization in the literature (and the paper's own argmin framing)
uses the negated distance, so we implement ``p ∝ exp(-δ(Rx, c) / T)``.

After training, :meth:`DifferentiableQuantizer.freeze` exports a
:class:`RPQQuantizer` — a plain hard quantizer (rotation + codebook)
that drops into any index exactly like PQ/OPQ.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..autodiff import (
    Tensor,
    gumbel_softmax,
    pairwise_sqdist,
    sample_gumbel,
    softmax,
)
from ..quantization.base import BaseQuantizer
from ..quantization.codebook import Codebook
from ..quantization.kmeans import train_codebook
from .rotation import AdaptiveRotation


class DifferentiableQuantizer:
    """Trainable rotation + codebooks with a Gumbel-Softmax encoder.

    Parameters
    ----------
    dim:
        D — input dimensionality (must be divisible by ``num_chunks``).
    num_chunks, num_codewords:
        PQ geometry (M, K).
    temperature:
        T of the assignment probabilities (Eq. 6 denominator scale).
        :meth:`warm_start` re-calibrates this per chunk to the typical
        quantization distance, so the softmax logits are O(1) regardless
        of the data's per-dimension scale (without this, chunks holding
        low-variance dimensions produce logits drowned out by the
        Gumbel noise).
    gumbel_tau:
        τ of the Gumbel-Softmax relaxation (Eq. 7).
    init_scale:
        Initial skew-parameter scale for the rotation.
    seed:
        Seed for codebook warm-start and Gumbel noise.
    """

    def __init__(
        self,
        dim: int,
        num_chunks: int,
        num_codewords: int = 256,
        temperature: float = 1.0,
        gumbel_tau: float = 1.0,
        init_scale: float = 0.0,
        seed: Optional[int] = 0,
    ) -> None:
        if dim % num_chunks != 0:
            raise ValueError(
                f"dim {dim} is not divisible by num_chunks {num_chunks}"
            )
        if gumbel_tau <= 0:
            raise ValueError("temperatures must be positive")
        self.dim = int(dim)
        self.num_chunks = int(num_chunks)
        self.num_codewords = int(num_codewords)
        self.sub_dim = dim // num_chunks
        self.temperature = temperature
        self.gumbel_tau = float(gumbel_tau)
        self.rng = np.random.default_rng(seed)
        self.rotation = AdaptiveRotation(dim, init_scale=init_scale, rng=self.rng)
        self.codebooks: List[Tensor] = [
            Tensor(
                self.rng.normal(scale=0.1, size=(num_codewords, self.sub_dim)),
                requires_grad=True,
                name=f"codebook_{j}",
            )
            for j in range(num_chunks)
        ]

    # ------------------------------------------------------------------
    @property
    def temperature(self) -> np.ndarray:
        """Per-chunk temperatures ``(M,)``; scalars broadcast on set."""
        return self._temperature

    @temperature.setter
    def temperature(self, value) -> None:
        if np.isscalar(value):
            arr = np.full(self.num_chunks, float(value))
        else:
            arr = np.asarray(value, dtype=np.float64).reshape(-1)
            if arr.size != self.num_chunks:
                raise ValueError(
                    f"need {self.num_chunks} temperatures, got {arr.size}"
                )
        if (arr <= 0).any():
            raise ValueError("temperatures must be positive")
        self._temperature = arr

    # ------------------------------------------------------------------
    # Initialization
    # ------------------------------------------------------------------
    def warm_start(self, x: np.ndarray, kmeans_iter: int = 15) -> None:
        """Initialize codebooks with k-means on the (rotated) data.

        Starting from Lloyd codewords rather than random noise makes the
        joint training a *refinement* of classical PQ, which is how the
        paper can compare against PQ at identical (M, K).
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        rotated = x @ self.rotation.matrix_numpy().T
        results = train_codebook(
            rotated, self.num_chunks, self.num_codewords, kmeans_iter, self.rng
        )
        for j, result in enumerate(results):
            self.codebooks[j].data[...] = result.centroids
            # Calibrate the chunk temperature to the typical quantization
            # distance so softmax logits are O(1) whatever the data scale.
            mean_d = result.inertia / max(rotated.shape[0], 1)
            self._temperature[j] = max(mean_d, 1e-8)

    def warm_start_rotation(self, x: np.ndarray, opq_iter: int = 5) -> None:
        """Initialize the rotation from OPQ's Procrustes solution.

        The paper's adaptive decomposition generalizes OPQ's learned
        rotation [27, 52]; starting ``A`` at ``logm(R_opq)`` (projected
        to the skew-symmetric cone, sign-fixed into SO(D)) means the
        end-to-end training *refines* the best classical decomposition
        instead of rediscovering it from the identity.  Call before
        :meth:`warm_start` so the codebooks are fitted in the rotated
        space.
        """
        from scipy.linalg import logm

        from ..quantization.opq import OptimizedProductQuantizer

        opq = OptimizedProductQuantizer(
            self.num_chunks,
            self.num_codewords,
            opq_iter=opq_iter,
            kmeans_iter=8,
            seed=int(self.rng.integers(2**31)),
        )
        # Only OPQ's rotation is kept (the codebooks are refitted in the
        # rotated space by warm_start), so its final codebook is skipped.
        rotation = np.array(opq.fit_rotation(x), copy=True)
        if np.linalg.det(rotation) < 0:
            # expm(skew) only reaches SO(D); reflect one axis to fix the
            # determinant (codebooks are retrained afterwards anyway).
            rotation[-1] *= -1.0
        log_r = np.real(logm(rotation))
        skew = 0.5 * (log_r - log_r.T)
        rows, cols = np.triu_indices(self.dim, k=1)
        self.rotation.params.data[...] = skew[rows, cols]

    # ------------------------------------------------------------------
    # Differentiable paths
    # ------------------------------------------------------------------
    def parameters(self) -> List[Tensor]:
        return [self.rotation.params] + list(self.codebooks)

    def assignment_probabilities(
        self, x: Tensor, chunk: int, rotated: Optional[Tensor] = None
    ) -> Tensor:
        """Eq. 6 (sign-corrected): soft assignment of chunk ``chunk``."""
        rotated = self.rotation.rotate(x) if rotated is None else rotated
        sub = rotated[:, chunk * self.sub_dim : (chunk + 1) * self.sub_dim]
        d = pairwise_sqdist(sub, self.codebooks[chunk])
        return softmax(d * (-1.0 / self._temperature[chunk]), axis=-1)

    def _gumbel_noise(self, blocks: Sequence[int]) -> np.ndarray:
        """Noise ``(M, n, K)`` for rows drawn as ``len(blocks)`` calls.

        One call draws a ``(rows, K)`` block per chunk, chunk after
        chunk; ``blocks`` consecutive calls draw that in turn.  The
        uniforms come out of the generator in exactly that order.
        """
        m, k = self.num_chunks, self.num_codewords
        flat = sample_gumbel((m * k * int(sum(blocks)),), self.rng)
        calls = np.split(flat, m * k * np.cumsum(blocks)[:-1])
        return np.concatenate([c.reshape(m, -1, k) for c in calls], axis=1)

    def soft_encode(
        self,
        x: Tensor,
        use_gumbel: bool = True,
        hard: bool = False,
        rotation: Optional[Tensor] = None,
        blocks: Optional[Sequence[int]] = None,
    ) -> List[Tensor]:
        """Approximate compact codes: a ``(n, K)`` simplex row per chunk.

        ``use_gumbel=False`` gives the deterministic softmax relaxation
        (useful for evaluation); ``hard=True`` applies the
        straight-through one-hot.  ``rotation`` is an ``R`` node from
        :meth:`AdaptiveRotation.matrix` shared by every loss of one
        optimizer step (default: a fresh ``expm``).  ``blocks`` splits
        the rows into consecutive groups whose Gumbel noise is drawn as
        if each group were its own call — one call over concatenated
        batches then draws exactly the noise of one call per batch.
        """
        if rotation is None:
            rotation = self.rotation.matrix()
        rotated = x @ rotation.T
        noise = None
        if use_gumbel:
            noise = self._gumbel_noise(blocks or [x.shape[0]])
        codes: List[Tensor] = []
        for j in range(self.num_chunks):
            sub = rotated[:, j * self.sub_dim : (j + 1) * self.sub_dim]
            d = pairwise_sqdist(sub, self.codebooks[j])
            logits = d * (-1.0 / self._temperature[j])
            codes.append(
                gumbel_softmax(
                    logits,
                    tau=self.gumbel_tau,
                    hard=hard,
                    noise=None if noise is None else noise[j],
                )
            )
        return codes

    def soft_reconstruct(
        self,
        x: Tensor,
        use_gumbel: bool = True,
        hard: bool = False,
        rotation: Optional[Tensor] = None,
        blocks: Optional[Sequence[int]] = None,
    ) -> Tensor:
        """Differentiable quantized vectors (in the rotated space); the
        keywords are :meth:`soft_encode`'s."""
        codes = self.soft_encode(
            x, use_gumbel=use_gumbel, hard=hard, rotation=rotation, blocks=blocks
        )
        parts = [codes[j] @ self.codebooks[j] for j in range(self.num_chunks)]
        out = parts[0]
        if len(parts) == 1:
            return out
        from ..autodiff import concatenate

        return concatenate(parts, axis=1)

    # ------------------------------------------------------------------
    # Hard (inference) paths
    # ------------------------------------------------------------------
    def rotation_matrix(self) -> np.ndarray:
        return self.rotation.matrix_numpy()

    def codebook_numpy(self) -> Codebook:
        """Current codebooks as a plain :class:`Codebook`."""
        return Codebook(np.stack([c.data.copy() for c in self.codebooks]))

    def encode_hard(self, x: np.ndarray) -> np.ndarray:
        """Hard compact codes (argmin) under the current parameters."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        rotated = x @ self.rotation_matrix().T
        return self.codebook_numpy().encode(rotated)

    def reconstruct_hard(self, x: np.ndarray) -> np.ndarray:
        """Hard quantized vectors in the rotated space."""
        book = self.codebook_numpy()
        return book.decode(self.encode_hard(x))

    def quantization_error(self, x: np.ndarray) -> float:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        rotated = x @ self.rotation_matrix().T
        return float(
            ((rotated - self.reconstruct_hard(x)) ** 2).sum(axis=1).mean()
        )

    def freeze(self) -> "RPQQuantizer":
        """Export the trained model as a drop-in hard quantizer."""
        return RPQQuantizer(
            rotation=self.rotation_matrix(),
            codebook=self.codebook_numpy(),
            skew_parameter_count=self.rotation.parameter_count(),
        )


class RPQQuantizer(BaseQuantizer):
    """Frozen RPQ model: orthonormal rotation + learned codebook.

    Behaves exactly like OPQ at inference time (rotate, then table
    lookups); the difference is *what* the codebook and rotation were
    optimized for.
    """

    def __init__(
        self,
        rotation: np.ndarray,
        codebook: Codebook,
        skew_parameter_count: Optional[int] = None,
    ) -> None:
        super().__init__(codebook.num_chunks, codebook.num_codewords)
        rotation = np.asarray(rotation, dtype=np.float64)
        if rotation.shape != (codebook.dim, codebook.dim):
            raise ValueError(
                f"rotation shape {rotation.shape} does not match codebook "
                f"dim {codebook.dim}"
            )
        self.rotation = rotation
        self.codebook = codebook
        self._skew_count = (
            skew_parameter_count
            if skew_parameter_count is not None
            else codebook.dim * (codebook.dim - 1) // 2
        )

    def fit(self, x: np.ndarray) -> "RPQQuantizer":
        raise RuntimeError(
            "RPQQuantizer is produced by DifferentiableQuantizer.freeze(); "
            "train with repro.core.RPQ instead"
        )

    def transform(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64) @ self.rotation.T

    def parameter_bytes(self) -> int:
        """Codebook + skew parameters (Table 5's RPQ model size)."""
        base = super().parameter_bytes()
        return base + int(self._skew_count * np.dtype(np.float32).itemsize)
