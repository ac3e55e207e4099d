"""Optimized Product Quantization (Ge et al. [27], paper §8 baseline).

OPQ learns an orthonormal rotation ``R`` jointly with the codebooks by
alternating two steps:

1. fix ``R``, run PQ on the rotated data ``X R^T``;
2. fix the codes, solve the orthogonal Procrustes problem
   ``min_R ||X R^T - Y||_F`` (``Y`` the reconstruction) via SVD.

This is the non-parametric OPQ variant.  It is the strongest classical
(non-learned) baseline in the paper's evaluation.

The alternation is warm-started, as in Ge et al.: k-means++ seeds the
codebook once, in the first alternation, and every later alternation
(and the final codebook of :meth:`OptimizedProductQuantizer.fit`)
continues Lloyd from the previous alternation's codewords.  Step 2
makes ``X R^T`` approach exactly those codewords, so they are the
natural start in the new rotated space.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .base import BaseQuantizer
from .codebook import Codebook
from .kmeans import KMeansResult, train_codebook


class OptimizedProductQuantizer(BaseQuantizer):
    """OPQ: alternating rotation + PQ.

    Parameters
    ----------
    num_chunks, num_codewords:
        As in :class:`~repro.quantization.pq.ProductQuantizer`.
    opq_iter:
        Alternations between codebook training and Procrustes updates.
    kmeans_iter:
        Lloyd iterations per chunk inside each alternation.
    seed:
        Random seed.
    """

    def __init__(
        self,
        num_chunks: int,
        num_codewords: int = 256,
        opq_iter: int = 10,
        kmeans_iter: int = 10,
        seed: Optional[int] = 0,
    ) -> None:
        super().__init__(num_chunks, num_codewords)
        self.opq_iter = int(opq_iter)
        self.kmeans_iter = int(kmeans_iter)
        self.seed = seed
        self.rotation: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def transform(self, x: np.ndarray) -> np.ndarray:
        if self.rotation is None:
            raise RuntimeError("OPQ must be fitted before transform")
        return np.asarray(x, dtype=np.float64) @ self.rotation.T

    def _train_codebook(
        self,
        rotated: np.ndarray,
        rng: np.random.Generator,
        init: Optional[np.ndarray] = None,
    ) -> List[KMeansResult]:
        return train_codebook(
            rotated,
            self.num_chunks,
            self.num_codewords,
            self.kmeans_iter,
            rng,
            init=init,
        )

    def _alternate(
        self, x: np.ndarray, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The ``opq_iter`` PQ / Procrustes alternations.

        Returns ``R`` and the last alternation's ``(M, K, d_sub)``
        codewords, from which :meth:`fit` continues.
        """
        rotation = np.eye(x.shape[1])
        codewords = None
        for _ in range(max(1, self.opq_iter)):
            rotated = x @ rotation.T
            results = self._train_codebook(rotated, rng, init=codewords)
            codewords = np.stack([r.centroids for r in results])
            # Lloyd's final assignments are the codes of ``rotated``.
            recon = np.concatenate(
                [r.centroids[r.assignments] for r in results], axis=1
            )
            # Procrustes: min_R ||X R^T - recon||_F over orthogonal R.
            # With SVD(recon^T X) = U S V^T the minimiser is R = U V^T.
            u, _, vt = np.linalg.svd(recon.T @ x)
            rotation = u @ vt
        return rotation, codewords

    def fit_rotation(self, x: np.ndarray) -> np.ndarray:
        """Learn only the rotation: :meth:`fit` without the final
        codebook, for callers that train their own codebook in the
        rotated space (RPQ's warm start).  Same ``R`` as :meth:`fit`."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        self.rotation, _ = self._alternate(x, np.random.default_rng(self.seed))
        return self.rotation

    def fit(self, x: np.ndarray) -> "OptimizedProductQuantizer":
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        rng = np.random.default_rng(self.seed)
        self.rotation, codewords = self._alternate(x, rng)
        # Final codebook consistent with the final rotation.
        self.codebook = Codebook.from_kmeans(
            self._train_codebook(x @ self.rotation.T, rng, init=codewords)
        )
        return self

    def parameter_bytes(self) -> int:
        """Codebook plus the rotation matrix."""
        base = super().parameter_bytes()
        assert self.rotation is not None
        return base + int(self.rotation.size * np.dtype(np.float32).itemsize)
