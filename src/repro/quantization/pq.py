"""Vertex-oriented product quantization (Jegou et al. [37], paper §1).

The classical baseline: vertically chunk each vector into ``M``
sub-vectors and k-means each chunk independently.  This is the quantizer
DiskANN ships with (the paper's "DiskANN-PQ" rows).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import BaseQuantizer
from .codebook import Codebook
from .kmeans import train_codebook


class ProductQuantizer(BaseQuantizer):
    """Standard PQ with vertical division and per-chunk k-means.

    Parameters
    ----------
    num_chunks:
        M — number of sub-vectors.  Must divide the data dimensionality.
    num_codewords:
        K — codewords per sub-codebook (paper default 256).
    max_iter:
        Lloyd iterations per chunk.
    seed:
        Seed for k-means initialization.
    """

    def __init__(
        self,
        num_chunks: int,
        num_codewords: int = 256,
        max_iter: int = 25,
        seed: Optional[int] = 0,
    ) -> None:
        super().__init__(num_chunks, num_codewords)
        self.max_iter = int(max_iter)
        self.seed = seed

    def fit(self, x: np.ndarray) -> "ProductQuantizer":
        self.codebook = Codebook.from_kmeans(
            train_codebook(
                x,
                self.num_chunks,
                self.num_codewords,
                self.max_iter,
                np.random.default_rng(self.seed),
            )
        )
        return self
