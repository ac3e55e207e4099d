"""Codebook container shared by all product quantizers.

A codebook ``C`` is the Cartesian product of ``M`` sub-codebooks of ``K``
codewords each (paper Def. 3).  This module stores it as a single
``(M, K, d_sub)`` array and provides encode / decode / reconstruction
helpers used by the classical quantizers, the differentiable quantizer
(after freezing), and the ADC lookup tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np


def code_dtype_for(n_codewords: int) -> np.dtype:
    """Smallest unsigned integer dtype able to index ``n_codewords``."""
    if n_codewords <= 0:
        raise ValueError("n_codewords must be positive")
    if n_codewords <= 256:
        return np.dtype(np.uint8)
    if n_codewords <= 65536:
        return np.dtype(np.uint16)
    return np.dtype(np.uint32)


@dataclass(frozen=True)
class Codebook:
    """Product-quantization codebook.

    Attributes
    ----------
    codewords:
        ``(M, K, d_sub)`` array; ``codewords[j, k]`` is codeword
        :math:`\\vec c^j_k` of sub-codebook :math:`C^j`.
    """

    codewords: np.ndarray

    def __post_init__(self) -> None:
        cw = np.asarray(self.codewords)
        if cw.dtype != np.float32:
            # float64 is the reference precision; float32 codewords are
            # the opt-in half-precision storage path (see astype).
            cw = cw.astype(np.float64)
        if cw.ndim != 3:
            raise ValueError(
                f"codewords must be (M, K, d_sub), got shape {cw.shape}"
            )
        object.__setattr__(self, "codewords", cw)

    @classmethod
    def from_kmeans(cls, results: Sequence) -> "Codebook":
        """The codebook whose chunk ``j`` is ``results[j].centroids``
        (the per-chunk :class:`~.kmeans.KMeansResult` list
        :func:`~.kmeans.train_codebook` returns)."""
        return cls(np.stack([r.centroids for r in results]))

    def astype(self, dtype: np.dtype) -> "Codebook":
        """Copy of this codebook with codewords stored as ``dtype``.

        Encode/decode arithmetic then runs in that dtype — the
        half-precision storage path of the memory scenario uses
        ``astype(np.float32)`` to halve codeword footprint and
        encode/table bandwidth.
        """
        return Codebook(codewords=self.codewords.astype(dtype))

    # ------------------------------------------------------------------
    @property
    def num_chunks(self) -> int:
        """M — the number of sub-codebooks."""
        return self.codewords.shape[0]

    @property
    def num_codewords(self) -> int:
        """K — codewords per sub-codebook."""
        return self.codewords.shape[1]

    @property
    def sub_dim(self) -> int:
        """d_sub = D / M — dimensions per sub-vector."""
        return self.codewords.shape[2]

    @property
    def dim(self) -> int:
        """D — total dimensionality reconstructed by this codebook."""
        return self.num_chunks * self.sub_dim

    @property
    def code_dtype(self) -> np.dtype:
        return code_dtype_for(self.num_codewords)

    def bits_per_vector(self) -> float:
        """Storage cost of one compact code, in bits (M * log2 K)."""
        return self.num_chunks * float(np.log2(self.num_codewords))

    def parameter_bytes(self, dtype: np.dtype = np.dtype(np.float32)) -> int:
        """Size of the codebook itself when serialized as ``dtype``."""
        return int(self.codewords.size * dtype.itemsize)

    # ------------------------------------------------------------------
    def iter_chunks(self, x: np.ndarray) -> Iterator[np.ndarray]:
        """Yield the M sub-vector blocks of ``x`` (shape ``(n, d_sub)``)."""
        x = np.asarray(x)
        if x.shape[-1] != self.dim:
            raise ValueError(
                f"vectors have dim {x.shape[-1]}, codebook expects {self.dim}"
            )
        for j in range(self.num_chunks):
            yield x[..., j * self.sub_dim : (j + 1) * self.sub_dim]

    def encode(self, x: np.ndarray) -> np.ndarray:
        """Quantize rows of ``x`` to compact codes ``(n, M)``.

        Implements the Lloyd quantizer: each sub-vector maps to the id of
        its nearest codeword (hard argmin — the operation the paper makes
        differentiable during training, and freezes back to at inference).
        """
        x = np.atleast_2d(np.asarray(x, dtype=self.codewords.dtype))
        n = x.shape[0]
        codes = np.empty((n, self.num_chunks), dtype=self.code_dtype)
        for j, chunk in enumerate(self.iter_chunks(x)):
            c = self.codewords[j]
            d = (
                np.einsum("ij,ij->i", chunk, chunk)[:, None]
                + np.einsum("ij,ij->i", c, c)[None, :]
                - 2.0 * (chunk @ c.T)
            )
            codes[:, j] = d.argmin(axis=1)
        return codes

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Reconstruct quantized vectors ``(n, D)`` from codes ``(n, M)``."""
        codes = np.atleast_2d(np.asarray(codes))
        if codes.shape[1] != self.num_chunks:
            raise ValueError(
                f"codes have {codes.shape[1]} chunks, expected {self.num_chunks}"
            )
        n = codes.shape[0]
        out = np.empty((n, self.dim), dtype=self.codewords.dtype)
        for j in range(self.num_chunks):
            out[:, j * self.sub_dim : (j + 1) * self.sub_dim] = self.codewords[
                j, codes[:, j].astype(np.int64)
            ]
        return out

    def reconstruction_error(self, x: np.ndarray) -> float:
        """Mean squared quantization distortion over rows of ``x``."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        recon = self.decode(self.encode(x))
        return float(((x - recon) ** 2).sum(axis=1).mean())
