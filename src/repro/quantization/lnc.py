"""Link & Code baseline (Douze et al. [21], paper's "L&C" rows).

L&C refines PQ reconstructions using the graph: each vector is
approximated from its own code plus a learned regression over neighbor
reconstructions.  The essential effect — a small per-vector refinement
payload that buys reconstruction precision — is reproduced here with a
two-level residual product quantizer: a base PQ plus ``n_sq`` residual
sub-quantizers trained on the first-level quantization error.  This is
the same accuracy-for-bytes trade L&C's regression codebooks provide,
without requiring the graph at encode time (a substitution recorded in
``docs/api.md``, "Paper experiments").
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import BaseQuantizer
from .codebook import Codebook
from .kmeans import kmeans, train_codebook


class LinkAndCodeQuantizer(BaseQuantizer):
    """PQ with residual refinement codebooks (L&C-style).

    Parameters
    ----------
    num_chunks, num_codewords:
        Base PQ geometry.
    n_sq:
        Number of refinement sub-quantizers (L&C's ``n_sq``); each adds
        one byte per vector and quantizes the residual of the previous
        level.
    """

    def __init__(
        self,
        num_chunks: int,
        num_codewords: int = 256,
        n_sq: int = 1,
        kmeans_iter: int = 15,
        seed: Optional[int] = 0,
    ) -> None:
        super().__init__(num_chunks, num_codewords)
        if n_sq < 0:
            raise ValueError("n_sq must be >= 0")
        self.n_sq = int(n_sq)
        self.kmeans_iter = int(kmeans_iter)
        self.seed = seed
        self.residual_books: list[Codebook] = []

    # ------------------------------------------------------------------
    def fit(self, x: np.ndarray) -> "LinkAndCodeQuantizer":
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        rng = np.random.default_rng(self.seed)
        self.codebook = Codebook.from_kmeans(
            train_codebook(
                x, self.num_chunks, self.num_codewords, self.kmeans_iter, rng
            )
        )

        # Residual levels: each is a single-chunk codebook over the full
        # residual vector (one byte each, like L&C's refinement bytes).
        self.residual_books = []
        residual = x - self.codebook.decode(self.codebook.encode(x))
        for _ in range(self.n_sq):
            book = Codebook(
                kmeans(
                    residual,
                    self.num_codewords,
                    max_iter=self.kmeans_iter,
                    rng=rng,
                ).centroids[None, :, :]
            )
            self.residual_books.append(book)
            residual = residual - book.decode(book.encode(residual))
        return self

    # ------------------------------------------------------------------
    def encode(self, x: np.ndarray) -> np.ndarray:
        """Codes ``(n, M + n_sq)``: base chunks then refinement bytes."""
        book = self._require_fitted()
        x2d = np.atleast_2d(np.asarray(x, dtype=np.float64))
        parts = [book.encode(x2d)]
        residual = x2d - book.decode(parts[0])
        for extra in self.residual_books:
            codes = extra.encode(residual)
            parts.append(codes)
            residual = residual - extra.decode(codes)
        return np.concatenate(parts, axis=1)

    def decode(self, codes: np.ndarray) -> np.ndarray:
        book = self._require_fitted()
        codes = np.atleast_2d(np.asarray(codes))
        expected = book.num_chunks + self.n_sq
        if codes.shape[1] != expected:
            raise ValueError(
                f"codes have {codes.shape[1]} chunks, expected {expected}"
            )
        out = book.decode(codes[:, : book.num_chunks])
        for level, extra in enumerate(self.residual_books):
            col = book.num_chunks + level
            out = out + extra.decode(codes[:, col : col + 1])
        return out

    def lookup_table(self, query: np.ndarray, dtype: np.dtype = np.float64):
        """ADC over base + refinement levels via a concatenated table.

        The refinement codewords live in the same ``D``-dim space as the
        full vector, so the exact additive-table trick does not apply;
        L&C likewise re-ranks with reconstructions.  We approximate by
        building a combined table whose refinement entries score the
        residual codewords against the zero vector offset — callers that
        need exact distances should decode and compare (the hybrid index
        does exactly that during reranking).
        """
        from .adc import LookupTable

        book = self._require_fitted()
        query = np.asarray(query, dtype=np.float64).reshape(-1)
        base = LookupTable.build(book, query).table  # (M, K)
        if not self.residual_books:
            return LookupTable(table=base.astype(dtype, copy=False))
        # Residual levels contribute  ||r_k||^2 - 2 <q - x', r_k>;  the
        # cross term with the unknown base reconstruction is dropped,
        # keeping the estimator cheap (consistent with L&C's coarse
        # first-pass scoring).
        extras = []
        for extra in self.residual_books:
            cw = extra.codewords[0]  # (K, D)
            term = np.einsum("kd,kd->k", cw, cw) - 2.0 * (cw @ query)
            extras.append(term[None, :])
        table = np.concatenate([base] + extras, axis=0)
        return LookupTable(table=table.astype(dtype, copy=False))

    def parameter_bytes(self) -> int:
        base = super().parameter_bytes()
        extra = sum(b.parameter_bytes() for b in self.residual_books)
        return base + extra

    def code_bytes_per_vector(self) -> int:
        return super().code_bytes_per_vector() + self.n_sq
