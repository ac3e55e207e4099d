"""Asymmetric / symmetric distance computation (paper §3.1).

Given a query, a :class:`LookupTable` caches the squared distances from
each query sub-vector to every codeword of the matching sub-codebook.
The estimated distance between the query and any database vector is then
the sum of ``M`` table entries addressed by the vector's compact code —
the core trick that makes PQ-integrated graph routing cheap.

* ADC (asymmetric): query stays full precision — lower error, the
  paper's default.
* SDC (symmetric): query is quantized too — provided for completeness
  and for the ablation on distance modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from numpy.typing import DTypeLike

    from .codebook import Codebook


#: Rows per block of :meth:`BatchLookupTable.build`: its difference
#: temporary is ``(8, M, K, d_sub)`` — 2 MB at 16 x 256 x 8 in float64 —
#: whatever the batch size.
_TABLE_BLOCK_ROWS = 8


def _validate_table_dtype(dtype: "DTypeLike") -> np.dtype:
    """Tables are distance accumulators: only float32/float64 make sense.

    Anything else (float16 overflow, integer truncation, object arrays)
    would silently corrupt distances, so reject it loudly.
    """
    resolved = np.dtype(dtype)
    if resolved not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(
            f"lookup-table dtype must be float32 or float64, got {resolved}"
        )
    return resolved


@dataclass(frozen=True)
class LookupTable:
    """Per-query table of sub-vector-to-codeword squared distances.

    Attributes
    ----------
    table:
        ``(M, K)`` array; ``table[j, k]`` is
        :math:`\\delta(\\vec x_q^j, \\vec c^j_k)`.
    """

    table: np.ndarray

    @staticmethod
    def build(
        codebook: "Codebook",
        query: np.ndarray,
        dtype: "DTypeLike" = np.float64,
    ) -> "LookupTable":
        """Precompute the table for ``query`` (already transformed).

        ``dtype`` selects the table precision: ``np.float64`` (default)
        or ``np.float32`` — the latter halves table-build bandwidth at
        the cost of a few ULPs of distance accuracy.  Other dtypes are
        rejected with :class:`ValueError`.
        """
        dtype = _validate_table_dtype(dtype)
        query = np.asarray(query, dtype=dtype).reshape(-1)
        if query.shape[0] != codebook.dim:
            raise ValueError(
                f"query dim {query.shape[0]} != codebook dim {codebook.dim}"
            )
        m, k, d_sub = codebook.codewords.shape
        sub_queries = query.reshape(m, 1, d_sub)
        diff = codebook.codewords.astype(dtype, copy=False) - sub_queries
        table = np.einsum("mkd,mkd->mk", diff, diff)
        return LookupTable(table=table)

    @property
    def num_chunks(self) -> int:
        return self.table.shape[0]

    @property
    def num_codewords(self) -> int:
        return self.table.shape[1]

    def distance(self, codes: np.ndarray) -> np.ndarray:
        """ADC distance estimate for compact codes ``(n, M)`` or ``(M,)``.

        Accumulates chunk contributions in ascending chunk order — the
        one summation order every distance path in the repo shares, so
        scalar, matrix, and paired estimates agree bitwise.
        """
        codes = np.asarray(codes)
        single = codes.ndim == 1
        codes2d = np.atleast_2d(codes).astype(np.int64, copy=False)
        if codes2d.shape[1] != self.num_chunks:
            raise ValueError(
                f"codes have {codes2d.shape[1]} chunks, table expects "
                f"{self.num_chunks}"
            )
        out = self.table[0, codes2d[:, 0]].copy()
        for j in range(1, self.num_chunks):
            out += self.table[j, codes2d[:, j]]
        return out[0] if single else out


@dataclass(frozen=True)
class BatchLookupTable:
    """ADC tables for a whole query batch, built block by block.

    Attributes
    ----------
    tables:
        ``(B, M, K)`` array; ``tables[b]`` is query ``b``'s
        :class:`LookupTable` table.  Building the ``B`` tables with one
        broadcasted ``einsum`` per block of rows replaces ``B``
        Python-level table constructions — the first half of the
        batched query engine's speedup (the second is the lockstep
        beam kernel in :mod:`repro.graphs.beam`).
    """

    tables: np.ndarray

    @staticmethod
    def build(
        codebook: "Codebook",
        queries: np.ndarray,
        dtype: "DTypeLike" = np.float64,
    ) -> "BatchLookupTable":
        """Precompute tables for ``queries`` ``(B, dim)`` (transformed).

        Each row's table is bitwise identical to
        ``LookupTable.build(codebook, queries[b], dtype)`` — both paths
        reduce over the sub-dimension axis in the same order.  Like the
        scalar build, ``dtype`` must be float32 or float64.
        """
        dtype = _validate_table_dtype(dtype)
        queries = np.atleast_2d(np.asarray(queries, dtype=dtype))
        if queries.shape[1] != codebook.dim:
            raise ValueError(
                f"query dim {queries.shape[1]} != codebook dim {codebook.dim}"
            )
        b = queries.shape[0]
        m, k, d_sub = codebook.codewords.shape
        sub_queries = queries.reshape(b, m, 1, d_sub)
        codewords = codebook.codewords[None].astype(dtype, copy=False)
        tables = np.empty((b, m, k), dtype=dtype)
        # A fixed block of rows at a time: the (rows, M, K, d_sub)
        # difference temporary stays bounded at any batch size.
        for start in range(0, b, _TABLE_BLOCK_ROWS):
            block = slice(start, start + _TABLE_BLOCK_ROWS)
            diff = codewords - sub_queries[block]
            np.einsum("bmkd,bmkd->bmk", diff, diff, out=tables[block])
        return BatchLookupTable(tables=tables)

    @property
    def num_queries(self) -> int:
        return self.tables.shape[0]

    @property
    def num_chunks(self) -> int:
        return self.tables.shape[1]

    @property
    def num_codewords(self) -> int:
        return self.tables.shape[2]

    def table_for(self, i: int) -> LookupTable:
        """Per-query view (no copy) as a scalar :class:`LookupTable`."""
        return LookupTable(table=self.tables[i])

    # ``pair_distance`` runs once per kernel round; what it needs of the
    # table block beyond the entries themselves is computed once.
    @cached_property
    def _flat_tables(self) -> np.ndarray:
        return self.tables.reshape(-1)

    @cached_property
    def _chunk_offsets(self) -> np.ndarray:
        """``(M, 1)`` flat offset of each chunk's row inside one table."""
        return (
            np.arange(self.num_chunks, dtype=np.int64) * self.num_codewords
        )[:, None]

    def _check_codes(self, codes2d: np.ndarray) -> None:
        if codes2d.shape[-1] != self.num_chunks:
            raise ValueError(
                f"codes have {codes2d.shape[-1]} chunks, tables expect "
                f"{self.num_chunks}"
            )

    def distance(self, codes: np.ndarray) -> np.ndarray:
        """All-pairs ADC estimates: ``(B, n)`` for codes ``(n, M)``.

        Same ascending-chunk accumulation order as the scalar
        :meth:`LookupTable.distance`, so both agree bitwise.
        """
        codes2d = np.atleast_2d(np.asarray(codes)).astype(np.int64, copy=False)
        self._check_codes(codes2d)
        out = self.tables[:, 0, :][:, codes2d[:, 0]].copy()
        for j in range(1, self.num_chunks):
            out += self.tables[:, j, :][:, codes2d[:, j]]
        return out

    def pair_distance(
        self, query_idx: np.ndarray, codes: np.ndarray
    ) -> np.ndarray:
        """Paired ADC estimates: ``out[p] = d(query_idx[p], codes[p])``.

        This is the amortized gather the lockstep beam kernel relies on:
        one fancy-indexing call scores every (query, fresh-vertex) pair
        of a whole expansion round.
        """
        query_idx = np.asarray(query_idx, dtype=np.int64).reshape(-1)
        codes2d = np.atleast_2d(np.asarray(codes))
        self._check_codes(codes2d)
        if codes2d.shape[0] != query_idx.shape[0]:
            raise ValueError(
                f"{query_idx.shape[0]} query indices for "
                f"{codes2d.shape[0]} codes"
            )
        # Flat transposed gather: one (M, P) fancy read off the flattened
        # table block, reduced down the chunk axis.  The reduce adds
        # whole rows in ascending chunk order — the scalar path's order,
        # bitwise — only while the gather is C-contiguous with P >= 2
        # (hence ``order="C"``: a bare ``codes.T + offsets`` is
        # F-ordered, and NumPy sums that pairwise); a single pair
        # coalesces into a pairwise 1-D sum, so it takes the explicit
        # ascending loop.
        idx = np.add(
            codes2d.T, self._chunk_offsets, dtype=np.int64, order="C"
        )
        idx += query_idx * (self.num_chunks * self.num_codewords)
        gathered = self._flat_tables[idx]
        if gathered.shape[1] >= 2:
            return np.add.reduce(gathered, axis=0)
        out = gathered[0].copy()
        for j in range(1, self.num_chunks):
            out += gathered[j]
        return out


def adc_distances(
    codebook: "Codebook",
    query: np.ndarray,
    codes: np.ndarray,
) -> np.ndarray:
    """One-shot ADC: build the table and evaluate ``codes``."""
    return LookupTable.build(codebook, query).distance(codes)


def sdc_distances(
    codebook: "Codebook",
    query: np.ndarray,
    codes: np.ndarray,
) -> np.ndarray:
    """Symmetric distance: quantize the query first, then estimate.

    Uses the codeword-to-codeword distance identity; slightly cheaper per
    query batch but noisier than ADC (paper §3.1 adopts ADC for exactly
    this reason).
    """
    query_codes = codebook.encode(np.atleast_2d(query))[0]
    query_recon = codebook.decode(query_codes[None, :])[0]
    return adc_distances(codebook, query_recon, codes)
