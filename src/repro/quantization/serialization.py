"""Saving and loading fitted quantizers.

A downstream deployment trains once and serves many processes, so the
frozen models need a stable on-disk format.  Everything is stored in a
single ``.npz``: codebook tensors, optional rotation / projection
parameters, and a ``kind`` tag for reconstruction.

Supported: :class:`ProductQuantizer`, :class:`OptimizedProductQuantizer`,
:class:`~repro.core.diffq.RPQQuantizer`, and
:class:`LinkAndCodeQuantizer`.  (Catalyst's MLP is trainable state —
persist it by re-fitting from its seed, or extend the registry below.)
"""

from __future__ import annotations

import os
from typing import Union

import numpy as np

from .codebook import Codebook
from .lnc import LinkAndCodeQuantizer
from .opq import OptimizedProductQuantizer
from .pq import ProductQuantizer


def save_quantizer(quantizer, path: Union[str, os.PathLike]) -> None:
    """Serialize a fitted quantizer to ``path`` (``.npz``)."""
    from ..core.diffq import RPQQuantizer

    book = quantizer.codebook
    if book is None:
        raise ValueError("cannot save an unfitted quantizer")
    payload = {"codewords": book.codewords}

    if isinstance(quantizer, RPQQuantizer):
        payload["kind"] = np.array("rpq")
        payload["rotation"] = quantizer.rotation
        payload["skew_count"] = np.array(quantizer._skew_count)
    elif isinstance(quantizer, OptimizedProductQuantizer):
        payload["kind"] = np.array("opq")
        payload["rotation"] = quantizer.rotation
    elif isinstance(quantizer, LinkAndCodeQuantizer):
        payload["kind"] = np.array("lnc")
        payload["n_sq"] = np.array(quantizer.n_sq)
        for i, extra in enumerate(quantizer.residual_books):
            payload[f"residual_{i}"] = extra.codewords
    elif isinstance(quantizer, ProductQuantizer):
        payload["kind"] = np.array("pq")
    else:
        raise TypeError(f"unsupported quantizer type {type(quantizer).__name__}")
    np.savez(path, **payload)


def load_quantizer(path: Union[str, os.PathLike]):
    """Reconstruct a quantizer saved by :func:`save_quantizer`."""
    with np.load(path, allow_pickle=False) as data:
        kind = str(data["kind"])
        book = Codebook(data["codewords"])
        if kind == "rpq":
            # Only an RPQ directory pays for ``repro.core`` (the trainer
            # and autodiff come with it); a PQ worker boots without.
            from ..core.diffq import RPQQuantizer

            return RPQQuantizer(
                rotation=data["rotation"],
                codebook=book,
                skew_parameter_count=int(data["skew_count"]),
            )
        if kind == "opq":
            opq = OptimizedProductQuantizer(
                book.num_chunks, book.num_codewords
            )
            opq.codebook = book
            opq.rotation = np.asarray(data["rotation"], dtype=np.float64)
            return opq
        if kind == "lnc":
            lnc = LinkAndCodeQuantizer(
                book.num_chunks, book.num_codewords, n_sq=int(data["n_sq"])
            )
            lnc.codebook = book
            lnc.residual_books = [
                Codebook(data[f"residual_{i}"]) for i in range(lnc.n_sq)
            ]
            return lnc
        if kind == "pq":
            pq = ProductQuantizer(book.num_chunks, book.num_codewords)
            pq.codebook = book
            return pq
    raise ValueError(f"unknown quantizer kind {kind!r} in {path}")
