"""Quantization substrate: classical PQ variants and baselines.

* :class:`ProductQuantizer` — vertex-oriented PQ [37] (DiskANN default).
* :class:`OptimizedProductQuantizer` — OPQ [27].
* :class:`CatalystQuantizer` — learned spreading projection + PQ [57].
* :class:`LinkAndCodeQuantizer` — L&C-style residual refinement [21].
* :class:`Codebook`, :class:`LookupTable` — shared containers;
  :func:`adc_distances` / :func:`sdc_distances` — distance estimators.
* :func:`kmeans` — the Lloyd clustering primitive.
"""

from .adc import BatchLookupTable, LookupTable, adc_distances, sdc_distances
from .base import BaseQuantizer
from .catalyst import CatalystQuantizer
from .codebook import Codebook, code_dtype_for
from .kmeans import (
    KMeansResult,
    assign_to_centroids,
    kmeans,
    kmeans_plus_plus_init,
    train_codebook,
)
from .lnc import LinkAndCodeQuantizer
from .opq import OptimizedProductQuantizer
from .pq import ProductQuantizer
from .serialization import load_quantizer, save_quantizer

__all__ = [
    "BaseQuantizer",
    "ProductQuantizer",
    "OptimizedProductQuantizer",
    "CatalystQuantizer",
    "LinkAndCodeQuantizer",
    "Codebook",
    "code_dtype_for",
    "BatchLookupTable",
    "LookupTable",
    "adc_distances",
    "sdc_distances",
    "kmeans",
    "kmeans_plus_plus_init",
    "train_codebook",
    "assign_to_centroids",
    "KMeansResult",
    "save_quantizer",
    "load_quantizer",
]
