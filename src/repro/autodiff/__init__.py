"""Reverse-mode autodiff substrate (the reproduction's PyTorch substitute).

Public surface:

* :class:`Tensor` — numpy-backed tensor with a backward tape.
* :func:`softmax`, :func:`log_softmax`, :func:`segment_log_softmax`,
  :func:`gumbel_softmax`, :func:`pairwise_sqdist`, :func:`sqdist`,
  :func:`relu` — differentiable building blocks.
* :func:`expm`, :func:`skew_symmetric_from_flat` — the rotation
  parameterization used by adaptive vector decomposition (paper §4).
* :class:`SGD`, :class:`Adam`, :class:`OneCycleLR` — optimizers/schedules.
"""

from .expm import expm, skew_symmetric_from_flat
from .functional import (
    clip_value,
    gumbel_softmax,
    log_softmax,
    pairwise_sqdist,
    relu,
    sample_gumbel,
    segment_log_softmax,
    softmax,
    sqdist,
)
from .optim import SGD, Adam, OneCycleLR, Optimizer
from .tensor import Tensor, concatenate, stack

__all__ = [
    "Tensor",
    "stack",
    "concatenate",
    "softmax",
    "log_softmax",
    "segment_log_softmax",
    "gumbel_softmax",
    "sample_gumbel",
    "pairwise_sqdist",
    "sqdist",
    "relu",
    "clip_value",
    "expm",
    "skew_symmetric_from_flat",
    "Optimizer",
    "SGD",
    "Adam",
    "OneCycleLR",
]
