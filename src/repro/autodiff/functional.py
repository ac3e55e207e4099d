"""Differentiable building blocks used by the RPQ model.

These are composite operations built on :class:`~repro.autodiff.tensor.Tensor`
primitives, plus a few fused ops (softmax, log-softmax) implemented with
custom backward rules for numerical stability.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .tensor import Tensor


def relu(x: Tensor) -> Tensor:
    """Elementwise ``max(0, x)``."""
    return x.relu()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` with a fused backward."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    value = exp / exp.sum(axis=axis, keepdims=True)

    def backward(g: np.ndarray) -> None:
        # d softmax: s * (g - sum(g * s))
        inner = (g * value).sum(axis=axis, keepdims=True)
        Tensor._send(x, value * (g - inner))

    return Tensor._make(value, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable ``log(softmax(x))`` with a fused backward."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    value = shifted - log_norm
    soft = np.exp(value)

    def backward(g: np.ndarray) -> None:
        Tensor._send(x, g - soft * g.sum(axis=axis, keepdims=True))

    return Tensor._make(value, (x,), backward)


def segment_log_softmax(x: Tensor, offsets: np.ndarray) -> Tensor:
    """:func:`log_softmax` of every segment ``x[offsets[s] : offsets[s + 1]]``
    of a 1-D tensor at once (segments must be non-empty)."""
    starts = np.asarray(offsets[:-1])
    owner = np.repeat(np.arange(starts.size), np.diff(offsets))
    shifted = x.data - np.maximum.reduceat(x.data, starts)[owner]
    log_norm = np.log(np.add.reduceat(np.exp(shifted), starts))
    value = shifted - log_norm[owner]
    soft = np.exp(value)

    def backward(g: np.ndarray) -> None:
        Tensor._send(x, g - soft * np.add.reduceat(g, starts)[owner])

    return Tensor._make(value, (x,), backward)


def sample_gumbel(
    shape: tuple,
    rng: np.random.Generator,
    eps: float = 1e-12,
) -> np.ndarray:
    """Draw standard Gumbel noise ``-log(-log(U))`` (paper Eq. 7)."""
    uniform = rng.uniform(low=eps, high=1.0 - eps, size=shape)
    return -np.log(-np.log(uniform))


def gumbel_softmax(
    logits: Tensor,
    tau: float = 1.0,
    rng: Optional[np.random.Generator] = None,
    hard: bool = False,
    axis: int = -1,
    noise: Optional[np.ndarray] = None,
) -> Tensor:
    """Gumbel-Softmax relaxation of a categorical sample (paper Eq. 7).

    Parameters
    ----------
    logits:
        Unnormalized log-probabilities.
    tau:
        Temperature.  Lower values sharpen toward one-hot.
    rng:
        Noise source.  ``None`` disables the noise (deterministic softmax),
        which is useful for evaluation.
    hard:
        If True, return a straight-through one-hot: the forward value is
        exactly one-hot while gradients flow through the soft relaxation.
    noise:
        Gumbel noise of ``logits``' shape drawn beforehand; used instead
        of drawing from ``rng``.
    """
    if noise is None and rng is not None:
        noise = sample_gumbel(logits.shape, rng)
    noisy = logits if noise is None else logits + Tensor(noise)
    soft = softmax(noisy * (1.0 / tau), axis=axis)
    if not hard:
        return soft

    # Straight-through estimator: hard one-hot forward, soft backward.
    index = soft.data.argmax(axis=axis)
    one_hot = np.zeros_like(soft.data)
    np.put_along_axis(one_hot, np.expand_dims(index, axis), 1.0, axis=axis)
    residual = Tensor(one_hot - soft.data)  # constant w.r.t. the tape
    return soft + residual


def pairwise_sqdist(x: Tensor, centers: Tensor) -> Tensor:
    """Squared Euclidean distances between rows of ``x`` and ``centers``.

    ``x`` has shape ``(n, d)`` and ``centers`` ``(k, d)``; the result has
    shape ``(n, k)``.  Built from primitives so gradients flow to both
    operands (needed to train codebooks and the rotation jointly).
    """
    x_sq = (x * x).sum(axis=1, keepdims=True)  # (n, 1)
    c_sq = (centers * centers).sum(axis=1, keepdims=True).T  # (1, k)
    cross = x @ centers.T  # (n, k)
    return x_sq + c_sq - cross * 2.0


def sqdist(a: Tensor, b: Tensor, axis: int = -1) -> Tensor:
    """Squared Euclidean distance along ``axis`` (elementwise pairing)."""
    diff = a - b
    return (diff * diff).sum(axis=axis)


def clip_value(x: Tensor, minimum: float) -> Tensor:
    """Differentiable lower clip implemented as ``max(x, minimum)``."""
    return x.maximum(Tensor(np.full(x.shape, minimum)))
