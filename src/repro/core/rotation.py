"""Adaptive vector decomposition (paper §4, step 1).

Vertical division assigns dimensions to sub-vectors blindly, so the
informative dimensions cluster in a few chunks.  RPQ instead learns a
square orthonormal matrix ``R`` that rotates every vector before
chunking, spreading the information evenly.  ``R`` is parameterized as
``expm(A)`` with ``A`` skew-symmetric, which keeps it exactly orthogonal
at every training step (``expm(A)^T = expm(-A) = expm(A)^{-1}``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..autodiff import Tensor, expm, skew_symmetric_from_flat


class AdaptiveRotation:
    """Learnable orthonormal rotation ``R = expm(A)``.

    Parameters
    ----------
    dim:
        D — dimensionality of the vectors.
    init_scale:
        Standard deviation of the initial skew parameters.  ``0`` starts
        at the identity rotation.
    rng:
        Initialization source.
    """

    def __init__(
        self,
        dim: int,
        init_scale: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = int(dim)
        n_params = dim * (dim - 1) // 2
        if init_scale > 0.0:
            rng = rng or np.random.default_rng()
            init = rng.normal(scale=init_scale, size=n_params)
        else:
            init = np.zeros(n_params)
        self.params = Tensor(init, requires_grad=True, name="skew_flat")

    # ------------------------------------------------------------------
    def matrix(self) -> Tensor:
        """The rotation ``R`` as a differentiable tensor."""
        skew = skew_symmetric_from_flat(self.params, self.dim)
        return expm(skew)

    def rotate(self, x: Tensor) -> Tensor:
        """Apply ``R`` to row vectors: returns ``x @ R^T``."""
        return x @ self.matrix().T

    def matrix_numpy(self) -> np.ndarray:
        """Current rotation as a plain array (no differentiable ``expm``)."""
        from scipy.linalg import expm as scipy_expm

        return scipy_expm(skew_symmetric_from_flat(self.params, self.dim).data)

    def parameter_count(self) -> int:
        return self.params.size


def dimension_value_profile(x: np.ndarray, num_chunks: int) -> np.ndarray:
    """Per-dimension "value" map reshaped into chunks (paper Fig. 4).

    The paper follows OPQ [27] in using the data covariance to measure
    how informative each dimension is; the diagonal (per-dimension
    variance) reshaped as ``(num_chunks, dim / num_chunks)`` is the
    heat-map the figure plots.  A balanced quantizer wants each chunk
    row to carry a similar share of the total variance.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    dim = x.shape[1]
    if dim % num_chunks != 0:
        raise ValueError(
            f"dim {dim} is not divisible by num_chunks {num_chunks}"
        )
    variance = x.var(axis=0)
    return variance.reshape(num_chunks, dim // num_chunks)


def chunk_balance_score(profile: np.ndarray) -> float:
    """Coefficient of variation of per-chunk variance mass.

    ``0`` means perfectly balanced chunks; larger means the informative
    dimensions concentrate in few chunks.  Used to quantify Fig. 4's
    before/after effect.
    """
    mass = profile.sum(axis=1)
    mean = mass.mean()
    if mean <= 0.0:
        return 0.0
    return float(mass.std() / mean)
