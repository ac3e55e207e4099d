"""Differentiable matrix exponential.

The adaptive vector decomposition (paper §4) parameterizes a square
orthonormal rotation as ``R = expm(A)`` with ``A`` skew-symmetric, so that
``R`` stays exactly orthogonal throughout training.  Backpropagation
through ``expm`` uses the adjoint identity of the Fréchet derivative:

    <G, L_expm(A, E)> = <L_expm(A^T, G), E>

hence the vector-Jacobian product of ``expm`` at ``A`` applied to the
upstream gradient ``G`` is ``expm_frechet(A.T, G)``, which scipy computes
with the Al-Mohy/Higham algorithm.

``scipy.linalg`` is imported inside the two functions that call it: it
costs ~260 ms to import and only rotation *training* reaches this code,
so nothing that merely imports :mod:`repro.autodiff` pays for it.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


def expm(a: Tensor) -> Tensor:
    """Matrix exponential of a square matrix tensor, differentiable."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expm expects a square matrix, got shape {a.shape}")
    from scipy.linalg import expm as scipy_expm

    value = scipy_expm(a.data)

    def backward(g: np.ndarray) -> None:
        from scipy.linalg import expm_frechet

        grad = expm_frechet(a.data.T, np.asarray(g), compute_expm=False)
        Tensor._send(a, grad)

    return Tensor._make(value, (a,), backward)


def skew_symmetric_from_flat(flat: Tensor, dim: int) -> Tensor:
    """Build a ``dim x dim`` skew-symmetric matrix from its strict upper
    triangle (a flat vector of ``dim * (dim - 1) / 2`` parameters).

    Parameterizing only the upper triangle guarantees skew-symmetry exactly
    rather than relying on the optimizer to preserve ``A = -A^T``.
    """
    expected = dim * (dim - 1) // 2
    if flat.size != expected:
        raise ValueError(
            f"need {expected} parameters for a {dim}x{dim} skew matrix, "
            f"got {flat.size}"
        )
    rows, cols = np.triu_indices(dim, k=1)
    upper = np.zeros((dim, dim))

    def backward(g: np.ndarray) -> None:
        Tensor._send(flat, g[rows, cols] - g[cols, rows])

    upper[rows, cols] = flat.data
    value = upper - upper.T
    return Tensor._make(value, (flat,), backward)
