"""Shared test utilities."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.autodiff import Tensor


def numeric_gradient(
    fn: Callable[[Sequence[np.ndarray]], float],
    arrays: Sequence[np.ndarray],
    index: int,
    eps: float = 1e-6,
) -> np.ndarray:
    """Central finite-difference gradient of ``fn`` w.r.t. ``arrays[index]``."""
    base = [np.array(a, dtype=np.float64) for a in arrays]
    grad = np.zeros_like(base[index])
    flat = base[index].reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        upper = fn(base)
        flat[i] = original - eps
        lower = fn(base)
        flat[i] = original
        grad_flat[i] = (upper - lower) / (2.0 * eps)
    return grad


def gradcheck(
    build: Callable[[Sequence[Tensor]], Tensor],
    arrays: Sequence[np.ndarray],
    atol: float = 1e-5,
    rtol: float = 1e-4,
) -> None:
    """Assert autodiff gradients match finite differences.

    ``build`` maps a list of Tensors to a scalar Tensor loss.
    """
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    loss = build(tensors)
    loss.backward()

    def evaluate(values: Sequence[np.ndarray]) -> float:
        fresh = [Tensor(v, requires_grad=True) for v in values]
        return build(fresh).item()

    for i, tensor in enumerate(tensors):
        expected = numeric_gradient(evaluate, arrays, i)
        actual = tensor.grad if tensor.grad is not None else np.zeros_like(expected)
        np.testing.assert_allclose(
            actual,
            expected,
            atol=atol,
            rtol=rtol,
            err_msg=f"gradient mismatch for input {i}",
        )


def search(index, queries, k: int = 10, beam_width: int = 32, **fields):
    """``index.search`` over ``queries`` as one typed request."""
    from repro.api import SearchRequest

    return index.search(SearchRequest(queries, k, beam_width, **fields))


def search_one(index, query, k: int = 10, beam_width: int = 32, **fields):
    """A single query's :class:`~repro.api.protocol.SearchResponseRow`."""
    return search(index, query, k, beam_width, **fields).row(0)


def shrunk(artifact, datasets, n_base, n_queries):
    """A cheap copy of a paper artifact: only ``datasets``' groups, at
    ``n_base`` x ``n_queries``."""
    import dataclasses

    groups = tuple(
        dataclasses.replace(
            group,
            dataset=dataclasses.replace(
                group.dataset, n_base=n_base, n_queries=n_queries
            ),
        )
        for group in artifact.groups
        if group.dataset.name in datasets
    )
    return dataclasses.replace(artifact, groups=groups)


def stream_state(index):
    """What a streaming index holds, read through ``export_arrays()``
    (the saved form): ``lists`` (one neighbor list of ints per
    vertex), ``entry`` (``None`` when unset), ``deleted`` (bools),
    ``vectors`` and ``codes``."""
    from types import SimpleNamespace

    meta, arrays = index.export_arrays()
    offsets, flat = arrays["stream_offsets"], arrays["stream_neighbors"]
    return SimpleNamespace(
        lists=[
            flat[offsets[v] : offsets[v + 1]].tolist()
            for v in range(offsets.size - 1)
        ],
        entry=None if meta["entry"] < 0 else meta["entry"],
        deleted=arrays["deleted"].tolist(),
        vectors=arrays["vectors"],
        codes=arrays["codes"],
    )
