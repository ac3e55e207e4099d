"""Lloyd's k-means with k-means++ initialization.

This is the clustering primitive behind every product quantizer in the
repo (paper Def. 3 step 2: "A clustering algorithm (e.g. k-means) is
applied to each chunk to generate K clusters").  Implemented with blocked
numpy so million-point chunks stay memory-bounded.

:func:`train_codebook` is the one entry point the quantizers use: it
seeds all ``M`` chunks' k-means++ (Arthur & Vassilvitskii, SODA 2007)
in lockstep — ``K`` vectorized rounds over an ``(M, n)`` array instead
of ``M·K`` Python iterations — and still returns exactly what the
chunk-by-chunk loop returns, because every random number is pre-drawn
in that loop's order and every float is computed by the same operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np


@dataclass
class KMeansResult:
    """Outcome of a k-means run.

    Attributes
    ----------
    centroids:
        ``(k, d)`` array of cluster centers.
    assignments:
        ``(n,)`` index of the closest centroid per input row.
    inertia:
        Sum of squared distances to assigned centroids.
    n_iter:
        Number of Lloyd iterations performed.
    """

    centroids: np.ndarray
    assignments: np.ndarray
    inertia: float
    n_iter: int


def _sqdist_block(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Pairwise squared distances ``(n, k)`` computed via the expansion."""
    x_sq = np.einsum("ij,ij->i", x, x)[:, None]
    c_sq = np.einsum("ij,ij->i", centroids, centroids)[None, :]
    # max(x_sq + c_sq - 2 x.c, 0), rounded step for step, in one buffer.
    d = x @ centroids.T
    d *= 2.0
    np.subtract(x_sq + c_sq, d, out=d)
    return np.maximum(d, 0.0, out=d)


def assign_to_centroids(
    x: np.ndarray,
    centroids: np.ndarray,
    block_size: int = 16384,
) -> tuple[np.ndarray, np.ndarray]:
    """Return (assignments, squared distance to assigned centroid)."""
    n = x.shape[0]
    assignments = np.empty(n, dtype=np.int64)
    distances = np.empty(n, dtype=np.float64)
    for start in range(0, n, block_size):
        stop = min(start + block_size, n)
        d = _sqdist_block(x[start:stop], centroids)
        idx = d.argmin(axis=1)
        assignments[start:stop] = idx
        distances[start:stop] = d[np.arange(stop - start), idx]
    return assignments, distances


def kmeans_plus_plus_init(
    x: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """k-means++ seeding: spread initial centroids by D^2 sampling."""
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]), dtype=x.dtype)
    first = int(rng.integers(n))
    centroids[0] = x[first]
    closest = _sqdist_block(x, centroids[:1]).ravel()
    for i in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            # All points coincide with chosen centroids; fill the rest
            # with random picks.
            centroids[i:] = x[rng.integers(n, size=k - i)]
            break
        probs = closest / total
        chosen = int(rng.choice(n, p=probs))
        centroids[i] = x[chosen]
        new_d = _sqdist_block(x, centroids[i : i + 1]).ravel()
        np.minimum(closest, new_d, out=closest)
    return centroids


def kmeans(
    x: np.ndarray,
    k: int,
    max_iter: int = 25,
    tol: float = 1e-6,
    rng: Optional[np.random.Generator] = None,
    init: Optional[np.ndarray] = None,
) -> KMeansResult:
    """Run Lloyd's algorithm.

    Parameters
    ----------
    x:
        ``(n, d)`` training data.
    k:
        Number of clusters.  Must satisfy ``1 <= k``; if ``k > n`` the
        extra centroids duplicate random points (matching Faiss behaviour
        of tolerating tiny training sets).
    max_iter:
        Maximum Lloyd iterations.
    tol:
        Relative inertia improvement below which iteration stops.
    rng:
        Random source for initialization and empty-cluster repair.
    init:
        Optional explicit ``(k, d)`` initial centroids (skips k-means++).
    """
    x = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    if x.ndim != 2:
        raise ValueError(f"x must be 2-D, got shape {x.shape}")
    n = x.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if n == 0:
        raise ValueError("cannot run k-means on an empty dataset")
    rng = rng or np.random.default_rng()

    if init is not None:
        centroids = np.array(init, dtype=np.float64, copy=True)
        if centroids.shape != (k, x.shape[1]):
            raise ValueError(
                f"init must have shape {(k, x.shape[1])}, got {centroids.shape}"
            )
    elif k >= n:
        # Degenerate: every point is (at least) its own centroid.
        centroids = np.concatenate(
            [x, x[rng.integers(n, size=max(0, k - n))]], axis=0
        )[:k].copy()
    else:
        centroids = kmeans_plus_plus_init(x, k, rng)

    prev_inertia = np.inf
    assignments = np.zeros(n, dtype=np.int64)
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        assignments, distances = assign_to_centroids(x, centroids)
        inertia = float(distances.sum())

        # Update step: mean of members; re-seed empty clusters on the
        # farthest points so k centroids survive.
        counts = np.bincount(assignments, minlength=k)
        sums = np.zeros_like(centroids)
        np.add.at(sums, assignments, x)
        nonempty = counts > 0
        centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
        empty = np.flatnonzero(~nonempty)
        if empty.size:
            # Re-seed as many empty clusters as we have distinct farthest
            # points; any surplus (k > n) falls back to random picks.
            farthest = np.argsort(distances)[::-1][: min(empty.size, n)]
            centroids[empty[: farthest.size]] = x[farthest]
            if empty.size > farthest.size:
                surplus = empty[farthest.size :]
                centroids[surplus] = x[rng.integers(n, size=surplus.size)]

        if prev_inertia - inertia <= tol * max(prev_inertia, 1e-12):
            break
        prev_inertia = inertia

    assignments, distances = assign_to_centroids(x, centroids)
    return KMeansResult(
        centroids=centroids,
        assignments=assignments,
        inertia=float(distances.sum()),
        n_iter=n_iter,
    )


def _lockstep_seeds(
    chunks: List[np.ndarray], k: int, rng: np.random.Generator
) -> Optional[np.ndarray]:
    """k-means++ seeds ``(M, k, d)`` of every chunk, in lockstep.

    Bitwise equal to ``kmeans_plus_plus_init(chunk, k, rng)`` run chunk
    after chunk: each chunk's ``integers(n)`` and ``k - 1`` uniforms
    are drawn up front in that order, and a pick is what
    ``Generator.choice(p=)`` computes (cumulative sum, normalised by
    its last entry, first entry above the uniform).  Returns ``None``
    — having consumed draws the caller must roll back — when some chunk
    reaches the all-points-covered branch, whose draws differ, or has
    non-finite distances, on which ``choice`` raises.
    """
    m, n = len(chunks), chunks[0].shape[0]
    first = np.empty(m, dtype=np.int64)
    uniforms = np.empty((m, k - 1))
    for j in range(m):
        first[j] = rng.integers(n)
        uniforms[j] = rng.random(k - 1)

    stacked = np.stack(chunks)  # (M, n, d)
    x_sq = np.stack([np.einsum("ij,ij->i", c, c) for c in chunks])
    rows = np.arange(m)

    def sqdist(picked: np.ndarray) -> np.ndarray:
        # _sqdist_block term by term; matmul runs the same per-chunk
        # matrix-vector product as ``x @ centroids[i : i + 1].T``.
        c_sq = np.einsum("ij,ij->i", picked, picked)[:, None]
        dots = np.matmul(stacked, picked[:, :, None])[:, :, 0]
        dots *= 2.0
        np.subtract(x_sq + c_sq, dots, out=dots)
        return np.maximum(dots, 0.0, out=dots)

    seeds = np.empty((m, k, stacked.shape[2]))
    seeds[:, 0] = stacked[rows, first]
    closest = sqdist(seeds[:, 0])
    cdf = np.empty_like(closest)
    for i in range(1, k):
        total = closest.sum(axis=1)
        if not np.all((total > 0.0) & (total < np.inf)):
            return None
        np.divide(closest, total[:, None], out=cdf)
        np.cumsum(cdf, axis=1, out=cdf)
        cdf /= cdf[:, -1:]
        chosen = np.count_nonzero(cdf <= uniforms[:, i - 1 : i], axis=1)
        seeds[:, i] = stacked[rows, chosen]
        np.minimum(closest, sqdist(seeds[:, i]), out=closest)
    return seeds


def train_codebook(
    x: np.ndarray,
    num_chunks: int,
    num_codewords: int,
    max_iter: int = 25,
    rng: Optional[np.random.Generator] = None,
    init: Optional[np.ndarray] = None,
) -> List[KMeansResult]:
    """k-means of each of the ``num_chunks`` column blocks of ``x``.

    Returns one :class:`KMeansResult` per chunk, equal bit for bit to
    ``[kmeans(chunk_j, num_codewords, max_iter, rng=rng) for j ...]``
    and leaving ``rng`` in the same state; only the k-means++ seeding
    runs in lockstep across chunks.  A fit the lockstep pass cannot
    reproduce (``num_codewords >= n``, or a chunk whose points are all
    covered before ``num_codewords`` seeds) restores the generator and
    takes the chunk-by-chunk path.

    ``init`` — an ``(num_chunks, num_codewords, sub_dim)`` codeword
    array, e.g. a previous fit's ``Codebook.codewords`` — skips the
    seeding: every chunk's Lloyd continues from its slice.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] % num_chunks != 0:
        raise ValueError(
            f"dim {x.shape[1]} is not divisible by num_chunks {num_chunks}"
        )
    rng = rng or np.random.default_rng()
    sub_dim = x.shape[1] // num_chunks
    chunks = [
        np.ascontiguousarray(x[:, j * sub_dim : (j + 1) * sub_dim])
        for j in range(num_chunks)
    ]
    seeds = None
    if init is not None:
        seeds = np.asarray(init, dtype=np.float64)
        if seeds.shape != (num_chunks, num_codewords, sub_dim):
            raise ValueError(
                f"init must have shape {(num_chunks, num_codewords, sub_dim)}, "
                f"got {seeds.shape}"
            )
    elif num_codewords < x.shape[0]:
        state = rng.bit_generator.state
        seeds = _lockstep_seeds(chunks, num_codewords, rng)
        if seeds is None:
            rng.bit_generator.state = state
    if seeds is None:
        return [kmeans(c, num_codewords, max_iter, rng=rng) for c in chunks]
    # Lloyd draws nothing once seeded with fewer centroids than points.
    return [
        kmeans(c, num_codewords, max_iter, rng=rng, init=s)
        for c, s in zip(chunks, seeds)
    ]
