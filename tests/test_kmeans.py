"""Tests for the k-means clustering primitive."""

from __future__ import annotations

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.quantization import (
    assign_to_centroids,
    kmeans,
    kmeans_plus_plus_init,
    train_codebook,
)

# The package re-exports the kmeans function under the submodule's name.
kmeans_module = importlib.import_module("repro.quantization.kmeans")

RNG = np.random.default_rng(7)


def three_blobs(n_per: int = 50, d: int = 4, spread: float = 0.05):
    centers = np.array(
        [[5.0] * d, [-5.0] * d, [5.0] * (d // 2) + [-5.0] * (d - d // 2)]
    )
    points = np.concatenate(
        [c + spread * RNG.normal(size=(n_per, d)) for c in centers]
    )
    return points, centers


class TestKMeans:
    def test_recovers_well_separated_blobs(self):
        x, centers = three_blobs()
        result = kmeans(x, 3, rng=np.random.default_rng(0))
        # Each true center should be close to some learned centroid.
        for c in centers:
            d = ((result.centroids - c) ** 2).sum(axis=1).min()
            assert d < 0.1

    def test_inertia_decreases_with_k(self):
        x, _ = three_blobs()
        inertias = [
            kmeans(x, k, rng=np.random.default_rng(0)).inertia for k in (1, 2, 3, 6)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(inertias, inertias[1:]))

    def test_assignments_are_nearest(self):
        x, _ = three_blobs()
        result = kmeans(x, 4, rng=np.random.default_rng(1))
        assigned, _ = assign_to_centroids(x, result.centroids)
        np.testing.assert_array_equal(assigned, result.assignments)

    def test_k_equals_one(self):
        x = RNG.normal(size=(30, 3))
        result = kmeans(x, 1, rng=np.random.default_rng(0))
        np.testing.assert_allclose(result.centroids[0], x.mean(axis=0), atol=1e-9)

    def test_k_greater_than_n(self):
        x = RNG.normal(size=(4, 3))
        result = kmeans(x, 10, rng=np.random.default_rng(0))
        assert result.centroids.shape == (10, 3)
        assert result.inertia < 1e-12  # every point has a private centroid

    def test_explicit_init(self):
        x, centers = three_blobs()
        result = kmeans(x, 3, init=centers, rng=np.random.default_rng(0))
        assert result.inertia < 10.0

    def test_init_shape_validation(self):
        x = RNG.normal(size=(20, 3))
        with pytest.raises(ValueError):
            kmeans(x, 3, init=np.zeros((2, 3)))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((0, 3)), 2)
        with pytest.raises(ValueError):
            kmeans(np.zeros((5, 3)), 0)
        with pytest.raises(ValueError):
            kmeans(np.zeros(5), 2)

    def test_duplicate_points(self):
        x = np.ones((50, 4))
        result = kmeans(x, 3, rng=np.random.default_rng(0))
        assert np.isfinite(result.centroids).all()
        assert result.inertia < 1e-12

    def test_empty_cluster_repair(self):
        # Two tight groups, ask for 4 clusters: at least one initial
        # centroid likely goes empty and must be re-seeded.
        x = np.concatenate([np.zeros((40, 2)), np.ones((40, 2)) * 10])
        result = kmeans(x, 4, rng=np.random.default_rng(3))
        assert np.isfinite(result.centroids).all()

    def test_kmeanspp_spreads_centroids(self):
        x, centers = three_blobs()
        init = kmeans_plus_plus_init(x, 3, np.random.default_rng(0))
        # Initial picks should land near distinct blobs.
        owners = {int(((centers - c) ** 2).sum(axis=1).argmin()) for c in init}
        assert len(owners) == 3


def chunk_by_chunk(x, num_chunks, k, max_iter, rng):
    """The per-chunk loop every quantizer ran before train_codebook."""
    sub = x.shape[1] // num_chunks
    return [
        kmeans(x[:, j * sub : (j + 1) * sub], k, max_iter=max_iter, rng=rng)
        for j in range(num_chunks)
    ]


def assert_same_fit(x, num_chunks, k, seed, max_iter=8):
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = chunk_by_chunk(x, num_chunks, k, max_iter, ref_rng)
    got = train_codebook(x, num_chunks, k, max_iter, rng)
    assert len(got) == num_chunks
    for a, b in zip(want, got):
        assert np.array_equal(a.centroids, b.centroids)
        assert np.array_equal(a.assignments, b.assignments)
        assert (a.inertia, a.n_iter) == (b.inertia, b.n_iter)
    # The generator is left exactly where the loop left it.
    assert ref_rng.random() == rng.random()


class TestTrainCodebook:
    """Lockstep k-means++ seeding returns the chunk-by-chunk fit, bitwise."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_data(self, seed):
        x = np.random.default_rng(100 + seed).normal(size=(600, 32))
        assert_same_fit(x, 8, 64, seed)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_sift_like_uint8_values(self, seed):
        x = np.random.default_rng(seed).integers(0, 256, size=(500, 16))
        assert_same_fit(x.astype(np.uint8), 4, 32, seed)

    def test_identical_rows_fall_back_with_state_restored(self, monkeypatch):
        x = np.random.default_rng(3).normal(size=(200, 12))
        x[:, 4:8] = 1.5  # chunk 1 runs out of distinct points at once
        seeded = []
        original = kmeans_module._lockstep_seeds

        def spy(*args):
            seeded.append(original(*args))
            return seeded[-1]

        monkeypatch.setattr(kmeans_module, "_lockstep_seeds", spy)
        assert_same_fit(x, 3, 16, seed=0)
        assert seeded == [None]

    def test_more_codewords_than_points(self):
        x = np.random.default_rng(4).normal(size=(20, 8))
        assert_same_fit(x, 2, 32, seed=0)
        assert_same_fit(x, 2, 20, seed=1)

    def test_single_chunk(self):
        x = np.random.default_rng(5).normal(size=(300, 6))
        assert_same_fit(x, 1, 16, seed=0)

    def test_rejects_indivisible_dim(self):
        with pytest.raises(ValueError, match="not divisible"):
            train_codebook(np.zeros((10, 6)), 4, 2)

    def test_init_continues_lloyd_from_the_given_codewords(self):
        x = np.random.default_rng(7).normal(size=(300, 12))
        init = np.random.default_rng(8).normal(size=(3, 16, 4))
        rng = np.random.default_rng(0)
        got = train_codebook(x, 3, 16, 5, rng, init=init)
        for j, result in enumerate(got):
            want = kmeans(x[:, 4 * j : 4 * (j + 1)], 16, 5, init=init[j])
            assert np.array_equal(result.centroids, want.centroids)
            assert np.array_equal(result.assignments, want.assignments)
        # No seeding: the generator is untouched.
        assert rng.random() == np.random.default_rng(0).random()

    def test_init_shape_is_checked(self):
        x = np.zeros((20, 8))
        with pytest.raises(ValueError, match="init must have shape"):
            train_codebook(x, 2, 4, init=np.zeros((2, 4, 3)))

    def test_nan_input_raises_like_the_loop(self):
        x = np.random.default_rng(6).normal(size=(50, 4))
        x[3, 2] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            chunk_by_chunk(x, 2, 8, 4, np.random.default_rng(0))
        with pytest.raises(ValueError, match="NaN"):
            train_codebook(x, 2, 8, 4, np.random.default_rng(0))


@settings(max_examples=20, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(4, 40), st.sampled_from([2, 4, 6])),
        elements=st.floats(-3, 3, allow_nan=False).map(lambda v: round(v, 1)),
    ),
    st.integers(1, 12),
)
def test_property_train_codebook_is_the_chunk_loop(x, k):
    assert_same_fit(x, 2, k, seed=0, max_iter=4)


@settings(max_examples=15, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(8, 40), st.integers(2, 5)),
        elements=st.floats(-10, 10, allow_nan=False),
    ),
    st.integers(1, 5),
)
def test_property_inertia_nonnegative_and_assignment_valid(x, k):
    result = kmeans(x, k, rng=np.random.default_rng(0), max_iter=5)
    assert result.inertia >= 0.0
    assert result.assignments.min() >= 0
    assert result.assignments.max() < k
    assert result.centroids.shape == (k, x.shape[1])


@settings(max_examples=15, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(10, 30), st.integers(2, 4)),
        elements=st.floats(-5, 5, allow_nan=False),
    )
)
def test_property_more_iterations_never_hurt(x):
    short = kmeans(x, 3, max_iter=1, rng=np.random.default_rng(0))
    long = kmeans(x, 3, max_iter=20, rng=np.random.default_rng(0))
    assert long.inertia <= short.inertia + 1e-9
