"""Unit tests for the partial k-means operator kernel."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.partial import partial_kmeans
from repro.core.recipe import Recipe


class TestPartialKMeans:
    def test_weights_sum_to_partition_size(self, blobs_2d, rng):
        result = partial_kmeans(blobs_2d, k=4, recipe=Recipe(restarts=3), rng=rng)
        assert result.summary.total_weight == pytest.approx(blobs_2d.shape[0])
        assert result.n_points == blobs_2d.shape[0]

    def test_no_zero_weight_centroids(self, blobs_2d, rng):
        result = partial_kmeans(blobs_2d, k=4, recipe=Recipe(restarts=2), rng=rng)
        assert (result.summary.weights > 0).all()

    def test_source_label_propagates(self, blobs_2d, rng):
        result = partial_kmeans(blobs_2d, k=4, recipe=Recipe(restarts=1), rng=rng, source="P7")
        assert result.summary.source == "P7"

    def test_k_clamped_for_tiny_partition(self, rng):
        points = np.random.default_rng(0).normal(size=(5, 2))
        result = partial_kmeans(points, k=40, recipe=Recipe(restarts=1), rng=rng)
        assert result.summary.k <= 5
        assert result.summary.total_weight == pytest.approx(5.0)

    def test_mse_is_partition_local(self, blobs_2d, rng):
        result = partial_kmeans(blobs_2d, k=4, recipe=Recipe(restarts=3), rng=rng)
        assert result.mse >= 0.0

    def test_iterations_accumulate_over_restarts(self, blobs_2d):
        one = partial_kmeans(
            blobs_2d, k=4, recipe=Recipe(restarts=1), rng=np.random.default_rng(0)
        )
        many = partial_kmeans(
            blobs_2d, k=4, recipe=Recipe(restarts=5), rng=np.random.default_rng(0)
        )
        assert many.iterations > one.iterations

    def test_seconds_nonnegative(self, blobs_2d, rng):
        assert partial_kmeans(blobs_2d, k=4, recipe=Recipe(restarts=1), rng=rng).seconds >= 0.0

    def test_deterministic_given_rng_seed(self, blobs_6d):
        a = partial_kmeans(blobs_6d, k=5, recipe=Recipe(restarts=2), rng=np.random.default_rng(9))
        b = partial_kmeans(blobs_6d, k=5, recipe=Recipe(restarts=2), rng=np.random.default_rng(9))
        np.testing.assert_array_equal(a.summary.centroids, b.summary.centroids)
        np.testing.assert_array_equal(a.summary.weights, b.summary.weights)

    def test_centroid_mass_center_matches_data_mean(self, blobs_2d, rng):
        """Weighted centroid mean must equal the partition mean exactly
        (centroids are cluster means, weights are cluster sizes)."""
        result = partial_kmeans(blobs_2d, k=4, recipe=Recipe(restarts=2), rng=rng)
        np.testing.assert_allclose(
            result.summary.mean(), blobs_2d.mean(axis=0), rtol=1e-9
        )
