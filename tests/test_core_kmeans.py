"""Unit tests for the weighted Lloyd kernel."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.kmeans import lloyd
from repro.core.quality import mse as evaluate_mse
from repro.core.seeding import random_seeds


class TestLloydBasics:
    def test_recovers_separated_blobs(self, blobs_2d, blob_centers_2d):
        seeds = blob_centers_2d + 0.5  # perturbed truth
        result = lloyd(blobs_2d, seeds)
        assert result.converged
        # Each true center has a recovered centroid within the blob scale.
        for center in blob_centers_2d:
            nearest = np.min(((result.centroids - center) ** 2).sum(axis=1))
            assert nearest < 0.05

    def test_single_cluster_is_mean(self):
        points = np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 6.0]])
        result = lloyd(points, seeds=points[:1])
        np.testing.assert_allclose(result.centroids[0], points.mean(axis=0))
        assert result.cluster_weights[0] == 3.0

    def test_k_equals_n_gives_zero_mse(self):
        points = np.random.default_rng(0).normal(size=(8, 3))
        result = lloyd(points, seeds=points.copy())
        assert result.mse == pytest.approx(0.0, abs=1e-12)

    def test_reported_mse_matches_returned_model(self, blobs_2d, rng):
        seeds = random_seeds(blobs_2d, 4, rng)
        result = lloyd(blobs_2d, seeds)
        assert result.mse == pytest.approx(
            evaluate_mse(blobs_2d, result.centroids)
        )

    def test_assignments_shape_and_range(self, blobs_2d, rng):
        seeds = random_seeds(blobs_2d, 4, rng)
        result = lloyd(blobs_2d, seeds)
        assert result.assignments.shape == (blobs_2d.shape[0],)
        assert result.assignments.min() >= 0
        assert result.assignments.max() < 4

    def test_cluster_weights_sum_to_n(self, blobs_2d, rng):
        seeds = random_seeds(blobs_2d, 4, rng)
        result = lloyd(blobs_2d, seeds)
        assert result.cluster_weights.sum() == pytest.approx(blobs_2d.shape[0])

    def test_sse_is_mse_times_mass(self, blobs_2d, rng):
        seeds = random_seeds(blobs_2d, 4, rng)
        result = lloyd(blobs_2d, seeds)
        assert result.sse == pytest.approx(result.mse * blobs_2d.shape[0])


class TestLloydWeighted:
    def test_duplicate_points_equal_integer_weights(self, rng):
        """Weighted k-means on distinct points == unweighted on duplicates."""
        base = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 10.0], [11.0, 10.0]])
        weights = np.array([3.0, 1.0, 2.0, 4.0])
        duplicated = np.repeat(base, weights.astype(int), axis=0)
        seeds = base[[0, 2]]

        weighted = lloyd(base, seeds, weights=weights)
        unweighted = lloyd(duplicated, seeds)

        order_w = np.argsort(weighted.centroids[:, 0])
        order_u = np.argsort(unweighted.centroids[:, 0])
        np.testing.assert_allclose(
            weighted.centroids[order_w], unweighted.centroids[order_u]
        )
        assert weighted.mse == pytest.approx(unweighted.mse)

    def test_zero_weight_points_do_not_pull_centroids(self):
        points = np.array([[0.0], [1.0], [1000.0]])
        weights = np.array([1.0, 1.0, 0.0])
        result = lloyd(points, seeds=np.array([[0.5]]), weights=weights)
        np.testing.assert_allclose(result.centroids[0], [0.5])

    def test_heavy_point_dominates_mean(self):
        points = np.array([[0.0], [10.0]])
        weights = np.array([99.0, 1.0])
        result = lloyd(points, seeds=np.array([[5.0]]), weights=weights)
        np.testing.assert_allclose(result.centroids[0], [0.1])


class TestLloydEmptyClusterRepair:
    def test_empty_cluster_is_reseeded(self):
        # Two seeds on top of each other: one must end up empty then be
        # repaired to a far point.
        points = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.1, 0.0]])
        seeds = np.array([[0.0, 0.0], [0.0, 0.0]])
        result = lloyd(points, seeds)
        assert (result.cluster_weights > 0).all()
        assert result.mse < 1.0

    def test_repair_handles_multiple_empties(self):
        points = np.vstack([
            np.zeros((5, 2)),
            np.full((5, 2), 10.0),
            np.full((5, 2), 20.0),
        ])
        seeds = np.zeros((3, 2))
        result = lloyd(points, seeds)
        assert (result.cluster_weights > 0).all()
        assert result.mse == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_all_identical_points(self):
        points = np.ones((6, 2))
        seeds = np.vstack([np.ones((1, 2)), np.zeros((1, 2))])
        result = lloyd(points, seeds)
        # One cluster holds everything; the other stays empty but the run
        # must terminate cleanly with zero error.
        assert result.mse == pytest.approx(0.0, abs=1e-12)


class TestLloydValidation:
    def test_rejects_k_greater_than_n(self):
        with pytest.raises(ValueError, match="cannot fit"):
            lloyd(np.ones((2, 2)), seeds=np.ones((3, 2)))

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError, match="dimensionality"):
            lloyd(np.ones((5, 2)), seeds=np.ones((2, 3)))

    def test_rejects_bad_max_iter(self):
        with pytest.raises(ValueError, match="max_iter"):
            lloyd(np.ones((5, 2)), seeds=np.ones((2, 2)), max_iter=0)

    def test_rejects_nan_points(self):
        points = np.array([[0.0, np.nan]])
        with pytest.raises(ValueError, match="finite"):
            lloyd(points, seeds=np.zeros((1, 2)))


class TestLloydConvergence:
    def test_max_iter_caps_iterations(self, blobs_2d, rng):
        seeds = random_seeds(blobs_2d, 4, rng)
        result = lloyd(blobs_2d, seeds, max_iter=1)
        assert result.iterations == 1

    def test_iterations_positive(self, blobs_2d, rng):
        seeds = random_seeds(blobs_2d, 4, rng)
        assert lloyd(blobs_2d, seeds).iterations >= 1

    def test_seeds_not_mutated(self, blobs_2d, rng):
        seeds = random_seeds(blobs_2d, 4, rng)
        original = seeds.copy()
        lloyd(blobs_2d, seeds)
        np.testing.assert_array_equal(seeds, original)

    def test_deterministic(self, blobs_6d, rng):
        seeds = random_seeds(blobs_6d, 5, rng)
        a = lloyd(blobs_6d, seeds)
        b = lloyd(blobs_6d, seeds)
        np.testing.assert_array_equal(a.centroids, b.centroids)
        assert a.iterations == b.iterations
