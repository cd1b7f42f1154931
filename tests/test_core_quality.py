"""Unit tests for repro.core.quality."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.quality import (
    assign_to_nearest,
    cluster_sizes,
    davies_bouldin,
    mse,
    pairwise_sq_distances,
    quantization_error_profile,
    sse,
)


class TestPairwiseSqDistances:
    def test_known_values(self):
        points = np.array([[0.0, 0.0], [3.0, 4.0]])
        centroids = np.array([[0.0, 0.0]])
        d2 = pairwise_sq_distances(points, centroids)
        np.testing.assert_allclose(d2, [[0.0], [25.0]])

    def test_shape(self):
        d2 = pairwise_sq_distances(np.ones((5, 3)), np.zeros((2, 3)))
        assert d2.shape == (5, 2)


class TestAssignToNearest:
    def test_assigns_to_closest(self):
        points = np.array([[0.1], [0.9], [2.1]])
        centroids = np.array([[0.0], [1.0], [2.0]])
        assignments, sq = assign_to_nearest(points, centroids)
        np.testing.assert_array_equal(assignments, [0, 1, 2])
        np.testing.assert_allclose(sq, [0.01, 0.01, 0.01])

    def test_tie_goes_to_first(self):
        points = np.array([[0.5]])
        centroids = np.array([[0.0], [1.0]])
        assignments, __ = assign_to_nearest(points, centroids)
        assert assignments[0] == 0


class TestSseMse:
    def test_sse_unit_weights(self):
        points = np.array([[0.0], [2.0]])
        centroids = np.array([[0.0]])
        assert sse(points, centroids) == pytest.approx(4.0)

    def test_sse_respects_weights(self):
        points = np.array([[0.0], [2.0]])
        centroids = np.array([[0.0]])
        assert sse(points, centroids, weights=np.array([1.0, 3.0])) == pytest.approx(
            12.0
        )

    def test_mse_normalises_by_mass(self):
        points = np.array([[0.0], [2.0]])
        centroids = np.array([[0.0]])
        assert mse(points, centroids, weights=np.array([1.0, 3.0])) == pytest.approx(
            3.0
        )

    def test_perfect_model_scores_zero(self):
        points = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert mse(points, points) == 0.0

    def test_mse_with_unit_weights_matches_mean(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(50, 3))
        centroids = rng.normal(size=(4, 3))
        __, sq = assign_to_nearest(points, centroids)
        assert mse(points, centroids) == pytest.approx(sq.mean())


class TestClusterSizes:
    def test_counts_points(self):
        points = np.array([[0.0], [0.1], [5.0]])
        centroids = np.array([[0.0], [5.0]])
        sizes = cluster_sizes(points, centroids)
        np.testing.assert_allclose(sizes, [2.0, 1.0])

    def test_empty_cluster_counts_zero(self):
        points = np.array([[0.0], [0.1]])
        centroids = np.array([[0.0], [99.0]])
        sizes = cluster_sizes(points, centroids)
        assert sizes[1] == 0.0

    def test_weighted_sizes(self):
        points = np.array([[0.0], [5.0]])
        centroids = np.array([[0.0], [5.0]])
        sizes = cluster_sizes(points, centroids, weights=np.array([2.5, 4.0]))
        np.testing.assert_allclose(sizes, [2.5, 4.0])


class TestQuantizationErrorProfile:
    def test_keys_and_order(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(100, 2))
        profile = quantization_error_profile(points, np.zeros((1, 2)))
        assert set(profile) == {"mean", "median", "p95", "max"}
        assert profile["median"] <= profile["p95"] <= profile["max"]

    def test_zero_for_perfect_codebook(self):
        points = np.array([[1.0, 1.0], [2.0, 2.0]])
        profile = quantization_error_profile(points, points)
        assert profile["max"] == 0.0


class TestDaviesBouldin:
    def test_well_separated_blobs_score_low(self, blobs_2d, blob_centers_2d):
        good = davies_bouldin(blobs_2d, blob_centers_2d)
        collapsed = davies_bouldin(
            blobs_2d, np.array([[5.0, 5.0], [5.1, 5.1], [4.9, 4.9], [5.0, 4.9]])
        )
        assert good < collapsed

    def test_single_occupied_cluster_scores_zero(self):
        points = np.ones((10, 2))
        assert davies_bouldin(points, np.array([[1.0, 1.0], [50.0, 50.0]])) == 0.0


class TestDtypeAndLayoutHandling:
    """assign_to_nearest / pairwise_sq_distances coerce layout and dtype.

    The cdist path historically upcast float32 and copied non-contiguous
    inputs silently; the explicit coercion makes that contract stated and
    uniform across every Lloyd kernel.
    """

    def _reference(self, rng):
        points = rng.normal(size=(64, 5))
        centroids = rng.normal(size=(7, 5))
        return points, centroids

    def test_float32_inputs_match_float64(self):
        rng = np.random.default_rng(31)
        points, centroids = self._reference(rng)
        ref_assign, ref_sq = assign_to_nearest(points, centroids)
        f32_assign, f32_sq = assign_to_nearest(
            points.astype(np.float32), centroids.astype(np.float32)
        )
        # The float32 views are coerced up front, so the results are
        # bit-identical to converting to float64 first.
        exp_assign, exp_sq = assign_to_nearest(
            points.astype(np.float32).astype(np.float64),
            centroids.astype(np.float32).astype(np.float64),
        )
        assert f32_assign.tobytes() == exp_assign.tobytes()
        assert f32_sq.tobytes() == exp_sq.tobytes()
        assert f32_sq.dtype == np.float64
        # And close (not identical: the cast rounds) to the f64 originals.
        np.testing.assert_allclose(f32_sq, ref_sq, rtol=1e-5)
        assert (f32_assign == ref_assign).mean() > 0.9

    def test_non_contiguous_inputs_match_contiguous(self):
        rng = np.random.default_rng(32)
        points, centroids = self._reference(rng)
        # Fortran order, sliced views, and reversed strides all coerce.
        for view in (
            np.asfortranarray(points),
            points[::2],
            points[:, ::1][::-1][::-1],
            np.ascontiguousarray(points)[np.arange(64)],
        ):
            expected = pairwise_sq_distances(
                np.ascontiguousarray(view), centroids
            )
            got = pairwise_sq_distances(view, np.asfortranarray(centroids))
            assert got.tobytes() == expected.tobytes()

    def test_all_kernels_accept_float32_and_strided_inputs(self):
        from repro.core.kmeans import lloyd

        rng = np.random.default_rng(33)
        base = rng.normal(size=(300, 4)).astype(np.float32)
        strided = base[::2]  # non-contiguous float32 view
        seeds = strided[:6]
        results = {
            name: lloyd(strided, seeds, kernel=name)
            for name in ("dense", "elkan")
        }
        ref = results["dense"]
        assert ref.centroids.dtype == np.float64
        for name, result in results.items():
            assert result.assignments.tobytes() == ref.assignments.tobytes(), name
            assert result.centroids.tobytes() == ref.centroids.tobytes(), name
            assert result.sse == ref.sse, name
