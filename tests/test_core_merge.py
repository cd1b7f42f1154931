"""Unit tests for the merge k-means operator kernel."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.merge import incremental_merge_kmeans, merge_kmeans
from repro.core.model import WeightedCentroidSet
from repro.core.partial import partial_kmeans
from repro.core.recipe import Recipe


def _partials_from(points: np.ndarray, n_chunks: int, k: int, seed: int):
    """Helper: real partial results from equal random chunks."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(points.shape[0])
    chunks = np.array_split(points[perm], n_chunks)
    return [
        partial_kmeans(chunk, k=k, recipe=Recipe(restarts=2), rng=rng, source=f"P{i}").summary
        for i, chunk in enumerate(chunks)
    ]


class TestMergeKMeans:
    def test_conserves_total_weight(self, blobs_2d):
        partials = _partials_from(blobs_2d, 4, k=4, seed=0)
        merged = merge_kmeans(partials, k=4)
        assert merged.model.total_weight == pytest.approx(blobs_2d.shape[0])

    def test_output_has_k_centroids(self, blobs_2d):
        partials = _partials_from(blobs_2d, 4, k=4, seed=0)
        merged = merge_kmeans(partials, k=4)
        assert merged.model.k == 4

    def test_recovers_blob_structure(self, blobs_2d, blob_centers_2d):
        partials = _partials_from(blobs_2d, 4, k=4, seed=1)
        merged = merge_kmeans(partials, k=4)
        for center in blob_centers_2d:
            nearest = np.min(
                ((merged.model.centroids - center) ** 2).sum(axis=1)
            )
            assert nearest < 0.5

    def test_small_pool_returned_unchanged(self):
        tiny = WeightedCentroidSet(
            centroids=np.array([[0.0], [1.0]]), weights=np.array([2.0, 3.0])
        )
        merged = merge_kmeans([tiny], k=5)
        assert merged.model.k == 2
        assert merged.iterations == 0
        assert merged.mse == 0.0

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError, match="at least one"):
            merge_kmeans([], k=3)

    def test_single_partial_roundtrips_weight(self, blobs_2d, rng):
        summary = partial_kmeans(blobs_2d, k=6, recipe=Recipe(restarts=1), rng=rng).summary
        merged = merge_kmeans([summary], k=4)
        assert merged.model.total_weight == pytest.approx(blobs_2d.shape[0])

    def test_weighted_mean_preserved(self, blobs_2d):
        """Merging cannot move the overall center of mass."""
        partials = _partials_from(blobs_2d, 5, k=4, seed=2)
        merged = merge_kmeans(partials, k=4)
        np.testing.assert_allclose(
            merged.model.mean(), blobs_2d.mean(axis=0), rtol=1e-8
        )

    def test_large_partition_dominates(self):
        """A centroid from a much larger partition must carry its weight
        through the merge (the paper's relative-size argument)."""
        heavy = WeightedCentroidSet(np.array([[0.0]]), np.array([1000.0]))
        light = WeightedCentroidSet(np.array([[10.0]]), np.array([1.0]))
        merged = merge_kmeans([heavy, light], k=1)
        assert merged.model.centroids[0, 0] == pytest.approx(
            10.0 / 1001.0, rel=1e-6
        )

    def test_seconds_nonnegative(self, blobs_2d):
        partials = _partials_from(blobs_2d, 3, k=4, seed=3)
        assert merge_kmeans(partials, k=4).seconds >= 0.0


class TestIncrementalMerge:
    def test_conserves_total_weight(self, blobs_2d):
        partials = _partials_from(blobs_2d, 4, k=4, seed=0)
        merged = incremental_merge_kmeans(partials, k=4)
        assert merged.model.total_weight == pytest.approx(blobs_2d.shape[0])

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError, match="at least one"):
            incremental_merge_kmeans([], k=3)

    def test_single_partial_passthrough(self, blobs_2d, rng):
        summary = partial_kmeans(blobs_2d, k=4, recipe=Recipe(restarts=1), rng=rng).summary
        merged = incremental_merge_kmeans([summary], k=4)
        np.testing.assert_array_equal(merged.model.centroids, summary.centroids)

    def test_bounded_working_set(self, blobs_2d):
        """The running summary never exceeds k centroids between folds —
        the memory property that motivates incremental merging."""
        partials = _partials_from(blobs_2d, 6, k=4, seed=5)
        merged = incremental_merge_kmeans(partials, k=4)
        assert merged.model.k <= 4 + partials[-1].k

    def test_collective_usually_at_least_as_good(self, blobs_6d):
        """On average the collective merge should not be worse — the
        paper's statistical-fairness argument.  Compared on a fixed seed
        where the effect is visible."""
        from repro.core.quality import mse as evaluate_mse

        partials = _partials_from(blobs_6d, 6, k=5, seed=8)
        collective = merge_kmeans(partials, k=5)
        incremental = incremental_merge_kmeans(partials, k=5)
        collective_mse = evaluate_mse(blobs_6d, collective.model.centroids)
        incremental_mse = evaluate_mse(blobs_6d, incremental.model.centroids)
        assert collective_mse <= incremental_mse * 1.5


class TestMergeRestarts:
    def test_zero_restarts_is_paper_behavior(self, blobs_2d):
        partials = _partials_from(blobs_2d, 4, k=4, seed=0)
        base = merge_kmeans(partials, k=4)
        explicit = merge_kmeans(partials, k=4, extra_random_restarts=0)
        np.testing.assert_array_equal(
            base.model.centroids, explicit.model.centroids
        )

    def test_restarts_never_hurt_merge_error(self, blobs_6d):
        partials = _partials_from(blobs_6d, 6, k=5, seed=1)
        base = merge_kmeans(partials, k=5)
        improved = merge_kmeans(
            partials,
            k=5,
            extra_random_restarts=4,
            rng=np.random.default_rng(0),
        )
        assert improved.mse <= base.mse + 1e-12

    def test_restart_iterations_accumulate(self, blobs_2d):
        partials = _partials_from(blobs_2d, 4, k=4, seed=2)
        base = merge_kmeans(partials, k=4)
        more = merge_kmeans(
            partials,
            k=4,
            extra_random_restarts=3,
            rng=np.random.default_rng(0),
        )
        assert more.iterations > base.iterations

    def test_negative_restarts_rejected(self, blobs_2d):
        partials = _partials_from(blobs_2d, 2, k=3, seed=0)
        with pytest.raises(ValueError, match="extra_random_restarts"):
            merge_kmeans(partials, k=3, extra_random_restarts=-1)

    def test_pipeline_exposes_merge_restarts(self, blobs_6d):
        from repro.core.pipeline import PartialMergeKMeans

        with pytest.raises(ValueError, match="merge_restarts"):
            PartialMergeKMeans(k=4, merge_restarts=-1)
        base = PartialMergeKMeans(
            k=5, restarts=2, n_chunks=5, seed=3
        ).fit(blobs_6d)
        improved = PartialMergeKMeans(
            k=5, restarts=2, n_chunks=5, seed=3, merge_restarts=3
        ).fit(blobs_6d)
        assert improved.merge.mse <= base.merge.mse + 1e-12

    def test_mass_conserved_with_restarts(self, blobs_2d):
        partials = _partials_from(blobs_2d, 4, k=4, seed=3)
        merged = merge_kmeans(
            partials,
            k=4,
            extra_random_restarts=2,
            rng=np.random.default_rng(1),
        )
        assert merged.model.total_weight == pytest.approx(blobs_2d.shape[0])
