"""Unit tests for the high-level PartialMergeKMeans API."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import PartialMergeKMeans, split_into_chunks


class TestSplitIntoChunks:
    def test_partition_is_exact(self, blobs_2d, rng):
        chunks = split_into_chunks(blobs_2d, 5, rng)
        assert len(chunks) == 5
        assert sum(c.shape[0] for c in chunks) == blobs_2d.shape[0]

    def test_chunk_sizes_differ_by_at_most_one(self, rng):
        points = np.arange(23, dtype=float).reshape(-1, 1)
        chunks = split_into_chunks(points, 5, rng)
        sizes = sorted(c.shape[0] for c in chunks)
        assert sizes[-1] - sizes[0] <= 1

    def test_every_point_appears_once(self, rng):
        points = np.arange(40, dtype=float).reshape(-1, 1)
        chunks = split_into_chunks(points, 7, rng)
        recombined = np.sort(np.vstack(chunks).ravel())
        np.testing.assert_array_equal(recombined, points.ravel())

    def test_rejects_too_many_chunks(self, rng):
        with pytest.raises(ValueError, match="cannot split"):
            split_into_chunks(np.ones((3, 2)), 4, rng)

    def test_rejects_zero_chunks(self, rng):
        with pytest.raises(ValueError, match="n_chunks"):
            split_into_chunks(np.ones((3, 2)), 0, rng)


class TestPartialMergeKMeansValidation:
    def test_rejects_bad_k(self):
        with pytest.raises(ValueError, match="k must be"):
            PartialMergeKMeans(k=0)

    def test_rejects_bad_restarts(self):
        with pytest.raises(ValueError, match="restarts"):
            PartialMergeKMeans(k=3, restarts=0)

    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError, match="max_workers"):
            PartialMergeKMeans(k=3, max_workers=0)


class TestPartialMergeKMeansFit:
    def test_report_structure(self, blobs_2d):
        report = PartialMergeKMeans(k=4, restarts=2, n_chunks=4, seed=0).fit(
            blobs_2d
        )
        assert len(report.partials) == 4
        assert report.model.partitions == 4
        assert report.model.k == 4
        assert report.model.method == "partial/merge[collective]"

    def test_model_weights_cover_all_points(self, blobs_2d):
        report = PartialMergeKMeans(k=4, restarts=2, n_chunks=5, seed=0).fit(
            blobs_2d
        )
        assert report.model.weights.sum() == pytest.approx(blobs_2d.shape[0])

    def test_mse_evaluated_on_raw_points(self, blobs_2d):
        from repro.core.quality import mse as evaluate_mse

        report = PartialMergeKMeans(k=4, restarts=2, n_chunks=4, seed=0).fit(
            blobs_2d
        )
        assert report.model.mse == pytest.approx(
            evaluate_mse(blobs_2d, report.model.centroids)
        )

    def test_finds_blob_structure(self, blobs_2d, blob_centers_2d):
        report = PartialMergeKMeans(k=4, restarts=4, n_chunks=4, seed=1).fit(
            blobs_2d
        )
        for center in blob_centers_2d:
            nearest = np.min(
                ((report.model.centroids - center) ** 2).sum(axis=1)
            )
            assert nearest < 0.5

    def test_deterministic_given_seed(self, blobs_6d):
        a = PartialMergeKMeans(k=5, restarts=2, n_chunks=4, seed=3).fit(blobs_6d)
        b = PartialMergeKMeans(k=5, restarts=2, n_chunks=4, seed=3).fit(blobs_6d)
        np.testing.assert_array_equal(a.model.centroids, b.model.centroids)

    def test_thread_clones_match_serial_result(self, blobs_6d):
        serial = PartialMergeKMeans(
            k=5, restarts=2, n_chunks=4, max_workers=1, seed=3
        ).fit(blobs_6d)
        threaded = PartialMergeKMeans(
            k=5, restarts=2, n_chunks=4, max_workers=4, seed=3
        ).fit(blobs_6d)
        np.testing.assert_array_equal(
            serial.model.centroids, threaded.model.centroids
        )

    def test_chunks_clamped_when_fewer_points(self):
        points = np.random.default_rng(0).normal(size=(3, 2))
        report = PartialMergeKMeans(k=2, restarts=1, n_chunks=10, seed=0).fit(
            points
        )
        assert report.model.partitions == 3

    def test_timing_fields_populated(self, blobs_2d):
        model = PartialMergeKMeans(k=4, restarts=2, n_chunks=4, seed=0).fit(
            blobs_2d
        ).model
        assert model.total_seconds > 0.0
        assert model.partial_seconds > 0.0
        assert model.merge_seconds >= 0.0
        assert model.total_seconds >= model.merge_seconds


class TestFitChunks:
    def test_custom_partitioning(self, blobs_2d):
        algo = PartialMergeKMeans(k=4, restarts=2, seed=0)
        chunks = [blobs_2d[:100], blobs_2d[100:250], blobs_2d[250:]]
        report = algo.fit_chunks(chunks, evaluate_on=blobs_2d)
        assert report.model.partitions == 3
        assert report.model.weights.sum() == pytest.approx(blobs_2d.shape[0])

    def test_rejects_empty_chunk_list(self):
        with pytest.raises(ValueError, match="at least one chunk"):
            PartialMergeKMeans(k=2).fit_chunks([])

    def test_without_evaluate_on_uses_merge_mse(self, blobs_2d):
        algo = PartialMergeKMeans(k=4, restarts=2, seed=0)
        chunks = [blobs_2d[:200], blobs_2d[200:]]
        report = algo.fit_chunks(chunks)
        assert report.model.mse == pytest.approx(report.merge.mse)
