"""Tests for incremental model maintenance."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.serial import SerialKMeans
from repro.core.incremental import (
    IncrementalClusterer,
    fold_summary,
    update_model,
)
from repro.core.model import ClusterModel
from repro.core.partial import partial_kmeans
from repro.core.quality import mse as evaluate_mse
from repro.core.recipe import Recipe


class TestUpdateModel:
    def test_mass_accumulates(self, blobs_2d):
        model = SerialKMeans(k=4, restarts=2, seed=0).fit(blobs_2d[:300])
        updated = update_model(
            model, blobs_2d[300:], rng=np.random.default_rng(0)
        )
        assert updated.weights.sum() == pytest.approx(blobs_2d.shape[0])
        assert updated.partitions == 2

    def test_k_preserved(self, blobs_2d):
        model = SerialKMeans(k=4, restarts=2, seed=0).fit(blobs_2d[:300])
        updated = update_model(
            model, blobs_2d[300:], rng=np.random.default_rng(0)
        )
        assert updated.k == 4

    def test_update_counter_increments(self, blobs_2d):
        model = SerialKMeans(k=4, restarts=2, seed=0).fit(blobs_2d[:200])
        once = update_model(model, blobs_2d[200:300], rng=np.random.default_rng(0))
        twice = update_model(once, blobs_2d[300:], rng=np.random.default_rng(1))
        assert once.extra["updates"] == 1
        assert twice.extra["updates"] == 2

    def test_new_region_gets_represented(self, rng):
        base = rng.normal(loc=0.0, scale=0.3, size=(300, 2))
        model = SerialKMeans(k=4, restarts=3, seed=0).fit(base)
        far = rng.normal(loc=50.0, scale=0.3, size=(300, 2))
        updated = update_model(model, far, rng=np.random.default_rng(0))
        nearest = np.min(((updated.centroids - 50.0) ** 2).sum(axis=1))
        assert nearest < 5.0

    def test_quality_comparable_to_batch(self, blobs_2d):
        half = blobs_2d.shape[0] // 2
        model = SerialKMeans(k=4, restarts=3, seed=0).fit(blobs_2d[:half])
        updated = update_model(
            model, blobs_2d[half:], rng=np.random.default_rng(0)
        )
        batch = SerialKMeans(k=4, restarts=3, seed=0).fit(blobs_2d)
        incremental_mse = evaluate_mse(blobs_2d, updated.centroids)
        batch_mse = evaluate_mse(blobs_2d, batch.centroids)
        assert incremental_mse < batch_mse * 3 + 1.0


class TestEmptyWatermark:
    """Zero-point cells (PR 3) emit ``ClusterModel.empty`` watermarks;
    the incremental path must bootstrap them, not crash on ``k == 0``."""

    def test_update_model_bootstraps_with_k(self, blobs_2d):
        watermark = ClusterModel.empty(2)
        updated = update_model(
            watermark, blobs_2d[:200], k=4, rng=np.random.default_rng(0)
        )
        assert updated.k == 4
        assert updated.weights.sum() == pytest.approx(200)
        assert updated.partitions == 1

    def test_update_model_without_k_raises(self, blobs_2d):
        with pytest.raises(ValueError, match="watermark"):
            update_model(
                ClusterModel.empty(2),
                blobs_2d[:100],
                rng=np.random.default_rng(0),
            )

    def test_adopt_watermark_is_noop(self, blobs_6d):
        clusterer = IncrementalClusterer(k=5, seed=0)
        clusterer.adopt(ClusterModel.empty(6))
        assert clusterer.points_seen == 0
        clusterer.add(blobs_6d[:100])
        assert clusterer.model().weights.sum() == pytest.approx(100)

    def test_adopt_populated_model_counts_mass(self, blobs_6d):
        base = SerialKMeans(k=5, restarts=2, seed=0).fit(blobs_6d[:300])
        clusterer = IncrementalClusterer(k=5, seed=0)
        clusterer.adopt(base)
        assert clusterer.points_seen == 300
        clusterer.add(blobs_6d[300:400])
        assert clusterer.model().weights.sum() == pytest.approx(400)


class TestFoldSummary:
    def test_deterministic(self, blobs_2d):
        model = SerialKMeans(k=4, restarts=2, seed=0).fit(blobs_2d[:300])
        summary = partial_kmeans(
            blobs_2d[300:], 4, Recipe(restarts=2), np.random.default_rng(3), source="t"
        ).summary
        once = fold_summary(model, summary)
        twice = fold_summary(model, summary)
        np.testing.assert_array_equal(once.centroids, twice.centroids)
        np.testing.assert_array_equal(once.weights, twice.weights)
        assert once.mse == twice.mse

    def test_none_model_requires_k(self, blobs_2d):
        summary = partial_kmeans(
            blobs_2d[:200], 4, Recipe(restarts=2), np.random.default_rng(3), source="t"
        ).summary
        with pytest.raises(ValueError, match="without k"):
            fold_summary(None, summary)
        folded = fold_summary(None, summary, k=4)
        assert folded.k == 4
        assert folded.weights.sum() == pytest.approx(200)


class TestIncrementalClusterer:
    def test_state_is_bounded(self, blobs_6d):
        clusterer = IncrementalClusterer(k=5, refresh_every=2, seed=0)
        for start in range(0, 600, 100):
            clusterer.add(blobs_6d[start : start + 100])
            assert len(clusterer._retained) < 2 + 1  # bounded working set
        assert clusterer.chunks_seen == 6
        assert clusterer.points_seen == 600

    def test_model_mass_conserved(self, blobs_6d):
        clusterer = IncrementalClusterer(k=5, refresh_every=3, seed=0)
        for start in range(0, 600, 150):
            clusterer.add(blobs_6d[start : start + 150])
        model = clusterer.model()
        assert model.weights.sum() == pytest.approx(600)
        assert model.partitions == 4

    def test_model_before_data_raises(self):
        with pytest.raises(ValueError, match="no data"):
            IncrementalClusterer(k=3).model()

    def test_quality_on_blobs(self, blobs_2d, blob_centers_2d):
        """Incremental folding can merge nearby blobs (the paper's
        fairness caveat), but every centroid must stay in the data's
        support and most blobs must be captured."""
        clusterer = IncrementalClusterer(k=4, restarts=3, seed=1)
        for start in range(0, 400, 80):
            clusterer.add(blobs_2d[start : start + 80])
        model = clusterer.model()
        found = sum(
            np.min(((model.centroids - center) ** 2).sum(axis=1)) < 1.0
            for center in blob_centers_2d
        )
        assert found >= 2
        # No centroid may drift outside the bounding box of the data.
        lo, hi = blobs_2d.min(axis=0) - 1.0, blobs_2d.max(axis=0) + 1.0
        assert ((model.centroids >= lo) & (model.centroids <= hi)).all()

    def test_eager_fold_mode(self, blobs_6d):
        clusterer = IncrementalClusterer(k=5, refresh_every=1, seed=0)
        clusterer.add(blobs_6d[:200])
        clusterer.add(blobs_6d[200:400])
        model = clusterer.model()
        assert model.weights.sum() == pytest.approx(400)

    def test_validation(self):
        with pytest.raises(ValueError, match="k must"):
            IncrementalClusterer(k=0)
        with pytest.raises(ValueError, match="refresh_every"):
            IncrementalClusterer(k=3, refresh_every=0)
