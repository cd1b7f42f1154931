"""Property-based tests (hypothesis) for core invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.kmeans import lloyd
from repro.core.merge import merge_kmeans
from repro.core.model import WeightedCentroidSet
from repro.core.partial import partial_kmeans
from repro.core.pipeline import PartialMergeKMeans, split_into_chunks
from repro.core.quality import assign_to_nearest, mse, sse
from repro.core.recipe import Recipe
from repro.core.seeding import largest_weight_seeds, random_seeds

finite_floats = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


def point_arrays(min_rows: int = 2, max_rows: int = 40, max_cols: int = 4):
    """Strategy: small finite float64 point matrices."""
    return st.integers(min_rows, max_rows).flatmap(
        lambda n: st.integers(1, max_cols).flatmap(
            lambda d: arrays(np.float64, (n, d), elements=finite_floats)
        )
    )


@st.composite
def points_and_k(draw, min_rows=2, max_rows=40, max_cols=4):
    """Strategy: a point matrix and a feasible k."""
    pts = draw(point_arrays(min_rows, max_rows, max_cols))
    k = draw(st.integers(1, pts.shape[0]))
    return pts, k


class TestLloydProperties:
    @given(data=points_and_k())
    @settings(max_examples=40, deadline=None)
    def test_cluster_mass_conserved(self, data):
        pts, k = data
        seeds = random_seeds(pts, k, np.random.default_rng(0))
        result = lloyd(pts, seeds, max_iter=30)
        assert result.cluster_weights.sum() == pytest.approx(pts.shape[0])

    @given(data=points_and_k())
    @settings(max_examples=40, deadline=None)
    def test_mse_nonnegative_and_consistent(self, data):
        pts, k = data
        seeds = random_seeds(pts, k, np.random.default_rng(1))
        result = lloyd(pts, seeds, max_iter=30)
        assert result.mse >= 0.0
        assert result.sse == pytest.approx(result.mse * pts.shape[0], rel=1e-9)

    @given(data=points_and_k())
    @settings(max_examples=30, deadline=None)
    def test_lloyd_never_beats_assignment_lower_bound(self, data):
        """Final MSE equals the MSE of its own centroids (no stale state)."""
        pts, k = data
        seeds = random_seeds(pts, k, np.random.default_rng(2))
        result = lloyd(pts, seeds, max_iter=30)
        assert result.mse == pytest.approx(mse(pts, result.centroids), rel=1e-9)

    @given(data=points_and_k())
    @settings(max_examples=30, deadline=None)
    def test_one_more_lloyd_step_does_not_improve_converged_run(self, data):
        """A converged Lloyd run is a fixed point: re-running from its
        centroids cannot materially reduce the MSE."""
        pts, k = data
        seeds = random_seeds(pts, k, np.random.default_rng(3))
        first = lloyd(pts, seeds, max_iter=200)
        if not first.converged:
            return
        second = lloyd(pts, first.centroids, max_iter=200)
        assert second.mse <= first.mse + 1e-9
        assert first.mse - second.mse <= max(1e-6, 1e-6 * first.mse)

    @given(
        pts=st.integers(3, 30).flatmap(
            lambda n: st.integers(1, 3).flatmap(
                lambda d: arrays(
                    np.float64,
                    (n, d),
                    elements=st.integers(-50, 50).map(float),
                )
            )
        ),
        shift=st.integers(-50, 50).map(float),
    )
    @settings(max_examples=30, deadline=None)
    def test_translation_invariance_of_one_iteration(self, pts, shift):
        """One Lloyd iteration commutes with translation.

        Values are integer-valued floats so distances are exact and the
        translation cannot merge distinct values.  The check is limited
        to a single iteration deliberately: over many iterations,
        ULP-level rounding of centroid means (whose magnitude changes
        with the shift) can flip an exact assignment tie, after which
        the two runs legitimately converge to different local optima.
        Within one iteration the assignment is computed from exact
        integer distances, so the MSE must match tightly.
        """
        k = min(3, pts.shape[0])
        seeds = random_seeds(pts, k, np.random.default_rng(4))
        base = lloyd(pts, seeds, max_iter=1)
        moved = lloyd(pts + shift, seeds + shift, max_iter=1)
        assert moved.mse == pytest.approx(base.mse, abs=1e-6)
        np.testing.assert_allclose(
            moved.centroids, base.centroids + shift, atol=1e-9
        )


class TestSplitMergeProperties:
    @given(
        pts=point_arrays(min_rows=8, max_rows=60, max_cols=3),
        n_chunks=st.integers(2, 6),
    )
    @settings(max_examples=30, deadline=None)
    def test_split_is_a_partition(self, pts, n_chunks):
        n_chunks = min(n_chunks, pts.shape[0])
        chunks = split_into_chunks(pts, n_chunks, np.random.default_rng(0))
        stacked = np.vstack(chunks)
        assert stacked.shape == pts.shape
        # Same multiset of rows: compare sorted flattened representations.
        np.testing.assert_allclose(
            np.sort(stacked, axis=0), np.sort(pts, axis=0)
        )

    @given(
        pts=point_arrays(min_rows=10, max_rows=60, max_cols=3),
        n_chunks=st.integers(2, 5),
        k=st.integers(1, 4),
    )
    @settings(max_examples=25, deadline=None)
    def test_pipeline_conserves_point_mass(self, pts, n_chunks, k):
        n_chunks = min(n_chunks, pts.shape[0])
        report = PartialMergeKMeans(
            k=k, restarts=1, n_chunks=n_chunks, seed=0, max_iter=20
        ).fit(pts)
        assert report.model.weights.sum() == pytest.approx(pts.shape[0])

    @given(
        pts=point_arrays(min_rows=10, max_rows=50, max_cols=3),
        n_chunks=st.integers(2, 5),
    )
    @settings(max_examples=25, deadline=None)
    def test_partials_cover_every_point_once(self, pts, n_chunks):
        n_chunks = min(n_chunks, pts.shape[0])
        rng = np.random.default_rng(1)
        chunks = split_into_chunks(pts, n_chunks, rng)
        partials = [
            partial_kmeans(c, k=2, recipe=Recipe(restarts=1, max_iter=20), rng=rng)
            for c in chunks
        ]
        total = sum(p.summary.total_weight for p in partials)
        assert total == pytest.approx(pts.shape[0])

    @given(
        weights=arrays(
            np.float64,
            st.integers(2, 20),
            elements=st.floats(0.1, 1000.0),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_largest_weight_seeds_are_heaviest(self, weights):
        points = np.arange(weights.size, dtype=float).reshape(-1, 1)
        k = max(1, weights.size // 2)
        seeds = largest_weight_seeds(points, k, weights)
        chosen = {int(s) for s in seeds.ravel()}
        threshold = np.sort(weights)[-k]
        # Every non-chosen point must weigh at most every chosen one.
        for index, weight in enumerate(weights):
            if index not in chosen:
                assert weight <= threshold + 1e-12

    @given(
        pts=point_arrays(min_rows=6, max_rows=40, max_cols=3),
        k=st.integers(1, 4),
    )
    @settings(max_examples=25, deadline=None)
    def test_merge_preserves_center_of_mass(self, pts, k):
        rng = np.random.default_rng(2)
        n_chunks = min(3, pts.shape[0])
        chunks = split_into_chunks(pts, n_chunks, rng)
        partials = [
            partial_kmeans(c, k=2, recipe=Recipe(restarts=1, max_iter=20), rng=rng).summary
            for c in chunks
        ]
        merged = merge_kmeans(partials, k=k, max_iter=20)
        np.testing.assert_allclose(
            merged.model.mean(), pts.mean(axis=0), atol=1e-6
        )


class TestQualityProperties:
    @given(data=points_and_k())
    @settings(max_examples=40, deadline=None)
    def test_sse_monotone_in_centroid_count(self, data):
        """Adding a centroid can only reduce (or keep) the SSE."""
        pts, k = data
        rng = np.random.default_rng(3)
        fewer = random_seeds(pts, k, rng)
        more = np.vstack([fewer, pts[0:1] + 1.0])
        assert sse(pts, more) <= sse(pts, fewer) + 1e-9

    @given(pts=point_arrays())
    @settings(max_examples=40, deadline=None)
    def test_assignment_is_argmin(self, pts):
        centroids = pts[: min(3, pts.shape[0])]
        assignments, sq = assign_to_nearest(pts, centroids)
        d2 = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_allclose(sq, d2.min(axis=1), rtol=1e-9, atol=1e-9)
        assert (sq <= d2[np.arange(pts.shape[0]), 0] + 1e-12).all()

    @given(
        pts=point_arrays(min_rows=4),
        scale=st.floats(0.1, 10.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_mse_scales_quadratically(self, pts, scale):
        centroids = pts[:2]
        base = mse(pts, centroids)
        scaled = mse(pts * scale, centroids * scale)
        assert scaled == pytest.approx(base * scale**2, rel=1e-6, abs=1e-9)
