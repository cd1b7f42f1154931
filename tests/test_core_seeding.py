"""Unit tests for repro.core.seeding."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.seeding import (
    distinct_random_seeds,
    kmeans_parallel_seeds,
    kmeans_plus_plus_seeds,
    largest_weight_seeds,
    random_seeds,
    resolve_strategy,
)


def _rows_in(points: np.ndarray, candidates: np.ndarray) -> bool:
    """Every row of ``candidates`` appears in ``points``."""
    return all(any(np.allclose(row, p) for p in points) for row in candidates)


class TestRandomSeeds:
    def test_seeds_are_data_points(self, rng, blobs_2d):
        seeds = random_seeds(blobs_2d, 5, rng)
        assert seeds.shape == (5, 2)
        assert _rows_in(blobs_2d, seeds)

    def test_no_replacement(self, rng):
        points = np.arange(10, dtype=float).reshape(-1, 1)
        seeds = random_seeds(points, 10, rng)
        assert len(np.unique(seeds)) == 10

    def test_k_clamped_to_n(self, rng):
        points = np.ones((3, 2))
        seeds = random_seeds(points, 10, rng)
        assert seeds.shape == (3, 2)

    def test_rejects_k_zero(self, rng):
        with pytest.raises(ValueError, match="k must be >= 1"):
            random_seeds(np.ones((3, 2)), 0, rng)

    def test_deterministic_given_seed(self, blobs_2d):
        a = random_seeds(blobs_2d, 4, np.random.default_rng(5))
        b = random_seeds(blobs_2d, 4, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_returns_copy(self, rng):
        points = np.arange(8, dtype=float).reshape(-1, 2)
        seeds = random_seeds(points, 2, rng)
        seeds[:] = -1
        assert (points >= 0).all()


class TestDistinctRandomSeeds:
    def test_duplicated_data_yields_distinct_seeds(self, rng):
        points = np.repeat(np.arange(5, dtype=float).reshape(-1, 1), 20, axis=0)
        seeds = distinct_random_seeds(points, 5, rng)
        assert len(np.unique(seeds)) == 5

    def test_falls_back_when_too_few_distinct(self, rng):
        points = np.vstack([np.zeros((10, 2)), np.ones((10, 2))])
        seeds = distinct_random_seeds(points, 5, rng)
        assert seeds.shape[0] == 5  # fallback samples with coincidences

    def test_normal_data_behaves_like_random(self, rng, blobs_2d):
        seeds = distinct_random_seeds(blobs_2d, 6, rng)
        assert seeds.shape == (6, 2)
        assert _rows_in(blobs_2d, seeds)


class TestLargestWeightSeeds:
    def test_picks_heaviest(self):
        points = np.arange(5, dtype=float).reshape(-1, 1)
        weights = np.array([1.0, 9.0, 3.0, 7.0, 5.0])
        seeds = largest_weight_seeds(points, 2, weights)
        np.testing.assert_allclose(sorted(seeds.ravel()), [1.0, 3.0])

    def test_tie_broken_by_input_order(self):
        points = np.arange(4, dtype=float).reshape(-1, 1)
        weights = np.array([2.0, 2.0, 2.0, 2.0])
        seeds = largest_weight_seeds(points, 2, weights)
        np.testing.assert_allclose(seeds.ravel(), [0.0, 1.0])

    def test_k_clamped(self):
        points = np.ones((2, 3))
        seeds = largest_weight_seeds(points, 5, np.array([1.0, 2.0]))
        assert seeds.shape == (2, 3)

    def test_deterministic(self):
        points = np.random.default_rng(0).normal(size=(30, 4))
        weights = np.random.default_rng(1).uniform(size=30)
        a = largest_weight_seeds(points, 7, weights)
        b = largest_weight_seeds(points, 7, weights)
        np.testing.assert_array_equal(a, b)


class TestKMeansPlusPlus:
    def test_shape_and_membership(self, rng, blobs_2d):
        seeds = kmeans_plus_plus_seeds(blobs_2d, 4, rng)
        assert seeds.shape == (4, 2)
        assert _rows_in(blobs_2d, seeds)

    def test_spreads_across_blobs(self, blobs_2d, blob_centers_2d):
        # With well-separated blobs, k-means++ should hit all four corners
        # almost always; check over a few trials.
        hits = 0
        for trial in range(5):
            seeds = kmeans_plus_plus_seeds(
                blobs_2d, 4, np.random.default_rng(trial)
            )
            assigned = {
                int(np.argmin(((blob_centers_2d - s) ** 2).sum(axis=1)))
                for s in seeds
            }
            hits += len(assigned) == 4
        assert hits >= 4

    def test_handles_all_identical_points(self, rng):
        points = np.ones((10, 2))
        seeds = kmeans_plus_plus_seeds(points, 3, rng)
        assert seeds.shape == (3, 2)

    def test_weight_aware(self, rng):
        points = np.array([[0.0], [100.0]])
        seeds = kmeans_plus_plus_seeds(
            points, 1, rng, weights=np.array([1e9, 1e-9])
        )
        assert seeds[0, 0] == 0.0


class TestKMeansParallelSeeds:
    def test_shape_and_membership(self, rng, blobs_2d):
        seeds = kmeans_parallel_seeds(blobs_2d, 4, rng)
        assert seeds.shape == (4, 2)
        assert _rows_in(blobs_2d, seeds)

    def test_spreads_across_blobs(self, blobs_2d, blob_centers_2d):
        hits = 0
        for trial in range(5):
            seeds = kmeans_parallel_seeds(
                blobs_2d, 4, np.random.default_rng(trial)
            )
            assigned = {
                int(np.argmin(((blob_centers_2d - s) ** 2).sum(axis=1)))
                for s in seeds
            }
            hits += len(assigned) == 4
        # The oversampled candidate pool covers every blob essentially
        # always; the reduction keeps one seed per blob.
        assert hits >= 4

    def test_deterministic_given_seed(self, blobs_2d):
        a = kmeans_parallel_seeds(blobs_2d, 6, np.random.default_rng(5))
        b = kmeans_parallel_seeds(blobs_2d, 6, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_k_clamped_to_n(self, rng):
        points = np.arange(6, dtype=float).reshape(-1, 1)
        seeds = kmeans_parallel_seeds(points, 50, rng)
        assert seeds.shape == (6, 1)

    def test_handles_all_identical_points(self, rng):
        points = np.ones((10, 2))
        seeds = kmeans_parallel_seeds(points, 3, rng)
        assert seeds.shape == (3, 2)

    def test_weight_aware(self, rng):
        points = np.array([[0.0], [100.0], [100.1]])
        seeds = kmeans_parallel_seeds(
            points, 1, rng, weights=np.array([1e9, 1e-9, 1e-9])
        )
        assert seeds[0, 0] == 0.0

    def test_rejects_bad_rounds_and_oversampling(self, rng, blobs_2d):
        with pytest.raises(ValueError, match="rounds"):
            kmeans_parallel_seeds(blobs_2d, 4, rng, rounds=0)
        with pytest.raises(ValueError, match="oversampling"):
            kmeans_parallel_seeds(blobs_2d, 4, rng, oversampling=0.0)

    def test_quality_beats_random_on_average(self, blobs_2d):
        """One k-means|| seed set should rival multi-restart random seeds
        (the property the restart-free shard path relies on)."""
        from repro.core.kmeans import lloyd

        def final_mse(seeds):
            return lloyd(blobs_2d, seeds).mse

        parallel = np.mean(
            [
                final_mse(
                    kmeans_parallel_seeds(
                        blobs_2d, 4, np.random.default_rng(t)
                    )
                )
                for t in range(5)
            ]
        )
        random = np.mean(
            [
                final_mse(random_seeds(blobs_2d, 4, np.random.default_rng(t)))
                for t in range(5)
            ]
        )
        assert parallel <= random * 1.05


class TestResolveStrategy:
    @pytest.mark.parametrize(
        "name", ["random", "distinct", "kmeans++", "kmeans||"]
    )
    def test_known_strategies(self, name):
        assert callable(resolve_strategy(name))

    def test_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown seeding strategy"):
            resolve_strategy("weights")


# The seeders' D² steps before they went through ``cdist``: kept here,
# verbatim, as the reference the cdist forms must reproduce bit for bit
# (below 8 dimensions, where numpy's sum over a row runs in order).


def _broadcast_kmeans_plus_plus(points, k, rng, weights=None):
    pts = np.ascontiguousarray(points, dtype=np.float64)
    n = pts.shape[0]
    wts = np.ones(n) if weights is None else np.asarray(weights, np.float64)
    kk = min(k, n)
    probs = wts / wts.sum()
    first = int(rng.choice(n, p=probs))
    seeds = [pts[first]]
    closest_sq = ((pts - pts[first]) ** 2).sum(axis=1)
    while len(seeds) < kk:
        mass = closest_sq * wts
        total = mass.sum()
        if total <= 0.0:
            remaining = kk - len(seeds)
            idx = rng.choice(n, size=remaining, replace=False)
            seeds.extend(pts[i] for i in idx)
            break
        nxt = int(rng.choice(n, p=mass / total))
        seeds.append(pts[nxt])
        closest_sq = np.minimum(closest_sq, ((pts - pts[nxt]) ** 2).sum(axis=1))
    return np.asarray(seeds, dtype=np.float64)


def _broadcast_kmeans_parallel(points, k, rng, weights=None, rounds=5):
    pts = np.ascontiguousarray(points, dtype=np.float64)
    n = pts.shape[0]
    wts = np.ones(n) if weights is None else np.asarray(weights, np.float64)
    kk = min(k, n)
    ell = 2.0 * kk
    probs = wts / wts.sum()
    first = int(rng.choice(n, p=probs))
    chosen = {first}
    closest_sq = ((pts - pts[first]) ** 2).sum(axis=1)
    for _ in range(rounds):
        cost = float((closest_sq * wts).sum())
        if cost <= 0.0:
            break
        p = np.minimum(1.0, ell * closest_sq * wts / cost)
        drawn = np.flatnonzero(rng.random(n) < p)
        fresh = [int(i) for i in drawn if int(i) not in chosen]
        if not fresh:
            continue
        chosen.update(fresh)
        dist_new = ((pts[None, :, :] - pts[fresh][:, None, :]) ** 2).sum(
            axis=2
        )
        closest_sq = np.minimum(closest_sq, dist_new.min(axis=0))
    candidates = np.array(sorted(chosen), dtype=np.intp)
    cand_pts = pts[candidates]
    if candidates.shape[0] <= kk:
        if candidates.shape[0] == kk:
            return cand_pts.copy()
        pool = np.setdiff1d(np.arange(n), candidates, assume_unique=True)
        extra = rng.choice(pool, size=kk - candidates.shape[0], replace=False)
        return np.concatenate([cand_pts, pts[extra]], axis=0)
    dist = ((pts[:, None, :] - cand_pts[None, :, :]) ** 2).sum(axis=2)
    owner = dist.argmin(axis=1)
    cand_wts = np.bincount(owner, weights=wts, minlength=candidates.shape[0])
    cand_wts = np.maximum(cand_wts, np.finfo(np.float64).tiny)
    return _broadcast_kmeans_plus_plus(cand_pts, kk, rng, weights=cand_wts)


def _seed_inputs():
    """(points, weights) cases: MISR-shaped cells, 2-D blobs, coincident."""
    from repro.data.generator import generate_cell_points

    cells = [
        generate_cell_points(3_000, seed=8, dim=6),
        generate_cell_points(700, seed=9, dim=7),
        np.random.default_rng(4).normal(scale=30.0, size=(500, 2)),
        # Three distinct values repeated: D² mass hits 0 before k seeds.
        np.repeat(np.array([[0.0, 1.0], [5.0, 5.0], [9.0, -3.0]]), 40, axis=0),
    ]
    for points in cells:
        weights = np.random.default_rng(points.shape[0]).uniform(
            0.25, 4.0, points.shape[0]
        )
        yield points, None
        yield points, weights


class TestSeedsMatchTheBroadcastFormulas:
    @pytest.mark.parametrize("case", range(8))
    def test_kmeans_plus_plus_bits(self, case):
        points, weights = list(_seed_inputs())[case]
        for k in (5, 40):
            got = kmeans_plus_plus_seeds(
                points, k, np.random.default_rng(case), weights=weights
            )
            want = _broadcast_kmeans_plus_plus(
                points, k, np.random.default_rng(case), weights=weights
            )
            assert got.tobytes() == want.tobytes()

    def test_coincident_points_take_the_fill_path(self):
        points = np.repeat(np.array([[0.0, 1.0], [5.0, 5.0]]), 10, axis=0)
        seeds = kmeans_plus_plus_seeds(points, 6, np.random.default_rng(1))
        assert seeds.shape == (6, 2)
        want = _broadcast_kmeans_plus_plus(points, 6, np.random.default_rng(1))
        assert seeds.tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", range(8))
    def test_kmeans_parallel_bits(self, case):
        points, weights = list(_seed_inputs())[case]
        for k in (5, 40):
            got = kmeans_parallel_seeds(
                points, k, np.random.default_rng(case), weights=weights
            )
            want = _broadcast_kmeans_parallel(
                points, k, np.random.default_rng(case), weights=weights
            )
            assert got.tobytes() == want.tobytes()
