"""Unit tests for the multi-restart driver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.kmeans import lloyd
from repro.core.restarts import (
    best_of_restarts,
    draw_seed_sets,
    pick_best,
    run_restarts,
)
from repro.core.seeding import resolve_strategy


class TestBestOfRestarts:
    def test_best_is_minimum_mse(self, blobs_2d, rng):
        report = best_of_restarts(blobs_2d, 4, restarts=5, rng=rng)
        assert report.best.mse == pytest.approx(min(report.mses))
        assert report.mses[report.best_index] == pytest.approx(report.best.mse)

    def test_records_one_entry_per_restart(self, blobs_2d, rng):
        report = best_of_restarts(blobs_2d, 4, restarts=7, rng=rng)
        assert len(report.mses) == 7
        assert len(report.iteration_counts) == 7

    def test_total_iterations_sums(self, blobs_2d, rng):
        report = best_of_restarts(blobs_2d, 4, restarts=3, rng=rng)
        assert report.total_iterations == sum(report.iteration_counts)

    def test_more_restarts_never_hurt(self, blobs_6d):
        few = best_of_restarts(
            blobs_6d, 8, restarts=1, rng=np.random.default_rng(0)
        )
        many = best_of_restarts(
            blobs_6d, 8, restarts=8, rng=np.random.default_rng(0)
        )
        # Same generator stream: the first run of `many` equals `few`'s
        # only run, so the min can only improve.
        assert many.best.mse <= few.best.mse + 1e-12

    def test_rejects_zero_restarts(self, blobs_2d, rng):
        with pytest.raises(ValueError, match="restarts"):
            best_of_restarts(blobs_2d, 4, restarts=0, rng=rng)

    def test_weighted_restarts(self, rng):
        points = np.array([[0.0], [1.0], [10.0], [11.0]])
        weights = np.array([5.0, 5.0, 1.0, 1.0])
        report = best_of_restarts(points, 2, restarts=4, rng=rng, weights=weights)
        assert report.best.cluster_weights.sum() == pytest.approx(12.0)

    def test_kmeans_plus_plus_strategy(self, blobs_2d, rng):
        report = best_of_restarts(
            blobs_2d, 4, restarts=2, rng=rng, seeding="kmeans++"
        )
        assert report.best.k == 4

    def test_unknown_strategy_raises(self, blobs_2d, rng):
        with pytest.raises(ValueError, match="unknown seeding"):
            best_of_restarts(blobs_2d, 4, restarts=1, rng=rng, seeding="bogus")


def _interleaved_reference(points, k, restarts, rng, weights, seeding):
    """Seed one restart, run it, then seed the next, in one loop."""
    seeder = resolve_strategy(seeding)
    results = []
    for _ in range(restarts):
        if seeding in ("kmeans++", "kmeans||"):
            seeds = seeder(points, k, rng, weights=weights)
        else:
            seeds = seeder(points, k, rng)
        results.append(lloyd(points, seeds, weights=weights, max_iter=40))
    best_index = 0
    for run, result in enumerate(results):
        if result.mse < results[best_index].mse:
            best_index = run
    return results, best_index


class TestSeedsDrawnUpFront:
    """``lloyd`` draws no randomness, so drawing every seed set first
    gives the interleaved loop's seeds, results and winner, bit for bit,
    and leaves the generator in the same state."""

    @pytest.mark.parametrize("restarts", [1, 3, 5])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize(
        "seeding", ["random", "distinct", "kmeans++", "kmeans||"]
    )
    def test_same_bits_as_interleaved_loop(
        self, blobs_6d, seeding, weighted, restarts
    ):
        weights = (
            np.random.default_rng(2).uniform(0.5, 2.0, size=blobs_6d.shape[0])
            if weighted
            else None
        )
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        expected, expected_best = _interleaved_reference(
            blobs_6d, 5, restarts, rng_a, weights, seeding
        )
        report = best_of_restarts(
            blobs_6d,
            5,
            restarts,
            rng_b,
            weights=weights,
            seeding=seeding,
            max_iter=40,
        )
        assert report.best_index == expected_best
        winner = expected[expected_best]
        assert report.best.centroids.tobytes() == winner.centroids.tobytes()
        assert report.mses == [result.mse for result in expected]
        assert report.iteration_counts == [result.iterations for result in expected]
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_three_steps_compose_to_best_of_restarts(self, blobs_2d):
        seed_sets = draw_seed_sets(blobs_2d, 4, 4, np.random.default_rng(5))
        report = pick_best(run_restarts(blobs_2d, seed_sets))
        whole = best_of_restarts(blobs_2d, 4, 4, np.random.default_rng(5))
        assert report.best.centroids.tobytes() == whole.best.centroids.tobytes()
        assert report.best_index == whole.best_index
        assert (
            report.counters.distance_evals_computed
            == whole.counters.distance_evals_computed
        )

    def test_ties_go_to_the_earliest_run(self, blobs_2d):
        seed_sets = draw_seed_sets(blobs_2d, 4, 1, np.random.default_rng(0))
        result = run_restarts(blobs_2d, seed_sets)[0]
        assert pick_best([result, result, result]).best_index == 0

    def test_runner_receives_every_seed_set(self, blobs_2d):
        seen = []

        def runner(points, seed_sets, weights, max_iter, kernel):
            seen.append(len(seed_sets))
            return run_restarts(points, seed_sets, weights, max_iter, kernel)

        report = best_of_restarts(
            blobs_2d, 4, 3, np.random.default_rng(1), runner=runner
        )
        assert seen == [3]
        assert len(report.mses) == 3
