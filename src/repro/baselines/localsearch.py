"""STREAM/LOCALSEARCH-style streaming k-means (O'Callaghan et al. 2002).

The paper's closest related work: a one-pass streaming clusterer that
processes "as much data as can be fit in memory" per batch, retains each
batch's weighted centers, and — unlike partial/merge — compresses the
retained set *incrementally and hierarchically* whenever it grows past a
memory bound, rather than holding every partition's centroids for one
collective merge.  The paper's critique ("there is no merge step with
earlier results") corresponds to the information loss of these early,
irrevocable compressions; this implementation exists so the benchmarks can
measure that difference.

Structure (faithful to the STREAM framework, with Lloyd as the inner
``k``-clusterer in place of the paper's facility-location local search —
the retention/compression schedule, which is what distinguishes the
algorithms, is preserved):

1. read the stream in batches of ``batch_size`` points;
2. cluster each batch to ``k`` weighted centers (level-0 summary);
3. whenever more than ``retention_limit`` weighted centers are retained,
   re-cluster the retained centers themselves to ``k`` centers (level-up
   compression);
4. at end of stream, cluster whatever is retained to the final ``k``.
"""

from __future__ import annotations

import time
from typing import Iterable

import numpy as np

from repro.core.kmeans import DEFAULT_MAX_ITER
from repro.core.model import ClusterModel, WeightedCentroidSet, as_points
from repro.core.quality import mse as evaluate_mse
from repro.core.restarts import best_of_restarts
from repro.core.seeding import largest_weight_seeds
from repro.core.kmeans import lloyd

__all__ = ["StreamLocalSearch"]


class StreamLocalSearch:
    """One-pass streaming k-means in the STREAM/LOCALSEARCH mould.

    Args:
        k: number of output centers.
        batch_size: points per in-memory batch.
        retention_limit: maximum retained weighted centers before a
            hierarchical compression is forced.
        restarts: seed restarts for each batch clustering.
        max_iter: Lloyd cap for the inner k-means.
        seed: RNG seed.

    Example:
        >>> import numpy as np
        >>> from repro.baselines import StreamLocalSearch
        >>> data = np.random.default_rng(0).normal(size=(2000, 6))
        >>> algo = StreamLocalSearch(k=10, batch_size=500, seed=0)
        >>> model = algo.fit(data)
        >>> model.method
        'stream-localsearch'
    """

    def __init__(
        self,
        k: int,
        batch_size: int = 1_000,
        retention_limit: int | None = None,
        restarts: int = 3,
        max_iter: int = DEFAULT_MAX_ITER,
        seed: int | None = None,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.k = k
        self.batch_size = batch_size
        self.retention_limit = (
            retention_limit if retention_limit is not None else 4 * k
        )
        if self.retention_limit < k:
            raise ValueError("retention_limit must be >= k")
        self.restarts = restarts
        self.max_iter = max_iter
        self._rng = np.random.default_rng(seed)

    def fit(self, points: np.ndarray) -> ClusterModel:
        """Cluster a full array by streaming it in batches."""
        pts = as_points(points)
        batches = (
            pts[start : start + self.batch_size]
            for start in range(0, pts.shape[0], self.batch_size)
        )
        return self.fit_stream(batches, evaluate_on=pts)

    def fit_stream(
        self,
        batches: Iterable[np.ndarray],
        evaluate_on: np.ndarray | None = None,
    ) -> ClusterModel:
        """Cluster an iterable of point batches in one pass.

        Args:
            batches: point arrays; each must fit in memory.
            evaluate_on: optional raw data to score the final model on.
        """
        start = time.perf_counter()
        retained: list[WeightedCentroidSet] = []
        retained_count = 0
        compressions = 0
        n_batches = 0
        total_points = 0

        for batch in batches:
            batch_pts = as_points(batch)
            n_batches += 1
            total_points += batch_pts.shape[0]
            summary = self._cluster_points(batch_pts)
            retained.append(summary)
            retained_count += summary.k
            if retained_count > self.retention_limit:
                merged = self._compress(retained)
                retained = [merged]
                retained_count = merged.k
                compressions += 1

        if not retained:
            raise ValueError("fit_stream received no batches")
        final = self._compress(retained)
        elapsed = time.perf_counter() - start

        if evaluate_on is not None:
            final_mse = evaluate_mse(evaluate_on, final.centroids)
        else:
            final_mse = float("nan")
        return ClusterModel(
            centroids=final.centroids,
            weights=final.weights,
            mse=final_mse,
            method="stream-localsearch",
            partitions=n_batches,
            restarts=self.restarts,
            total_seconds=elapsed,
            extra={
                "compressions": compressions,
                "retention_limit": self.retention_limit,
                "points_seen": total_points,
            },
        )

    def _cluster_points(self, batch: np.ndarray) -> WeightedCentroidSet:
        """Level-0: cluster one raw batch to k weighted centers."""
        report = best_of_restarts(
            batch,
            self.k,
            self.restarts,
            self._rng,
            max_iter=self.max_iter,
        )
        return report.best.to_weighted_set(source="batch")

    def _compress(self, retained: list[WeightedCentroidSet]) -> WeightedCentroidSet:
        """Level-up: re-cluster retained weighted centers to k."""
        pooled = WeightedCentroidSet.concatenate(retained)
        if pooled.k <= self.k:
            return pooled
        seeds = largest_weight_seeds(pooled.centroids, self.k, pooled.weights)
        result = lloyd(
            pooled.centroids,
            seeds,
            weights=pooled.weights,
            max_iter=self.max_iter,
        )
        return result.to_weighted_set(source="compressed")
