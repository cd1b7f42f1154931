"""Serial k-means baseline — the paper's comparator.

"For the serial implementation, we loaded the complete grid cell into
(virtual) memory, and ran k-means until it converged" with R restart seed
sets, keeping the minimum-MSE representation.  The kernel is the same
:func:`repro.core.kmeans.lloyd` the partial/merge pipeline uses ("the code
for the serial and the partial k-means implementation are identical").
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.kmeans import DEFAULT_MAX_ITER
from repro.core.model import ClusterModel, as_points
from repro.core.restarts import best_of_restarts

__all__ = ["SerialKMeans"]


class SerialKMeans:
    """Whole-cell k-means with multi-restart, timed like the paper's runs.

    Args:
        k: number of centroids.
        restarts: random-seed restarts (the paper's ``R``; 10 in Section 5).
        seeding: seed strategy (paper: ``"random"``).
        max_iter: Lloyd iteration cap per restart.
        kernel: Lloyd assignment backend name (exact backends are a
            bit-identical performance knob; ``None`` consults
            ``REPRO_KMEANS_KERNEL``).
        seed: RNG seed.

    Example:
        >>> import numpy as np
        >>> from repro.baselines import SerialKMeans
        >>> data = np.random.default_rng(0).normal(size=(500, 6))
        >>> model = SerialKMeans(k=10, restarts=2, seed=0).fit(data)
        >>> model.method
        'serial'
    """

    def __init__(
        self,
        k: int,
        restarts: int = 10,
        seeding: str = "random",
        max_iter: int = DEFAULT_MAX_ITER,
        kernel: str | None = None,
        seed: int | None = None,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.restarts = restarts
        self.seeding = seeding
        self.max_iter = max_iter
        self.kernel = kernel
        self._rng = np.random.default_rng(seed)

    def fit(self, points: np.ndarray) -> ClusterModel:
        """Cluster the whole cell; returns the min-MSE model across restarts."""
        pts = as_points(points)
        start = time.perf_counter()
        report = best_of_restarts(
            pts,
            self.k,
            self.restarts,
            self._rng,
            seeding=self.seeding,
            max_iter=self.max_iter,
            kernel=self.kernel,
        )
        elapsed = time.perf_counter() - start
        best = report.best
        occupied = best.cluster_weights > 0
        return ClusterModel(
            centroids=best.centroids[occupied],
            weights=best.cluster_weights[occupied],
            mse=best.mse,
            method="serial",
            partitions=1,
            restarts=self.restarts,
            total_seconds=elapsed,
            extra={
                "iterations": report.iteration_counts,
                "restart_mses": report.mses,
                "best_restart": report.best_index,
                "kernel": best.kernel,
                "kernel_counters": (
                    report.counters.as_dict() if report.counters else None
                ),
            },
        )
