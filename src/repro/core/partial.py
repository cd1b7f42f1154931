"""Partial k-means: cluster one memory-sized partition into weighted centroids.

This is the paper's Step 2 (Section 3.2).  A partition ``P_j`` of a grid
cell — sized so that its points fit in available volatile memory — is
clustered with ``R`` random restarts; the minimum-MSE model is exported as a
set of weighted centroids ``{(c_1j, w_1j), ..., (c_kj, w_kj)}`` where
``w_ij`` counts the points assigned to ``c_ij``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.kernels import KernelCounters
from repro.core.model import WeightedCentroidSet, as_points
from repro.core.recipe import Recipe
from repro.core.restarts import RestartRunner, best_of_restarts

__all__ = ["PartialResult", "partial_kmeans"]


@dataclass(frozen=True)
class PartialResult:
    """Output of clustering one partition.

    Attributes:
        summary: the weighted centroid set exported to the merge step.
        mse: MSE of the winning restart *within the partition*.
        iterations: total Lloyd iterations across restarts (cost proxy).
        n_points: number of points in the partition.
        seconds: wall-clock spent clustering the partition.
        counters: kernel instrumentation aggregated across the restarts.
    """

    summary: WeightedCentroidSet
    mse: float
    iterations: int
    n_points: int
    seconds: float
    counters: KernelCounters | None = None


def partial_kmeans(
    partition: np.ndarray,
    k: int,
    recipe: Recipe,
    rng: np.random.Generator,
    source: str = "",
    runner: RestartRunner | None = None,
) -> PartialResult:
    """Cluster one partition and summarise it as weighted centroids.

    Args:
        partition: ``(m, d)`` points of one memory-sized chunk.
        k: centroids per partition (the paper uses the cell-level ``k``).
        recipe: the run's :class:`~repro.core.recipe.Recipe`: its
            ``restarts`` runs, seeded by ``seeding`` and capped at
            ``max_iter`` on ``kernel``; the min-MSE run is kept.
        rng: random generator for seed selection.
        source: label recorded on the output set (e.g. ``"P3"``).
        runner: runs the restarts' Lloyd calls (see
            :func:`~repro.core.restarts.best_of_restarts`); ``None`` runs
            them one after another on this thread.  Same bits either way.

    Returns:
        A :class:`PartialResult` whose ``summary`` weights sum to ``m``
        (every input point is represented exactly once).
    """
    pts = as_points(partition)
    start = time.perf_counter()
    report = best_of_restarts(
        pts,
        k,
        recipe.restarts,
        rng,
        seeding=recipe.seeding,
        max_iter=recipe.max_iter,
        kernel=recipe.kernel,
        runner=runner,
    )
    elapsed = time.perf_counter() - start
    summary = report.best.to_weighted_set(source=source)
    return PartialResult(
        summary=summary,
        mse=report.best.mse,
        iterations=report.total_iterations,
        n_points=pts.shape[0],
        seconds=elapsed,
        counters=report.counters,
    )
