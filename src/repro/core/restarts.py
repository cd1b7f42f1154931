"""Multi-restart driver: run k-means ``R`` times, keep the min-MSE run.

The paper runs both the serial algorithm and every partial step with ``R``
different random seed sets (R=10 in the experiments) and selects the
representation with the minimum mean square error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.kernels import KernelCounters, LloydKernel
from repro.core.kmeans import DEFAULT_MAX_ITER, lloyd
from repro.core.model import KMeansResult, as_points
from repro.core.seeding import resolve_strategy

__all__ = ["RestartReport", "best_of_restarts"]


@dataclass(frozen=True)
class RestartReport:
    """Best run plus per-restart diagnostics.

    Attributes:
        best: the minimum-MSE :class:`KMeansResult` across restarts.
        mses: MSE of each restart, in run order.
        iteration_counts: Lloyd iterations of each restart.
        best_index: index of the winning restart.
        counters: kernel instrumentation aggregated over all restarts.
    """

    best: KMeansResult
    mses: list[float] = field(default_factory=list)
    iteration_counts: list[int] = field(default_factory=list)
    best_index: int = 0
    counters: KernelCounters | None = None

    @property
    def total_iterations(self) -> int:
        """Sum of Lloyd iterations over all restarts (cost proxy)."""
        return sum(self.iteration_counts)


def best_of_restarts(
    points: np.ndarray,
    k: int,
    restarts: int,
    rng: np.random.Generator,
    weights: np.ndarray | None = None,
    seeding: str = "random",
    max_iter: int = DEFAULT_MAX_ITER,
    kernel: "str | LloydKernel | None" = None,
) -> RestartReport:
    """Run ``restarts`` independent k-means and keep the lowest-MSE model.

    Args:
        points: ``(n, d)`` data to cluster.
        k: requested number of centroids (clamped to ``n`` by the seeder).
        restarts: number of independent runs (the paper's ``R``).
        rng: random generator driving seed selection.
        weights: optional point weights, forwarded to the kernel.
        seeding: seed strategy name (``"random"``, ``"distinct"``,
            ``"kmeans++"``, ``"kmeans||"``).
        max_iter: per-run iteration cap.
        kernel: assignment backend name or instance, forwarded to
            :func:`~repro.core.kmeans.lloyd` for every restart.

    Returns:
        A :class:`RestartReport` with the winning run and diagnostics.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    pts = as_points(points)
    seeder = resolve_strategy(seeding)

    best: KMeansResult | None = None
    best_index = 0
    mses: list[float] = []
    iteration_counts: list[int] = []
    counters = KernelCounters()

    for run in range(restarts):
        if seeding in ("kmeans++", "kmeans||"):
            seeds = seeder(pts, k, rng, weights=weights)
        else:
            seeds = seeder(pts, k, rng)
        result = lloyd(
            pts, seeds, weights=weights, max_iter=max_iter, kernel=kernel
        )
        mses.append(result.mse)
        iteration_counts.append(result.iterations)
        counters.merge(result.counters)
        if best is None or result.mse < best.mse:
            best = result
            best_index = run

    assert best is not None  # restarts >= 1
    return RestartReport(
        best=best,
        mses=mses,
        iteration_counts=iteration_counts,
        best_index=best_index,
        counters=counters,
    )
