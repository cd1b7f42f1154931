"""Multi-restart driver: run k-means ``R`` times, keep the min-MSE run.

The paper runs both the serial algorithm and every partial step with ``R``
different random seed sets (R=10 in the experiments) and selects the
representation with the minimum mean square error.  The restarts are
independent once their seeds are drawn — the paper's Figure 2 "Method B:
one restart per processor" — so :func:`best_of_restarts` runs in three
steps: draw every seed set from ``rng`` (:func:`draw_seed_sets`), hand
them to a **runner** that returns one Lloyd result per seed set
(:func:`run_restarts` in-process by default; the stream engine's partial
pool spreads them over processes), and pick the winner in run order
(:func:`pick_best`).  ``lloyd`` consumes no randomness, so the seeds —
and with them every result — are the same whichever runner ran them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.kernels import KernelCounters, LloydKernel
from repro.core.kmeans import DEFAULT_MAX_ITER, lloyd
from repro.core.model import KMeansResult, as_points
from repro.core.seeding import resolve_strategy

__all__ = [
    "RestartReport",
    "RestartRunner",
    "best_of_restarts",
    "draw_seed_sets",
    "pick_best",
    "run_restarts",
]

#: ``runner(points, seed_sets, weights, max_iter, kernel)`` returns one
#: :class:`KMeansResult` per seed set, in seed-set order.
RestartRunner = Callable[..., list[KMeansResult]]


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


def draw_seed_sets(
    points: np.ndarray,
    k: int,
    restarts: int,
    rng: np.random.Generator,
    weights: np.ndarray | None = None,
    seeding: str = "random",
) -> list[np.ndarray]:
    """Draw ``restarts`` seed sets from ``rng``, in run order."""
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    seeder = resolve_strategy(seeding)
    if seeding in ("kmeans++", "kmeans||"):
        return [seeder(points, k, rng, weights=weights) for _ in range(restarts)]
    return [seeder(points, k, rng) for _ in range(restarts)]


def run_restarts(
    points: np.ndarray,
    seed_sets: Sequence[np.ndarray],
    weights: np.ndarray | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
    kernel: "str | LloydKernel | None" = None,
) -> list[KMeansResult]:
    """The in-process runner: one ``lloyd`` per seed set, one after another."""
    return [
        lloyd(points, seeds, weights=weights, max_iter=max_iter, kernel=kernel)
        for seeds in seed_sets
    ]


def pick_best(results: Sequence[KMeansResult]) -> RestartReport:
    """The first run with the strictly lowest MSE wins; counters are summed."""
    best_index = 0
    counters = KernelCounters()
    for run, result in enumerate(results):
        counters.merge(result.counters)
        if result.mse < results[best_index].mse:
            best_index = run
    return RestartReport(
        best=results[best_index],
        mses=[result.mse for result in results],
        iteration_counts=[result.iterations for result in results],
        best_index=best_index,
        counters=counters,
    )


def best_of_restarts(
    points: np.ndarray,
    k: int,
    restarts: int,
    rng: np.random.Generator,
    weights: np.ndarray | None = None,
    seeding: str = "random",
    max_iter: int = DEFAULT_MAX_ITER,
    kernel: "str | LloydKernel | None" = None,
    runner: RestartRunner | None = None,
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
        runner: runs the Lloyd calls (:data:`RestartRunner`); ``None`` is
            :func:`run_restarts`.  Every runner returns the same bits.

    Returns:
        A :class:`RestartReport` with the winning run and diagnostics.
    """
    pts = as_points(points)
    seed_sets = draw_seed_sets(pts, k, restarts, rng, weights, seeding)
    results = (runner or run_restarts)(pts, seed_sets, weights, max_iter, kernel)
    return pick_best(results)
